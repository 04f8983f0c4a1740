"""Acceptance gate: the twelve certified criteria, one pass/fail line each.

Each criterion pins its tolerance as a literal here, independently of the
tolerance constants in ``wittengap.cli``, so loosening one of them cannot
quietly loosen the gate.  The gate reads the reports of ``run_suite`` at
the default (certified) resolutions, the same reports the verify-all
command writes.
"""

import math
import multiprocessing

import pytest

import wittengap.bounds as bounds
from wittengap.cli import HEIGHT_COEFFICIENTS, run_suite


def announce(capsys, num: int, ok: bool, text: str) -> None:
    # capture is fd-level, so temporarily disable it for the gate summary
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {text}", flush=True)


@pytest.fixture(scope="module")
def suite():
    """The certified reports, and how many grid values the s-grid oracle reduced.

    The count is shared memory, so the sweep's forked workers, which
    inherit the patched ``_block_max``, add their blocks to it too.
    """
    points = multiprocessing.Value("q", 0)
    block_max = bounds._block_max

    def counting_block_max(values):
        with points.get_lock():
            points.value += values.size
        return block_max(values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_block_max", counting_block_max)
        reports = {r.case_id: r for r in run_suite()}
    return reports, points.value


@pytest.fixture(scope="module")
def reports(suite):
    return suite[0]


@pytest.fixture(scope="module")
def rep_bounds(reports):
    return reports["bounds-closed-vs-grid"]


@pytest.fixture(scope="module")
def rep_constants(reports):
    return reports["soliton-constants"]


@pytest.fixture(scope="module")
def rep_comparison(reports):
    return reports["ou-comparison-grid"]


@pytest.fixture(scope="module")
def rep_circles(reports):
    return [reports[f"circle-spectrum-r={radius:g}"] for radius in (1.0, 2.0)]


@pytest.fixture(scope="module")
def rep_sphere(reports):
    return reports["sphere-round"]


@pytest.fixture(scope="module")
def rep_heights(reports):
    return [reports[f"sphere-height-a={a:g}"] for a in HEIGHT_COEFFICIENTS]


@pytest.fixture(scope="module")
def rep_shift(reports):
    return reports["weight-shift-invariance"]


@pytest.fixture(scope="module")
def rep_circle_shrinker(reports):
    return reports["shrinker-circle"]


@pytest.fixture(scope="module")
def rep_rosette(reports):
    return reports["shrinker-rosette-2-3"]


@pytest.fixture(scope="module")
def rep_gaussian(reports):
    return reports["gaussian-soliton"]


def test_criterion_01_closed_form_vs_grid(capsys, rep_bounds):
    worst = rep_bounds.computed["max_rel_diff"]
    ok = worst <= 1e-6
    announce(
        capsys,
        1,
        ok,
        "closed form vs 10^6-point s-grid on the 50x50 (K, d) sweep, "
        f"worst rel diff {worst:.3e} (tol 1e-6, worst cell K={rep_bounds.computed['argmax_K']:g}, "
        f"d={rep_bounds.computed['argmax_d']:g})",
    )
    assert ok
    assert rep_bounds.passed


def test_criterion_01_evaluates_every_grid_point(suite):
    # the sweep shares one pass over the grid among the 50x50 pairs, and
    # still reduces 10^6 values for each of them
    assert suite[1] == 50 * 50 * 10**6


def test_criterion_02_branch_continuity(capsys, rep_bounds):
    low = rep_bounds.computed["branch_low_mid_defect"]
    high = rep_bounds.computed["branch_mid_high_defect"]
    ok = low <= 1e-12 and high <= 1e-12
    announce(
        capsys,
        2,
        ok,
        f"branch agreement at K d^2 = -4 pi^2 ({low:.3e}) and +4 pi^2 ({high:.3e}), tol 1e-12",
    )
    assert ok


def test_criterion_03_flat_exactness_and_convergence(capsys, rep_comparison):
    exact = rep_comparison.computed["exactness_worst_rel"]
    r_min = rep_comparison.computed["convergence_ratio_min"]
    r_max = rep_comparison.computed["convergence_ratio_max"]
    ok = exact <= 1e-6 and 3.5 <= r_min and r_max <= 4.5
    announce(
        capsys,
        3,
        ok,
        f"flat-drift eigenvalues within {exact:.3e} of pi^2/d^2 (tol 1e-6); "
        f"mesh-doubling error ratios in [{r_min:.3f}, {r_max:.3f}] (need [3.5, 4.5])",
    )
    assert ok


def test_criterion_04_neumann_dirichlet_shift(capsys, rep_comparison):
    worst = rep_comparison.computed["shift_worst_rel"]
    ok = worst <= 1e-4
    announce(
        capsys,
        4,
        ok,
        f"|lambda_N - K - lambda_D| <= {worst:.3e} * max(1, lambda_N) on the 7x5 grid (tol 1e-4)",
    )
    assert ok


def test_criterion_05_comparison_inequality(capsys, rep_comparison):
    margin = rep_comparison.computed["comparison_min_rel"]
    flat = rep_comparison.computed["flat_equality_worst_rel"]
    ok = margin >= -1e-5 and flat <= 1e-5
    announce(
        capsys,
        5,
        ok,
        f"lambda_1 dominates the closed-form bound (min rel margin {margin:+.3e}, tol -1e-5); "
        f"equality at K = 0 within {flat:.3e} (tol 1e-5)",
    )
    assert ok


def test_criterion_06_circle_spectrum(capsys, rep_circles):
    rels = [
        max(-rep.margins["lambda1_vs_curvature"], -rep.margins["flat_interval_equality"])
        for rep in rep_circles
    ]
    worst = max(rels)
    ok = worst <= 1e-4
    announce(
        capsys,
        6,
        ok,
        "circle lambda_1 vs 1/r^2 and pi^2/d^2 at n = 1000, r in {1, 2}: "
        f"worst rel diff {worst:.3e} (tol 1e-4)",
    )
    assert ok


def test_criterion_07_sphere_spectrum(capsys, rep_sphere, rep_heights):
    rel = -rep_sphere.margins["lambda1_vs_two"]
    cluster = rep_sphere.computed["cluster_size"]
    height_margins = [rep.margins["gap_vs_sup_closed"] for rep in rep_heights]
    worst_margin = min(height_margins)
    ok = rel <= 1e-2 and cluster == 3.0 and worst_margin >= -1e-2
    announce(
        capsys,
        7,
        ok,
        f"icosphere lambda_1 within {rel:.3e} of 2 (tol 1e-2) with cluster size {cluster:g}; "
        "height weights a in {0, 0.3, 0.5, 0.9} clear the closed-form bound by "
        f">= {worst_margin:+.4f} (tol -1e-2)",
    )
    assert ok
    assert all(rep.passed for rep in rep_heights)


def test_criterion_08_weight_shift_invariance(capsys, rep_shift):
    worst = max(-rep_shift.margins["shift_up"], -rep_shift.margins["shift_down"])
    ok = worst <= 1e-12
    announce(
        capsys,
        8,
        ok,
        f"lambda_1 invariant under phi -> phi + c to {worst:.3e} relative (tol 1e-12)",
    )
    assert ok


def test_criterion_09_circle_shrinker(capsys, rep_circle_shrinker):
    rep = rep_circle_shrinker
    radius = rep.computed["radius_defect"]
    residual = rep.computed["residual"]
    phi_sup = rep.computed["phi_sup"]
    ok = radius <= 1e-10 and residual <= 1e-12 and phi_sup <= 1e-14
    announce(
        capsys,
        9,
        ok,
        f"circle shrinker: radius defect {radius:.3e} (tol 1e-10), "
        f"equation residual {residual:.3e} (tol 1e-12), sup |phi| {phi_sup:.3e} (tol 1e-14)",
    )
    assert ok


def test_criterion_10_rosette(capsys, rep_rosette):
    rep = rep_rosette
    closure = rep.computed["closure_residual"]
    drift = rep.computed["first_integral_drift"]
    mc = rep.computed["mc_identity_residual"]
    eigen = rep.computed["eigen_identity_fine"]
    ratio = rep.computed["refinement_ratio"]
    d_margin = rep.margins["d_vs_bound_half"]
    ok = (
        closure <= 1e-6
        and drift <= 1e-6
        and mc <= 1e-4
        and eigen <= 5e-3
        and 8.0 <= ratio <= 32.0
        and d_margin >= 0.0
    )
    announce(
        capsys,
        10,
        ok,
        f"(2,3) rosette: closure {closure:.3e} (tol 1e-6), first-integral drift {drift:.3e} "
        f"(tol 1e-6), curvature identity {mc:.3e} (tol 1e-4), eigen identity {eigen:.3e} "
        f"(tol 5e-3) refining at ratio {ratio:.1f} (order 2), diameter margin {d_margin:+.4f}",
    )
    assert ok


def test_criterion_11_gaussian_soliton(capsys, rep_gaussian):
    fd = rep_gaussian.computed["fd_worst"]
    ok = fd <= 1e-6
    announce(
        capsys,
        11,
        ok,
        f"flat-model eigenfunction identity: finite-difference residual {fd:.3e} (tol 1e-6)",
    )
    assert ok


def test_criterion_12_constant_ledger(capsys, rep_constants):
    rep = rep_constants
    order1 = rep.margins["ordering_sup_vs_half"]
    order2 = rep.margins["ordering_half_vs_fixed"]
    g_defect = -rep.margins["g_max_grid_defect"]
    s_star = rep.computed["s_star_grid"]
    s_exact = 2.0 - math.sqrt(2.0)
    ok = order1 > 0.0 and order2 > 0.0 and g_defect <= 1e-12 and abs(s_star - s_exact) <= 1e-5
    announce(
        capsys,
        12,
        ok,
        f"2(sqrt(2)-1) > sqrt(2/3) > 10/13 (gaps {order1:.4f}, {order2:.4f}); grid max of "
        f"4s(1-s)/(2-s) within {g_defect:.3e} of 12 - 8 sqrt(2) (tol 1e-12) near s = 2 - sqrt(2)",
    )
    assert ok


def test_default_suite_all_cases_pass(capsys, reports):
    # every report the verify-all command writes, at the same defaults
    ids = list(reports)
    failing = [cid for cid, r in reports.items() if not r.passed]
    ok = len(reports) == 14 and len(set(ids)) == 14 and not failing
    with capsys.disabled():
        print(
            f"{'PASS' if ok else 'FAIL'} suite: {len(reports) - len(failing)}/{len(reports)} "
            f"certified cases green"
            f"{'' if not failing else ' (failing: ' + ', '.join(failing) + ')'}",
            flush=True,
        )
    assert ok
