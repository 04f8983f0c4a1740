"""Closed shrinker curves: the half-period root-find, conserved quantities, identity checks."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wittengap.shrinkers as shrinkers
from wittengap.cli import case_rosette
from wittengap.shrinkers import (
    assemble_rosette,
    circle_shrinker,
    curve_complex,
    eigen_identity_residual,
    find_abresch_langer,
    first_integral,
    gaussian_soliton_check,
    k0_and_diameter,
    mean_curvature_identity_residual,
    potential_phi,
    write_curve_csv,
)

# frozen rosette values at the default 4096-point budget
R23_R0 = 0.31318043
R23_K_MAX = 1.93359707
R23_LENGTH = 14.93549255
R35_R0 = 0.06486101
R35_K_MAX = 2.73653192
R35_LENGTH = 30.50308283
# lam = 4 scaling of the (2, 3) rosette: lengths halve, curvatures double
R23_LAM4_R0 = 0.15659022
R23_LAM4_LENGTH = 7.46774628
R23_LAM4_K_MAX = 3.86719414


@pytest.fixture(scope="module")
def rosette23():
    return find_abresch_langer(1.0, 2, 3)


@pytest.fixture(scope="module")
def rosette35():
    return find_abresch_langer(1.0, 3, 5)


def test_circle_exact_values():
    curve = circle_shrinker(4.0, 256)
    # radius 1/sqrt(4) and curvature lam * r are exact in float
    assert np.abs(curve.radii - 0.5).max() <= 1e-16
    assert np.all(curve.curvatures == 2.0)
    assert curve.closure_residual == 0.0
    assert curve.residual() <= 1e-14
    assert curve.length == pytest.approx(math.pi, rel=1e-15)
    assert np.abs(potential_phi(curve)).max() <= 1e-14


def test_circle_curvature_diameter():
    curve = circle_shrinker(1.0, 512)
    kd = k0_and_diameter(curve)
    assert kd.K0 == pytest.approx(1.0, abs=1e-14)
    assert kd.d == pytest.approx(math.pi, rel=1e-15)


def test_integrator_reproduces_circle():
    # starting on the circle radius, the trajectory stays there; the
    # curvature is sqrt(lam) = 1/rc, so an arclength of 6.284 rc turns past 2 pi
    lam = 2.0
    rc = 1.0 / math.sqrt(lam)
    xs1, xs2, _ = shrinkers._integrate(lam, rc, 6.284 * rc, 6284)
    assert np.abs(np.hypot(xs1, xs2) - rc).max() <= 1e-9


@given(
    lam=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    c=st.floats(min_value=0.25, max_value=0.9, allow_nan=False),
)
@settings(max_examples=10, deadline=None)
def test_first_integral_conserved_along_trajectories(lam, c):
    # k exp(-lam |x|^2 / 2) is constant on every solution; the curvature
    # starts at its minimum lam r0, so an arclength of 2 / (lam r0) turns
    # the tangent by > 2
    r0 = c / math.sqrt(lam)
    n_steps = math.ceil(2000.0 / c**2)
    xs1, xs2, ths = shrinkers._integrate(lam, r0, 1e-3 * r0 * n_steps, n_steps)
    assert ths[-1] - ths[0] > 2.0
    curvatures = shrinkers._curvature_of(lam, xs1, xs2, ths)
    fi = first_integral(lam, np.column_stack([xs1, xs2]), curvatures)
    assert fi.max() - fi.min() <= 1e-9 * abs(fi[0])


def test_rosette_23_frozen_values(rosette23):
    curve = rosette23
    assert curve.n_points == 4098
    assert (curve.rotation_p, curve.petals_q) == (2, 3)
    assert curve.closure_residual <= 1e-9
    assert curve.residual() <= 1e-12
    r_min = curve.radii.min()
    assert r_min == pytest.approx(R23_R0, abs=1e-6)
    k_min, k_max = curve.curvatures.min(), curve.curvatures.max()
    assert k_max == pytest.approx(R23_K_MAX, abs=1e-6)
    assert curve.length == pytest.approx(R23_LENGTH, abs=1e-5)
    # curvature equals lam |x| at the radial extrema, so k_min = lam r_min
    assert k_min == pytest.approx(curve.lam * r_min, rel=1e-9)
    # the curvature range straddles the circle value sqrt(lam)
    assert k_min < math.sqrt(curve.lam) < k_max
    fi = first_integral(curve.lam, curve.points, curve.curvatures)
    assert fi.max() - fi.min() <= 1e-12


def test_rosette_35_frozen_values(rosette35):
    curve = rosette35
    assert curve.n_points == 4100
    assert curve.closure_residual <= 1e-9
    assert curve.radii.min() == pytest.approx(R35_R0, abs=1e-6)
    assert curve.curvatures.max() == pytest.approx(R35_K_MAX, abs=1e-6)
    assert curve.length == pytest.approx(R35_LENGTH, abs=1e-5)


def test_rosette_scaling_in_lam():
    curve = find_abresch_langer(4.0, 2, 3)
    assert curve.radii.min() == pytest.approx(R23_LAM4_R0, abs=1e-6)
    assert curve.length == pytest.approx(R23_LAM4_LENGTH, abs=1e-5)
    assert curve.curvatures.max() == pytest.approx(R23_LAM4_K_MAX, abs=1e-6)


def test_fixed_bracket_needs_one_brent_run():
    log = []
    curve = find_abresch_langer(1.0, 2, 3, n_points=512, log=log)
    assert curve.closure_residual <= 1e-8
    assert [entry["iteration"] for entry in log] == list(range(len(log)))
    lo, hi = shrinkers._TURNING_BRACKET
    assert [log[0]["r0"], log[1]["r0"]] == [lo, hi]
    assert all(lo <= entry["r0"] <= hi for entry in log)
    # one Brent run, not a 46-step bisection
    assert len(log) <= 16


def test_root_find_integrates_nothing_and_repeats_no_quadrature(monkeypatch):
    # Brent's evaluations are quadratures only; the single RK4 integration
    # is the assembly after the root-find
    log, quadratures, integrations = [], [], []
    half_period, integrate = shrinkers._half_period, shrinkers._integrate

    def counted_half_period(a, rule):
        quadratures.append(a)
        return half_period(a, rule)

    def counted_integrate(*args):
        integrations.append(len(log))
        return integrate(*args)

    monkeypatch.setattr(shrinkers, "_half_period", counted_half_period)
    monkeypatch.setattr(shrinkers, "_integrate", counted_integrate)
    find_abresch_langer(1.0, 2, 3, log=log)
    # one quadrature per Brent evaluation, then one for the root's arclength
    assert len(quadratures) == len(log) + 1
    assert len(set(quadratures[:-1])) == len(log)
    assert quadratures[-1] in quadratures[:-1]
    assert integrations == [len(log)]


# every admissible (p, q) with q <= 15
ADMISSIBLE_PAIRS = [
    (p, q)
    for q in range(3, 16)
    for p in range(2, q)
    if math.gcd(p, q) == 1 and 0.5 < p / q < math.sqrt(2.0) / 2.0
]


def test_brent_port_takes_the_iterates_of_scipys_brentq(monkeypatch):
    # both roots, the turning point b inside each half-period and the
    # closure root, are found by the port and by scipy from the same
    # function: the trial points and the root must agree bit for bit
    from scipy.optimize import brentq

    port, runs = shrinkers._brentq, []

    def traced(f, trials):
        def g(x):
            trials.append(x)
            return f(x)

        return g

    def both(f, xa, xb, xtol):
        ours, theirs = [], []
        root = port(traced(f, ours), xa, xb, xtol)
        assert brentq(traced(f, theirs), xa, xb, xtol=xtol) == root
        assert ours == theirs
        runs.append(len(ours))
        return root

    monkeypatch.setattr(shrinkers, "_brentq", both)
    for p, q in ADMISSIBLE_PAIRS:
        find_abresch_langer(1.0, p, q, n_points=64)
    # one closure run per pair, and a turning-point run per evaluation
    assert len(ADMISSIBLE_PAIRS) == 14 and len(runs) > 14 * 10


def test_rk4_nodes_match_a_dop853_solve():
    # the fundamental arc of every admissible pair at its default node
    # count, against scipy's DOP853 at rtol 3e-14: the worst node differs
    # by 1.75e-12, in the angle of the (8, 15) arc
    from scipy.integrate import solve_ivp

    def rhs(_s, y):
        c, s = math.cos(y[2]), math.sin(y[2])
        return [c, s, y[0] * s - y[1] * c]

    for p, q in ADMISSIBLE_PAIRS:
        arc = find_abresch_langer(1.0, p, q, n_points=64).arc
        J = round(4096 / (2 * q))
        nodes = np.linspace(0.0, arc.length, J + 1)
        reference = solve_ivp(
            rhs, (0.0, arc.length), [arc.r0, 0.0, 0.5 * math.pi], method="DOP853",
            t_eval=nodes, rtol=3e-14, atol=1e-16,
        )
        assert reference.success
        states = shrinkers._integrate(1.0, arc.r0, arc.length, J)
        assert np.abs(states - reference.y).max() <= 2.5e-12, (p, q)


def test_pair_outside_the_bracket_is_rejected():
    # p/q = 16/31 needs a half-period below the one at sqrt(lam) r0 = 1e-6
    with pytest.raises(ValueError, match="same sign at both bracket ends"):
        find_abresch_langer(1.0, 16, 31)


def test_half_period_is_monotone_between_its_limits():
    rule = shrinkers._angle_rule(shrinkers._QUAD_NODES)
    lo, hi = shrinkers._TURNING_BRACKET
    advance = [shrinkers._half_period(a, rule)[0] for a in np.linspace(lo, hi, 450)]
    assert np.all(np.diff(advance) > 0.0)
    # every admissible p/q with q <= 15 lies inside the bracket's range
    pairs = [(p, q) for q in range(3, 16) for p in range(2, q) if math.gcd(p, q) == 1]
    admissible = [p / q for p, q in pairs if 0.5 < p / q < math.sqrt(2.0) / 2.0]
    assert len(admissible) == 14
    assert advance[0] < math.pi * min(admissible) < math.pi * max(admissible) < advance[-1]
    # pi/2 as a -> 0, slowly (about 0.76 / ln(1/a)), and pi/sqrt(2) as
    # a -> 1, with a defect of 1.85 (1 - a)^2
    deep = shrinkers._half_period(1e-300, rule)[0] - math.pi / 2.0
    assert 0.0 < deep < 2e-3
    shallow = math.pi / math.sqrt(2.0) - shrinkers._half_period(1.0 - 1e-5, rule)[0]
    assert 0.0 < shallow < 1e-10


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (4, 7), (5, 9)])
def test_half_period_quadrature_is_converged(p, q):
    arc = find_abresch_langer(1.0, p, q, n_points=64).arc
    base = shrinkers._half_period(arc.r0, shrinkers._angle_rule(shrinkers._QUAD_NODES))
    doubled = shrinkers._half_period(arc.r0, shrinkers._angle_rule(2 * shrinkers._QUAD_NODES))
    assert base[0] == pytest.approx(math.pi * p / q, abs=1e-14)
    assert abs(doubled[0] - base[0]) < 1e-13
    assert abs(doubled[1] - base[1]) < 1e-13 * base[1]
    assert base[1] == arc.length


def test_arc_matches_the_rk4_shooting():
    # (2, 3) fundamental arc from Brent's method on RK4 shots at step
    # 1e-3 r0 with Newton landing on the stopping angle
    arc = find_abresch_langer(1.0, 2, 3, n_points=64).arc
    assert arc.r0 == pytest.approx(0.31318043380846955, rel=1e-12)
    assert arc.length == pytest.approx(2.4892487587150676, rel=1e-12)


# the (2, 3) rosette's curve-residual note at each scale; at lam = 1 it
# reads 1.887e-15
CURVE_RESIDUAL_NOTES = {
    1e-300: "curve residual 1.899e-15",
    1e-14: "curve residual 2.118e-15",
    2000.0: "curve residual 2.065e-15",
    1e6: "curve residual 2.046e-15",
    1e300: "curve residual 1.817e-15",
}


@pytest.mark.parametrize("lam", [1e-300, 1e-14, 2000.0, 1e6, 1e300])
def test_rosette_margins_do_not_depend_on_scale(rosette23, lam):
    # every gate is dimensionless: the curve at lam is the lam = 1 curve
    # scaled, so each margin moves at round-off only
    unit = case_rosette(4096, rosette23)
    scaled = case_rosette(4096, find_abresch_langer(lam, 2, 3))
    for name, margin in unit.margins.items():
        assert scaled.margins[name] == pytest.approx(margin, rel=1e-4, abs=1e-11), name
    # so is the curve-residual note; it is itself a few eps, so its scaled
    # value moves in the leading digits, and each scale's is pinned: without
    # its 1/sqrt(lam) it would read 2e-22 at lam = 1e-14 and 8e-14 at 2000
    assert unit.notes[-1] == "curve residual 1.887e-15"
    assert scaled.notes[-1] == CURVE_RESIDUAL_NOTES[lam]


@pytest.mark.parametrize("n_points, lam", [(1000, 1e-320), (1000, 1e303), (16, 1e307)])
def test_circle_out_of_float_range_is_refused_by_name(n_points, lam):
    with pytest.raises(ValueError, match=r"lam = .* is outside \[.*\], where this curve"):
        circle_shrinker(lam, n_points)



@pytest.mark.parametrize("n_points", [100.5, 100.0, True, "100"])
def test_circle_point_count_must_be_an_integer(n_points):
    # 100.5 died inside numpy with a TypeError
    message = re.escape(f"n_points must be an integer, got {n_points!r}")
    with pytest.raises(ValueError, match=message):
        circle_shrinker(1.0, n_points)
    # a numpy integer is an integer
    curve = circle_shrinker(1.0, np.int64(100))
    assert np.array_equal(curve.points, circle_shrinker(1.0, 100).points)


@pytest.mark.parametrize("n_points", [1000.5, 1000.0, True, "1000"])
def test_rosette_node_count_must_be_an_integer(rosette23, n_points):
    # 1000.5 assembled 1002 nodes, and True 96
    message = re.escape(f"n_points must be an integer, got {n_points!r}")
    with pytest.raises(ValueError, match=message):
        assemble_rosette(rosette23.arc, n_points)
    with pytest.raises(ValueError, match=message):
        find_abresch_langer(1.0, 2, 3, n_points=n_points)
    # a numpy integer is an integer
    curve = assemble_rosette(rosette23.arc, np.int64(1000))
    assert np.array_equal(curve.points, assemble_rosette(rosette23.arc, 1000).points)

@pytest.mark.parametrize("lam", [4.0, 0.3, 7.5])
def test_arc_scales_exactly_with_lam(lam):
    unit = find_abresch_langer(1.0, 2, 3, n_points=64).arc
    arc = find_abresch_langer(lam, 2, 3, n_points=64).arc
    assert arc.r0 == unit.r0 / math.sqrt(lam)
    assert arc.length == unit.length / math.sqrt(lam)


@pytest.mark.parametrize("field", ["r0", "length"])
@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 - 1e-6])
def test_closure_gate_rejects_a_perturbed_arc(rosette23, field, factor):
    # a 1e-6 relative error leaves a closure residual above 1e-6, far
    # past TOL_CLOSURE = 1e-8
    arc = dataclasses.replace(rosette23.arc, **{field: getattr(rosette23.arc, field) * factor})
    with pytest.raises(RuntimeError, match="closure residual"):
        assemble_rosette(arc, 512)


def test_arc_too_long_for_the_step_cap_is_a_named_error(rosette23):
    # a fixed step would take 1e300 / 2**-11 steps over this arc; the step
    # cap refuses it, and a length that is no positive float, before the
    # first step rather than after a hang
    for length in (1e300, math.inf, math.nan, -1.0):
        arc = dataclasses.replace(rosette23.arc, length=length)
        start = time.perf_counter()
        with pytest.raises(shrinkers.ArcIntegrationError, match="needs over 1048576 steps"):
            assemble_rosette(arc, 512)
        assert time.perf_counter() - start < 1.0


def test_state_that_leaves_the_float_range_is_a_named_error():
    # the curvature lam <x, N> of a start at 1e300 overflows in the first
    # step, and makes an angle whose cosine math refuses; a start at nan
    # raises nothing on the way
    for lam, r0 in ((1e10, 1e300), (1.0, math.nan)):
        with pytest.raises(shrinkers.ArcIntegrationError, match="left the finite float range"):
            shrinkers._integrate(lam, r0, 1.0, 16)


def test_coarse_rosette_from_shared_arc_is_bit_identical(rosette23):
    # reassembling the converged arc gives exactly the curve a second
    # root-find would
    shared = assemble_rosette(rosette23.arc, 1024)
    fresh = find_abresch_langer(1.0, 2, 3, n_points=1024)
    assert shared.arc == fresh.arc
    for name in ("points", "angles", "curvatures"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert shared.h == fresh.h
    assert shared.closure_residual == fresh.closure_residual


def test_package_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about 16 MB and 0.3 s to import, and
    # scipy.integrate loads it; only rosettes need them, so they are
    # imported there
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, wittengap; print([m in sys.modules for m in ('scipy.optimize', 'scipy.integrate')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "[False, False]", out.stderr


def test_mean_curvature_identity(rosette23):
    # discretization error only, second order in the node spacing
    assert mean_curvature_identity_residual(rosette23) <= 1e-4
    circle = circle_shrinker(1.0, 1000)
    assert mean_curvature_identity_residual(circle) <= 1e-10


def test_eigen_identity_circle():
    # phi vanishes identically on the circle; the residual is rounding
    # noise amplified by 1/h^2, so it grows with resolution
    assert eigen_identity_residual(circle_shrinker(1.0, 128)) <= 1e-12
    assert eigen_identity_residual(circle_shrinker(1.0, 1000)) <= 1e-10


def test_eigen_identity_rosette_refines_at_second_order(rosette23):
    fine = eigen_identity_residual(rosette23)
    assert fine <= 5e-3
    coarse = eigen_identity_residual(assemble_rosette(rosette23.arc, 1024))
    ratio = coarse / fine
    # node count quadruples, so a second-order defect drops 16-fold
    assert 8.0 <= ratio <= 32.0


def test_potential_is_ritz_eigenfunction():
    # dense generalized eigensolve on the weighted ring: the shrinker
    # potential lies (to mesh accuracy) in the eigenspace at 2 lam, and
    # the coordinate functions give an eigenvalue at lam
    curve = find_abresch_langer(1.0, 2, 3, n_points=1024)
    wc = curve_complex(curve)
    from wittengap.spectral import stiffness_matrix

    S = stiffness_matrix(wc).toarray()
    M = np.diag(wc.masses)
    w, V = scipy.linalg.eigh(S, M, subset_by_value=(-0.5, 3.5))
    assert np.min(np.abs(w - 1.0)) <= 1e-3
    idx = int(np.argmin(np.abs(w - 2.0)))
    assert abs(w[idx] - 2.0) <= 1e-3
    phi = potential_phi(curve)
    phi = phi - float(wc.masses @ phi) / float(wc.masses.sum())
    phi /= math.sqrt(float(phi @ (wc.masses * phi)))
    alignment = abs(float(phi @ (wc.masses * V[:, idx])))
    assert alignment >= 0.999


def test_diameter_certificates(rosette23):
    rep = case_rosette(4096, rosette23)
    assert rep.passed
    assert rep.margins["d_vs_bound_half"] == pytest.approx(5.756259, abs=1e-4)
    assert rep.margins["d_vs_bound_sup"] == pytest.approx(5.718087, abs=1e-4)
    assert rep.computed["d"] == pytest.approx(R23_LENGTH / 2.0, abs=1e-5)


def test_gaussian_identity():
    rng = np.random.default_rng(7)
    pts = 2.0 * rng.standard_normal((64, 3))
    residuals = gaussian_soliton_check(3, 0.7, pts)
    assert residuals.shape == (64,)
    assert np.abs(residuals).max() <= 1e-6


def test_gaussian_validation():
    with pytest.raises(ValueError):
        gaussian_soliton_check(0, 1.0, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        gaussian_soliton_check(3, 1.0, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        gaussian_soliton_check(3, -1.0, np.zeros((4, 3)))


def test_rosette_index_validation():
    with pytest.raises(ValueError):
        find_abresch_langer(1.0, 2, 4)  # not coprime
    with pytest.raises(ValueError):
        find_abresch_langer(1.0, 1, 2)  # ratio at the lower endpoint
    with pytest.raises(ValueError):
        find_abresch_langer(1.0, 3, 4)  # ratio above sqrt(2)/2
    with pytest.raises(ValueError):
        find_abresch_langer(0.0, 2, 3)


@pytest.mark.parametrize("p, q", [(1, 0), (-2, -3), (0, 1), (2.0, 3)])
def test_rosette_index_must_be_a_positive_integer(monkeypatch, p, q):
    # rejected before any quadrature: gcd(1, 0) == 1 used to pass into a
    # division by zero, and -2/-3 into a root-find that found no rosette
    monkeypatch.setattr(shrinkers, "_half_period", None)
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        find_abresch_langer(1.0, p, q)


def test_curve_csv_roundtrip(tmp_path, rosette23):
    path = tmp_path / "rosette.csv"
    write_curve_csv(rosette23, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# closure_residual = ")
    assert lines[1] == "s,x,y,theta,k,phi"
    assert len(lines) == 2 + rosette23.n_points
    data = np.genfromtxt(path, delimiter=",", skip_header=2)
    assert data.shape == (rosette23.n_points, 6)
    assert np.isfinite(data).all()
    # arclength column advances by the uniform spacing
    steps = np.diff(data[:, 0])
    assert np.allclose(steps, rosette23.h, rtol=1e-12)
    np.testing.assert_allclose(data[:, 1:3], rosette23.points, rtol=0, atol=1e-16)
