"""Command-line front end: verification suites, sweeps, machine-readable reports.

Subcommands
-----------
``bounds``      closed-form gap bounds, grid cross-checks, soliton constants
``ou``          finite-volume comparison operator on an interval
``spectral``    weighted complex spectra: circles, icospheres, height weights
``shrinker``    self-shrinking curves: circle, rosettes, the Gaussian model
``verify-all``  the full certification suite, one JSON report per case and
                one ``PASS|FAIL <case_id> slack <x>`` line, x the smallest
                margin + tolerance

Reports carry ``schema: 1`` and serialize with sorted keys and no
timestamps, so identical configurations produce byte-identical output.
Exit codes: 0 when every margin passes, 1 for a failed case or internal
error, 2 for invalid flags.  ``verify-all`` always runs the certified
resolutions (``SUP_GRID_SIZE``, ``OU_M``, ``CIRCLE_N``,
``SPHERE_SUBDIVISIONS``, ``ROSETTE_POINTS``) and takes only ``--out``, its
report directory (default ``reports``); it refuses a directory holding a
``*.json`` that the directory's ``summary.json`` does not list.  The
single-case subcommands take resolution flags that default to those
constants, and each report records its resolution in ``inputs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from wittengap.bounds import (
    BoundInput,
    GridSweep,
    ShrinkerBoundInput,
    SolitonInput,
    _grid_blocks,
    andrews_ni_bound,
    futaki_sano_bound,
    gap_expression,
    shrinker_diameter_bound,
    shrinker_diameter_bound_sup,
    soliton_diameter_bounds,
    soliton_optimal_s,
    sup_bound_branch,
    sup_bound_closed,
)
from wittengap.report import (
    SCHEMA_VERSION,
    VerificationReport,
    canonical_json,
    equal,
    lower,
    make_report,
    upper,
)
from wittengap.shrinkers import (
    ShrinkerCurve,
    assemble_rosette,
    circle_shrinker,
    eigen_identity_residual,
    find_abresch_langer,
    first_integral,
    gaussian_soliton_check,
    k0_and_diameter,
    mean_curvature_identity_residual,
    potential_phi,
    write_curve_csv,
)
from wittengap.spectral import (
    SpectralResult,
    WeightedComplex,
    apply_weight,
    build_icosphere,
    build_weighted_circle,
    lambda1_witten,
    write_eigenvector_csv,
    write_off,
)
from wittengap.sturm import (
    DIRICHLET,
    NEUMANN,
    TOL_COMPARE_REL,
    dirichlet_lambda1,
    neumann_lambda1,
    raw_lambda1,
    verify_comparison,
)

__all__ = [
    "start_closed_vs_grid",
    "sweep_closed_vs_grid",
    "case_closed_vs_grid",
    "case_soliton_constants",
    "case_comparison_grid",
    "case_circle_spectrum",
    "case_sphere_round",
    "case_sphere_height",
    "case_weight_shift",
    "case_circle_shrinker",
    "case_rosette",
    "case_gaussian",
    "run_suite",
    "main",
]

# fixed evaluation grids for the comparison-operator criteria: both drift
# signs, the flat case, short through long intervals
K_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0)
D_GRID = (0.5, 1.0, 2.0, math.pi, 5.0)
EXACTNESS_DS = (1.0, 2.0, math.pi, 5.0)
BRANCH_DS = (0.5, 1.0, 2.0, math.pi, 5.0, 10.0, 20.0)
HEIGHT_COEFFICIENTS = (0.0, 0.3, 0.5, 0.9)
# (K, d) box of the closed-form vs grid sweep, its counts and s-grid size
K_RANGE = (-10.0, 10.0)
D_RANGE = (0.1, 20.0)
N_K = 50
N_D = 50
SUP_GRID_SIZE = 1_000_000
# certified resolutions of the other cases that a subcommand flag can
# lower: comparison-operator cells, circle vertices, icosphere
# subdivisions, rosette nodes; a lower resolution turns cases red
OU_M = 2000
CIRCLE_N = 1000
SPHERE_SUBDIVISIONS = 5
ROSETTE_POINTS = 4096
# s-grid of the soliton-constant maximum
CONSTANT_GRID_SIZE = 2_000_000
# icosphere subdivisions of the weight-shift case
SHIFT_SUBDIVISIONS = 3
# the flat-space model soliton: dimension, constant, sample seed and count
GAUSSIAN_DIM = 3
GAUSSIAN_LAM = 0.7
GAUSSIAN_SEED = 20260816
GAUSSIAN_SAMPLES = 64

# certified tolerances, pinned independently by the acceptance tests;
# TOL_COMPARE_REL is imported from sturm, whose verify_comparison shares it
TOL_GRID_REL = 1e-6
TOL_BRANCH = 1e-12
TOL_OU_EXACT_REL = 1e-6
TOL_SHIFT_REL = 1e-4
TOL_CIRCLE_REL = 1e-4
TOL_SPHERE = 1e-2
TOL_WEIGHT_SHIFT_REL = 1e-12
TOL_ROSETTE_CLOSURE = 1e-6
TOL_FIRST_INTEGRAL = 1e-6
TOL_MC_IDENTITY = 1e-4
TOL_EIGEN_IDENTITY = 5e-3
TOL_CONSTANTS = 1e-12
TOL_FD_RESIDUAL = 1e-6
TOL_SHRINKER_DIAMETER = 1e-9


def _check_floor(flag: str, value: int, floor: int) -> None:
    """Resolution floors stricter than the library's own checks."""
    if value < floor:
        raise ValueError(f"{flag} must be >= {floor}, got {value}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# suite cases; each returns a VerificationReport and is shared with the
# acceptance tests


def start_closed_vs_grid(grid_size: int) -> GridSweep:
    """Start the s-grid sweep of the (K, d) box at ``grid_size`` s-values."""
    Ks, ds = np.linspace(*K_RANGE, N_K), np.linspace(*D_RANGE, N_D)
    return GridSweep(Ks, ds, grid_size)


def sweep_closed_vs_grid(sweep: GridSweep) -> list[tuple[float, float, float, float, float]]:
    """Rows (K, d, sup_closed, sup_grid, abs_diff) of a started sweep, which
    this finishes."""
    grids = sweep.finish()
    rows = []
    for i, K in enumerate(sweep.Ks):
        for j, d in enumerate(sweep.ds):
            closed = sup_bound_closed(BoundInput(K=K, d=d))
            grid = float(grids[i, j])
            rows.append((K, d, closed, grid, abs(closed - grid)))
    return rows


def format_sweep_csv(rows) -> str:
    lines = ["K,d,sup_closed,sup_grid,abs_diff"]
    for K, d, closed, grid, diff in rows:
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (K, d, closed, grid, diff))
    return "\n".join(lines) + "\n"


def case_closed_vs_grid(sweep: GridSweep) -> VerificationReport:
    """Grid supremum vs closed form over ``sweep``, started by
    ``start_closed_vs_grid`` and finished here; branch agreement at
    crossover.

    The grid error is measured relative to max(1, |closed|): near the
    s -> 1 clamp the interior grid undershoots by about |K - 4 pi^2/d^2|
    divided by the grid size, so an absolute comparison would need a grid
    proportional to K.  Branch agreement is likewise relative to
    max(1, |K|) since the crossover value itself grows like 1/d^2.
    """
    rows = sweep_closed_vs_grid(sweep)
    worst_rel = 0.0
    worst_K = worst_d = 0.0
    for K, d, closed, grid, diff in rows:
        rel = diff / max(1.0, abs(closed))
        if rel > worst_rel:
            worst_rel, worst_K, worst_d = rel, K, d
    worst_low_mid = 0.0
    worst_mid_high = 0.0
    for d in BRANCH_DS:
        k_neg = -4.0 * math.pi**2 / d**2
        mid_at_neg = (math.pi / d + k_neg * d / (4.0 * math.pi)) ** 2
        worst_low_mid = max(worst_low_mid, abs(mid_at_neg - 0.0) / max(1.0, abs(k_neg)))
        k_pos = 4.0 * math.pi**2 / d**2
        mid_at_pos = (math.pi / d + k_pos * d / (4.0 * math.pi)) ** 2
        worst_mid_high = max(worst_mid_high, abs(mid_at_pos - k_pos) / max(1.0, k_pos))
    return make_report(
        case_id="bounds-closed-vs-grid",
        inputs={
            "k_min": K_RANGE[0],
            "k_max": K_RANGE[1],
            "d_min": D_RANGE[0],
            "d_max": D_RANGE[1],
            "n_k": float(len(sweep.Ks)),
            "n_d": float(len(sweep.ds)),
            "sup_grid_size": float(sweep.grid_size),
        },
        computed={
            "max_rel_diff": worst_rel,
            "argmax_K": worst_K,
            "argmax_d": worst_d,
            "branch_low_mid_defect": worst_low_mid,
            "branch_mid_high_defect": worst_mid_high,
        },
        bounds={},
        gates={
            "closed_vs_grid": upper(worst_rel, tol=TOL_GRID_REL),
            "branch_low_mid": upper(worst_low_mid, tol=TOL_BRANCH),
            "branch_mid_high": upper(worst_mid_high, tol=TOL_BRANCH),
        },
        notes=[
            "grid supremum over the interior s-grid never exceeds the closed form",
            "relative to max(1, |closed|); the s -> 1 clamp makes absolute error scale with K",
        ],
    )


def case_soliton_constants() -> VerificationReport:
    """Ordering of the three diameter constants and the grid-checked maximum
    of g(s) = 4 s (1 - s) / (2 - s)."""
    c_sup = 2.0 * (math.sqrt(2.0) - 1.0)
    c_half = math.sqrt(2.0 / 3.0)
    c_fixed = 10.0 / 13.0
    opt = soliton_optimal_s()
    n = CONSTANT_GRID_SIZE
    # the first grid maximum, a block at a time: whole-grid temporaries
    # (16 MB each at the default size) set the suite's peak RSS
    g_max_grid, s_star_grid = -math.inf, 0.0
    for s in _grid_blocks(n):
        g = 4.0 * s * (1.0 - s) / (2.0 - s)
        j = int(np.argmax(g))
        if g[j] > g_max_grid:
            g_max_grid, s_star_grid = float(g[j]), float(s[j])
    bounds1 = soliton_diameter_bounds(SolitonInput(lam=1.0))
    return make_report(
        case_id="soliton-constants",
        inputs={"constant_grid_size": float(n), "lam": 1.0},
        computed={
            "c_sup": c_sup,
            "c_half": c_half,
            "c_fixed": c_fixed,
            "g_max_grid": g_max_grid,
            "s_star_grid": s_star_grid,
            "d_bound_sup": bounds1.sup_bound,
            "d_bound_half": bounds1.andrews_ni,
            "d_bound_fixed": bounds1.futaki_sano,
        },
        bounds={"g_max": opt.g_max, "s_star": opt.s_star},
        gates={
            "ordering_sup_vs_half": lower(c_sup, c_half),
            "ordering_half_vs_fixed": lower(c_half, c_fixed),
            "g_max_grid_defect": equal(g_max_grid, opt.g_max, TOL_CONSTANTS),
            "s_star_grid_defect": equal(s_star_grid, opt.s_star, 1e-5),
        },
        notes=[
            "constants are per 1/sqrt(lam); multiply by pi for the diameter bounds",
            "argmax location on the grid is only spacing-accurate, hence its looser tolerance",
        ],
    )


def case_comparison_grid(m: int) -> VerificationReport:
    """Comparison operator on the fixed (K, d) grid at ``m`` cells:
    flat-case exactness, second-order convergence, the Neumann-Dirichlet
    shift, and domination of the closed-form gap bound."""
    ratios = []
    for K, d, bc in ((0.0, 2.0, NEUMANN), (1.0, 2.0, NEUMANN), (1.0, 2.0, DIRICHLET)):
        lams = [raw_lambda1(K, d, m, bc) for m in (250, 500, 1000)]
        ratios.append((lams[0] - lams[1]) / (lams[1] - lams[2]))
    ratio_min = min(ratios)
    ratio_max = max(ratios)

    exact_worst = 0.0
    exact_hits = 0
    shift_worst = 0.0
    compare_min = math.inf
    eq_worst = 0.0
    for K in K_GRID:
        for d in D_GRID:
            lam_n = neumann_lambda1(K, d, m=m)
            lam_d = dirichlet_lambda1(K, d, m=m)
            scale = max(1.0, abs(lam_n))
            shift_worst = max(shift_worst, abs(lam_n - K - lam_d) / scale)
            closed = sup_bound_closed(BoundInput(K=K, d=d))
            compare_min = min(compare_min, (lam_n - closed) / scale)
            if K == 0.0:
                eq_worst = max(eq_worst, abs(lam_n - closed) / scale)
                if d in EXACTNESS_DS:
                    target = math.pi**2 / d**2
                    for lam in (lam_n, lam_d):
                        exact_worst = max(exact_worst, abs(lam - target) / target)
                        exact_hits += 1
    if exact_hits != 2 * len(EXACTNESS_DS):
        # the flat-exactness gate reads the grid's K = 0 solves; a grid that
        # misses 0.0 or an EXACTNESS_DS value would leave it checking nothing
        raise RuntimeError(
            f"flat-exactness check saw {exact_hits} of {2 * len(EXACTNESS_DS)} "
            "solves: K_GRID must contain 0.0 and D_GRID every EXACTNESS_DS value"
        )

    return make_report(
        case_id="ou-comparison-grid",
        inputs={
            "m": float(m),
            "n_K": float(len(K_GRID)),
            "n_d": float(len(D_GRID)),
        },
        computed={
            "exactness_worst_rel": exact_worst,
            "convergence_ratio_min": ratio_min,
            "convergence_ratio_max": ratio_max,
            "shift_worst_rel": shift_worst,
            "comparison_min_rel": compare_min,
            "flat_equality_worst_rel": eq_worst,
        },
        bounds={},
        gates={
            "exactness_flat": upper(exact_worst, tol=TOL_OU_EXACT_REL),
            "convergence_ratio_low": lower(ratio_min, 3.5),
            "convergence_ratio_high": upper(ratio_max, 4.5),
            "neumann_dirichlet_shift": upper(shift_worst, tol=TOL_SHIFT_REL),
            "comparison_inequality": lower(compare_min, tol=TOL_COMPARE_REL),
            "equality_at_flat": upper(eq_worst, tol=TOL_COMPARE_REL),
        },
        notes=[
            "convergence ratios from raw eigenvalues at m = 250, 500, 1000",
            "shift and comparison margins relative to max(1, lambda_1)",
        ],
    )


def _check_radius(radius: float) -> None:
    """The circle target 1/r^2 needs r^2 and 1/r^2 in the normal float range."""
    r2 = radius * radius
    if not (sys.float_info.min <= r2 < math.inf and sys.float_info.min <= 1.0 / r2):
        raise ValueError(
            f"radius out of range: r**2 or 1/r**2 is not a finite normal number, got {radius!r}"
        )


def case_circle_spectrum(
    radius: float, circle: WeightedComplex, res: SpectralResult
) -> VerificationReport:
    """Unweighted circle, solved by the caller into ``res``: lambda_1 must
    match 1/r^2, equivalently pi^2/d^2 with d = pi r half the
    circumference."""
    target = 1.0 / radius**2
    rel_curv = abs(res.lambda1 - target) / target
    d_exact = math.pi * radius
    rel_flat = abs(res.lambda1 - math.pi**2 / d_exact**2) / (math.pi**2 / d_exact**2)
    return make_report(
        case_id=f"circle-spectrum-r={radius:g}",
        inputs={"n": float(circle.n_vertices), "radius": radius, "K": 0.0, "d": d_exact},
        computed={
            "lambda1": res.lambda1,
            "residual": res.residual,
            "cluster_size": float(res.cluster_size),
            "multiplicity_gap": float(res.multiplicity_gap),
        },
        bounds={"inverse_r2": target, "pi2_over_d2": math.pi**2 / d_exact**2},
        gates={
            "lambda1_vs_curvature": upper(rel_curv, tol=TOL_CIRCLE_REL),
            "flat_interval_equality": upper(rel_flat, tol=TOL_CIRCLE_REL),
        },
        notes=["flat-interval target pi^2/d^2 with d = pi r equals 1/r^2 exactly"],
    )


def case_sphere_round(
    subdivisions: int, mesh: WeightedComplex, res: SpectralResult
) -> VerificationReport:
    """Unweighted icosphere at ``subdivisions``, solved by the
    caller into ``res``: lambda_1 near 2 with a three-fold cluster."""
    rel = abs(res.lambda1 - 2.0) / 2.0
    return make_report(
        case_id="sphere-round",
        inputs={"subdivisions": float(subdivisions), "n_vertices": float(mesh.n_vertices)},
        computed={
            "lambda1": res.lambda1,
            "residual": res.residual,
            "cluster_size": float(res.cluster_size),
            "multiplicity_gap": float(res.multiplicity_gap),
        },
        bounds={"continuum_lambda1": 2.0, "continuum_multiplicity": 3.0},
        gates={
            "lambda1_vs_two": upper(rel, tol=TOL_SPHERE),
            "cluster_multiplicity": equal(res.cluster_size, 3.0),
        },
        notes=["first sphere eigenvalue is 2 with the three coordinate eigenfunctions"],
    )


def _check_height_coefficient(a: float) -> None:
    """The height weight phi = a z needs |a| < 1, so that K = 1 - |a| > 0."""
    if not (math.isfinite(a) and abs(a) < 1.0):
        raise ValueError(f"height coefficient a must satisfy |a| < 1, got {a!r}")


def case_sphere_height(
    subdivisions: int, a: float, weighted: WeightedComplex, res: SpectralResult
) -> VerificationReport:
    """Certify the gap bound for the unit icosphere ``weighted`` by phi = a z,
    solved by the caller into ``res``.

    The Hessian of the height function z on the unit sphere is -z g, so
    Ric + Hess(a z) = (1 - a z) g >= (1 - |a|) g: curvature constant
    K = 1 - |a| with diameter pi.  The discrete lambda_1 must dominate the
    closed-form bound at that (K, pi), up to the mesh tolerance.
    """
    _check_height_coefficient(a)
    K = 1.0 - abs(a)
    inp = BoundInput(K=K, d=math.pi)
    bound = sup_bound_closed(inp)
    return make_report(
        case_id=f"sphere-height-a={a:g}",
        inputs={"a": a, "K": K, "d": math.pi, "subdivisions": float(subdivisions)},
        computed={
            "lambda1": res.lambda1,
            "residual": res.residual,
            "multiplicity_gap": res.multiplicity_gap,
        },
        bounds={
            "sup_closed": bound,
            "futaki_sano": futaki_sano_bound(inp),
            "andrews_ni": andrews_ni_bound(inp),
        },
        gates={
            "gap_vs_sup_closed": lower(res.lambda1, bound, TOL_SPHERE * max(1.0, res.lambda1))
        },
        notes=[
            "K = 1 - |a| from Hess(z) = -z g on the unit sphere; diameter pi is exact",
            f"icosphere with {weighted.n_vertices} vertices, cotangent weights",
        ],
    )


def case_weight_shift() -> VerificationReport:
    """Constant shifts of the weight must leave lambda_1 unchanged.

    Runs the one sparse solver on a height-weighted icosphere so the only
    difference between runs is the shifted weight; the drift Laplacian
    depends on phi through differences only, and the mass rescaling
    cancels in the Rayleigh quotient.
    """
    mesh = build_icosphere(SHIFT_SUBDIVISIONS)
    base = apply_weight(mesh, 0.3 * mesh.vertices[:, 2])
    lam_base = lambda1_witten(base).lambda1
    n = base.n_vertices
    rels = {}
    for tag, c in (("shift_up", 1.0), ("shift_down", -2.5)):
        shifted = apply_weight(base, np.full(n, c))
        lam_c = lambda1_witten(shifted).lambda1
        rels[tag] = abs(lam_c - lam_base) / max(1.0, abs(lam_base))
    return make_report(
        case_id="weight-shift-invariance",
        inputs={
            "subdivisions": float(SHIFT_SUBDIVISIONS),
            "height_coefficient": 0.3,
            "shift_up": 1.0,
            "shift_down": -2.5,
        },
        computed={"lambda1": lam_base},
        bounds={},
        gates={k: upper(v, tol=TOL_WEIGHT_SHIFT_REL) for k, v in rels.items()},
        notes=["all three runs share the same deterministic shift-invert solver"],
    )


def case_circle_shrinker(curve: ShrinkerCurve) -> VerificationReport:
    """Circle self-shrinker from ``circle_shrinker``: exact radius, pointwise
    residual, trivial weight."""
    lam = curve.lam
    root = math.sqrt(lam)
    r_exact = 1.0 / root
    # in lam = 1 units, like every shrinker gate
    radius_defect = float(np.abs(curve.radii - r_exact).max()) * root
    residual = curve.residual() / root
    phi_sup = float(np.abs(potential_phi(curve)).max())
    kd = k0_and_diameter(curve)
    return make_report(
        case_id="shrinker-circle",
        inputs={"lam": lam, "n_points": float(curve.n_points)},
        computed={
            "radius_defect": radius_defect,
            "residual": residual,
            "phi_sup": phi_sup,
            "K0": kd.K0,
            "d": kd.d,
        },
        bounds={"radius": r_exact},
        gates={
            "radius": upper(radius_defect, tol=1e-10),
            "residual": upper(residual, tol=1e-12),
            "phi_sup": upper(phi_sup, tol=1e-14),
        },
        notes=[
            "weight is trivial (phi = 0); the diameter certificate is exercised by the rosette case"
        ],
    )


def case_rosette(points: int, curve: ShrinkerCurve) -> VerificationReport:
    """Rosette from ``find_abresch_langer``: closure, conserved quantity,
    curvature and eigenfunction identities with a refinement trend against
    a coarse curve assembled from the same arc at a quarter of ``points``,
    the node count asked of ``curve``, and the diameter bounds:
    d >= pi / sqrt(3 lam / 2 + K0 / 2) and its supremum over the
    interpolation parameter, with K0 = max k^2 and d half the length.
    Every gate is dimensionless: the diameter margins are in lam = 1
    units, and the library's closure and eigen-identity residuals too."""
    lam, p, q = curve.lam, curve.rotation_p, curve.petals_q
    root = math.sqrt(lam)
    coarse = assemble_rosette(curve.arc, max(points // 4, 64))
    res_fine = eigen_identity_residual(curve)
    res_coarse = eigen_identity_residual(coarse)
    ratio = res_coarse / res_fine
    fi = first_integral(lam, curve.points, curve.curvatures)
    drift = float((fi.max() - fi.min()) / np.abs(fi).max())
    mc = mean_curvature_identity_residual(curve)
    kd = k0_and_diameter(curve)
    bound_inp = ShrinkerBoundInput(lam=lam, K0=kd.K0)
    bound_half = shrinker_diameter_bound(bound_inp)
    bound_sup = shrinker_diameter_bound_sup(bound_inp)
    return make_report(
        case_id=f"shrinker-rosette-{p}-{q}",
        inputs={"lam": lam, "p": float(p), "q": float(q), "n_points": float(curve.n_points)},
        computed={
            "r0": float(curve.radii.min()),
            "k_min": float(curve.curvatures.min()),
            "k_max": float(curve.curvatures.max()),
            "length": curve.length,
            "d": kd.d,
            "K0": kd.K0,
            "closure_residual": curve.closure_residual,
            "first_integral_drift": drift,
            "mc_identity_residual": mc,
            "eigen_identity_fine": res_fine,
            "eigen_identity_coarse": res_coarse,
            "refinement_ratio": ratio,
        },
        bounds={"bound_half": bound_half, "bound_sup": bound_sup},
        gates={
            "closure": upper(curve.closure_residual, tol=TOL_ROSETTE_CLOSURE),
            "first_integral": upper(drift, tol=TOL_FIRST_INTEGRAL),
            "mean_curvature_identity": upper(mc, tol=TOL_MC_IDENTITY),
            "eigen_identity": upper(res_fine, tol=TOL_EIGEN_IDENTITY),
            "refinement_ratio_low": lower(ratio, 8.0),
            "refinement_ratio_high": upper(ratio, 32.0),
            "d_vs_bound_half": lower((kd.d - bound_half) * root, tol=TOL_SHRINKER_DIAMETER),
            "d_vs_bound_sup": lower((kd.d - bound_sup) * root, tol=TOL_SHRINKER_DIAMETER),
        },
        notes=[
            "refinement ratio compares eigen-identity residuals at quarter and full node counts;"
            " second order predicts 16",
            "orientation: T = (cos th, sin th), N = (sin th, -cos th), k = dth/ds; "
            "the circle solution has k = lam |x| > 0",
            f"curve residual {curve.residual() / root:.3e}",
        ],
    )


def case_gaussian() -> VerificationReport:
    """Flat-space model soliton: the shifted potential is an exact eigenfunction."""
    rng = np.random.default_rng(GAUSSIAN_SEED)
    pts = 1.5 * rng.standard_normal((GAUSSIAN_SAMPLES, GAUSSIAN_DIM))
    worst_fd = float(np.abs(gaussian_soliton_check(GAUSSIAN_DIM, GAUSSIAN_LAM, pts)).max())
    return make_report(
        case_id="gaussian-soliton",
        inputs={
            "n": float(GAUSSIAN_DIM),
            "lam": GAUSSIAN_LAM,
            "n_samples": float(GAUSSIAN_SAMPLES),
        },
        computed={"fd_worst": worst_fd},
        bounds={},
        gates={"fd_identity": upper(worst_fd, tol=TOL_FD_RESIDUAL)},
    )


def run_suite() -> list[VerificationReport]:
    """All certification cases at the certified resolutions, sorted by case id.

    The criterion-01 s-grid sweep starts first, in forked workers that
    run at niceness 19 (see ``bounds.GridSweep``), and every other case
    runs in this process meanwhile; the sweep's columns are then collected
    here and ``bounds-closed-vs-grid`` is built from them.  An exception in
    any case stops the workers before it propagates.  Each complex is
    built and solved once; the round icosphere also carries the height
    weights.  The height a = 0 multiplies by exp(-0) = 1, so its weighted
    complex is bitwise the round sphere and reuses that solve."""
    with start_closed_vs_grid(SUP_GRID_SIZE) as sweep:
        reports = [case_soliton_constants(), case_comparison_grid(OU_M)]
        circles = {r: build_weighted_circle(CIRCLE_N, radius=r) for r in (1.0, 2.0)}
        sphere = build_icosphere(SPHERE_SUBDIVISIONS)
        heights = {
            a: apply_weight(sphere, a * sphere.vertices[:, 2]) if a else sphere
            for a in HEIGHT_COEFFICIENTS
        }
        reports += [case_circle_spectrum(r, c, lambda1_witten(c)) for r, c in circles.items()]
        round_res = lambda1_witten(sphere)
        reports += [
            case_sphere_round(SPHERE_SUBDIVISIONS, sphere, round_res),
            *[
                case_sphere_height(
                    SPHERE_SUBDIVISIONS, a, w, lambda1_witten(w) if a else round_res
                )
                for a, w in heights.items()
            ],
            case_weight_shift(),
            case_circle_shrinker(circle_shrinker(1.0, CIRCLE_N)),
            case_rosette(ROSETTE_POINTS, find_abresch_langer(1.0, 2, 3, n_points=ROSETTE_POINTS)),
            case_gaussian(),
        ]
        reports.append(case_closed_vs_grid(sweep))
    return sorted(reports, key=lambda r: r.case_id)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args: argparse.Namespace) -> int:
    _check_floor("--grid-size", args.grid_size, 100)
    if args.grid:
        rows = sweep_closed_vs_grid(start_closed_vs_grid(args.grid_size))
        _emit(format_sweep_csv(rows), args.out)
        return 0
    if args.soliton:
        if args.lam is None:
            print("error: --soliton requires --lambda", file=sys.stderr)
            return 2
        sdb = soliton_diameter_bounds(SolitonInput(lam=args.lam))
        obj = {
            "schema": SCHEMA_VERSION,
            "lam": args.lam,
            "sup_bound": sdb.sup_bound,
            "futaki_sano": sdb.futaki_sano,
            "andrews_ni": sdb.andrews_ni,
            "sup_is_largest": sdb.sup_bound >= max(sdb.futaki_sano, sdb.andrews_ni),
            "futaki_sano_is_smallest": sdb.futaki_sano <= min(sdb.sup_bound, sdb.andrews_ni),
        }
        _emit(canonical_json(obj), args.out)
        return 0
    if args.K is None or args.d is None:
        print("error: bounds needs --K and --d, or --grid, or --soliton", file=sys.stderr)
        return 2
    inp = BoundInput(K=args.K, d=args.d)
    branch, s_star = sup_bound_branch(inp)
    obj = {
        "schema": SCHEMA_VERSION,
        "K": args.K,
        "d": args.d,
        "sup_closed": sup_bound_closed(inp),
        "sup_grid": float(GridSweep([args.K], [args.d], args.grid_size).finish()[0, 0]),
        "branch": branch,
        "s_star": s_star,
        "gap_at_half": float(gap_expression(0.5, args.K, args.d)),
        "futaki_sano": futaki_sano_bound(inp),
        "andrews_ni": andrews_ni_bound(inp),
        "sup_ge_futaki_sano": sup_bound_closed(inp) >= futaki_sano_bound(inp),
        "sup_ge_andrews_ni": sup_bound_closed(inp) >= andrews_ni_bound(inp),
    }
    _emit(canonical_json(obj), args.out)
    return 0


def cmd_ou(args: argparse.Namespace) -> int:
    if args.verify:
        rep = verify_comparison(args.K, args.d, m=args.m)
        _emit(rep.to_json(), args.out)
        return 0 if rep.passed else 1
    obj = {"schema": SCHEMA_VERSION, "K": args.K, "d": args.d, "m": args.m}
    if args.bc in ("neumann", "both"):
        obj["lambda_neumann"] = neumann_lambda1(args.K, args.d, m=args.m)
    if args.bc in ("dirichlet", "both"):
        obj["lambda_dirichlet"] = dirichlet_lambda1(args.K, args.d, m=args.m)
    if args.bc == "both":
        # the shift identity lambda_N = K + lambda_D, read off the two solves
        lam_n = obj["lambda_neumann"]
        obj["shift_defect"] = abs(lam_n - args.K - obj["lambda_dirichlet"])
        obj["shift_defect_rel"] = obj["shift_defect"] / max(1.0, abs(lam_n))
    _emit(canonical_json(obj), args.out)
    return 0


def cmd_spectral(args: argparse.Namespace) -> int:
    _check_floor("--n", args.n, 16)
    if args.case == "circle":
        _check_radius(args.radius)
        comp = build_weighted_circle(args.n, radius=args.radius)
        case = functools.partial(case_circle_spectrum, args.radius)
    elif args.case == "sphere":
        comp = build_icosphere(args.subdivisions)
        case = functools.partial(case_sphere_round, args.subdivisions)
    else:
        if args.a is None:
            print("error: --case sphere-height requires --a", file=sys.stderr)
            return 2
        _check_height_coefficient(args.a)
        mesh = build_icosphere(args.subdivisions)
        comp = apply_weight(mesh, args.a * mesh.vertices[:, 2])
        case = functools.partial(case_sphere_height, args.subdivisions, args.a)
    res = lambda1_witten(comp)
    rep = case(comp, res)
    if args.export_off:
        write_off(comp, args.export_off)
    if args.export_eigenvector:
        write_eigenvector_csv(comp, res.eigenvector, args.export_eigenvector)
    _emit(rep.to_json(), args.out)
    return 0 if rep.passed else 1


def cmd_shrinker(args: argparse.Namespace) -> int:
    _check_floor("--points", args.points, 64)
    if args.gaussian:
        rep = case_gaussian()
    elif args.circle:
        curve = circle_shrinker(args.lam, args.n)
        rep = case_circle_shrinker(curve)
    else:
        log: list = []
        curve = find_abresch_langer(args.lam, *args.al, n_points=args.points, log=log)
        rep = case_rosette(args.points, curve)
        if args.log:
            with open(args.log, "w") as fh:
                for entry in log:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
    if args.export and not args.gaussian:
        write_curve_csv(curve, args.export)
    _emit(rep.to_json(), args.out)
    return 0 if rep.passed else 1


def _stray_reports(out_dir: str) -> list[str]:
    """The ``*.json`` files in ``out_dir`` that are neither its ``summary.json``
    nor a report that summary lists; a rerun would leave them beside it."""
    if not os.path.isdir(out_dir):
        return []
    names = os.listdir(out_dir)
    listed = {"summary.json"}
    if "summary.json" in names:
        path = os.path.join(out_dir, "summary.json")
        try:
            with open(path) as fh:
                listed |= {c["case_id"] + ".json" for c in json.load(fh)["cases"]}
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} is not a verify-all summary: {exc!r}") from None
    return sorted(n for n in names if n.endswith(".json") and n not in listed)


def cmd_verify_all(args: argparse.Namespace) -> int:
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is not a directory")
    stray = _stray_reports(args.out)
    if stray:
        raise ValueError(
            f"stale reports in {args.out} that its summary.json does not list: "
            f"{', '.join(stray)}; remove them or choose another --out"
        )
    os.makedirs(args.out, exist_ok=True)
    reports = run_suite()
    for rep in reports:
        with open(os.path.join(args.out, rep.case_id + ".json"), "w") as fh:
            fh.write(rep.to_json())
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.case_id} slack {rep.slack:+.3e}")
    n_pass = sum(1 for r in reports if r.passed)
    summary = {
        "schema": SCHEMA_VERSION,
        "cases": [{"case_id": r.case_id, "pass": r.passed} for r in reports],
        "n_cases": len(reports),
        "n_pass": n_pass,
        "all_pass": n_pass == len(reports),
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(canonical_json(summary))
    print(f"{n_pass}/{len(reports)} cases passed")
    if n_pass != len(reports):
        first_fail = next(r.case_id for r in reports if not r.passed)
        print(f"error: first failing case: {first_fail}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittengap",
        description="verification suites for drift-Laplacian gap and diameter bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file (default: stdout)")

    p_bounds = sub.add_parser("bounds", parents=[common], help="gap and diameter bounds")
    p_bounds.add_argument("--K", type=float, help="curvature lower bound")
    p_bounds.add_argument("--d", type=float, help="diameter")
    bounds_mode = p_bounds.add_mutually_exclusive_group()
    bounds_mode.add_argument("--grid", action="store_true", help="CSV sweep closed vs grid")
    bounds_mode.add_argument("--soliton", action="store_true", help="soliton diameter bounds")
    p_bounds.add_argument("--lambda", dest="lam", type=float, help="soliton constant")
    p_bounds.add_argument(
        "--grid-size", dest="grid_size", type=int, default=SUP_GRID_SIZE, help="s-grid size"
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_ou = sub.add_parser("ou", parents=[common], help="interval comparison operator")
    p_ou.add_argument("--K", type=float, required=True, help="drift coefficient")
    p_ou.add_argument("--d", type=float, required=True, help="interval length")
    p_ou.add_argument("--m", type=int, default=OU_M, help="cell count before extrapolation")
    ou_mode = p_ou.add_mutually_exclusive_group()
    ou_mode.add_argument("--bc", choices=("neumann", "dirichlet", "both"), default="both")
    ou_mode.add_argument("--verify", action="store_true", help="certify the gap bound")
    p_ou.set_defaults(func=cmd_ou)

    p_spec = sub.add_parser("spectral", parents=[common], help="weighted complex spectra")
    p_spec.add_argument("--case", choices=("circle", "sphere", "sphere-height"), required=True)
    p_spec.add_argument("--n", type=int, default=CIRCLE_N, help="circle vertex count")
    p_spec.add_argument("--radius", type=float, default=1.0)
    p_spec.add_argument("--a", type=float, help="height weight coefficient")
    p_spec.add_argument(
        "--subdivisions", type=int, default=SPHERE_SUBDIVISIONS, help="icosphere subdivisions"
    )
    p_spec.add_argument("--export-off", dest="export_off", help="write the complex as OFF")
    p_spec.add_argument(
        "--export-eigenvector", dest="export_eigenvector", help="write the eigenvector as CSV"
    )
    p_spec.set_defaults(func=cmd_spectral)

    p_shr = sub.add_parser("shrinker", parents=[common], help="self-shrinking curves")
    shrinker_mode = p_shr.add_mutually_exclusive_group(required=True)
    shrinker_mode.add_argument("--circle", action="store_true")
    shrinker_mode.add_argument("--al", nargs=2, type=int, metavar=("P", "Q"))
    shrinker_mode.add_argument("--gaussian", action="store_true")
    p_shr.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_shr.add_argument("--n", type=int, default=CIRCLE_N, help="circle point count")
    p_shr.add_argument("--points", type=int, default=ROSETTE_POINTS, help="rosette node count")
    p_shr.add_argument("--export", help="write the curve as CSV")
    p_shr.add_argument(
        "--log", help="write the root-finding log as JSONL, one line per Brent evaluation"
    )
    p_shr.set_defaults(func=cmd_shrinker)

    p_all = sub.add_parser("verify-all", help="full certification suite")
    p_all.add_argument("--out", default="reports", help="report directory (default: reports)")
    p_all.set_defaults(func=cmd_verify_all)

    # argparse reads a "-" token as a negative number, not an option, only
    # if it matches this pattern; its own takes -1 and -1.5 but not -1e-05
    # or -inf.  A token that names an option is matched before it is tried.
    import re

    negative_number = re.compile(r"^-\.?\d|^-(inf|nan)", re.IGNORECASE)
    for p in sub.choices.values():
        p._negative_number_matcher = negative_number
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
