"""Drift-Laplacian interval eigensolver against dense oracles and exact values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wittengap import sturm
from wittengap.sturm import (
    DIRICHLET,
    EXPONENT_GUARD,
    MIN_CELL_WIDTH,
    NEUMANN,
    CellWidthError,
    EigenvalueRangeError,
    IntervalLengthError,
    IterationCapError,
    MeasureUnderflowError,
    OUProblem,
    TridiagonalPencil,
    dirichlet_lambda1,
    discretize_ou,
    lowest_eigenvalue,
    neumann_lambda1,
    raw_lambda1,
    verify_comparison,
)

EPS = np.finfo(float).eps

# frozen Richardson-extrapolated values at the default m = 2000
LAMBDA_N_FLAT_D2 = 2.4674011002723244  # exact continuum value pi^2 / 4
LAMBDA_N_K1_D2 = 2.9999999999999702  # exact continuum value 3 (eigenfunction x^3 - 3x)
LAMBDA_D_K1_D2 = 2.0000000000000084  # exact continuum value 2 (shift of the above)
LAMBDA_N_KM2_DPI = 0.30574169068301194  # continuum (Kummer) value 0.3057416906829848
# raw full-spectrum value on the flux-transformed matrix at m = 8001
LAMBDA_RAW_K1_D2_M8001 = 2.999999952340


def test_pencil_shapes_and_positivity():
    pen_n = discretize_ou(OUProblem(K=1.5, d=2.0, m=40, bc=NEUMANN))
    assert pen_n.n == 40
    assert pen_n.conductances.shape == (39,)
    pen_d = discretize_ou(OUProblem(K=1.5, d=2.0, m=40, bc=DIRICHLET))
    assert pen_d.n == 39
    assert pen_d.conductances.shape == (40,)
    for pen in (pen_n, pen_d):
        assert (pen.mass > 0.0).all()
        assert (pen.conductances > 0.0).all()


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("m", [8, 41, 100, 2000, 2001, 4000])
def test_exact_reflection_symmetry(bc, m):
    # centered index coordinates make the weights bitwise symmetric
    pen = discretize_ou(OUProblem(K=3.0, d=1.7, m=m, bc=bc))
    assert np.array_equal(pen.mass, pen.mass[::-1])
    assert np.array_equal(pen.conductances, pen.conductances[::-1])


def _flat_profile(d, m, bc):
    # conductances 1/h and masses h on the OU grid of m cells, without OU
    h = d / m
    n = m if bc == NEUMANN else m - 1
    links = n - 1 if bc == NEUMANN else n + 1
    return TridiagonalPencil(conductances=np.full(links, 1.0 / h), mass=np.full(n, h), bc=bc)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("m", [8, 64, 1000, 4000, 10000])
def test_hand_built_flat_profile_gives_the_discrete_value(bc, m):
    # the path Laplacian's first (nonzero) eigenvalue, for either condition,
    # to a few eps relative, although it lies (m / pi)^2 below the matrix
    # norm 4 / h^2; the per-step running sums are not compensated, and on
    # the half path, where the second sums the first, they drift to about
    # 3.8 eps at m = 10^4 and 60 eps at m = 10^5
    d = 2.5
    h = d / m
    exact = 4.0 * math.sin(math.pi * h / (2.0 * d)) ** 2 / h**2
    lam = lowest_eigenvalue(_flat_profile(d, m, bc))
    assert abs(lam - exact) <= 5.0 * EPS * exact


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("power", [600, -600])
def test_common_profile_scale_leaves_the_spectrum_bit_identical(bc, power):
    # S v = lam M v is invariant under scaling S and M by one power of two;
    # at 2^+-600 a mass times a resistance is still 1 / h^2 in range, but
    # the masses and resistances themselves are far out of scale
    for pen in (_flat_profile(3.0, 200, bc), discretize_ou(OUProblem(K=-40.0, d=3.0, m=200, bc=bc))):
        scaled = TridiagonalPencil(
            conductances=np.ldexp(pen.conductances, power),
            mass=np.ldexp(pen.mass, power),
            bc=bc,
        )
        with np.errstate(over="raise", under="raise", invalid="raise"):
            expected = lowest_eigenvalue(pen)
            got = lowest_eigenvalue(scaled)
        assert got == expected


def test_neumann_pencil_and_its_dual_give_the_same_bits():
    # the Neumann pencil (c, mu) has the nonzero spectrum of the Dirichlet
    # pencil on its links with conductances 1 / mu and masses 1 / c; with
    # powers of two every reciprocal is exact and both start from z = 1
    rng = np.random.default_rng(7)
    n = 300
    mass = np.ldexp(1.0, rng.integers(-20, 20, n))
    neumann = TridiagonalPencil(conductances=np.full(n - 1, 2.0**5), mass=mass, bc=NEUMANN)
    dual = TridiagonalPencil(conductances=1.0 / mass, mass=np.full(n - 1, 2.0**-5), bc=DIRICHLET)
    assert lowest_eigenvalue(neumann) == lowest_eigenvalue(dual)
    # on the OU profile the two solves differ in their starts and reciprocals only
    pen = discretize_ou(OUProblem(K=3.0, d=2.0, m=500, bc=NEUMANN))
    dual = TridiagonalPencil(conductances=1.0 / pen.mass, mass=1.0 / pen.conductances, bc=DIRICHLET)
    assert lowest_eigenvalue(dual) == pytest.approx(lowest_eigenvalue(pen), rel=50 * EPS)


def _solved_lengths(monkeypatch):
    # unknown counts of the paths the solver iterates on: (n + 1) // 2 on a
    # folded path of n unknowns, n on the whole path
    lengths = []
    generators = sturm._generators

    def spy(resistances, masses, start):
        step, start = generators(resistances, masses, start)
        lengths.append(start.shape[0])
        return step, start

    monkeypatch.setattr(sturm, "_generators", spy)
    return lengths


def _nudged(pen):
    # one ulp on an end mass breaks the symmetry and sends the pencil down
    # the whole path
    mass = pen.mass.copy()
    mass[0] = np.nextafter(mass[0], np.inf)
    return TridiagonalPencil(conductances=pen.conductances, mass=mass, bc=pen.bc)


def _assert_fold_agrees(monkeypatch, pen, m):
    # the solved path has m - 1 unknowns for either condition (the Neumann
    # dual lives on the links), so m = 500 keeps a centre unknown and
    # m = 501 drops a centre link
    lengths = _solved_lengths(monkeypatch)
    folded = lowest_eigenvalue(pen)
    assert lengths == [m // 2]
    whole = lowest_eigenvalue(_nudged(pen))
    assert lengths[1:] == [m - 1]
    assert folded == pytest.approx(whole, rel=50 * EPS)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("K", [3.0, -4.0])
@pytest.mark.parametrize("m", [500, 501])
def test_folded_and_whole_path_agree(monkeypatch, bc, K, m):
    _assert_fold_agrees(monkeypatch, discretize_ou(OUProblem(K=K, d=2.5, m=m, bc=bc)), m)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("m", [500, 501])
def test_folded_and_whole_path_agree_on_a_random_mirrored_profile(monkeypatch, bc, m):
    # no weight shape, just mirrored random conductances and masses on the
    # same unknown and link counts as the OU pencil of m cells
    rng = np.random.default_rng(m)
    n = m if bc == NEUMANN else m - 1
    links = n - 1 if bc == NEUMANN else n + 1
    pen = TridiagonalPencil(conductances=_mirrored(rng, links), mass=_mirrored(rng, n), bc=bc)
    _assert_fold_agrees(monkeypatch, pen, m)


def _tridiagonal_oracle(pen):
    # the pencil's eigenvalues, ascending, by LAPACK on M^-1/2 S M^-1/2
    c = pen.conductances
    if pen.bc == NEUMANN:
        c = np.concatenate(([0.0], c, [0.0]))
    root = np.sqrt(pen.mass)
    diag = (c[:-1] + c[1:]) / pen.mass
    off = -c[1:-1] / (root[:-1] * root[1:])
    return eigh_tridiagonal(diag, off, eigvals_only=True)


def _mirrored(rng, n):
    half = rng.uniform(0.5, 2.0, (n + 1) // 2)
    return np.concatenate((half, half[::-1][n % 2 :]))


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("n", [40, 41])
def test_symmetric_two_wells_give_the_even_ground_state(bc, n):
    # two mirrored wells joined through a 1e-4 barrier at the centre: the
    # solved path's lowest mode is even and its second odd (0.3 % higher
    # for Dirichlet at n = 40), and the fold must return the even one.
    # For Neumann the solved path is the dual on the links, whose even
    # ground state is the pencil's odd, tunnelling first nonzero mode
    rng = np.random.default_rng(n)
    links = n - 1 if bc == NEUMANN else n + 1
    conductances = _mirrored(rng, links)
    conductances[(links - 1) // 2 : links // 2 + 1] = 1e-4
    pen = TridiagonalPencil(conductances=conductances, mass=_mirrored(rng, n), bc=bc)
    assert np.array_equal(pen.conductances, pen.conductances[::-1])
    assert np.array_equal(pen.mass, pen.mass[::-1])
    spectrum = _tridiagonal_oracle(pen)
    lowest, second = spectrum[1:3] if bc == NEUMANN else spectrum[:2]
    noise = 100.0 * EPS * spectrum[-1]
    assert second - lowest > 1e3 * noise
    lam = lowest_eigenvalue(pen)
    assert abs(lam - lowest) <= noise


def test_iteration_cap_raises_by_name():
    # two wells joined by a 1e12 resistance, one 1 % heavier: the two lowest
    # eigenvalues differ by about 1 %, so power steps gain about 2 % each
    n = 40
    conductances = np.ones(n + 1)
    conductances[n // 2] = 1e-12
    mass = np.where(np.arange(n) < n // 2, 1.0, 1.01)
    pen = TridiagonalPencil(conductances=conductances, mass=mass, bc=DIRICHLET)
    with pytest.raises(IterationCapError, match="did not settle"):
        lowest_eigenvalue(pen)


def _profile(n_links, n_mass, bc):
    return dict(conductances=np.ones(n_links), mass=np.ones(n_mass), bc=bc)


def test_pencil_rejects_an_unknown_boundary_condition():
    # n + 1 links used to pass and be solved as Dirichlet
    with pytest.raises(ValueError, match="bc must be"):
        TridiagonalPencil(**_profile(6, 5, "robin"))


@pytest.mark.parametrize("field", ["conductances", "mass"])
def test_pencil_rejects_arrays_that_are_not_1d(field):
    profile = _profile(4, 5, NEUMANN)
    profile[field] = profile[field][None, :]
    with pytest.raises(ValueError, match="1-D"):
        TridiagonalPencil(**profile)


@pytest.mark.parametrize("field", ["conductances", "mass"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_pencil_rejects_non_finite_entries(field, bad):
    # an infinite conductance used to pass and die inside scipy
    profile = _profile(6, 5, DIRICHLET)
    profile[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        TridiagonalPencil(**profile)


def test_pencil_rejects_wrong_link_count_and_signs():
    with pytest.raises(ValueError, match="needs 4 links"):
        TridiagonalPencil(**_profile(6, 5, NEUMANN))
    profile = _profile(4, 5, NEUMANN)
    profile["mass"][0] = 0.0
    with pytest.raises(ValueError, match="mass"):
        TridiagonalPencil(**profile)
    profile = _profile(4, 5, NEUMANN)
    profile["conductances"][0] = -1.0
    with pytest.raises(ValueError, match="conductances"):
        TridiagonalPencil(**profile)


@pytest.mark.parametrize(
    "K, d, m, bc", [(-10.0, 5.0, 2000, NEUMANN), (3.125, 16.0, 16, DIRICHLET)]
)
def test_roundoff_level_eigenvalue_is_positive(K, d, m, bc):
    # the pencil is positive semidefinite, with its Neumann zero mode
    # outside the dual solve; LAPACK bisection gave -7.2e-12 and -1.6e-12
    assert raw_lambda1(K, d, m, bc) > 0.0


def _kummer_lambda1(K, d, guess):
    # continuum lambda_1: the odd solution u = x 1F1((K - lam)/(2K); 3/2; K x^2 / 2)
    # of u'' - K x u' = -lam u with u'(d/2) = 0
    import mpmath

    with mpmath.workdps(40 + int(abs(K) * d * d / 8)):
        K, x = mpmath.mpf(K), mpmath.mpf(d) / 2

        def slope(lam):
            a = (K - lam) / (2 * K)
            z = K * x * x / 2
            return mpmath.hyp1f1(a, 1.5, z) + a / 1.5 * mpmath.hyp1f1(a + 1, 2.5, z) * K * x * x

        lam = mpmath.findroot(slope, (0.99 * mpmath.mpf(guess), 1.01 * mpmath.mpf(guess)))
        return float(lam)


@pytest.mark.parametrize(
    "K, d, rel",
    [
        (1.0, 2.0, 1e-13),  # exact value 3
        (-10.0, 5.0, 1e-8),  # 1.663129019e-12, far below eps ||T||
        (-10.0, 8.0, 1e-6),  # 1.81002e-33
    ],
)
def test_relative_accuracy_against_the_kummer_root(K, d, rel):
    # the residual is the h^4 error left by Richardson, which grows with
    # |K| d^2; bisection's eps ||T|| noise was about 1e-11 absolute here
    lam = neumann_lambda1(K, d)
    assert lam == pytest.approx(_kummer_lambda1(K, d, lam), rel=rel)


def _stiffness_apply(pencil, u):
    # the stiffness part as a dense oracle, assembled link-wise so that
    # constants telescope: for a Neumann pencil every link contributes
    # c (u_i - u_j), and a constant input returns exactly zero
    u = np.asarray(u, dtype=np.float64)
    if pencil.bc == DIRICHLET:
        # eliminated boundary values are zero
        u = np.concatenate(([0.0], u, [0.0]))
    flux = pencil.conductances * np.diff(u)
    out = np.zeros(u.shape[0])
    out[:-1] -= flux
    out[1:] += flux
    if pencil.bc == DIRICHLET:
        out = out[1:-1]
    return out


def test_neumann_annihilates_constants_exactly():
    pen = discretize_ou(OUProblem(K=2.0, d=3.0, m=200, bc=NEUMANN))
    out = _stiffness_apply(pen, np.ones(pen.n))
    assert np.all(out == 0.0)


def _dense_matrices(pen):
    n = pen.n
    S = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        S[:, j] = _stiffness_apply(pen, eye[:, j])
    return S, np.diag(pen.mass)


def _dense_oracle(pen):
    # assemble the dense pencil and use numpy eigvalsh on M^-1/2 S M^-1/2
    S, M = _dense_matrices(pen)
    inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(M)))
    return np.linalg.eigvalsh(inv_sqrt @ S @ inv_sqrt)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_dense_oracle_matches_sturm_solver(bc):
    pen = discretize_ou(OUProblem(K=2.0, d=3.0, m=301, bc=bc))
    dense = _dense_oracle(pen)
    expected = dense[1] if bc == NEUMANN else dense[0]
    assert lowest_eigenvalue(pen) == pytest.approx(expected, rel=1e-10, abs=1e-10)


def _flux_tridiag(pen):
    # the flux transform C^1/2 B M^-1 B^T C^1/2 of a Neumann pencil: its
    # spectrum is the pencil's without the zero mode
    c, inv_mass = pen.conductances, 1.0 / pen.mass
    diag = c * (inv_mass[:-1] + inv_mass[1:])
    off = -np.sqrt(c[:-1] * c[1:]) * inv_mass[1:-1]
    return diag, off


def test_full_spectrum_second_route_at_fine_mesh():
    # raw (non-extrapolated) lambda_1 for K = 1, d = 2 at m = 8001 by two
    # LAPACK routes on the flux-transformed matrix: QR (sterf) on the
    # whole spectrum (frozen) and Sturm-sequence bisection for the lowest
    pen = discretize_ou(OUProblem(K=1.0, d=2.0, m=8001, bc=NEUMANN))
    diag, off = _flux_tridiag(pen)
    qr = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")[0]
    bisection = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0]
    assert qr == pytest.approx(LAMBDA_RAW_K1_D2_M8001, abs=1e-9)
    # all three agree to the LAPACK routes' eps ||T|| accuracy at n = 8000
    lam = lowest_eigenvalue(pen)
    assert lam == pytest.approx(qr, abs=1e-7)
    assert lam == pytest.approx(bisection, abs=1e-7)


def test_frozen_extrapolated_values():
    assert neumann_lambda1(0.0, 2.0) == pytest.approx(LAMBDA_N_FLAT_D2, abs=1e-11)
    assert neumann_lambda1(1.0, 2.0) == pytest.approx(LAMBDA_N_K1_D2, abs=1e-11)
    assert dirichlet_lambda1(1.0, 2.0) == pytest.approx(LAMBDA_D_K1_D2, abs=1e-11)
    assert neumann_lambda1(-2.0, math.pi) == pytest.approx(LAMBDA_N_KM2_DPI, abs=1e-11)


def test_exact_continuum_values():
    # K = 1, d = 2: u = x^3 - 3x has u' = 3(x^2 - 1) vanishing at both ends
    # and L u = -3 u, so lambda_1 = 3 exactly; the Dirichlet value is 2
    assert abs(neumann_lambda1(1.0, 2.0) - 3.0) <= 5e-9
    assert abs(dirichlet_lambda1(1.0, 2.0) - 2.0) <= 5e-9


@pytest.mark.parametrize("d", [1.0, 2.0, math.pi, 5.0])
def test_flat_weight_exactness(d):
    exact = math.pi**2 / d**2
    val = neumann_lambda1(0.0, d)
    assert abs(val - exact) <= 1e-8 * exact


def test_flat_weight_convergence_order():
    # raw values at m, 2m, 4m: the error ratio of a second-order scheme is 4
    exact = math.pi**2 / 4.0
    errs = [abs(raw_lambda1(0.0, 2.0, m, NEUMANN) - exact) for m in (250, 500, 1000)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(3.5 <= r <= 4.5 for r in ratios)


@given(
    K=st.floats(min_value=-2.0, max_value=5.0, allow_nan=False),
    d=st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_shift_identity_property(K, d):
    # ground-state transform: lambda_1^Neu(K) = K + lambda_1^Dir(K)
    lam_n = neumann_lambda1(K, d, m=400)
    lam_d = dirichlet_lambda1(K, d, m=400)
    assert abs(lam_n - K - lam_d) <= 1e-3 * max(1.0, abs(lam_n))


def test_neumann_zero_mode_is_structural():
    # the dual solve never sees the constant mode: it returns the dense
    # pencil's second eigenvalue, not its round-off-level first
    pen = discretize_ou(OUProblem(K=4.0, d=2.0, m=500, bc=NEUMANN))
    dense = _dense_oracle(pen)
    assert abs(dense[0]) <= 1e-8
    lam = lowest_eigenvalue(pen)
    assert lam > 1e-3
    assert lam == pytest.approx(dense[1], rel=1e-10)


def test_measure_underflow_guard():
    with pytest.raises(MeasureUnderflowError):
        OUProblem(K=2000.0, d=10.0, m=100)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_weight_range_up_to_the_guard_solves(sign):
    # |K| (d/2)^2 / 2 = 698.6 with h = d / 4000 on the fine mesh: unless
    # the weight's range is centred, w/h or 1/(w h) leaves the float range
    K, d = sign * 5.6e5, 0.0999
    with np.errstate(over="raise", under="raise", invalid="raise"):
        lam_n = neumann_lambda1(K, d)
        lam_d = dirichlet_lambda1(K, d)
    # the Neumann gap sits at K for K > 0; for K < 0 it is below the
    # solver's resolution, and the Dirichlet one sits at -K
    assert (lam_n if K > 0 else lam_d) == pytest.approx(abs(K), rel=1e-8)
    assert math.isfinite(lam_n) and math.isfinite(lam_d)
    # exactly at the guard still solves, just past it is rejected
    edge = sign * EXPONENT_GUARD * 8.0 / d**2
    assert math.isfinite(neumann_lambda1(edge * (1.0 - 1e-12), d))
    with pytest.raises(MeasureUnderflowError):
        OUProblem(K=edge * (1.0 + 1e-9), d=d)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("m", [8, 2000])
def test_cell_width_guard(bc, m):
    # exactly at the guard every admitted K solves, up to the exponent guard
    # in both signs; just below it the problem is rejected at validation
    d = MIN_CELL_WIDTH * m
    for K in (0.0, EXPONENT_GUARD * 8.0 / d**2, -EXPONENT_GUARD * 8.0 / d**2):
        assert math.isfinite(raw_lambda1(K, d, m, bc))
    with pytest.raises(CellWidthError, match="cell width"):
        OUProblem(K=0.0, d=math.nextafter(d, 0.0), m=m, bc=bc)


@pytest.mark.parametrize("solve", [neumann_lambda1, dirichlet_lambda1])
@pytest.mark.parametrize("d, m", [(1e-100, 8), (1e-140, 2000), (1e-160, 8)])
def test_tiny_interval_is_rejected_by_name(solve, d, m):
    # these died in LAPACK bisection or on an infinite 1/h^2 entry
    with pytest.raises(CellWidthError):
        solve(0.0, d, m)


@pytest.mark.parametrize("K", [0.0, 1.0])
def test_interval_too_long_to_square_is_rejected_by_name(K):
    # (d/2) ** 2 in the exponent check used to raise a bare OverflowError
    with pytest.raises(IntervalLengthError, match="d\\^2 overflows"):
        raw_lambda1(K, 1e160, 8, NEUMANN)
    # the longest interval whose square is finite still validates at K = 0
    d = math.sqrt(np.finfo(float).max)
    longer = math.nextafter(d, math.inf)
    assert math.isfinite(d * d) and not math.isfinite(longer * longer)
    OUProblem(K=0.0, d=d, m=8)
    with pytest.raises(IntervalLengthError):
        OUProblem(K=K, d=longer, m=8)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("m", [2000, 4000])
def test_whole_box_solves_under_raised_float_errors(bc, m):
    # every criterion-01 pair, at both Richardson resolutions: no overflow,
    # underflow or invalid operation, and a positive eigenvalue of the
    # positive (semi)definite pencil, down to about 1.8e-215 at |K| d^2 = 4000
    lams = []
    with np.errstate(over="raise", under="raise", invalid="raise"):
        for K in np.linspace(-10.0, 10.0, 50):
            for d in np.linspace(0.1, 20.0, 50):
                lams.append(raw_lambda1(float(K), float(d), m, bc))
    lams = np.array(lams)
    assert np.isfinite(lams).all()
    assert (lams > 0.0).all()


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_eigenvalue_near_the_smallest_normal_float_solves(bc):
    # lambda_1 = pi^2 / d^2 = 9.87e-308 at d = 1e154: A z is about 1e307,
    # so z.Az on the unscaled product would overflow
    lam = raw_lambda1(0.0, 1e154, 2000, bc)
    assert lam == pytest.approx(math.pi**2 / 1e154**2, rel=1e-6)


def test_eigenvalue_below_the_float_range_is_rejected_by_name():
    # at the exponent guard with d = 1e100 the Neumann lambda_1 is about
    # 1e-504, and A z overflows
    with pytest.raises(EigenvalueRangeError, match="normal float64 range"):
        raw_lambda1(-5.6e-197, 1e100, 2000, NEUMANN)


@pytest.mark.parametrize("lam", [3e-308, 1.5e-308, 4e-309])
def test_flat_path_at_the_edge_of_the_normal_range(lam):
    # a Dirichlet path of 8 unknowns with the discrete eigenvalue lam: at
    # 3e-308 it solves; at 1.5e-308 A z stays finite but the Schwarz
    # quotient, an upper bound, drops below the smallest normal float;
    # at 4e-309 A z itself overflows
    c = lam / (4.0 * math.sin(math.pi / 18.0) ** 2)
    pen = TridiagonalPencil(conductances=np.full(9, c), mass=np.ones(8), bc=DIRICHLET)
    if lam > np.finfo(float).tiny:
        assert lowest_eigenvalue(pen) == pytest.approx(lam, rel=1e-13)
    else:
        with pytest.raises(EigenvalueRangeError, match="normal float64 range"):
            lowest_eigenvalue(pen)


def test_negative_curvature_corner_of_the_box():
    # K = -10, d = 20 is a corner of the criterion-01 box; the weight
    # spans e^500 there and lambda_1 is about 1.8e-215
    rep = verify_comparison(-10.0, 20.0)
    assert rep.passed
    assert math.isfinite(rep.computed["lambda1_ou"])
    assert rep.computed["lambda1_ou"] > 0.0


def test_problem_validation():
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=-1.0, m=100)
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=1.0, m=4)
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=1.0, m=100, bc="robin")
    # one unknown: a Neumann pencil has only its zero mode
    pen = TridiagonalPencil(conductances=np.ones(0), mass=np.ones(1), bc=NEUMANN)
    with pytest.raises(ValueError, match="no such eigenvalue"):
        lowest_eigenvalue(pen)


def test_verify_comparison_report():
    rep = verify_comparison(-2.0, math.pi)
    assert rep.case_id == "ou-comparison-K=-2-d=3.14159"
    assert rep.passed
    assert rep.computed["lambda1_ou"] == pytest.approx(LAMBDA_N_KM2_DPI, abs=1e-9)
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["pass"] is True
