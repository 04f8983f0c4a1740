"""Drift-Laplacian interval eigensolver against dense oracles and exact values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from wittengap.sturm import (
    DIRICHLET,
    EXPONENT_GUARD,
    MIN_CELL_WIDTH,
    NEUMANN,
    CellWidthError,
    MeasureUnderflowError,
    OUProblem,
    TridiagonalPencil,
    dirichlet_lambda1,
    discretize_ou,
    neumann_lambda1,
    raw_lambda1,
    smallest_eigenvalues,
    stiffness_apply,
    verify_comparison,
)

# frozen Richardson-extrapolated values at the default m = 2000
LAMBDA_N_FLAT_D2 = 2.467401100632413  # exact continuum value pi^2 / 4
LAMBDA_N_K1_D2 = 2.999999999645466  # exact continuum value 3 (eigenfunction x^3 - 3x)
LAMBDA_D_K1_D2 = 1.999999999207197  # exact continuum value 2 (shift of the above)
LAMBDA_N_KM2_DPI = 0.305741691256967
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
@pytest.mark.parametrize("m", [8, 41, 100])
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
@pytest.mark.parametrize("m", [8, 64, 1000])
def test_hand_built_flat_profile_gives_the_discrete_value(bc, m):
    # the path Laplacian's first (nonzero) eigenvalue, for either condition,
    # to bisection accuracy: a few eps times the matrix norm 4 / h^2
    d = 2.5
    h = d / m
    exact = 4.0 * math.sin(math.pi * h / (2.0 * d)) ** 2 / h**2
    lam = smallest_eigenvalues(_flat_profile(d, m, bc), count=2 if bc == NEUMANN else 1)[-1]
    assert abs(lam - exact) <= 2.0 * np.finfo(float).eps * 4.0 / h**2


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
@pytest.mark.parametrize("power", [600, -600])
def test_common_profile_scale_leaves_the_spectrum_bit_identical(bc, power):
    # S v = lam M v is invariant under scaling S and M by one power of two;
    # at 2^+-600 the products c_i c_{i+1} leave the float range unscaled
    for pen in (_flat_profile(3.0, 200, bc), discretize_ou(OUProblem(K=-40.0, d=3.0, m=200, bc=bc))):
        scaled = TridiagonalPencil(
            conductances=np.ldexp(pen.conductances, power),
            mass=np.ldexp(pen.mass, power),
            bc=bc,
        )
        with np.errstate(over="raise", under="raise", invalid="raise"):
            expected = smallest_eigenvalues(pen, count=4)
            got = smallest_eigenvalues(scaled, count=4)
        assert got.tobytes() == expected.tobytes()


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


@pytest.mark.xfail(
    strict=True,
    reason="bisection on the flux and symmetrized forms is accurate only to "
    "eps ||T|| in absolute terms; a relative-accuracy solver is still open",
)
@pytest.mark.parametrize(
    "K, d, m, bc", [(-10.0, 5.0, 2000, NEUMANN), (3.125, 16.0, 16, DIRICHLET)]
)
def test_roundoff_level_eigenvalue_is_positive(K, d, m, bc):
    # the pencil is positive semidefinite, with its Neumann zero mode
    # deflated; these raw values come out as -7.2e-12 and -1.6e-12
    assert raw_lambda1(K, d, m, bc) > 0.0


def test_neumann_annihilates_constants_exactly():
    pen = discretize_ou(OUProblem(K=2.0, d=3.0, m=200, bc=NEUMANN))
    out = stiffness_apply(pen, np.ones(pen.n))
    assert np.all(out == 0.0)


def _dense_matrices(pen):
    n = pen.n
    S = np.zeros((n, n))
    eye = np.eye(n)
    for j in range(n):
        S[:, j] = stiffness_apply(pen, eye[:, j])
    return S, np.diag(pen.mass)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_dense_oracle_matches_sturm_solver(bc):
    # independent route: assemble the dense pencil and use numpy eigvalsh
    pen = discretize_ou(OUProblem(K=2.0, d=3.0, m=301, bc=bc))
    S, M = _dense_matrices(pen)
    inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(M)))
    dense = np.linalg.eigvalsh(inv_sqrt @ S @ inv_sqrt)
    values = smallest_eigenvalues(pen, count=4)
    np.testing.assert_allclose(values, dense[:4], rtol=1e-10, atol=1e-10)


def test_full_spectrum_second_route_at_fine_mesh():
    # raw (non-extrapolated) lambda_1 for K = 1, d = 2 at m = 8001 via the
    # QR driver on the whole deflated matrix, frozen against the bisection path
    pen = discretize_ou(OUProblem(K=1.0, d=2.0, m=8001, bc=NEUMANN))
    from wittengap.sturm import _flux_tridiag

    diag, off = _flux_tridiag(pen)
    w = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")
    assert w[0] == pytest.approx(LAMBDA_RAW_K1_D2_M8001, abs=1e-9)
    # bisection and QR agree to cross-algorithm accuracy at n = 8000
    assert smallest_eigenvalues(pen, count=2)[1] == pytest.approx(w[0], abs=1e-7)


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
    pen = discretize_ou(OUProblem(K=4.0, d=2.0, m=500, bc=NEUMANN))
    values = smallest_eigenvalues(pen, count=3)
    assert values[0] == 0.0
    # the deflated matrix keeps the rest of the spectrum away from zero
    assert values[1] > 1e-3


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


def test_negative_curvature_corner_of_the_box():
    # K = -10, d = 20 is a corner of the criterion-01 box; the weight
    # spans e^500 there, so c_i c_{i+1} spans e^1000
    rep = verify_comparison(-10.0, 20.0)
    assert rep.passed
    assert math.isfinite(rep.computed["lambda1_ou"])


def test_problem_validation():
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=-1.0, m=100)
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=1.0, m=4)
    with pytest.raises(ValueError):
        OUProblem(K=0.0, d=1.0, m=100, bc="robin")
    pen = discretize_ou(OUProblem(K=0.0, d=1.0, m=100))
    with pytest.raises(ValueError):
        smallest_eigenvalues(pen, count=0)


def test_verify_comparison_report():
    rep = verify_comparison(-2.0, math.pi)
    assert rep.case_id == "ou-comparison-K=-2-d=3.14159"
    assert rep.passed
    assert rep.computed["lambda1_ou"] == pytest.approx(LAMBDA_N_KM2_DPI, abs=1e-9)
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["pass"] is True
