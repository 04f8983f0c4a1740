"""Closed shrinker curves: shooting, conserved quantities, identity checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wittengap.shrinkers as shrinkers
from wittengap.cli import RunConfig, case_rosette
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

# frozen shooting results at the default 4096-point budget
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
    # starting on the circle radius, the trajectory stays there
    lam = 2.0
    rc = 1.0 / math.sqrt(lam)
    xs1, xs2, _, _ = shrinkers._integrate(lam, rc, 1e-3 * rc, 2.0 * math.pi, None)
    assert np.abs(np.hypot(xs1, xs2) - rc).max() <= 1e-9


@given(
    lam=st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
    c=st.floats(min_value=0.25, max_value=0.9, allow_nan=False),
)
@settings(max_examples=10, deadline=None)
def test_first_integral_conserved_along_trajectories(lam, c):
    # k exp(-lam |x|^2 / 2) is constant on every solution
    r0 = c / math.sqrt(lam)
    xs1, xs2, ths, _ = shrinkers._integrate(lam, r0, 1e-3 * r0, 2.0, None)
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


def test_default_bracket_is_repaired_automatically():
    # the (2, 3) root sits below half the circle radius, outside the
    # default starting bracket; the search must widen it rather than fail
    log = []
    curve = find_abresch_langer(1.0, 2, 3, n_points=512, log=log)
    assert curve.closure_residual <= 1e-8
    iterations = [entry["iteration"] for entry in log]
    assert iterations == sorted(iterations)
    assert all(0.0 < entry["r0"] < 1.0 for entry in log)
    # one Brent run, not a 46-step bisection
    assert len(log) <= 16


def test_shooting_repeats_no_shot(monkeypatch):
    # brentq evaluates the repaired bracket end again and converges on one
    # of its own evaluations; neither may be integrated a second time
    shots = []
    shoot = shrinkers._closure_functional

    def recorded(lam, r0, psi, h):
        shots.append((r0, h))
        return shoot(lam, r0, psi, h)

    monkeypatch.setattr(shrinkers, "_closure_functional", recorded)
    find_abresch_langer(1.0, 2, 3)
    assert len(shots) <= 14
    assert len(set(shots)) == len(shots)


def test_coarse_rosette_from_shared_arc_is_bit_identical(rosette23):
    # reassembling the converged arc gives exactly the curve a second
    # shooting would
    shared = assemble_rosette(rosette23.arc, 1024)
    fresh = find_abresch_langer(1.0, 2, 3, n_points=1024)
    assert shared.arc == fresh.arc
    for name in ("points", "angles", "curvatures"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert shared.h == fresh.h
    assert shared.closure_residual == fresh.closure_residual


def test_package_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about 16 MB and 0.3 s to import; only the
    # rosette shooting needs it, so it is imported there
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, wittengap; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


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
    rep = case_rosette(RunConfig(), rosette23)
    assert rep.passed
    assert rep.margins["d_vs_bound_half"] == pytest.approx(5.756259, abs=1e-4)
    assert rep.margins["d_vs_bound_sup"] == pytest.approx(5.718087, abs=1e-4)
    assert rep.computed["d"] == pytest.approx(R23_LENGTH / 2.0, abs=1e-5)


def test_gaussian_identity():
    rng = np.random.default_rng(7)
    pts = 2.0 * rng.standard_normal((64, 3))
    chk = gaussian_soliton_check(3, 0.7, pts)
    assert np.all(chk.residuals_analytic == 0.0)
    assert np.abs(chk.residuals_fd).max() <= 1e-6


@given(
    n=st.integers(min_value=1, max_value=5),
    lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_gaussian_identity_property(n, lam):
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((8, n))
    chk = gaussian_soliton_check(n, lam, pts)
    assert np.all(chk.residuals_analytic == 0.0)


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
