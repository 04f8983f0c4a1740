"""Weighted-complex eigensolver: mesh invariants, frozen values, dense oracles."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wittengap import shrinkers, spectral
from wittengap.cli import case_sphere_height
from wittengap.spectral import (
    SHIFT,
    EigensolverConvergenceError,
    WeightedComplex,
    apply_weight,
    build_icosphere,
    build_weighted_circle,
    lambda1_witten,
    stiffness_matrix,
    witten_apply,
    write_eigenvector_csv,
    write_off,
)
from wittengap.sturm import MeasureUnderflowError

# frozen solver outputs at the resolutions used below
CIRCLE_1000_LAMBDA1 = 0.999996710138
SPHERE_SUB3_LAMBDA1 = 1.9999918870
WEIGHTED_CIRCLE_A03_LAMBDA1 = 1.014987140933


def two_segment_complex():
    return WeightedComplex(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [6.0, 0, 0]]),
        edges=np.array([[0, 1], [2, 3]], dtype=np.int64),
        conductances=np.ones(2),
        masses=np.ones(4),
        phi=np.zeros(4),
    )


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _icosphere_reference(mesh):
    # edges by a row-wise unique, areas from their own cross product: the
    # arrays that build_icosphere's single pass must reproduce bit for bit
    faces = mesh.faces
    corner = mesh.vertices[faces]
    cots = np.empty_like(faces, dtype=np.float64)
    for k in range(3):
        u = corner[:, (k + 1) % 3] - corner[:, k]
        v = corner[:, (k + 2) % 3] - corner[:, k]
        cots[:, k] = (u * v).sum(axis=1) / np.linalg.norm(np.cross(u, v), axis=1)
    edge_a, edge_b = corner[:, 1] - corner[:, 0], corner[:, 2] - corner[:, 0]
    area = 0.5 * np.linalg.norm(np.cross(edge_a, edge_b), axis=1)
    pair = np.concatenate([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]])
    pair.sort(axis=1)
    edges, inverse = np.unique(pair, axis=0, return_inverse=True)
    conductances = np.zeros(edges.shape[0])
    np.add.at(conductances, inverse.reshape(-1), 0.5 * cots.T.reshape(-1))
    masses = np.zeros(mesh.n_vertices)
    np.add.at(masses, faces.reshape(-1), np.repeat(area / 3.0, 3))
    return edges, conductances, masses


@pytest.mark.parametrize("sub", range(7))
def test_icosphere_single_pass_gives_the_row_wise_bits(sub):
    mesh = build_icosphere(sub)
    built = (mesh.edges, mesh.conductances, mesh.masses)
    assert all(_same_bits(*pair) for pair in zip(built, _icosphere_reference(mesh)))


def _hand_built_ring(vertices, h):
    n = vertices.shape[0]
    return WeightedComplex(
        vertices=vertices,
        edges=np.array([[i, (i + 1) % n] for i in range(n)], dtype=np.int64),
        conductances=np.full(n, 1.0 / h),
        masses=np.full(n, h),
        phi=np.zeros(n),
    )


def _same_complex(got, want):
    names = ("vertices", "edges", "conductances", "masses", "phi")
    return all(_same_bits(getattr(got, name), getattr(want, name)) for name in names)


@pytest.mark.parametrize("n, radius", [(8, 1.0), (1000, 2.0), (64, 1e-3)])
def test_circle_is_the_hand_built_ring(n, radius):
    angle = 2.0 * math.pi * np.arange(n) / n
    vertices = np.column_stack([radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)])
    want = _hand_built_ring(vertices, 2.0 * math.pi * radius / n)
    assert _same_complex(build_weighted_circle(n, radius=radius), want)


@pytest.mark.parametrize(
    "build",
    [
        lambda: shrinkers.circle_shrinker(2.0, 64),
        lambda: shrinkers.find_abresch_langer(1.0, 2, 3, n_points=512),
    ],
    ids=["circle", "rosette-2-3"],
)
def test_curve_complex_is_the_weighted_hand_built_ring(build):
    curve = build()
    vertices = np.column_stack([curve.points, np.zeros(curve.n_points)])
    ring = _hand_built_ring(vertices, curve.h)
    want = apply_weight(ring, shrinkers.potential_phi(curve))
    assert _same_complex(shrinkers.curve_complex(curve), want)


def test_icosphere_combinatorics():
    for sub, (nv, ne, nf) in [(0, (12, 30, 20)), (3, (642, 1920, 1280))]:
        mesh = build_icosphere(sub)
        assert mesh.n_vertices == nv
        assert mesh.edges.shape == (ne, 2)
        assert mesh.faces.shape == (nf, 3)
        # Euler characteristic of the sphere
        assert nv - ne + nf == 2
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-14
        assert mesh.is_connected()


def loop_subdivide(vertices, faces):
    """Reference 4-to-1 refinement, one face and one midpoint at a time."""
    verts = list(map(tuple, vertices))
    midpoint_cache = {}

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        idx = midpoint_cache.get(key)
        if idx is None:
            p = 0.5 * (vertices[a] + vertices[b])
            p = p / np.linalg.norm(p)
            idx = len(verts)
            verts.append(tuple(p))
            midpoint_cache[key] = idx
        return idx

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts, dtype=np.float64), np.array(new_faces, dtype=np.int64)


def test_icosphere_matches_loop_refinement_bitwise():
    base = build_icosphere(0)
    vertices, faces = base.vertices, base.faces
    for sub in range(6):
        mesh = build_icosphere(sub)
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.faces, faces)
        vertices, faces = loop_subdivide(vertices, faces)


def test_circle_against_dispersion_relation():
    # exact eigenvalue of the discrete second difference on n points:
    # (2 - 2 cos(2 pi / n)) / h^2, approaching 1/r^2 from below
    for n, radius in [(200, 1.0), (500, 2.0)]:
        circle = build_weighted_circle(n, radius=radius)
        res = lambda1_witten(circle)
        h = 2.0 * math.pi * radius / n
        exact = (2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / h**2
        assert res.lambda1 == pytest.approx(exact, rel=1e-11)
        assert res.lambda1 < 1.0 / radius**2


def test_circle_frozen_values():
    circle = build_weighted_circle(1000)
    res = lambda1_witten(circle)
    assert res.lambda1 == pytest.approx(CIRCLE_1000_LAMBDA1, abs=1e-9)
    assert abs(res.lambda1 - 1.0) <= 1e-4
    assert res.residual <= 1e-8
    # rotational eigenspace: exactly two eigenvalues at the bottom level
    assert res.cluster_size == 2
    assert res.multiplicity_gap == pytest.approx(3.0, abs=1e-2)


def test_sphere_frozen_values():
    mesh = build_icosphere(3)
    res = lambda1_witten(mesh)
    assert res.lambda1 == pytest.approx(SPHERE_SUB3_LAMBDA1, abs=1e-8)
    assert res.residual <= 1e-10
    assert res.cluster_size == 3


def test_sphere_mesh_convergence():
    # refinement drives lambda_1 toward the continuum value 2; on this
    # mesh family the defect drops by more than the generic factor 4,
    # up to the certified resolution (subdivision 5)
    err3 = abs(lambda1_witten(build_icosphere(3)).lambda1 - 2.0)
    err4 = abs(lambda1_witten(build_icosphere(4)).lambda1 - 2.0)
    err5 = abs(lambda1_witten(build_icosphere(5)).lambda1 - 2.0)
    assert err3 <= 1e-5
    assert err4 <= err3 / 4.0
    assert err5 <= err4 / 4.0


def test_certified_resolution_solve_is_bit_identical():
    mesh = build_icosphere(5)
    weighted = apply_weight(mesh, 0.5 * mesh.vertices[:, 2])
    first = lambda1_witten(weighted)
    second = lambda1_witten(weighted)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvector, second.eigenvector)


def test_round_sphere_multiplicities_at_certified_resolution():
    # continuum levels 2 (3-fold) and 6 (5-fold): the six returned values
    # are three copies of each, none skipped for the level-12 cluster
    res = lambda1_witten(build_icosphere(5))
    np.testing.assert_allclose(res.eigenvalues[:3], 2.0, rtol=1e-6)
    np.testing.assert_allclose(res.eigenvalues[3:], 6.0, rtol=1e-3)


def test_weighted_circle_frozen_and_dense_oracle():
    def weighted_circle(n):
        base = build_weighted_circle(n)
        return apply_weight(base, 0.3 * base.vertices[:, 0])

    circle = weighted_circle(1000)
    res = lambda1_witten(circle)
    assert res.lambda1 == pytest.approx(WEIGHTED_CIRCLE_A03_LAMBDA1, abs=1e-9)

    # independent dense generalized eigensolve at a smaller resolution
    small = weighted_circle(256)
    S = stiffness_matrix(small).toarray()
    M = np.diag(small.masses)
    dense = scipy.linalg.eigh(S, M, eigvals_only=True, subset_by_index=(0, 3))
    res_small = lambda1_witten(small)
    assert abs(dense[0]) <= 1e-10
    assert res_small.lambda1 == pytest.approx(dense[1], rel=1e-10)
    np.testing.assert_allclose(res_small.eigenvalues[:3], dense[1:4], rtol=1e-9)


def test_witten_apply_annihilates_constants_exactly():
    mesh = build_icosphere(2)
    weighted = apply_weight(mesh, 0.7 * mesh.vertices[:, 2])
    out = witten_apply(weighted, np.full(weighted.n_vertices, 3.25))
    assert np.all(out == 0.0)


def test_apply_weight_semantics():
    # path 0 - 1 - 2 with unit data: the factors are explicit
    base = WeightedComplex(
        vertices=np.zeros((3, 3)),
        edges=np.array([[0, 1], [1, 2]], dtype=np.int64),
        conductances=np.ones(2),
        masses=np.ones(3),
        phi=np.zeros(3),
    )
    phi = np.array([0.0, 1.0, 3.0])
    w = apply_weight(base, phi)
    np.testing.assert_allclose(w.conductances, [math.exp(-0.5), math.exp(-2.0)], rtol=1e-15)
    np.testing.assert_allclose(w.masses, np.exp(-phi), rtol=1e-15)
    np.testing.assert_array_equal(w.phi, phi)
    # composing two weights matches applying their sum
    w2 = apply_weight(apply_weight(base, phi), 2.0 * phi)
    w_sum = apply_weight(base, 3.0 * phi)
    np.testing.assert_allclose(w2.conductances, w_sum.conductances, rtol=1e-13)
    np.testing.assert_allclose(w2.masses, w_sum.masses, rtol=1e-13)
    np.testing.assert_allclose(w2.phi, w_sum.phi, rtol=1e-15)


@given(
    a=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    c=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_weight_shift_invariance_property(a, c):
    # phi -> phi + c rescales both sides of the pencil: spectrum unchanged
    base = build_weighted_circle(64)
    phi = a * base.vertices[:, 1]
    lam_a = lambda1_witten(apply_weight(base, phi)).lambda1
    lam_b = lambda1_witten(apply_weight(base, phi + c)).lambda1
    assert abs(lam_a - lam_b) <= 1e-11 * max(1.0, abs(lam_a))


@pytest.mark.parametrize("height", [0.0, 0.5])
def test_sparse_path_matches_dense_generalized_eigh(height):
    mesh = build_icosphere(3)
    weighted = apply_weight(mesh, height * mesh.vertices[:, 2])
    sparse_res = lambda1_witten(weighted)
    S = stiffness_matrix(weighted).toarray()
    M = np.diag(weighted.masses)
    dense = scipy.linalg.eigh(S, M, eigvals_only=True, subset_by_index=(0, 6))
    assert sparse_res.lambda1 == pytest.approx(dense[1], rel=1e-9)
    # all six, so a copy of a repeated level lost by the Krylov solve shows
    np.testing.assert_allclose(sparse_res.eigenvalues, dense[1:], rtol=1e-7)


def coincident_path(n):
    """A weighted path whose n vertices all sit at one point."""
    return WeightedComplex(
        vertices=np.full((n, 3), 0.25),
        edges=np.column_stack([np.arange(n - 1), np.arange(1, n)]).astype(np.int64),
        conductances=1.0 + 0.5 * np.cos(np.arange(n - 1)),
        masses=1.0 + 0.25 * np.sin(np.arange(n)),
        phi=np.zeros(n),
    )


def triangle():
    return WeightedComplex(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
        edges=np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64),
        conductances=np.array([1.0, 2.0, 3.0]),
        masses=np.ones(3),
        phi=np.zeros(3),
    )


@pytest.mark.parametrize(
    "build",
    [lambda sub=sub: build_icosphere(sub) for sub in range(6)]
    + [lambda: build_weighted_circle(8), lambda: build_weighted_circle(1000), triangle]
    # 100 coincident vertices reach a split that leaves one side empty
    + [lambda: coincident_path(4), lambda: coincident_path(100)],
    ids=[f"sub{sub}" for sub in range(6)]
    + ["circle8", "circle1000", "triangle", "coincident4", "coincident100"],
)
def test_elimination_order_is_a_permutation(build):
    mesh = build()
    order = spectral._nested_dissection(mesh.vertices, mesh.edges)
    np.testing.assert_array_equal(np.sort(order), np.arange(mesh.n_vertices))


@pytest.mark.parametrize("n", [4, 100])
def test_coincident_path_matches_dense_oracle(n):
    path = coincident_path(n)
    res = lambda1_witten(path)
    S = stiffness_matrix(path).toarray()
    dense = scipy.linalg.eigh(S, np.diag(path.masses), eigvals_only=True)
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    np.testing.assert_allclose(res.eigenvalues, dense[1 : res.eigenvalues.size + 1], rtol=1e-10)


def test_shift_factor_is_a_symmetric_permutation_with_diagonal_pivots(monkeypatch):
    mesh = build_icosphere(3)
    # by Sylvester, the negative pivots count the eigenvalues below mu:
    # none below the shift, the kernel below 1, the kernel and the
    # 3-fold level 2 below 3
    for mu, negative in [(SHIFT, 0), (1.0, 1), (3.0, 4)]:
        order, lu = spectral._shift_factor(mesh, mu)
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        np.testing.assert_array_equal(lu.perm_c, np.arange(mesh.n_vertices))
        assert np.count_nonzero(lu.U.diagonal() < 0.0) == negative
        # a factor of the pencil itself, permuted into the mesh's order
        pencil = (stiffness_matrix(mesh) - mu * scipy.sparse.diags(mesh.masses)).toarray()
        np.testing.assert_allclose(
            (lu.L @ lu.U).toarray(), pencil[np.ix_(order, order)], rtol=0, atol=1e-12
        )

    # and it is the one factor the eigensolver solves with
    shifts = []
    factor = spectral._shift_factor

    def recording(complex_, mu):
        shifts.append(mu)
        return factor(complex_, mu)

    monkeypatch.setattr(spectral, "_shift_factor", recording)
    lambda1_witten(mesh)
    assert shifts == [SHIFT]


def test_shift_factor_fill_at_certified_resolution():
    # COLAMD with row pivoting fills 1,347,336 nonzeros on this mesh and
    # the nested-dissection order 828,878; the count is deterministic
    _, lu = spectral._shift_factor(build_icosphere(5), SHIFT)
    assert lu.L.nnz + lu.U.nnz < 1.0e6


def test_eigensolver_restart_cap(monkeypatch):
    # whether a solve needs one restart or two depends on the last bits of
    # the shift solve, so the cap is checked where it is handed to ARPACK
    real_eigsh = scipy.sparse.linalg.eigsh
    caps = []

    def recording(*args, **kwargs):
        caps.append(kwargs["maxiter"])
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recording)
    # the round sub-4 icosphere converges within two restarts
    monkeypatch.setattr(spectral, "ARPACK_MAX_RESTARTS", 2)
    assert lambda1_witten(build_icosphere(4)).lambda1 == pytest.approx(2.0, abs=1e-4)
    assert caps == [2]

    def not_converging(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("cap hit", np.zeros(1), np.zeros((42, 1)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", not_converging)
    monkeypatch.setattr(spectral, "ARPACK_MAX_RESTARTS", 7)
    with pytest.raises(EigensolverConvergenceError, match="found 1 of .* within 7 restarts") as info:
        lambda1_witten(build_icosphere(1))
    assert isinstance(info.value.__cause__, scipy.sparse.linalg.ArpackNoConvergence)



def test_kernel_that_does_not_separate_is_a_named_error(monkeypatch):
    # a spectrum whose lowest value is far from zero has no kernel to drop
    def no_kernel(A, k, **kwargs):
        n = A.shape[0]
        return np.linspace(0.5, 3.0, k), np.eye(n, k)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_kernel)
    with pytest.raises(EigensolverConvergenceError, match="kernel eigenvalue did not separate"):
        lambda1_witten(build_weighted_circle(64))


@pytest.mark.parametrize("n", [100.5, 100.0, True, "100"])
def test_circle_vertex_count_must_be_an_integer(n):
    # 100.5 died inside numpy with a TypeError
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        build_weighted_circle(n)
    # a numpy integer is an integer
    ring = build_weighted_circle(np.int64(100))
    assert np.array_equal(ring.vertices, build_weighted_circle(100).vertices)


@pytest.mark.parametrize("subdivisions", [1.0, 2.5, True, "1"])
def test_icosphere_subdivisions_must_be_an_integer(subdivisions):
    # True built the 42-vertex sub-1 sphere
    with pytest.raises(
        ValueError, match=re.escape(f"subdivisions must be an integer, got {subdivisions!r}")
    ):
        build_icosphere(subdivisions)
    # a numpy integer is an integer
    assert np.array_equal(build_icosphere(np.int64(1)).vertices, build_icosphere(1).vertices)

@pytest.mark.parametrize(
    "n, radius, match",
    [
        # lambda_1 = 1/R^2 below |SHIFT| * ARPACK_TOL = 1e-13: off by 4.6e-4 at
        # R = 1e7, negative at R = 1e20
        (1000, 1e7, "below the 1e-13"),
        (1000, 1e20, "below the 1e-13"),
        (1000, 1e-100, "ARPACK .* failed at shift -0.001 on n = 1000"),
        (16, 1e-150, "shifted factor failed at shift -0.001 on n = 16"),
    ],
)
def test_eigenvalue_the_shift_cannot_resolve_is_refused(n, radius, match):
    with pytest.raises(EigensolverConvergenceError, match=match):
        lambda1_witten(build_weighted_circle(n, radius=radius))


def test_smallest_resolved_circle_eigenvalue_still_solves():
    res = lambda1_witten(build_weighted_circle(1000, radius=1e6))
    assert res.lambda1 == pytest.approx(1e-12, rel=1e-5)


def test_solve_assembles_no_stiffness_matrix(monkeypatch):
    # shift-invert ARPACK applies the factored solve and M, never S
    def refused(complex_):
        raise AssertionError("stiffness_matrix assembled")

    monkeypatch.setattr(spectral, "stiffness_matrix", refused)
    sphere = lambda1_witten(build_icosphere(3))
    assert sphere.lambda1 == pytest.approx(SPHERE_SUB3_LAMBDA1, abs=1e-8)
    circle = lambda1_witten(build_weighted_circle(1000))
    assert circle.lambda1 == pytest.approx(CIRCLE_1000_LAMBDA1, abs=1e-9)


def openblas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, by its set call's name."""
    return {set_.__name__: get() for get, set_ in spectral._openblas_thread_calls()}


def blas_name(module) -> str:
    """The BLAS a numpy or scipy build links, by its build configuration."""
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # older releases only print their configuration
        return "unknown"


@pytest.mark.skipif(blas_name(scipy) != "scipy-openblas", reason="another BLAS")
def test_mesh_solve_holds_every_openblas_to_one_thread(monkeypatch):
    # the wheels' OpenBLAS builds are found, so the pin is not a no-op here
    calls = spectral._openblas_thread_calls()
    names = [set_.__name__ for _, set_ in calls]
    assert "scipy_openblas_set_num_threads" in names
    if blas_name(np) == "scipy-openblas":
        assert "scipy_openblas_set_num_threads64_" in names
    real_eigsh = scipy.sparse.linalg.eigsh
    inside = []

    def spying(*args, **kwargs):
        inside.append(openblas_threads())
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spying)
    before = [get() for get, _ in calls]
    try:
        for _, set_ in calls:
            set_(2)
        assert lambda1_witten(build_icosphere(2)).lambda1 == pytest.approx(2.0, abs=1e-2)
        after = openblas_threads()
    finally:
        for (_, set_), count in zip(calls, before):
            set_(count)
    assert inside == [dict.fromkeys(names, 1)]
    assert after == dict.fromkeys(names, 2)


def test_mesh_solve_runs_where_no_openblas_is_found(monkeypatch):
    monkeypatch.setattr(spectral, "_openblas_thread_calls", lambda: [])
    res = lambda1_witten(build_icosphere(2))
    assert res.lambda1 == pytest.approx(2.0, abs=1e-2)
    assert res.cluster_size == 3


SUB5_SOLVE = """
from wittengap.spectral import build_icosphere, lambda1_witten
print(repr(lambda1_witten(build_icosphere(5)).eigenvalues.tolist()))
"""


def test_round_sphere_solve_is_the_same_at_one_and_two_blas_threads():
    # a second OpenBLAS thread reorders sums; held to one thread per solve,
    # the sub-5 eigenvalues keep their bits at either count
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", SUB5_SOLVE],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        ).stdout
        for threads in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert outs[0].startswith("[1.99999995")


def test_disconnected_complex_rejected():
    broken = two_segment_complex()
    assert not broken.is_connected()
    with pytest.raises(ValueError):
        lambda1_witten(broken)


def test_measure_guard_on_weights():
    base = build_weighted_circle(32)
    with pytest.raises(MeasureUnderflowError):
        apply_weight(base, np.full(32, 1e6))
    with pytest.raises(ValueError):
        apply_weight(base, np.full(32, math.nan))


def test_measure_guard_message_prints_the_value_that_tripped_it():
    # four significant digits would print 700.01 as the guard's own 700
    phi = np.zeros(32)
    phi[5] = -700.01
    with pytest.raises(MeasureUnderflowError, match=r"max \|phi\| = 700\.01 exceeds 700;"):
        apply_weight(build_weighted_circle(32), phi)


def test_complex_validation():
    with pytest.raises(ValueError):
        WeightedComplex(
            vertices=np.zeros((2, 3)),
            edges=np.array([[0, 0]], dtype=np.int64),
            conductances=np.ones(1),
            masses=np.ones(2),
            phi=np.zeros(2),
        )
    with pytest.raises(ValueError):
        build_weighted_circle(4)
    # two vertices leave the sparse solver no room beside the kernel
    edge = WeightedComplex(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        edges=np.array([[0, 1]], dtype=np.int64),
        conductances=np.ones(1),
        masses=np.ones(2),
        phi=np.zeros(2),
    )
    with pytest.raises(ValueError):
        lambda1_witten(edge)
    with pytest.raises(ValueError):
        build_weighted_circle(32, radius=0.0)


def test_sphere_height_report():
    mesh = build_icosphere(3)
    weighted = apply_weight(mesh, 0.5 * mesh.vertices[:, 2])
    res = lambda1_witten(weighted)
    rep = case_sphere_height(3, 0.5, weighted, res)
    assert rep.case_id == "sphere-height-a=0.5"
    assert rep.passed
    assert set(rep.margins) == {"gap_vs_sup_closed"}
    assert rep.computed["lambda1"] > rep.bounds["sup_closed"]
    with pytest.raises(ValueError):
        case_sphere_height(3, 1.0, weighted, res)


def test_exports_roundtrip(tmp_path):
    mesh = build_icosphere(1)
    off_path = tmp_path / "mesh.off"
    write_off(mesh, off_path)
    lines = off_path.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(t) for t in lines[1].split())
    assert (nv, nf) == (42, 80)
    assert len(lines) == 2 + nv + nf

    res = lambda1_witten(mesh)
    csv_path = tmp_path / "vec.csv"
    write_eigenvector_csv(mesh, res.eigenvector, csv_path)
    data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
    assert data.shape == (42, 6)
    assert np.isfinite(data).all()
