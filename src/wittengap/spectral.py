"""Discrete drift Laplacians on weighted 1- and 2-complexes.

A weighted complex carries an edge conductance c_e > 0 and a vertex mass
m_i > 0.  The stiffness form sum_e c_e (u_i - u_j)^2 against the mass
inner product defines a generalized eigenvalue problem whose continuum
limit is the drift Laplacian Delta - grad(phi).grad in the measure
exp(-phi) dv: multiplying conductances by exp(-(phi_i + phi_j)/2) and
masses by exp(-phi_i) is exactly the discrete change of measure
(see ``apply_weight``).

Constructors cover the two geometric families used by the verification
suite: uniform circles (second differences along arclength) and
icospheres (cotangent edge weights with barycentric lumped mass).
``lambda1_witten`` computes the bottom of the nonzero spectrum with one
sparse shift-invert Lanczos solve (ARPACK) of the generalized pencil,
whatever the size of the complex.  The module factors the shifted pencil
S - SHIFT M itself, once per solve, and hands ARPACK that solve: the
pencil is assembled in a geometric nested-dissection order of the mesh,
computed once per graph and shared by its reweighted copies, and
eliminated with every pivot on the diagonal.  S - SHIFT M is symmetric
positive definite, so elimination without pivoting is backward stable
and no pivot vanishes; the factor is a symmetric permutation of
L D L^T.  On the sphere of 10242 vertices it holds 828,878 nonzeros,
against 1,347,336 for scipy's default COLAMD order with row pivoting.
The module builds no reports: the certification cases that compare these
values with the gap bound live in ``wittengap.cli``.

Each solve holds every loaded OpenBLAS to one thread (see
``_one_blas_thread``), so its values do not depend on the thread count
the process was started with.

Only mesh solves need ``scipy.sparse``: it costs about 0.35 s and 33 MB to
import, so ``is_connected``, ``stiffness_matrix`` and ``lambda1_witten``
import it when first called, and ``import wittengap``, the ``bounds`` and
``ou`` commands and the interval solver start on numpy alone.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .bounds import _check_count
from .sturm import EXPONENT_GUARD, MeasureUnderflowError

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.sparse.linalg import SuperLU

__all__ = [
    "WeightedComplex",
    "SpectralResult",
    "EigensolverConvergenceError",
    "build_weighted_circle",
    "build_icosphere",
    "apply_weight",
    "witten_apply",
    "stiffness_matrix",
    "lambda1_witten",
    "write_off",
    "write_eigenvector_csv",
]

# shift of the shift-invert solve: below the spectrum, so S - SHIFT M is
# positive definite, and close to the kernel relative to lambda_1
SHIFT = -1e-3
# Lanczos basis size per ARPACK restart.  A single-vector Krylov method
# finds further copies of a repeated eigenvalue only as rounding lets them
# grow; with ARPACK's default basis (20) the round icospheres lose copies
# of their 5-fold second level.  From 35 on, circles of 8 to 2048 points
# and icospheres up to subdivision 5, round and height-weighted, return
# every copy.
KRYLOV_DIM = 40
# nonzero eigenvalues per solve, ARPACK's relative accuracy and its restart cap
N_EIGS = 6
ARPACK_TOL = 1e-10
ARPACK_MAX_RESTARTS = 600
# parts of at most this many vertices are not dissected further
_DISSECTION_LEAF = 32
# (get, set) thread-count calls of an OpenBLAS: scipy's build, numpy's
# build with 64-bit integers, and a plain system OpenBLAS
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class EigensolverConvergenceError(RuntimeError):
    """The sparse eigensolver did not deliver a resolved lambda_1: it hit its
    restart cap, failed in ARPACK or the shifted factor, returned a kernel
    eigenvalue that does not separate from the rest of the spectrum, or
    returned a lambda_1 below what the shift resolves."""


@dataclass
class WeightedComplex:
    """Vertices, weighted edges, and vertex masses of one discrete space.

    ``edges`` is an (E, 2) integer array with each edge listed once;
    ``faces`` is kept for triangulated surfaces so they can be exported
    and so curvature-weight constructors can be audited.  ``phi`` records
    the accumulated potential so that re-weighting composes.
    """

    vertices: np.ndarray
    edges: np.ndarray
    conductances: np.ndarray
    masses: np.ndarray
    phi: np.ndarray
    faces: np.ndarray | None = None
    # [vertices, edges, order] once a solve has ordered this graph; the list
    # is shared by every copy ``replace`` makes, so reweighted copies of one
    # mesh order it once between them
    _order_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.vertices.shape[0]
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array")
        if (self.edges < 0).any() or (self.edges >= n).any():
            raise ValueError("edge endpoints out of range")
        if (self.edges[:, 0] == self.edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        if self.conductances.shape != (self.edges.shape[0],):
            raise ValueError("one conductance per edge required")
        if self.masses.shape != (n,) or self.phi.shape != (n,):
            raise ValueError("masses and phi must have one entry per vertex")
        if not (self.conductances > 0.0).all():
            raise ValueError("conductances must be strictly positive")
        if not (self.masses > 0.0).all():
            raise ValueError("masses must be strictly positive")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def is_connected(self) -> bool:
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        n = self.n_vertices
        i, j = self.edges[:, 0], self.edges[:, 1]
        adj = sparse.coo_matrix((self.conductances, (i, j)), shape=(n, n))
        return connected_components(adj, directed=False, return_labels=False) == 1

    def _elimination_order(self) -> np.ndarray:
        """Nested-dissection order of the graph, computed once per mesh."""
        cache = self._order_cache
        if not (cache and cache[0] is self.vertices and cache[1] is self.edges):
            cache[:] = [self.vertices, self.edges, _nested_dissection(self.vertices, self.edges)]
        return cache[2]


@dataclass
class SpectralResult:
    """Bottom of the nonzero spectrum of one weighted complex.

    ``eigenvalues`` holds the first few nonzero eigenvalues in ascending
    order (``lambda1`` is its first entry), ``eigenvector`` the
    mass-normalized first eigenvector, ``residual`` its eigen-residual in
    the mass pairing.  The lambda1 cluster is every returned eigenvalue
    within 5 % of lambda1: ``cluster_size`` counts it and
    ``multiplicity_gap`` is the relative jump from it to the next level.
    """

    lambda1: float
    cluster_size: int
    multiplicity_gap: float
    eigenvector: np.ndarray
    residual: float
    eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0))


def stiffness_matrix(complex_: WeightedComplex) -> sparse.csr_matrix:
    """Sparse graph Laplacian sum_e c_e (e_i - e_j)(e_i - e_j)^T."""
    from scipy import sparse

    i, j = complex_.edges[:, 0], complex_.edges[:, 1]
    c = complex_.conductances
    n = complex_.n_vertices
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-c, -c, c, c])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def witten_apply(complex_: WeightedComplex, u: np.ndarray) -> np.ndarray:
    """Apply the generalized operator Mass^{-1} Stiffness to u.

    Assembled edge-wise, so a constant input maps to exactly zero: each
    edge contributes c_e (u_i - u_j) and the differences vanish before
    any rounding.  The sign convention makes the operator positive
    semidefinite; on a weighted curve or surface it discretizes
    -(Delta u - grad(phi) . grad u).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (complex_.n_vertices,):
        raise ValueError("u must have one entry per vertex")
    i, j = complex_.edges[:, 0], complex_.edges[:, 1]
    flux = complex_.conductances * (u[i] - u[j])
    out = np.zeros(complex_.n_vertices)
    np.add.at(out, i, flux)
    np.subtract.at(out, j, flux)
    return out / complex_.masses


def apply_weight(complex_: WeightedComplex, phi_values: np.ndarray) -> WeightedComplex:
    """Change of measure by exp(-phi): reweight conductances and masses.

    Edge conductances pick up exp(-(phi_i + phi_j)/2) (geometric midpoint
    rule) and vertex masses exp(-phi_i).  Adding a constant to phi scales
    both sides of the pencil equally, so the spectrum is invariant under
    phi -> phi + c.
    """
    phi_values = np.asarray(phi_values, dtype=np.float64)
    if phi_values.shape != (complex_.n_vertices,):
        raise ValueError("phi_values must have one entry per vertex")
    if not np.isfinite(phi_values).all():
        raise ValueError("phi_values must be finite")
    peak = float(np.abs(phi_values).max(initial=0.0))
    if peak > EXPONENT_GUARD:
        raise MeasureUnderflowError(
            f"max |phi| = {peak!r} exceeds {EXPONENT_GUARD:.0f}; "
            "the weight exp(-phi) is not representable in float64"
        )
    i, j = complex_.edges[:, 0], complex_.edges[:, 1]
    edge_factor = np.exp(-0.5 * (phi_values[i] + phi_values[j]))
    return replace(
        complex_,
        conductances=complex_.conductances * edge_factor,
        masses=complex_.masses * np.exp(-phi_values),
        phi=complex_.phi + phi_values,
    )


def build_weighted_circle(n: int, radius: float = 1.0) -> WeightedComplex:
    """Uniform n-point circle of given radius in the z = 0 plane.

    The complex has conductance 1/h and mass h with h = 2 pi radius / n,
    the standard second-difference discretization of d^2/ds^2 along
    arclength; ``apply_weight`` adds a potential.
    """
    _check_count("n", n)
    if n < 8:
        raise ValueError(f"need at least 8 vertices on a circle, got {n}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius!r}")
    angle = 2.0 * math.pi * np.arange(n) / n
    vertices = np.column_stack(
        [radius * np.cos(angle), radius * np.sin(angle), np.zeros(n)]
    )
    return _ring(vertices, 2.0 * math.pi * radius / n)


def _ring(vertices: np.ndarray, h: float) -> WeightedComplex:
    """The periodic ring through ``vertices`` in order: edge i -> i + 1 mod n,
    conductance 1/h, mass h and phi 0."""
    n = vertices.shape[0]
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n]).astype(np.int64)
    return WeightedComplex(
        vertices=vertices,
        edges=edges,
        conductances=np.full(n, 1.0 / h),
        masses=np.full(n, h),
        phi=np.zeros(n),
    )


# vertices and faces of the unit icosahedron
_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
        [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
        [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
    ],
    dtype=np.float64,
)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _subdivide(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One 4-to-1 refinement, new vertices projected back to the sphere.

    Midpoints are numbered in the order the faces first meet their edges,
    (a, b), (b, c), (c, a) per face.
    """
    n = vertices.shape[0]
    ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = ends.min(axis=1) * n + ends.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    a, b = ends[first[order]].T
    p = 0.5 * (vertices[a] + vertices[b])
    # a row-wise matmul rounds |p| as the 1-D norm does; norm(p, axis=1) can be one ulp off
    p = p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    new_faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    return np.concatenate([vertices, p]), new_faces


def build_icosphere(subdivisions: int) -> WeightedComplex:
    """Geodesic unit sphere with cotangent weights and lumped mass.

    Starts from the icosahedron, subdivides ``subdivisions`` times
    (10 * 4^s + 2 vertices), and projects every vertex to the unit
    sphere.  Edge conductance is the usual cotangent weight
    (cot(alpha) + cot(beta))/2 over the two opposite angles; the vertex
    mass is one third of the adjacent triangle area.  All triangles of
    this family are acute, so the conductances stay positive.
    """
    _check_count("subdivisions", subdivisions)
    if not 0 <= subdivisions <= 7:
        raise ValueError(f"subdivisions must be in 0..7, got {subdivisions}")
    vertices = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES
    for _ in range(subdivisions):
        vertices, faces = _subdivide(vertices, faces)

    n = vertices.shape[0]
    corner = vertices[faces]  # (F, 3, 3)
    # cot at corner k faces edge (k+1, k+2)
    cots = np.empty_like(faces, dtype=np.float64)
    for k in range(3):
        u = corner[:, (k + 1) % 3] - corner[:, k]
        v = corner[:, (k + 2) % 3] - corner[:, k]
        twice_area = np.linalg.norm(np.cross(u, v), axis=1)
        cots[:, k] = (u * v).sum(axis=1) / twice_area
        if k == 0:
            area = 0.5 * twice_area

    # each edge once, by the key min * n + max, which sorts as the rows do
    ends = np.concatenate([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]])
    key, inverse = np.unique(ends.min(axis=1) * n + ends.max(axis=1), return_inverse=True)
    edges = np.column_stack(np.divmod(key, n))
    conductances = np.zeros(edges.shape[0])
    np.add.at(conductances, inverse, 0.5 * cots.T.reshape(-1))

    masses = np.zeros(n)
    np.add.at(masses, faces.reshape(-1), np.repeat(area / 3.0, 3))

    return WeightedComplex(
        vertices=vertices,
        edges=edges,
        conductances=conductances,
        masses=masses,
        phi=np.zeros(n),
        faces=faces,
    )


def _nested_dissection(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection elimination order of a mesh graph.

    Every part of more than ``_DISSECTION_LEAF`` vertices is split at the
    median of its widest coordinate.  The endpoints below the median of
    the edges that cross the split form its separator, which disconnects
    the rest of the lower side from the upper side.  Each part is ordered
    as its lower rest, then its upper side, then its separator, so every
    separator is eliminated after the parts it divides (A. George, "Nested
    dissection of a regular finite element mesh", SIAM J. Numer. Anal. 10,
    1973).  A part with no vertex below its median, e.g. one of coincident
    vertices, is not split.  The order depends only on the graph and its
    coordinates; within a piece, vertices keep their index order.
    """
    label = np.zeros(vertices.shape[0], dtype=np.int8)
    # a depth-first walk that emits separators before the parts they
    # divide; the reversed list of pieces is the order
    pieces: list[np.ndarray] = []
    stack = [(np.arange(vertices.shape[0]), edges[:, 0], edges[:, 1])]
    while stack:
        idx, i, j = stack.pop()
        if idx.size > _DISSECTION_LEAF:
            x = vertices[idx]
            coord = x[:, int(np.argmax(x.max(axis=0) - x.min(axis=0)))]
            below = coord < np.median(coord)
        if idx.size <= _DISSECTION_LEAF or not below.any():
            pieces.append(idx)
            continue
        label[idx] = below
        li, lj = label[i], label[j]
        cut = li != lj
        separator = np.unique(np.where(li[cut] == 1, i[cut], j[cut]))
        label[separator] = 2
        li, lj = label[i], label[j]
        pieces.append(separator)
        for side in (1, 0):
            inside = (li == side) & (lj == side)
            stack.append((idx[label[idx] == side], i[inside], j[inside]))
    return np.concatenate(pieces[::-1])


def _shift_factor(complex_: WeightedComplex, mu: float) -> tuple[np.ndarray, SuperLU]:
    """LU factor of S - mu M in the mesh's elimination order, with diagonal pivots.

    The pencil is assembled already permuted, so ``splu`` keeps the natural
    column order and pivots on the diagonal: the factor is L D L^T up to
    the scaling of U, and U's diagonal carries the inertia of S - mu M.
    Returns ``(order, lu)``; ``lu`` factors the matrix whose row and column
    k are vertex ``order[k]``.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = complex_.n_vertices
    order = complex_._elimination_order()
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    i, j = position[complex_.edges].T
    c = complex_.conductances
    diag = np.arange(n)
    pencil = sparse.csc_matrix(
        (
            np.concatenate([-c, -c, c, c, -mu * complex_.masses[order]]),
            (np.concatenate([i, j, i, j, diag]), np.concatenate([j, i, i, j, diag])),
        ),
        shape=(n, n),
    )
    lu = splu(
        pencil,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return order, lu


def _openblas_thread_calls() -> list[tuple]:
    """The (get, set) thread-count calls of every OpenBLAS loaded in this process.

    Libraries are found in ``/proc/self/maps`` and opened with
    ``RTLD_NOLOAD``, so none is loaded here; without ``/proc`` the list is
    empty.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(
                line.split(None, 5)[5].strip() for line in fh if "openblas" in line.lower()
            )
    except OSError:
        return []
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
    return calls


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS to one thread, then restore the caller's counts.

    A second thread reorders BLAS sums, which moves the last digits of an
    eigensolve, and it slows SuperLU's triangular solves; beside a forked
    grid sweep on a 2-core machine it also competes for the second core.
    No-op where no OpenBLAS thread-count call is found.
    """
    calls = _openblas_thread_calls()
    counts = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, counts):
            set_(count)


def lambda1_witten(complex_: WeightedComplex) -> SpectralResult:
    """First nonzero eigenvalue of the weighted complex, with diagnostics.

    Solves the generalized pencil S v = lam M v, M = diag(masses), with
    one ARPACK call in shift-invert mode.  The shift ``SHIFT`` is small
    and negative, so S - SHIFT M is positive definite even though S has
    the constants as kernel, and the eigenvalues nearest the shift are the
    bottom of the spectrum.  ARPACK solves with S - SHIFT M through one
    factor from ``_shift_factor``: S - SHIFT M is assembled in the mesh's
    nested-dissection elimination order and factored with every pivot on
    the diagonal.  Positive definiteness makes that safe: Gaussian
    elimination without pivoting is backward stable on a symmetric
    positive definite matrix, and no pivot can vanish.  The order is
    computed once per graph, so reweighted copies of one mesh share it.
    ``N_EIGS + 1`` eigenvalues are computed and the kernel is dropped
    after checking that it separates; one that does not raises
    ``EigensolverConvergenceError``.  The Lanczos basis is ``KRYLOV_DIM``
    wide so that repeated eigenvalues come out with their multiplicity,
    and the start vector is fixed, so the solve is deterministic.
    ``ARPACK_TOL`` is ARPACK's relative accuracy and
    ``ARPACK_MAX_RESTARTS`` its restart cap; when the cap is hit,
    ``EigensolverConvergenceError`` is raised.  The tolerance applies to
    1 / (lam - SHIFT), so lambda_1 carries an absolute error up to about
    |SHIFT| * ARPACK_TOL; a lambda_1 below that raises the same error, as
    do ARPACK's own errors and a singular shifted factor.  Shift-invert
    mode applies only the solve and M, so S itself is never assembled.  Every loaded
    OpenBLAS is held to one thread for the factor, the solve and the
    residual (``_one_blas_thread``), so the values do not depend on the
    thread count of the calling process.
    """
    from scipy import sparse  # 0.35 s and 33 MB to import; only mesh solves need it
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    n = complex_.n_vertices
    if n < 3:
        raise ValueError(f"the sparse eigensolver needs at least 3 vertices, got {n}")
    if not complex_.is_connected():
        raise ValueError("complex is disconnected; the drift Laplacian has extra kernel")
    # ARPACK needs fewer requested pairs than vertices
    n_eigs = min(N_EIGS, n - 2)
    weights = complex_.masses
    # one BLAS thread for the factor, the solve and the residual
    with _one_blas_thread():
        try:
            order, lu = _shift_factor(complex_, SHIFT)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise EigensolverConvergenceError(
                f"shifted factor failed at shift {SHIFT:g} on n = {n}: {exc}"
            ) from exc

        def shift_solve(x: np.ndarray) -> np.ndarray:
            y = np.empty_like(x)
            y[order] = lu.solve(x[order])
            return y

        def never_applied(x: np.ndarray) -> np.ndarray:
            raise RuntimeError("shift-invert mode applies no stiffness matrix")

        try:
            # eigsh reads its A only for the shape and dtype
            values, vectors = eigsh(
                LinearOperator((n, n), matvec=never_applied, dtype=np.float64),
                k=n_eigs + 1,
                M=sparse.diags(weights),
                sigma=SHIFT,
                which="LM",
                v0=np.cos(0.618 * np.arange(n)),
                ncv=min(n, max(2 * n_eigs + 3, KRYLOV_DIM)),
                tol=ARPACK_TOL,
                maxiter=ARPACK_MAX_RESTARTS,
                OPinv=LinearOperator((n, n), matvec=shift_solve, dtype=np.float64),
            )
        except ArpackNoConvergence as exc:
            raise EigensolverConvergenceError(
                f"ARPACK shift-invert found {len(exc.eigenvalues)} of {n_eigs + 1} "
                f"eigenpairs within {ARPACK_MAX_RESTARTS} restarts (tol {ARPACK_TOL:.1e})"
            ) from exc
        except ArpackError as exc:
            raise EigensolverConvergenceError(
                f"ARPACK shift-invert failed at shift {SHIFT:g} on n = {n}: {exc}"
            ) from exc
        ascending = np.argsort(values)
        values, vectors = values[ascending], vectors[:, ascending]
        zero_scale = abs(values[0]) / max(1.0, abs(values[-1]))
        if zero_scale > 1e-8:
            raise EigensolverConvergenceError(
                f"kernel eigenvalue did not separate: {values[:2]}"
            )
        eigenvalues = np.asarray(values[1:], dtype=np.float64)
        lam1 = float(eigenvalues[0])
        if lam1 < abs(SHIFT) * ARPACK_TOL:
            raise EigensolverConvergenceError(
                f"lambda_1 = {lam1:.3e} is below the {abs(SHIFT) * ARPACK_TOL:.0e} that "
                f"shift {SHIFT:g} with tol {ARPACK_TOL:.0e} resolves on n = {n}"
            )

        # mass-orthogonal to constants, unit mass norm, largest entry positive
        v = vectors[:, 1]
        v = v - (weights @ v) / weights.sum()
        v /= math.sqrt(float(v @ (weights * v)))
        anchor = int(np.argmax(np.abs(v)))
        if v[anchor] < 0.0:
            v = -v

        r = witten_apply(complex_, v) * weights - lam1 * weights * v
        residual = math.sqrt(float(r @ (r / weights)))

    cluster = eigenvalues <= lam1 * 1.05
    beyond = eigenvalues[~cluster]
    if beyond.size:
        multiplicity_gap = float((beyond[0] - lam1) / lam1)
    else:
        multiplicity_gap = 0.0

    return SpectralResult(
        lambda1=lam1,
        cluster_size=int(np.count_nonzero(cluster)),
        multiplicity_gap=multiplicity_gap,
        eigenvector=v,
        residual=residual,
        eigenvalues=eigenvalues,
    )


def write_off(complex_: WeightedComplex, path) -> None:
    """Write vertices and faces in OFF format (0 faces for 1-complexes)."""
    faces = complex_.faces if complex_.faces is not None else np.empty((0, 3), dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{complex_.n_vertices} {faces.shape[0]} 0\n")
        for x, y, z in complex_.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in faces:
            fh.write(f"3 {a} {b} {c}\n")


def write_eigenvector_csv(complex_: WeightedComplex, u: np.ndarray, path) -> None:
    """Write per-vertex eigenvector samples as CSV."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (complex_.n_vertices,):
        raise ValueError("u must have one entry per vertex")
    with open(path, "w") as fh:
        fh.write("vertex_index,x,y,z,phi,u\n")
        for idx in range(complex_.n_vertices):
            x, y, z = complex_.vertices[idx]
            fh.write(f"{idx},{x:.17g},{y:.17g},{z:.17g},{complex_.phi[idx]:.17g},{u[idx]:.17g}\n")
