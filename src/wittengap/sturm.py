"""Neumann and Dirichlet spectra of the 1d comparison operator.

The comparison operator behind every gap bound in :mod:`wittengap.bounds`
is the Ornstein-Uhlenbeck generator

    L u = u'' - K x u'        on (-d/2, d/2),

self-adjoint in L^2 of the invariant weight w(x) = exp(-K x^2 / 2), since
L u = (w u')' / w.  A ``TridiagonalPencil`` is a link profile: positive
conductances on the links of a path, positive masses on its unknowns and
a boundary condition.  ``discretize_ou`` builds the OU problem's profile
(conductances w/h, masses w h) as one instance, ``lowest_eigenvalue``
returns the first (nonzero) eigenvalue of any profile, and
``neumann_lambda1`` / ``dirichlet_lambda1`` wrap the OU solve in
Richardson extrapolation over the cell count.

Both conditions are solved by one routine: inverse iteration on the
path's explicit Green's function, which is entrywise positive.  A
Dirichlet pencil is solved as it stands.  A Neumann pencil is solved as
its dual on the links, a Dirichlet pencil whose resistances are the
masses and whose masses are the inverse conductances: it has the
Neumann pencil's nonzero spectrum and no zero mode.  The Green's
function's entries and every step are sums and products of positive
numbers, nothing is formed by cancellation, so even an eigenvalue far
below eps times the matrix norm comes out to relative accuracy, down to
the smallest normal float; one outside the normal range raises
``EigenvalueRangeError``.

A path whose resistances and masses are both reflection-symmetric, as
every ``discretize_ou`` profile is bitwise, has an even ground state.
It is solved on its left half, with the Dirichlet end kept and the
centre made reflecting: the same lowest eigenvalue from arrays half as
long.  Held at one end only, the half path's Green's function is
G_ij = P_min(i,j), with P_i the resistance between unknown i and the
held end, so a step is two running sums and three products.  Any other
profile is solved on the whole path, held at both ends, in the
semiseparable form of its Green's function.

Two structural facts make good cross-checks and are exploited by the test
suite:

  * the flat profile (conductances 1/h, masses h) has first (nonzero)
    eigenvalue 4 sin^2(pi h / (2 d)) / h^2 for both boundary conditions,
    which tends to pi^2/d^2, the first eigenvalue of L at K = 0;
  * differentiating a Neumann eigenfunction solves the Dirichlet problem
    with eigenvalue lowered by K, so lambda_1^D = lambda_1^N - K.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInput, andrews_ni_bound, futaki_sano_bound, sup_bound_closed
from .report import VerificationReport, make_report

__all__ = [
    "MeasureUnderflowError",
    "CellWidthError",
    "IntervalLengthError",
    "IterationCapError",
    "EigenvalueRangeError",
    "OUProblem",
    "TridiagonalPencil",
    "discretize_ou",
    "lowest_eigenvalue",
    "raw_lambda1",
    "neumann_lambda1",
    "dirichlet_lambda1",
    "verify_comparison",
]

# certified tolerance of the comparison inequality, relative to max(1, lambda_1)
TOL_COMPARE_REL = 1e-5

# exp arguments beyond this over/underflow in float64 (exp(709.8) ~ 1.8e308)
EXPONENT_GUARD = 700.0

# smallest cell width h = d / m the solver takes.  A step multiplies the
# resistances (about h) by running sums of M^{1/2} z (about h^{1/2} times
# a tail that lies up to about e^(-E/2) below the top, E the guarded
# exponent), so its smallest products are about h^{3/2} e^(-E/2).  Within
# the exponent guard both conditions solve without underflow down to
# h = 2^-344 at m = 8 and 2^-427 at m = 2000; this keeps 104 bits more.
MIN_CELL_WIDTH = 2.0**-240

# inverse-iteration steps before ``IterationCapError``; the criterion-01
# box takes at most 20 (Dirichlet, 10.5 on average) and 15 (Neumann, 6.4 to
# 6.8 on average) at m = 2000 and 4000
ITERATION_CAP = 100

# the iterate is held at least this far below its largest entry: lower
# tails would form subnormal products, and lifting them moves the
# Rayleigh quotient by about n TAIL_FLOOR^2 relative
TAIL_FLOOR = 2.0**-128

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# np.cumsum bit for bit, without its Python-level dispatch (about 2 us a
# call, a tenth of a step at n = 1000)
_running_sum = np.add.accumulate

NEUMANN = "neumann"
DIRICHLET = "dirichlet"


class MeasureUnderflowError(ValueError):
    """The weight exp(-K x^2 / 2) over- or underflows at the endpoints."""


class CellWidthError(ValueError):
    """The cell width d / m is too small for the 1/h^2 pencil to stay in range."""


class IntervalLengthError(ValueError):
    """The interval length d is so large that d^2 overflows float64."""


class IterationCapError(RuntimeError):
    """Inverse iteration did not settle within ``ITERATION_CAP`` steps."""


class EigenvalueRangeError(ArithmeticError):
    """The lowest eigenvalue lies outside the normal float64 range."""


@dataclass(frozen=True)
class OUProblem:
    """One discretized eigenvalue problem for L on (-d/2, d/2)."""

    K: float
    d: float
    m: int = 2000
    bc: str = NEUMANN

    def __post_init__(self) -> None:
        if not math.isfinite(self.K):
            raise ValueError(f"drift coefficient K must be finite, got {self.K!r}")
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"interval length d must be positive, got {self.d!r}")
        if not math.isfinite(self.d * self.d):
            raise IntervalLengthError(
                f"interval length d = {self.d!r} is too large: d^2 overflows float64"
            )
        if self.m < 8:
            raise ValueError(f"cell count m must be at least 8, got {self.m}")
        h = self.d / self.m
        if h < MIN_CELL_WIDTH:
            raise CellWidthError(
                f"cell width d / m = {h!r} is below 2^{math.log2(MIN_CELL_WIDTH):.0f}; "
                "the 1/h^2 pencil leaves the eigensolver's float range"
            )
        if self.bc not in (NEUMANN, DIRICHLET):
            raise ValueError(f"bc must be {NEUMANN!r} or {DIRICHLET!r}, got {self.bc!r}")
        half = self.d / 2.0
        exponent = abs(self.K) * (half * half) / 2.0
        if exponent > EXPONENT_GUARD:
            raise MeasureUnderflowError(
                f"|K| (d/2)^2 / 2 = {exponent:.1f} exceeds {EXPONENT_GUARD:.0f}; "
                "the invariant weight is not representable in float64"
            )


@dataclass
class TridiagonalPencil:
    """Symmetric tridiagonal generalized pencil (S, M) with diagonal mass.

    The pencil is a link profile on a path of n unknowns: ``mass`` holds
    the n positive masses (the diagonal of M) and ``conductances`` the
    positive link weights the stiffness S is assembled from.  For a
    Neumann pencil the links connect the unknowns (n - 1 of them) and S
    annihilates constants by telescoping.  For a Dirichlet pencil two
    eliminated boundary values of 0 add a first and a last link, so there
    are n + 1.
    """

    conductances: np.ndarray
    mass: np.ndarray
    bc: str

    def __post_init__(self) -> None:
        if self.bc not in (NEUMANN, DIRICHLET):
            raise ValueError(f"bc must be {NEUMANN!r} or {DIRICHLET!r}, got {self.bc!r}")
        self.conductances = np.asarray(self.conductances, dtype=np.float64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.conductances.ndim != 1 or self.mass.ndim != 1:
            raise ValueError("conductances and mass must be 1-D arrays")
        if not (np.isfinite(self.conductances).all() and np.isfinite(self.mass).all()):
            raise ValueError("conductances and mass must be finite")
        n = self.n
        expected_links = n - 1 if self.bc == NEUMANN else n + 1
        if self.conductances.shape[0] != expected_links:
            raise ValueError(
                f"{self.bc} pencil with {n} unknowns needs {expected_links} links, "
                f"got {self.conductances.shape[0]}"
            )
        if not (self.mass > 0.0).all():
            raise ValueError("mass entries must be strictly positive")
        if not (self.conductances > 0.0).all():
            raise ValueError("conductances must be strictly positive")

    @property
    def n(self) -> int:
        return self.mass.shape[0]


def _weight(K: float, d: float, x: np.ndarray) -> np.ndarray:
    """exp(-K x^2 / 2) on [-d/2, d/2], times the power of two 2^j that
    centres its range: it spans about e^{-E/2}..e^{E/2}, E = |K| d^2 / 8.

    Uncentred, the weight spans 1..e^{+-E}, and either the conductances
    w/h or the inverse masses 1/(w h) leave the float range as E nears
    ``EXPONENT_GUARD``.  The spectrum is invariant under the constant
    factor, and an even power of two changes no bit of the pencil's
    sums, products, quotients and square roots where they stay in range.
    """
    return np.ldexp(np.exp(-0.5 * K * x * x), 2 * round(K * d * d / (32.0 * math.log(2.0))))


def discretize_ou(problem: OUProblem) -> TridiagonalPencil:
    """Symmetric finite-volume discretization of L on (-d/2, d/2).

    The m cell centres and the m - 1 interior faces of the uniform grid
    h = d / m are two staggered grids.  Neumann puts the unknowns on the
    centres and the links on the faces (no flux through the boundary
    faces); Dirichlet puts the unknowns on the faces and the links on the
    centres (the boundary values are eliminated).  Either way a link at
    x has conductance w(x)/h and an unknown at x has mass w(x) h.

    Both schemes discretize the Dirichlet form integral(u' v' w dx) to
    second order; the stiffness is positive semidefinite by construction.
    w carries the constant factor of ``_weight``, which both sides share.
    """
    K, d, m = problem.K, problem.d, problem.m
    h = d / m
    # centered index coordinates: x = (i - center) h is exactly odd under
    # i -> (last - i), so the weight arrays are exactly reflection-symmetric
    centres = (np.arange(m) - 0.5 * (m - 1)) * h
    faces = (np.arange(1, m) - 0.5 * m) * h
    nodes, links = (centres, faces) if problem.bc == NEUMANN else (faces, centres)
    return TridiagonalPencil(
        conductances=_weight(K, d, links) / h, mass=_weight(K, d, nodes) * h, bc=problem.bc
    )


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """Cumulative sums of x, each within about one rounding of exact.

    A plain running sum of n terms drifts by up to n roundings, and on
    a flat profile it does so systematically.  Knuth's TwoSum recovers
    the rounding error of every partial sum exactly; adding their running
    sum back leaves an error of order n eps^2.
    """
    s = np.cumsum(x)
    part = s[1:] - s[:-1]
    error = (s[:-1] - (s[1:] - part)) + (x[1:] - part)
    s[1:] += np.cumsum(error)
    return s


def _generators(
    resistances: np.ndarray, masses: np.ndarray, start: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The product z -> A z with A = M^{1/2} G M^{1/2}, and the start
    restricted to the path it acts on.

    A path whose resistances and masses both equal their own reversal is
    folded onto its left half.  Its ground state is positive, hence even,
    so the half path with the Dirichlet end kept and the centre made
    reflecting has the same lowest eigenvalue.  An odd unknown count
    keeps the centre unknown with half its mass (and the start entry
    scaled by sqrt(1/2), which keeps the start the restriction of the
    full one); an even count drops the centre link, which carries no
    flux.  Grounded at one end only, the half path's Green's function is
    G_ij = P_min(i,j), where P_i sums the resistances r up to unknown i.
    So A z = root * cumsum(r * revcumsum(root * z)) with root = M^{1/2}:
    two running sums and three products, and no resistance sum is formed.

    Any other path keeps both ends: G_ij = P_min(i,j) Q_max(i,j) / P_tot,
    where P_i and Q_i are the resistances to the left and to the right
    of unknown i and P_tot their sum.  Then A_ij = a_min(i,j) b_max(i,j)
    with the generators a = M^{1/2} P / sqrt(P_tot) and
    b = M^{1/2} Q / sqrt(P_tot), each a compensated prefix sum.
    """
    if np.array_equal(resistances, resistances[::-1]) and np.array_equal(masses, masses[::-1]):
        n = masses.shape[0]
        half = (n + 1) // 2
        r = resistances[:half]
        root = np.sqrt(masses[:half])
        start = start[:half].copy()
        if n % 2:
            root[-1] = math.sqrt(0.5 * masses[half - 1])
            start[-1] *= math.sqrt(0.5)

        def one_ended(z: np.ndarray) -> np.ndarray:
            return root * _running_sum(r * _running_sum((root * z)[::-1])[::-1])

        return one_ended, start
    cum = _prefix_sums(resistances)
    scale = np.sqrt(masses) / math.sqrt(cum[-1])
    a = cum[:-1] * scale
    b = _prefix_sums(resistances[:0:-1])[::-1] * scale

    def two_ended(z: np.ndarray) -> np.ndarray:
        right = _running_sum((b * z)[::-1])[::-1]
        w = b * _running_sum(a * z)
        w[:-1] += a[:-1] * right[1:]
        return w

    return two_ended, start


def _lowest(resistances: np.ndarray, masses: np.ndarray, start: np.ndarray) -> float:
    """Smallest eigenvalue of a Dirichlet path pencil, by inverse iteration.

    The path has n unknowns with positive ``masses`` and n + 1 links with
    positive ``resistances`` (inverse conductances); both ends are held at
    0.  The stiffness inverse is the path's Green's function G, and
    ``_generators`` gives the product with A = M^{1/2} G M^{1/2}: on a
    reflection-symmetric path, folded onto its half, two running sums and
    three products; on any other path, two running sums of the
    semiseparable form.  A is invariant under a common scale of the
    conductances and masses, and every iterate is normalized by its
    largest entry, so a power-of-two scale of both changes no bit.

    The Schwarz quotient z.z / z.Az of the power iteration z <- A z is
    nonincreasing and bounds the eigenvalue from above; the iteration
    stops once it falls by at most 4 eps relative, a test that needs no
    product of eps with a possibly tiny eigenvalue.  A z is scaled by a
    power of two to at most 1 before it enters the quotient, so z.Az
    cannot overflow and an eigenvalue down to the smallest normal float
    comes out.  ``EigenvalueRangeError`` is raised where a step overflows
    (the eigenvalue lies below about 1 / max float) or the quotient, an
    upper bound, falls below the smallest normal float.
    """
    step, w = _generators(resistances, masses, start)
    top = w.max()
    lam = math.inf
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for _ in range(ITERATION_CAP):
                z = np.maximum(w, TAIL_FLOOR * top) / top
                w = step(z)
                top = w.max()
                # a power of two brings A z below 1 exactly: the quotient
                # keeps its bits, and z.Az cannot overflow
                scale = math.ldexp(1.0, -math.frexp(top)[1])
                w *= scale
                top *= scale
                quotient = (z @ z) / (z @ w) * scale
                if quotient < _TINY:
                    raise EigenvalueRangeError(
                        f"lowest eigenvalue on {masses.shape[0]} unknowns is below the "
                        f"normal float64 range (quotient {float(quotient)!r})"
                    )
                if quotient >= lam * (1.0 - 4.0 * _EPS):
                    return float(min(quotient, lam))
                lam = quotient
    except (FloatingPointError, OverflowError) as exc:
        raise EigenvalueRangeError(
            f"lowest eigenvalue on {masses.shape[0]} unknowns is outside the normal "
            f"float64 range ({exc})"
        ) from exc
    raise IterationCapError(
        f"inverse iteration on {masses.shape[0]} unknowns did not settle "
        f"in {ITERATION_CAP} steps (last quotient {lam!r})"
    )


def lowest_eigenvalue(pencil: TridiagonalPencil) -> float:
    """First nonzero eigenvalue of S v = lam M v for Neumann, smallest for Dirichlet.

    A Neumann pencil is solved as its dual on the links (resistances =
    masses, masses = 1 / conductances), whose spectrum is the Neumann
    pencil's without the zero mode.  The starts are given in the
    symmetric variable z = M^{1/2} v.  A Dirichlet pencil starts from
    z = 1.  The dual starts from the fluxes c h of u = x, which are
    z = h sqrt(c): close to the first mode where the next eigenvalue is
    only twice as large and power steps are slowest.  A reflection-
    symmetric pencil, such as every OU pencil, is solved on half of its
    path, held at one end, from the restriction of its start: two running
    sums and three products a step (see ``_generators``).  An eigenvalue
    outside the normal float64 range raises ``EigenvalueRangeError``.
    """
    c = pencil.conductances
    if pencil.n < (2 if pencil.bc == NEUMANN else 1):
        raise ValueError(f"a {pencil.bc} pencil with {pencil.n} unknowns has no such eigenvalue")
    if pencil.bc == NEUMANN:
        return _lowest(pencil.mass, 1.0 / c, np.sqrt(c))
    return _lowest(1.0 / c, pencil.mass, np.ones(pencil.n))


def raw_lambda1(K: float, d: float, m: int, bc: str) -> float:
    """First nonzero eigenvalue of L on m cells, without extrapolation."""
    return lowest_eigenvalue(discretize_ou(OUProblem(K=K, d=d, m=m, bc=bc)))


def _richardson_lambda1(K: float, d: float, m: int, bc: str) -> float:
    """Solves at m and 2m cells and returns (4 lam_{2m} - lam_m) / 3,
    which cancels the leading h^2 error of the finite-volume scheme."""
    coarse = raw_lambda1(K, d, m, bc)
    fine = raw_lambda1(K, d, 2 * m, bc)
    return (4.0 * fine - coarse) / 3.0


def neumann_lambda1(K: float, d: float, m: int = 2000) -> float:
    """First nonzero Neumann eigenvalue of L, Richardson-extrapolated.

    Both solves are on the dual pencil (see ``lowest_eigenvalue``), which
    has no zero mode.
    """
    return _richardson_lambda1(K, d, m, NEUMANN)


def dirichlet_lambda1(K: float, d: float, m: int = 2000) -> float:
    """Smallest Dirichlet eigenvalue of L, Richardson-extrapolated."""
    return _richardson_lambda1(K, d, m, DIRICHLET)


def verify_comparison(K: float, d: float, m: int = 2000) -> VerificationReport:
    """Certify lambda_1(L) >= sup_bound_closed(K, d) for one parameter pair.

    The margin lambda_1 - bound is tested against TOL_COMPARE_REL * max(1, lambda_1).
    At K = 0 the two sides agree exactly in the continuum (both equal
    pi^2/d^2), so the margin should vanish to extrapolation accuracy.
    The fixed-slope comparison bounds are reported alongside; for K < 0
    they are informational only, since the supremum bound is not known to
    dominate them there.
    """
    inp = BoundInput(K=K, d=d)
    lam1 = neumann_lambda1(K, d, m=m)
    bound = sup_bound_closed(inp)
    tol = TOL_COMPARE_REL * max(1.0, abs(lam1))
    notes = [f"comparison operator solved at m={m} and m={2 * m}, extrapolated"]
    if K == 0.0:
        notes.append("K = 0: bound is sharp, margin should vanish to solver accuracy")
    if K < 0.0:
        notes.append("K < 0: fixed-slope bounds reported without a dominance verdict")
    return make_report(
        case_id=f"ou-comparison-K={K:g}-d={d:g}",
        inputs={"K": K, "d": d, "m": float(m)},
        computed={"lambda1_ou": lam1},
        bounds={
            "sup_closed": bound,
            "futaki_sano": futaki_sano_bound(inp),
            "andrews_ni": andrews_ni_bound(inp),
        },
        margins={"gap_vs_sup_closed": lam1 - bound},
        tolerances={"gap_vs_sup_closed": tol},
        notes=notes,
    )
