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

The OU profile lives on one half-spaced grid x_k = (k - m) h / 2,
k = 1, ..., 2m - 1, h = d / m: its odd points are the m cell centres and
its even points the m - 1 interior faces.  Each x_k is one rounding of
an exact product, and x_{2m-k} = -x_k bit for bit, so the weight is
evaluated once on the grid and the profile is reflection-symmetric.
Since h_2m = h_m / 2 exactly, the grid of m cells is every other point
of the grid of 2m cells, with the same bits.

A pencil whose conductances and masses are both reflection-symmetric, as
every ``discretize_ou`` profile is bitwise, has an even ground state.
It is folded before anything else is formed and solved on its left half,
with the Dirichlet end kept and the centre made reflecting: the same
lowest eigenvalue from arrays half as long.  Held at one end only, the
half path's Green's function is G_ij = P_min(i,j), with P_i the
resistance between unknown i and the held end, so a step is two running
sums and three products, run in buffers allocated once per solve.  Any
other profile is solved on the whole path, held at both ends, in the
semiseparable form of its Green's function.

``raw_lambda1`` and the Richardson pair never build the whole OU pencil:
they form the weight on the left half of the grid only, the same bits as
the start of ``discretize_ou``'s arrays, and solve that half path with
the same routine, so they return ``lowest_eigenvalue``'s bits.  The pair
evaluates the weight once, on the 2m grid, and the m solve reads every
other point of it.  Its 2m solve starts from the m solve's eigenvector,
carried to the finer grid by copying and averaging neighbours
(``_prolong``), and needs about 4.2 power steps on the criterion-01 box
instead of 6.4 (Neumann) or 10.5 (Dirichlet); the extrapolated value
moves only at round-off, within about 2e-14 relative.

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

from .bounds import BoundInput, _check_count, andrews_ni_bound, futaki_sano_bound, sup_bound_closed
from .report import VerificationReport, lower, make_report

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

# inverse-iteration steps before ``IterationCapError``; on the criterion-01
# box a cold start takes at most 20 (Dirichlet, 10.5 on average) and 15
# (Neumann, 6.4 to 6.8 on average) at m = 2000 and 4000, and the 4000 solve
# of a Richardson pair, started from the 2000 one's eigenvector, at most 9
# (4.2 on average) for either condition
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
# ndarray.max bit for bit, likewise
_largest = np.maximum.reduce

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
        _check_count("cell count m", self.m)
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
                f"|K| (d/2)^2 / 2 = {float(exponent)!r} exceeds {EXPONENT_GUARD:.0f}; "
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


def _ou_weight(problem: OUProblem, points: int) -> np.ndarray:
    """The weight at the first ``points`` points of the half-spaced grid."""
    K, d, m = problem.K, problem.d, problem.m
    return _weight(K, d, (np.arange(1, points + 1) - m) * (0.5 * (d / m)))


def _ou_profile(problem: OUProblem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conductances w/h and masses w h from the weight ``w`` on the grid:
    all 2m - 1 points give the whole profile, the first 2c the first c."""
    links, nodes = (w[1::2], w[0::2]) if problem.bc == NEUMANN else (w[0::2], w[1::2])
    h = problem.d / problem.m
    return links / h, nodes * h


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
    conductances, mass = _ou_profile(problem, _ou_weight(problem, 2 * problem.m - 1))
    return TridiagonalPencil(conductances=conductances, mass=mass, bc=problem.bc)


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


def _solved_path(
    conductances: np.ndarray, mass: np.ndarray, bc: str
) -> tuple[np.ndarray, np.ndarray]:
    """Resistances and masses of the Dirichlet path the solver iterates on,
    from a pencil's profile or a leading part of it: the pencil itself for
    Dirichlet, and for Neumann its dual on the links (resistances =
    masses, masses = 1 / conductances), which has the Neumann pencil's
    nonzero spectrum and no zero mode."""
    if bc == NEUMANN:
        return mass, 1.0 / conductances
    return 1.0 / conductances, mass


def _cold_start(conductances: np.ndarray, mass: np.ndarray, bc: str) -> np.ndarray:
    """The start in the symmetric variable z = M^{1/2} v of the solved path.

    A Dirichlet pencil starts from z = 1.  The Neumann dual starts from
    the fluxes c h of u = x, which are z = h sqrt(c): close to the first
    mode where the next eigenvalue is only twice as large and power steps
    are slowest.
    """
    return np.sqrt(conductances) if bc == NEUMANN else np.ones(mass.shape[0])


def _half_path(
    conductances: np.ndarray,
    mass: np.ndarray,
    bc: str,
    centre: bool,
    start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue of a reflection-symmetric pencil from the left
    half of its profile, and its eigenvector there.

    ``conductances`` and ``mass`` are the first (n + 1) // 2 entries of
    each, n the unknown count of the solved path (see ``_solved_path``).
    Its ground state is positive, hence even, so the half path with the
    Dirichlet end kept and the centre made reflecting has the same lowest
    eigenvalue.  With ``centre`` (n odd) the last unknown is the centre
    one and keeps half its mass (and the cold start's entry is scaled by
    sqrt(1/2), which keeps it the restriction of the whole one);
    otherwise the dropped centre link carries no flux.  Grounded at one
    end only, the half path's Green's function is G_ij = P_min(i,j),
    where P_i sums the resistances r up to unknown i.  So
    A z = root * cumsum(r * revcumsum(root * z)) with root = M^{1/2}: two
    running sums and three products, and no resistance sum is formed.

    ``start``, if given, and the returned eigenvector are in the solved
    path's own variable v = M^{-1/2} z, where the half path is the plain
    restriction of the whole; without a start the solve begins from
    ``_cold_start``.
    """
    r, masses = _solved_path(conductances, mass, bc)
    root = np.sqrt(masses)
    if centre:
        root[-1] = math.sqrt(0.5 * masses[-1])
    if start is None:
        start = _cold_start(conductances, mass, bc)
        if centre:
            start[-1] *= math.sqrt(0.5)
    else:
        start = root * start
    t = np.empty_like(root)
    reverse = t[::-1]

    def one_ended(z: np.ndarray, out: np.ndarray) -> None:
        np.multiply(root, z, out=t)
        # in place on the reversed view: the reverse running sum, bit for bit
        _running_sum(reverse, out=reverse)
        np.multiply(t, r, out=t)
        _running_sum(t, out=t)
        np.multiply(root, t, out=out)

    lam, w = _power_iteration(one_ended, start)
    return lam, np.divide(w, root, out=w)


def _two_ended(
    resistances: np.ndarray, masses: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], None]:
    """The product A z of a path held at both ends, written into ``out``.

    The Green's function is G_ij = P_min(i,j) Q_max(i,j) / P_tot, where
    P_i and Q_i are the resistances to the left and to the right of
    unknown i and P_tot their sum.  Then A_ij = a_min(i,j) b_max(i,j)
    with the generators a = M^{1/2} P / sqrt(P_tot) and
    b = M^{1/2} Q / sqrt(P_tot), each a compensated prefix sum.
    """
    cum = _prefix_sums(resistances)
    scale = np.sqrt(masses) / math.sqrt(cum[-1])
    a = cum[:-1] * scale
    b = _prefix_sums(resistances[:0:-1])[::-1] * scale

    def two_ended(z: np.ndarray, out: np.ndarray) -> None:
        right = _running_sum((b * z)[::-1])[::-1]
        np.multiply(b, _running_sum(a * z), out=out)
        out[:-1] += a[:-1] * right[1:]

    return two_ended


def _power_iteration(
    step: Callable[[np.ndarray, np.ndarray], None], w: np.ndarray
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a Dirichlet path pencil, by inverse iteration,
    and the last iterate.

    ``step(z, out)`` writes A z into ``out``, with A = M^{1/2} G M^{1/2}
    and G the path's Green's function: on a folded half path two running
    sums and three products (``_half_path``), on any other path two
    running sums of the semiseparable form (``_two_ended``).  ``w`` is
    the start and is overwritten by the iterates.  A is invariant under a
    common scale of the conductances and masses, and every iterate is
    normalized by its largest entry, so a power-of-two scale of both
    changes no bit.

    The Schwarz quotient z.z / z.Az of the power iteration z <- A z is
    nonincreasing and bounds the eigenvalue from above; the iteration
    stops once it falls by at most 4 eps relative, a test that needs no
    product of eps with a possibly tiny eigenvalue.  A z is scaled by a
    power of two to at most 1 before it enters the quotient, so z.Az
    cannot overflow and an eigenvalue down to the smallest normal float
    comes out.  ``EigenvalueRangeError`` is raised where a step overflows
    (the eigenvalue lies below about 1 / max float) or the quotient, an
    upper bound, leaves the normal float range.
    """
    n = w.shape[0]
    z = np.empty(n)
    top = float(_largest(w))
    lam = math.inf
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for _ in range(ITERATION_CAP):
                np.maximum(w, TAIL_FLOOR * top, out=z)
                z /= top
                step(z, w)
                top = float(_largest(w))
                # a power of two brings A z below 1 exactly: the quotient
                # keeps its bits, and z.Az cannot overflow
                scale = math.ldexp(1.0, -math.frexp(top)[1])
                w *= scale
                top *= scale
                quotient = float(z @ z) / float(z @ w) * scale
                if not _TINY <= quotient < math.inf:
                    raise EigenvalueRangeError(
                        f"lowest eigenvalue on {n} unknowns is outside the normal "
                        f"float64 range (quotient {quotient!r})"
                    )
                if quotient >= lam * (1.0 - 4.0 * _EPS):
                    return min(quotient, lam), w
                lam = quotient
    except (FloatingPointError, OverflowError) as exc:
        raise EigenvalueRangeError(
            f"lowest eigenvalue on {n} unknowns is outside the normal float64 range ({exc})"
        ) from exc
    raise IterationCapError(
        f"inverse iteration on {n} unknowns did not settle "
        f"in {ITERATION_CAP} steps (last quotient {lam!r})"
    )


def lowest_eigenvalue(pencil: TridiagonalPencil) -> float:
    """First nonzero eigenvalue of S v = lam M v for Neumann, smallest for Dirichlet.

    A Neumann pencil is solved as its dual on the links, whose spectrum
    is the Neumann pencil's without the zero mode (see ``_solved_path``
    and ``_cold_start``).  A pencil whose conductances and masses both
    equal their own reversal, such as every OU pencil, is folded before
    anything else is formed and solved on the left half of its path, held
    at one end: two running sums and three products a step (see
    ``_half_path``).  Any other pencil is solved on the whole path.  An
    eigenvalue outside the normal float64 range raises
    ``EigenvalueRangeError``.
    """
    c, mass, bc = pencil.conductances, pencil.mass, pencil.bc
    if pencil.n < (2 if bc == NEUMANN else 1):
        raise ValueError(f"a {bc} pencil with {pencil.n} unknowns has no such eigenvalue")
    # unknowns of the solved path: the links of a Neumann pencil
    n = c.shape[0] if bc == NEUMANN else pencil.n
    if np.array_equal(c, c[::-1]) and np.array_equal(mass, mass[::-1]):
        half = (n + 1) // 2
        return _half_path(c[:half], mass[:half], bc, n % 2 == 1)[0]
    resistances, masses = _solved_path(c, mass, bc)
    return _power_iteration(_two_ended(resistances, masses), _cold_start(c, mass, bc))[0]


def _prolong(v: np.ndarray, m: int) -> np.ndarray:
    """A half-path eigenvector of the OU problem on m cells (in the solved
    path's variable v, see ``_half_path``), carried to 2m cells.

    The solved unknowns of either condition sit on the faces, and the
    coarse face i is the fine face 2i.  So the even fine unknowns, counted
    from the held end, copy the coarse ones, and each odd one is the mean
    of its two neighbours, with 0 at the held end.  At odd m the last fine
    unknown is the centre, whose right neighbour is the mirror of its
    left.  The vector stays positive, and no difference is formed.
    """
    k = v.shape[0]
    fine = np.empty(m)
    fine[1 : 2 * k : 2] = v
    fine[0] = 0.5 * v[0]
    fine[2 : 2 * k : 2] = 0.5 * (v[:-1] + v[1:])
    if m % 2:
        fine[-1] = v[-1]
    return fine


def raw_lambda1(K: float, d: float, m: int, bc: str) -> float:
    """First nonzero eigenvalue of L on m cells, without extrapolation:
    ``lowest_eigenvalue(discretize_ou(...))`` bit for bit, from the left
    half of the profile.  The solved path has m - 1 unknowns for either
    condition, so an even m keeps the centre unknown."""
    problem = OUProblem(K=K, d=d, m=m, bc=bc)
    return _half_path(*_ou_profile(problem, _ou_weight(problem, m // 2 * 2)), bc, m % 2 == 0)[0]


def _richardson_lambda1(K: float, d: float, m: int, bc: str) -> float:
    """Solves at m and 2m cells and returns (4 lam_{2m} - lam_m) / 3,
    which cancels the leading h^2 error of the finite-volume scheme.

    Both solves read one weight: h_m = 2 h_2m exactly, so the m-cell
    grid is every other point of the 2m-cell one.  The 2m solve starts
    from the m solve's eigenvector, prolonged (see ``_prolong``), which
    cuts its power steps on the criterion-01 box from 6.4 (Neumann) and
    10.5 (Dirichlet) to 4.2 on average.
    """
    coarse, fine = (OUProblem(K=K, d=d, m=n, bc=bc) for n in (m, 2 * m))
    w = _ou_weight(fine, 2 * m)
    lam_m, v = _half_path(*_ou_profile(coarse, w[1::2][: m // 2 * 2]), bc, m % 2 == 0)
    lam_2m = _half_path(*_ou_profile(fine, w), bc, True, _prolong(v, m))[0]
    return (4.0 * lam_2m - lam_m) / 3.0


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
        gates={"gap_vs_sup_closed": lower(lam1, bound, tol)},
        notes=notes,
    )
