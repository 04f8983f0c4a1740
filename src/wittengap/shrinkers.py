"""Closed planar self-shrinkers of curve shortening flow.

A closed plane curve is a self-shrinker with constant lam > 0 when its
curvature satisfies k = lam <x, N> pointwise.  Orientation convention,
stated once and used everywhere: the tangent is T = (cos th, sin th),
the normal is N = (sin th, -cos th), and k = dth/ds.  For a
counterclockwise circle about the origin N points outward, <x, N> = |x|,
and the circle of radius 1/sqrt(lam) solves the equation with
k = lam |x| > 0.  The curvature vector is k times the opposite normal,
so the equation is the usual "shrinking homothety" condition on the
position vector's normal part.

Beyond the circle, the closed solutions are the classical rosette curves
indexed by coprime (p, q) with 1/2 < p/q < sqrt(2)/2: the tangent winds
p times while the curvature oscillates q times.  Following Abresch &
Langer, "The normalized curve shortening flow and homothetic solutions",
J. Diff. Geom. 23 (1986), ``find_abresch_langer`` parametrizes by the
tangent angle: the support function P = sqrt(lam) <x, N> solves
P'' + P = 1/P, and closure is a condition on its half-period, one
quadrature per trial, solved by Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973).  ``assemble_rosette`` then
integrates the fundamental arc once by classical RK4 and joins 2q
reflected copies of it at any node count, on numpy and ``math`` alone.
With ``circle_shrinker`` these are the only constructors, so every
``ShrinkerCurve`` is closed.  Both build the curve at lam = 1 and
map it by the exact scaling x -> x / sqrt(lam), k -> sqrt(lam) k, so
every check reads the same dimensionless curve at any lam; a lam that
would carry the curve out of the normal float range is refused by name.

Every closed curve carries the potential phi = lam |x|^2 / 2 - 1/2,
which the drift Laplacian of the induced weighted ring complex maps to
-2 lam phi; ``eigen_identity_residual`` checks that identity, and
``k0_and_diameter`` gives the maximum squared curvature K0 and the
intrinsic diameter d that enter the diameter lower bound
d >= pi / sqrt(3 lam / 2 + K0 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import _check_count
from .spectral import WeightedComplex, _ring, apply_weight, witten_apply

__all__ = [
    "ShrinkerCurve",
    "FundamentalArc",
    "CurvatureDiameter",
    "ArcIntegrationError",
    "circle_shrinker",
    "first_integral",
    "find_abresch_langer",
    "assemble_rosette",
    "potential_phi",
    "curve_complex",
    "mean_curvature_identity_residual",
    "eigen_identity_residual",
    "k0_and_diameter",
    "gaussian_soliton_check",
    "write_curve_csv",
]

FD_STEP = 1e-4
# Gauss-Legendre nodes of the half-period quadratures, and the bracket of
# the inner turning point sqrt(lam) r0 that holds every root with q <= 15
_QUAD_NODES = 128
_TURNING_BRACKET = (1e-6, 0.99)
# largest closure residual an assembled rosette may have
TOL_CLOSURE = 1e-8
# largest RK4 step of the fundamental-arc integration, in the lam = 1
# units where every arc is integrated, and the most steps one arc may take
_MAX_STEP = 2.0**-11
_MAX_SUBSTEPS = 2**20
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)


class ArcIntegrationError(RuntimeError):
    """An arc needs over ``_MAX_SUBSTEPS`` steps, or its state left the float range."""


@dataclass
class ShrinkerCurve:
    """Closed plane curve sampled uniformly in arclength, with tangent
    angle and curvature at each node.

    The nodes are spaced by ``h`` and do not repeat the first point, so
    the length is ``n_points * h``.  ``rotation_p``/``petals_q`` are
    (0, 0) for circles and the (p, q) indices for assembled rosettes,
    whose maximal joint mismatch, in lam = 1 units, is recorded in
    ``closure_residual`` and whose fundamental arc is kept in ``arc``.
    """

    lam: float
    points: np.ndarray
    angles: np.ndarray
    curvatures: np.ndarray
    h: float
    rotation_p: int = 0
    petals_q: int = 0
    closure_residual: float = math.nan
    arc: FundamentalArc | None = None

    def __post_init__(self) -> None:
        n = self.points.shape[0]
        if self.points.ndim != 2 or self.points.shape[1] != 2 or n < 2:
            raise ValueError("points must be an (n, 2) array with n >= 2")
        if self.angles.shape != (n,) or self.curvatures.shape != (n,):
            raise ValueError("angles and curvatures must match points")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"h must be positive, got {self.h!r}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def length(self) -> float:
        return self.n_points * self.h

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def normals(self) -> np.ndarray:
        return np.column_stack([np.sin(self.angles), -np.cos(self.angles)])

    def residual(self) -> float:
        """max_i |k_i - lam <x_i, N_i>|, the pointwise equation defect."""
        xN = (self.points * self.normals()).sum(axis=1)
        return float(np.abs(self.curvatures - self.lam * xN).max())


@dataclass(frozen=True)
class FundamentalArc:
    """Fundamental arc of the (p, q) rosette, from its half-period quadrature.

    Starts at the inner turning point x = (r0, 0) with the tangent
    straight up and ends, after arclength ``length``, at the outer
    turning point, where the tangent has advanced by pi p / q and meets
    the ray through x at a right angle (Abresch & Langer 1986).
    """

    lam: float
    p: int
    q: int
    r0: float
    length: float


@dataclass(frozen=True)
class CurvatureDiameter:
    """Curvature ceiling K0 = max k^2 and intrinsic diameter d."""

    K0: float
    d: float


def circle_shrinker(lam: float, n_points: int) -> ShrinkerCurve:
    """The circle solution: radius 1/sqrt(lam), constant curvature
    sqrt(lam); the unit circle mapped by ``_scaled``."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    _check_count("n_points", n_points)
    if n_points < 16:
        raise ValueError(f"n_points must be >= 16, got {n_points}")
    alpha = 2.0 * math.pi * np.arange(n_points) / n_points
    unit = ShrinkerCurve(
        lam=1.0,
        points=np.column_stack([np.cos(alpha), np.sin(alpha)]),
        angles=alpha + 0.5 * math.pi,
        curvatures=np.ones(n_points),
        h=2.0 * math.pi / n_points,
        closure_residual=0.0,
    )
    return _scaled(unit, lam)


def _scaled(curve: ShrinkerCurve, lam: float) -> ShrinkerCurve:
    """``curve``, a solution at lam = 1, mapped to lam: lengths divided
    by sqrt(lam), curvatures multiplied by it, angles kept.

    Squared lengths (h^2, |x|^2) then scale by 1/lam, and squared
    curvatures and the operands of the eigen identity (2 lam phi and the
    drift Laplacian of phi, at most 2 lam max(1, max|phi|)) by lam.  A
    lam for which the largest or the smallest of either kind leaves the
    normal float range, with one binade to spare for rounding, raises a
    ``ValueError`` that names the range; 1/h^2 is then in range too.  At
    lam = 1 every factor is 1.0, so the curve keeps its bits.
    """
    r2 = (curve.points**2).sum(axis=1)
    k2 = curve.curvatures**2
    phi_top = max(1.0, float(np.abs(0.5 * r2 - 0.5).max()))
    lengths = (curve.h * curve.h, float(r2.max()))
    inverse = (float(k2.min()), float(k2.max()), 2.0 * phi_top)
    low = 2.0 * max(max(lengths) / _HUGE, _TINY / min(inverse))
    high = 0.5 * min(min(lengths) / _TINY, _HUGE / max(inverse))
    if not low <= lam <= high:
        raise ValueError(
            f"lam = {lam!r} is outside [{low:.3e}, {high:.3e}], where this curve "
            "and its eigen identity stay in the normal float range"
        )
    root = math.sqrt(lam)
    return replace(
        curve,
        lam=lam,
        points=curve.points / root,
        curvatures=curve.curvatures * root,
        h=curve.h / root,
    )


def _integrate(lam: float, r0: float, length: float, n_steps: int) -> np.ndarray:
    """States (xs1, xs2, ths) at ``n_steps + 1`` uniform arclength nodes
    on [0, length], from x = (r0, 0), th = pi/2: classical RK4 with
    ceil(spacing / _MAX_STEP) equal steps per node interval."""
    ratio = length / n_steps / _MAX_STEP
    if not 0.0 < ratio <= _MAX_SUBSTEPS // n_steps:
        raise ArcIntegrationError(f"arc length {length!r} needs over {_MAX_SUBSTEPS} steps")
    substeps = math.ceil(ratio)
    h = length / n_steps / substeps
    half, sixth, cos, sin = 0.5 * h, h / 6.0, math.cos, math.sin
    x1, x2, th = r0, 0.0, 0.5 * math.pi
    nodes = [(x1, x2, th)]
    try:
        for _ in range(n_steps):
            for _ in range(substeps):
                c1, s1 = cos(th), sin(th)
                k1 = lam * (x1 * s1 - x2 * c1)
                c2, s2 = cos(th + half * k1), sin(th + half * k1)
                k2 = lam * ((x1 + half * c1) * s2 - (x2 + half * s1) * c2)
                c3, s3 = cos(th + half * k2), sin(th + half * k2)
                k3 = lam * ((x1 + half * c2) * s3 - (x2 + half * s2) * c3)
                c4, s4 = cos(th + h * k3), sin(th + h * k3)
                k4 = lam * ((x1 + h * c3) * s4 - (x2 + h * s3) * c4)
                x1 += sixth * (c1 + 2.0 * (c2 + c3) + c4)
                x2 += sixth * (s1 + 2.0 * (s2 + s3) + s4)
                th += sixth * (k1 + 2.0 * (k2 + k3) + k4)
            nodes.append((x1, x2, th))
    except ValueError:  # math.cos of an infinite angle
        nodes.append((math.nan,) * 3)
    if not np.isfinite(nodes).all():
        raise ArcIntegrationError(f"the arc from r0 = {r0!r} left the finite float range")
    return np.array(nodes).T


def _curvature_of(lam: float, xs1: np.ndarray, xs2: np.ndarray, ths: np.ndarray) -> np.ndarray:
    return lam * (xs1 * np.sin(ths) - xs2 * np.cos(ths))


def first_integral(lam: float, points: np.ndarray, curvatures: np.ndarray) -> np.ndarray:
    """k exp(-lam |x|^2 / 2), conserved along every shrinker trajectory."""
    r2 = (np.asarray(points) ** 2).sum(axis=1)
    return np.asarray(curvatures) * np.exp(-0.5 * lam * r2)


def _angle_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on v in (0, pi/2) for P = a + (b - a) sin^2 v.

    Returns sin^2 v and cos^2 v at the nodes, and the weights times
    sin 2v = (dP/dv) / (b - a).
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    v = 0.25 * math.pi * (t + 1.0)
    return np.sin(v) ** 2, np.cos(v) ** 2, 0.25 * math.pi * w * np.sin(2.0 * v)


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` in [xa, xb] by Brent's method: a line-for-line port of
    scipy's C ``brentq`` with rtol = 4 eps and 100 iterations, so it takes
    the same iterates and returns the same bits.  Raises ``ValueError``
    when f has one sign at both ends, ``RuntimeError`` if not converged."""
    xpre, xcur, fpre, fcur = xa, xb, f(xa), f(xb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 2.0**-50 * abs(xcur)) / 2.0  # rtol = 4 eps
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in 100 iterations, at {xcur!r}")


def _half_period(a: float, rule) -> tuple[float, float]:
    """Tangent-angle advance and arclength at lam = 1 between the turning
    points a < 1 < b of P'' + P = 1/P.

    P is sqrt(lam) <x, N> as a function of the tangent angle (Abresch &
    Langer 1986).  It conserves P'^2 / 2 + V(P), V(P) = P^2/2 - ln P,
    which is the first integral k exp(-lam |x|^2 / 2) written in P, as
    |x|^2 = <x, N>^2 + <x, T>^2.  With V(b) = V(a), the advance is the
    integral over [a, b] of dP / sqrt(2 (V(a) - V(P))), and since k = P
    at lam = 1, the arclength is the same integral of
    dP / (P sqrt(2 (V(a) - V(P)))).  The substitution of ``_angle_rule``
    removes both inverse square-root endpoint singularities, and
    V(a) - V(P) is formed from the nearer turning point, so neither end
    cancels.
    """
    def gap_from_a(rise):  # 2 (V(a) - V(a + rise))
        return 2.0 * np.log1p(rise / a) - rise * (2.0 * a + rise)

    # V'' >= 1 puts b below 1 + sqrt(2 (V(a) - V(1))) < 1 + sqrt(2 V(a))
    b_max = 1.0 + math.sqrt(a * a - 2.0 * math.log(a))
    b = _brentq(lambda P: gap_from_a(P - a), 1.0, b_max, xtol=1e-15)
    sin2, cos2, weights = rule
    rise, fall = (b - a) * sin2, (b - a) * cos2  # P = a + rise = b - fall
    near_a = sin2 <= 0.5
    gap_from_b = 2.0 * np.log1p(-fall / b) + fall * (2.0 * b - fall)
    gap = np.where(near_a, gap_from_a(rise), gap_from_b)
    dtheta = (b - a) * weights / np.sqrt(gap)
    return float(dtheta.sum()), float((dtheta / np.where(near_a, a + rise, b - fall)).sum())


def find_abresch_langer(
    lam: float, p: int, q: int, n_points: int = 4096, log: list | None = None
) -> ShrinkerCurve:
    """Closed rosette with rotation number p and q curvature oscillations.

    Abresch & Langer (1986): in the tangent angle, the fundamental arc
    runs between the turning points a < 1 < b of P = sqrt(lam) <x, N>,
    and the rosette closes when that half-period equals pi p / q.  The
    half-period rises monotonically from pi/2 (a -> 0) to pi/sqrt(2)
    (a -> 1), so Brent's method (``_brentq``, a port of scipy's) finds its
    single root in a fixed bracket of a by quadrature alone; r0 is
    a / sqrt(lam), and the arclength comes from the same quadrature.
    ``assemble_rosette`` integrates the arc once and checks its closure
    independently; the curve keeps the arc in ``curve.arc``, so another
    node count needs no second root-find.

    ``log``, when given, collects one dict per Brent evaluation: the
    ``iteration``, the trial ``r0`` and the ``closure_residual``, which
    is the half-period minus pi p / q.
    """
    for name, value in (("p", p), ("q", q)):
        if not (isinstance(value, int) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) must be coprime, got ({p}, {q})")
    ratio = p / q
    if not (0.5 < ratio < math.sqrt(2.0) / 2.0):
        raise ValueError(
            f"p/q = {ratio:g} outside (1/2, sqrt(2)/2); no closed rosette exists"
        )
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")

    root_lam = math.sqrt(lam)
    psi = math.pi * p / q
    rule = _angle_rule(_QUAD_NODES)
    log = [] if log is None else log
    start = len(log)

    def closure(a: float) -> float:
        g = _half_period(a, rule)[0] - psi
        log.append({"iteration": len(log) - start, "r0": a / root_lam, "closure_residual": g})
        return g

    try:
        a = _brentq(closure, *_TURNING_BRACKET, xtol=1e-14)
    except ValueError:
        raise ValueError(
            f"closure functional has the same sign at both bracket ends: ({p}, {q}) "
            f"needs sqrt(lam) r0 outside {_TURNING_BRACKET}"
        ) from None
    length = _half_period(a, rule)[1]
    return assemble_rosette(FundamentalArc(lam, p, q, a / root_lam, length / root_lam), n_points)


def assemble_rosette(arc: FundamentalArc, n_points: int) -> ShrinkerCurve:
    """Closed rosette of about ``n_points`` nodes from its fundamental arc.

    The arc, scaled to lam = 1, is integrated once by RK4 and sampled
    at J = n_points / (2 q) uniform nodes, the closed curve is 2q
    alternately reflected copies of it, and ``_scaled`` maps it to
    ``arc.lam``.  Raises ``ArcIntegrationError`` from ``_integrate``,
    and ``RuntimeError`` when the closure residual, in lam = 1
    units, exceeds ``TOL_CLOSURE``: the worst joint gap, or the radial
    velocity <x, T> at the end of the integrated arc, which vanishes
    where the arc meets its symmetry line at a right angle.
    """
    _check_count("n_points", n_points)
    q, root = arc.q, math.sqrt(arc.lam)
    psi = math.pi * arc.p / q
    J = max(int(round(n_points / (2 * q))), 16)
    length = arc.length * root
    xs1, xs2, TH = _integrate(1.0, arc.r0 * root, length, J)
    X = np.column_stack([xs1, xs2])
    KK = _curvature_of(1.0, xs1, xs2, TH)

    # copies alternate: rotation by 2 j psi of the arc, and of its
    # reflection across the psi-line (a flip of y, then rotation by
    # 2 psi) traversed backwards
    refl = _rot2(2.0 * psi) * [1.0, -1.0]
    X_r = X[::-1] @ refl.T
    TH_r = 2.0 * psi + math.pi - TH[::-1]
    KK_r = KK[::-1]

    pts, angs, curv = [], [], []
    joint_gaps = []
    for j in range(q):
        rot_angle = 2.0 * j * psi
        rot = _rot2(rot_angle)
        even, odd = X @ rot.T, X_r @ rot.T
        pts.append(even[:-1])
        pts.append(odd[:-1])
        angs.append(TH[:-1] + rot_angle)
        angs.append(TH_r[:-1] + rot_angle)
        curv.append(KK[:-1])
        curv.append(KK_r[:-1])
        joint_gaps.append(float(np.linalg.norm(even[-1] - odd[0])))
        joint_gaps.append(float(np.linalg.norm(odd[-1] - even[0] @ _rot2(2.0 * psi).T)))
    points = np.concatenate(pts)
    angles = np.concatenate(angs)
    curvatures = np.concatenate(curv)
    end_velocity = xs1[-1] * math.cos(TH[-1]) + xs2[-1] * math.sin(TH[-1])
    closure = float(max(max(joint_gaps), abs(end_velocity)))
    if closure > TOL_CLOSURE:
        raise RuntimeError(
            f"assembled closure residual {closure:.3e} exceeds {TOL_CLOSURE:.1e}"
        )
    unit = ShrinkerCurve(
        lam=1.0,
        points=points,
        angles=angles,
        curvatures=curvatures,
        h=length / J,
        rotation_p=arc.p,
        petals_q=q,
        closure_residual=closure,
        arc=arc,
    )
    return _scaled(unit, arc.lam)


def _rot2(angle: float) -> np.ndarray:
    return np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )


def potential_phi(curve: ShrinkerCurve) -> np.ndarray:
    """phi = lam |x|^2 / 2 - 1/2, the natural weight of a shrinker curve."""
    r2 = (curve.points**2).sum(axis=1)
    return 0.5 * curve.lam * r2 - 0.5


def curve_complex(curve: ShrinkerCurve) -> WeightedComplex:
    """Periodic weighted ring complex of a closed curve.

    Base conductance 1/h and mass h along arclength, then the e^{-phi}
    change of measure; the pencil realizes the drift Laplacian of the
    curve with its shrinker potential.
    """
    vertices = np.column_stack([curve.points, np.zeros(curve.n_points)])
    return apply_weight(_ring(vertices, curve.h), potential_phi(curve))


def mean_curvature_identity_residual(curve: ShrinkerCurve) -> float:
    """max |k^2/(2 lam) + (1/4) Lap |x|^2 - 1/2| over the closed curve.

    Lap is the periodic second difference over arclength.  The identity
    holds exactly on every shrinker, so the residual is pure
    discretization error, second order in h.
    """
    g = (curve.points**2).sum(axis=1)
    lap = (np.roll(g, 1) - 2.0 * g + np.roll(g, -1)) / curve.h**2
    res = curve.curvatures**2 / (2.0 * curve.lam) + 0.25 * lap - 0.5
    return float(np.abs(res).max())


def eigen_identity_residual(curve: ShrinkerCurve) -> float:
    """sup-norm defect of the drift Laplacian mapping phi to -2 lam phi.

    Builds the weighted ring complex of the curve and compares
    2 lam phi with Mass^{-1} Stiffness phi (the positive-semidefinite
    realization, so the identity reads witten_apply(phi) = 2 lam phi).
    Normalized by lam max(1, ||phi||_inf): phi does not change with the
    scale of the curve and both sides grow like lam, so the residual is
    dimensionless.
    """
    phi = potential_phi(curve)
    wc = curve_complex(curve)
    defect = 2.0 * curve.lam * phi - witten_apply(wc, phi)
    return float(np.abs(defect).max() / (curve.lam * max(1.0, np.abs(phi).max())))


def k0_and_diameter(curve: ShrinkerCurve) -> CurvatureDiameter:
    """K0 = max k^2 and intrinsic diameter d = length/2."""
    return CurvatureDiameter(K0=float((curve.curvatures**2).max()), d=0.5 * curve.length)


def gaussian_soliton_check(n: int, lam: float, sample_points: np.ndarray) -> np.ndarray:
    """Residuals of f - n/2 as an eigenfunction with eigenvalue 2 lam.

    On flat n-space with f = lam |x|^2 / 2 the drift Laplacian gives
    Lap f - |grad f|^2 = n lam - lam^2 |x|^2 = -2 lam (f - n/2).  The
    residual at each sample point replaces the derivatives of f by
    central differences with step FD_STEP.
    """
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam!r}")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=np.float64))
    if pts.shape[1] != n:
        raise ValueError(f"sample points must have {n} coordinates, got {pts.shape[1]}")

    h = FD_STEP

    def f_of(x: np.ndarray) -> np.ndarray:
        return 0.5 * lam * (x**2).sum(axis=-1)

    lap = np.zeros(pts.shape[0])
    grad_sq = np.zeros(pts.shape[0])
    fc = f_of(pts)
    for axis in range(n):
        e = np.zeros(n)
        e[axis] = h
        fp, fm = f_of(pts + e), f_of(pts - e)
        lap += (fp - 2.0 * fc + fm) / h**2
        grad_sq += ((fp - fm) / (2.0 * h)) ** 2
    return (lap - grad_sq) + 2.0 * lam * (fc - 0.5 * n)


def write_curve_csv(curve: ShrinkerCurve, path) -> None:
    """Write the curve as CSV rows ``s,x,y,theta,k,phi``.

    The closure residual goes into a leading comment line so a consumer
    can reject a badly closed curve without parsing the rows.  ``s`` is
    cumulative arclength from the first node.
    """
    s = np.arange(curve.n_points, dtype=np.float64) * curve.h
    phi = potential_phi(curve)
    with open(path, "w") as fh:
        fh.write(f"# closure_residual = {curve.closure_residual:.17g}\n")
        fh.write("s,x,y,theta,k,phi\n")
        for i in range(curve.n_points):
            fh.write(
                "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                % (
                    s[i],
                    curve.points[i, 0],
                    curve.points[i, 1],
                    curve.angles[i],
                    curve.curvatures[i],
                    phi[i],
                )
            )
