"""Closed-form lower bounds for the spectral gap of a drift Laplacian.

For a weighted space with Bakry-Emery curvature bounded below by K and
diameter at most d, the first nonzero eigenvalue of the drift Laplacian
L = Delta - grad(phi) . grad satisfies, for every s in (0, 1),

    lambda_1  >=  4 s (1 - s) pi^2 / d^2  +  s K.                    (*)

``GridSweep`` maximizes (*) over a dense uniform s-grid for every pair of
a K list and a d list: the one grid oracle, kept independent of the
closed form.
``sup_bound_closed`` is the closed form of the same supremum:

    0                          if K d^2  <  -4 pi^2
    (pi/d + K d / (4 pi))^2    if K d^2 in [-4 pi^2, 4 pi^2]
    K                          if K d^2  >   4 pi^2

Two classical fixed-slope specializations are kept for comparison:
``futaki_sano_bound`` is pi^2/d^2 + 0.31 K, and ``andrews_ni_bound`` is
pi^2/d^2 + K/2, the s = 1/2 member of (*).

The same family of inequalities turns into diameter lower bounds.  On a
nontrivial compact shrinking Ricci soliton Ric + Hess(f) = lam g, the
potential (minus a constant) is an eigenfunction of the drift Laplacian
with eigenvalue 2 lam, so lambda_1 <= 2 lam; feeding the gap bounds at
K = lam into that ceiling forces the diameter up, see
``soliton_diameter_bounds``.  For a closed self-shrinker curve of the
curve shortening flow the same argument with K = lam - K0 (K0 the maximum
of curvature squared) gives ``shrinker_diameter_bound``.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundInput",
    "GridSweep",
    "SolitonInput",
    "ShrinkerBoundInput",
    "OptimalS",
    "SolitonDiameterBounds",
    "gap_expression",
    "sup_bound_closed",
    "sup_bound_branch",
    "futaki_sano_bound",
    "andrews_ni_bound",
    "soliton_optimal_s",
    "soliton_diameter_bounds",
    "shrinker_diameter_bound",
    "shrinker_diameter_bound_sup",
]

_FOUR_PI_SQ = 4.0 * math.pi**2
# points per s-grid block: the grid oracle's three float64 block buffers stay in cache
_BLOCK = 2**15
_BLOCK_OFFSETS = np.arange(1, _BLOCK + 1, dtype=np.float64)
_BLOCK_OFFSETS.setflags(write=False)


@dataclass(frozen=True)
class BoundInput:
    """Curvature lower bound K and diameter upper bound d for one case."""

    K: float
    d: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.K):
            raise ValueError(f"curvature bound K must be finite, got {self.K!r}")
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"diameter d must be finite and positive, got {self.d!r}")
        # the bounds divide by d**2: it must neither overflow nor underflow,
        # and pi^2 / d^2 must stay finite
        d2 = self.d * self.d
        if not (sys.float_info.min <= d2 < math.inf and math.isfinite(math.pi**2 / d2)):
            raise ValueError(
                f"diameter d out of range: d**2 or pi^2/d^2 is not a finite"
                f" normal number, got {self.d!r}"
            )


@dataclass(frozen=True)
class SolitonInput:
    """Soliton constant lam in the normalization Ric + Hess(f) = lam g."""

    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"soliton constant lam must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class ShrinkerBoundInput:
    """Shrinker constant lam and curvature-squared maximum K0 of a closed curve."""

    lam: float
    K0: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"shrinker constant lam must be positive, got {self.lam!r}")
        if not (math.isfinite(self.K0) and self.K0 >= 0.0):
            raise ValueError(f"curvature maximum K0 must be nonnegative, got {self.K0!r}")


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer; a bool is refused too, and a
    numpy integer passes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _numerator(s):
    """The (K, d)-free part 4 s (1 - s) pi^2 of the gap expression."""
    return 4.0 * s * (1.0 - s) * math.pi**2


def gap_expression(s, K: float, d: float):
    """One-parameter gap bound 4 s (1 - s) pi^2 / d^2 + s K, vectorized in s."""
    return _numerator(s) / d**2 + s * K


def _block_max(values: np.ndarray) -> float:
    """Largest value of one block of the grid for one (K, d) pair."""
    return float(values.max())


def _grid_blocks(grid_size: int):
    """The uniform interior grid {i/(grid_size+1)}, one block at a time.

    Each block of ``s`` is rebuilt from exact integers into one reused
    buffer, so a block is valid only until the next one is yielded.
    """
    s = np.empty(min(_BLOCK, grid_size))
    for lo in range(0, grid_size, _BLOCK):
        sk = s[: min(_BLOCK, grid_size - lo)]
        np.add(_BLOCK_OFFSETS[: len(sk)], lo, out=sk)
        np.divide(sk, grid_size + 1, out=sk)
        yield sk


def _sweep_columns(Ks: list[float], ds: list[float], grid_size: int) -> np.ndarray:
    """The block loop of ``GridSweep`` over validated ``Ks`` and ``ds``."""
    best = np.zeros((len(Ks), len(ds)))
    scaled = np.empty(min(_BLOCK, grid_size))
    values = np.empty_like(scaled)
    for sk in _grid_blocks(grid_size):
        qk, vk = scaled[: len(sk)], values[: len(sk)]
        for j, d in enumerate(ds):
            # ((1 - s) s) 4 pi^2 is _numerator(s) bit for bit: a factor 4 is exact
            np.subtract(1.0, sk, out=qk)
            np.multiply(qk, sk, out=qk)
            np.multiply(qk, _FOUR_PI_SQ, out=qk)
            np.divide(qk, d**2, out=qk)
            for i, K in enumerate(Ks):
                np.multiply(sk, K, out=vk)
                np.add(qk, vk, out=vk)
                m = _block_max(vk)
                if m > best[i, j]:
                    best[i, j] = m
    return best


class GridSweep:
    """Grid maxima of the gap expression for every pair of ``Ks`` x ``ds``.

    ``finish()`` returns ``best`` of shape ``(len(Ks), len(ds))``, with
    ``best[i, j]`` the maximum at ``(Ks[i], ds[j])`` over the uniform
    interior grid {n/(grid_size+1)} and 0.  The supremum over (0, 1) is
    never below the s -> 0 limit 0, so 0 is a candidate and the oracle
    stays a lower bound even where the expression is negative on the whole
    interior.  Every grid point of every pair is evaluated, with no vertex
    or concavity shortcut, and every entry equals the maximum of
    ``gap_expression`` over the grid bit for bit.  The grid is walked in
    cache-sized blocks through three reused buffers, with ``s`` rebuilt
    from exact integers per block, and no grid is kept between sweeps.

    Creating a ``GridSweep`` validates every pair as a ``BoundInput``,
    forks ``min(cpus, len(ds))`` workers (``cpus`` from
    ``os.sched_getaffinity``) at niceness 19, and submits one
    ``_sweep_columns(Ks, [d], grid_size)`` per ``d`` column; a column
    depends on no other, so its entries keep their bits in any process.
    The caller may work meanwhile, ahead of the niced workers, until
    ``finish()`` collects the columns in order.  With one usable CPU or one
    ``d`` nothing is forked and ``finish()`` sweeps here.  ``finish()``
    raises a worker's exception, with no partial ``best``; it, ``close()``
    and leaving a ``with`` block drop the queued columns and wait only for
    the running ones.
    """

    def __init__(self, Ks, ds, grid_size: int = 10**6) -> None:
        _check_count("grid_size", grid_size)
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        self.Ks = [float(K) for K in Ks]
        self.ds = [float(d) for d in ds]
        self.grid_size = grid_size
        for K in self.Ks:
            for d in self.ds:
                BoundInput(K=K, d=d)
        # platforms without sched_getaffinity (macOS, Windows) fork nothing
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        n_workers = min(cpus, len(self.ds))
        self._pool = None
        self._futures = []
        if n_workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: the workers inherit this module as it stands, a
            # patched _block_max included, instead of importing it afresh.
            # Nice 19: there is a worker per CPU, so the caller's own work
            # would share a core with one; niced, the workers yield it to the
            # caller until it waits in finish().
            fork = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                n_workers, mp_context=fork, initializer=os.nice, initargs=(19,)
            )
            self._futures = [
                self._pool.submit(_sweep_columns, self.Ks, [d], grid_size) for d in self.ds
            ]

    def finish(self) -> np.ndarray:
        """Collect every column, or sweep them here when nothing was forked."""
        try:
            if not self._futures:
                return _sweep_columns(self.Ks, self.ds, self.grid_size)
            return np.hstack([future.result() for future in self._futures])
        finally:
            self.close()

    def close(self) -> None:
        """Stop the workers: queued columns are dropped, running ones waited for."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __enter__(self) -> GridSweep:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sup_bound_closed(inp: BoundInput) -> float:
    """Closed form of sup over s in (0, 1) of the gap expression.

    The expression is a downward parabola in s vanishing at s = 0.  Its
    vertex sits at s* = 1/2 + K d^2 / (8 pi^2); the three branches are
    vertex left of the interval (supremum is the boundary limit 0),
    vertex interior (value (pi/d + K d/(4 pi))^2), and vertex right of
    the interval (supremum is the s -> 1 limit, K).
    """
    K, d = inp.K, inp.d
    kd2 = K * d * d
    if kd2 < -_FOUR_PI_SQ:
        return 0.0
    if kd2 > _FOUR_PI_SQ:
        return K
    root = math.pi / d + K * d / (4.0 * math.pi)
    return root * root


def sup_bound_branch(inp: BoundInput) -> tuple[str, float | None]:
    """Branch taken by ``sup_bound_closed`` and the maximizing s.

    Returns ``("zero_limit", None)`` or ``("curvature_limit", None)`` when
    the supremum is a boundary limit (not attained), else
    ``("interior", s_star)``.
    """
    kd2 = inp.K * inp.d * inp.d
    if kd2 < -_FOUR_PI_SQ:
        return "zero_limit", None
    if kd2 > _FOUR_PI_SQ:
        return "curvature_limit", None
    return "interior", 0.5 + kd2 / (8.0 * math.pi**2)


def futaki_sano_bound(inp: BoundInput) -> float:
    """Fixed-slope gap bound pi^2/d^2 + 0.31 K."""
    return math.pi**2 / inp.d**2 + 0.31 * inp.K


def andrews_ni_bound(inp: BoundInput) -> float:
    """Gap bound pi^2/d^2 + K/2, the s = 1/2 member of the sup family."""
    return math.pi**2 / inp.d**2 + 0.5 * inp.K


@dataclass(frozen=True)
class OptimalS:
    s_star: float
    g_max: float


def soliton_optimal_s() -> OptimalS:
    """Maximizer of g(s) = 4 s (1 - s) / (2 - s) on (0, 1), in closed form.

    g governs the soliton diameter bound: lambda_1 <= 2 lam combined with
    the gap bound at K = lam gives d^2 >= (pi^2 / lam) g(s) for every s,
    and g peaks at s* = 2 - sqrt(2) with value 12 - 8 sqrt(2).
    """
    return OptimalS(s_star=2.0 - math.sqrt(2.0), g_max=12.0 - 8.0 * math.sqrt(2.0))


@dataclass(frozen=True)
class SolitonDiameterBounds:
    """Diameter lower bounds for one soliton, labeled by the gap bound used."""

    sup_bound: float
    futaki_sano: float
    andrews_ni: float


def soliton_diameter_bounds(inp: SolitonInput) -> SolitonDiameterBounds:
    """Diameter lower bounds for a nontrivial compact shrinking Ricci soliton.

    Each gap bound, evaluated at K = lam and capped by lambda_1 <= 2 lam,
    yields a bound d >= c / sqrt(lam):

        sup over s     ->  c = 2 (sqrt(2) - 1) pi   (largest)
        slope 0.31     ->  c = 10 pi / 13           (smallest)
        slope 1/2      ->  c = sqrt(2/3) pi
    """
    rt = math.sqrt(inp.lam)
    return SolitonDiameterBounds(
        sup_bound=2.0 * (math.sqrt(2.0) - 1.0) * math.pi / rt,
        futaki_sano=10.0 * math.pi / (13.0 * rt),
        andrews_ni=math.sqrt(2.0 / 3.0) * math.pi / rt,
    )


def shrinker_diameter_bound(inp: ShrinkerBoundInput) -> float:
    """Intrinsic diameter lower bound pi / sqrt(3 lam / 2 + K0 / 2).

    This is the s = 1/2 case of the shrinker-curve diameter family; see
    ``shrinker_diameter_bound_sup`` for the sharper supremum over s.
    """
    return math.pi / math.sqrt(1.5 * inp.lam + 0.5 * inp.K0)


def shrinker_diameter_bound_sup(inp: ShrinkerBoundInput) -> float:
    """Supremum over s of the s-family of shrinker diameter bounds.

    For s in (0, 1) the gap bound with K = lam - K0 under the ceiling
    lambda_1 <= 2 lam gives d >= 2 pi sqrt(s (1 - s) / (lam (2 - s) + s K0)),
    whose denominator is always positive.  Setting the derivative of the
    ratio to zero gives (K0 - lam) s^2 + 4 lam s - 2 lam = 0, with the
    root s* = 1 / (1 + sqrt((lam + K0) / (2 lam))) in (0, 1) written
    without the cancellation at K0 = lam.  The s = 1/2 member recovers
    ``shrinker_diameter_bound``, and K0 = 0 the soliton constant
    2 (sqrt(2) - 1) pi / sqrt(lam).
    """
    lam, K0 = inp.lam, inp.K0
    s = 1.0 / (1.0 + math.sqrt((lam + K0) / (2.0 * lam)))
    return 2.0 * math.pi * math.sqrt(s * (1.0 - s) / (lam * (2.0 - s) + s * K0))
