"""Closed-form gap bounds against the grid oracle and family members."""

import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittengap.bounds as bounds
from wittengap.bounds import (
    BoundInput,
    GridSweep,
    ShrinkerBoundInput,
    SolitonInput,
    andrews_ni_bound,
    futaki_sano_bound,
    gap_expression,
    shrinker_diameter_bound,
    shrinker_diameter_bound_sup,
    soliton_diameter_bounds,
    soliton_optimal_s,
    sup_bound_branch,
    sup_bound_closed,
    _sweep_columns,
)

FOUR_PI_SQ = 4.0 * math.pi**2

ks = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
ds = st.floats(min_value=0.1, max_value=20.0, allow_nan=False)
ss = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def test_interior_vertex_example():
    # K = 1, d = pi sits on the interior branch: (pi/d + K d/(4 pi))^2 = 1.5625
    inp = BoundInput(K=1.0, d=math.pi)
    assert sup_bound_closed(inp) == pytest.approx(1.5625, abs=1e-12)
    branch, s_star = sup_bound_branch(inp)
    assert branch == "interior"
    assert s_star == pytest.approx(0.625, abs=1e-12)


def test_branch_limits():
    # deep negative curvature: the supremum is the s -> 0 limit, zero
    assert sup_bound_closed(BoundInput(K=-10.0, d=10.0)) == 0.0
    assert sup_bound_branch(BoundInput(K=-10.0, d=10.0)) == ("zero_limit", None)
    # strong positive curvature: the supremum is the s -> 1 limit, K
    assert sup_bound_closed(BoundInput(K=10.0, d=10.0)) == 10.0
    assert sup_bound_branch(BoundInput(K=10.0, d=10.0))[0] == "curvature_limit"


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, math.pi, 5.0, 10.0, 20.0])
def test_branch_continuity(d):
    # at K d^2 = -4 pi^2 the interior vertex value degenerates to 0,
    # at K d^2 = +4 pi^2 it degenerates to K; adjacent formulas agree
    k_neg = -FOUR_PI_SQ / d**2
    mid = (math.pi / d + k_neg * d / (4.0 * math.pi)) ** 2
    assert abs(mid - 0.0) <= 1e-12 * max(1.0, abs(k_neg))
    k_pos = FOUR_PI_SQ / d**2
    mid = (math.pi / d + k_pos * d / (4.0 * math.pi)) ** 2
    assert abs(mid - k_pos) <= 1e-12 * max(1.0, k_pos)


def test_grid_oracle_spot_checks():
    for K, d in [(-7.0, 3.0), (-1.0, 0.5), (0.0, 2.0), (0.5, 5.0), (4.0, 1.0), (10.0, 20.0)]:
        inp = BoundInput(K=K, d=d)
        closed = sup_bound_closed(inp)
        grid = GridSweep([K], [d], 10**6).finish()[0, 0]
        assert abs(closed - grid) <= 1e-6 * max(1.0, abs(closed))


def dense_grid_sup(K, d, grid_size):
    """Reference oracle: the whole grid at once, the expression written out."""
    s = np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)
    return max(0.0, float((4.0 * s * (1.0 - s) * math.pi**2 / d**2 + s * K).max()))


BIT_IDENTITY_POINTS = [
    (-10.0, 10.0),  # zero-limit branch
    (1.0, math.pi),  # interior branch
    (10.0, 10.0),  # curvature-limit branch
    (-FOUR_PI_SQ / 4.0, 2.0),  # K d^2 = -4 pi^2
    (FOUR_PI_SQ / 4.0, 2.0),  # K d^2 = +4 pi^2
    (-FOUR_PI_SQ / 400.0, 20.0),  # the same crossovers at the ends of the d range
    (FOUR_PI_SQ / 0.01, 0.1),
    (-10.0, 0.1),  # corners of the criterion-01 box
    (-10.0, 20.0),
    (10.0, 0.1),
    (10.0, 20.0),
]


@pytest.mark.parametrize("grid_size", [1, 100, 2**15 - 1, 2**15, 2**15 + 1, 10**6])
def test_grid_oracle_is_bit_identical_to_the_dense_maximum(grid_size):
    # the blocked oracle forms each value as the one-shot expression does
    for K, d in BIT_IDENTITY_POINTS:
        assert GridSweep([K], [d], grid_size).finish()[0, 0] == dense_grid_sup(K, d, grid_size)


@pytest.mark.parametrize("grid_size", [1, 2**15 - 1, 2**15, 2**15 + 1, 10**6])
def test_grid_sweep_is_bit_identical_to_the_dense_maximum(grid_size):
    # one sweep over every K x d pair of the points, not only the listed pairs
    k_values = [K for K, _ in BIT_IDENTITY_POINTS]
    d_values = [d for _, d in BIT_IDENTITY_POINTS]
    best = GridSweep(k_values, d_values, grid_size).finish()
    assert best.shape == (len(k_values), len(d_values))
    for i, K in enumerate(k_values):
        for j, d in enumerate(d_values):
            assert best[i, j] == dense_grid_sup(K, d, grid_size)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("n_d", [1, 2, 3, 5])
def test_grid_sweep_split_by_d_is_bit_identical(monkeypatch, cpus, n_d):
    # min(n_d, cpus) workers, none for one d, on a grid one point past a block
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    grid_size = 2**15 + 1
    k_values = [K for K, _ in BIT_IDENTITY_POINTS]
    d_values = [d for _, d in BIT_IDENTITY_POINTS[:n_d]]
    best = GridSweep(k_values, d_values, grid_size).finish()
    assert best.shape == (len(k_values), n_d)
    for i, K in enumerate(k_values):
        for j, d in enumerate(d_values):
            assert best[i, j] == dense_grid_sup(K, d, grid_size)


ONE_CPU_SWEEP = """
import json, os, sys
from wittengap.bounds import GridSweep
forks = []
os.register_at_fork(before=lambda: forks.append(None))
cpus = os.sched_getaffinity(0)
os.sched_setaffinity(0, {min(cpus)})
best = GridSweep(*json.loads(sys.argv[1])).finish()
one_cpu_forks = len(forks)
os.sched_setaffinity(0, cpus)
GridSweep(*json.loads(sys.argv[1])).finish()
print(best.tobytes().hex(), one_cpu_forks, len(cpus), len(forks) - one_cpu_forks)
"""


def test_grid_sweep_on_one_cpu_starts_no_worker():
    grid_size = 2**15 + 1
    k_values = [K for K, _ in BIT_IDENTITY_POINTS]
    d_values = [d for _, d in BIT_IDENTITY_POINTS[:5]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", ONE_CPU_SWEEP, json.dumps([k_values, d_values, grid_size])],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.split()
    best = np.frombuffer(bytes.fromhex(out[0])).reshape(len(k_values), len(d_values))
    for i, K in enumerate(k_values):
        for j, d in enumerate(d_values):
            assert best[i, j] == dense_grid_sup(K, d, grid_size)
    one_cpu_forks, cpus, all_cpu_forks = map(int, out[1:])
    assert one_cpu_forks == 0
    # the fork counter sees the workers when more than one CPU is usable
    if cpus > 1:
        assert all_cpu_forks == min(cpus, len(d_values))


_PARENT_PID = os.getpid()


def _sweep_columns_failing_in_workers(Ks, ds, grid_size):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("worker chunk failed")
    return _sweep_columns(Ks, ds, grid_size)


def test_grid_sweep_raises_a_worker_exception(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(bounds, "_sweep_columns", _sweep_columns_failing_in_workers)
    with pytest.raises(RuntimeError, match="worker chunk failed"):
        GridSweep([0.0, 1.0], [1.0, 2.0, 3.0], 100).finish()
    assert multiprocessing.active_children() == []
    # one column runs in this process only, so the same patch passes
    assert GridSweep([0.0, 1.0], [1.0], 100).finish()[1, 0] == dense_grid_sup(1.0, 1.0, 100)


_COLUMN_LOG = None


def _sweep_columns_logged(Ks, ds, grid_size):
    with open(_COLUMN_LOG, "a") as fh:
        fh.write(f"{os.getpid()} {os.nice(0)} {ds[0]!r}\n")
    return _sweep_columns(Ks, ds, grid_size)


def test_grid_sweep_workers_sweep_every_column_below_the_callers_priority(
    monkeypatch, tmp_path
):
    # with workers, every column is a worker's, and each worker runs niced
    # below this process, which keeps its core for its own work meanwhile
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys.modules[__name__], "_COLUMN_LOG", str(tmp_path / "columns"))
    monkeypatch.setattr(bounds, "_sweep_columns", _sweep_columns_logged)
    k_values = [K for K, _ in BIT_IDENTITY_POINTS]
    d_values = [d for _, d in BIT_IDENTITY_POINTS[:8]]
    grid_size = 2**15 + 1
    best = GridSweep(k_values, d_values, grid_size).finish()
    rows = [line.split() for line in (tmp_path / "columns").read_text().splitlines()]
    assert sorted(float(d) for _, _, d in rows) == sorted(d_values)
    # at most two workers, as many as the CPUs, and never this process
    pids = {int(pid) for pid, _, _ in rows}
    assert len(pids) <= 2 and os.getpid() not in pids
    caller = os.nice(0)
    assert all(int(nice) == min(caller + 19, 19) > caller for _, nice, _ in rows)
    assert multiprocessing.active_children() == []
    assert np.array_equal(best, _sweep_columns(k_values, d_values, grid_size))


def test_grid_sweep_validates_every_pair():
    with pytest.raises(ValueError):
        GridSweep([0.0, math.nan], [1.0], 10).finish()
    with pytest.raises(ValueError, match="diameter d out of range"):
        GridSweep([0.0], [1.0, 1e-200], 10).finish()
    with pytest.raises(ValueError):
        GridSweep([0.0], [1.0], 0).finish()
    # a grid size that is not an integer is named, not left to numpy
    for grid_size in (1e6, 100.0, True, "100"):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {grid_size!r}")):
            GridSweep([0.0], [1.0], grid_size).finish()
    with pytest.raises(ValueError, match=re.escape("must be an integer, got 1000000.0")):
        GridSweep([1.0], [1.0], 1e6).finish()
    # a numpy integer is an integer
    assert GridSweep([1.0], [1.0], np.int64(100)).finish()[0, 0] == dense_grid_sup(1.0, 1.0, 100)


def test_gap_expression_matches_the_written_out_formula():
    s = np.arange(1, 1001, dtype=np.float64) / 1001
    for K, d in BIT_IDENTITY_POINTS:
        ref = 4.0 * s * (1.0 - s) * math.pi**2 / d**2 + s * K
        assert np.array_equal(gap_expression(s, K, d), ref)


def test_grid_oracle_allocates_no_full_grid_per_call():
    # the first call of each is traced, at grid sizes no other test uses,
    # so no grid kept from an earlier call can hide an allocation
    inp = BoundInput(K=1.0, d=math.pi)
    k_values, d_values = np.linspace(-10.0, 10.0, 5), np.linspace(0.1, 20.0, 5)
    # a one-point sweep first imports and starts the fork pool machinery,
    # whose allocations are no grid's, so the test passes run alone too
    GridSweep(k_values, d_values, 1).finish()
    calls = [
        lambda: GridSweep([inp.K], [inp.d], 10**6 - 1).finish(),
        lambda: GridSweep(k_values, d_values, 10**6 - 2).finish(),
        # tracemalloc sees this process only; a forked worker runs _sweep_columns
        lambda: _sweep_columns(list(k_values), list(d_values), 10**6 - 3),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 10^6-point float64 temporary alone would be 8 MB
        assert peak < 2**20


@given(K=ks, d=ds, s=ss)
@settings(max_examples=200, deadline=None)
def test_closed_form_dominates_every_member(K, d, s):
    inp = BoundInput(K=K, d=d)
    closed = sup_bound_closed(inp)
    member = float(gap_expression(s, K, d))
    assert closed >= member - 1e-9 * max(1.0, abs(closed), abs(member))


@given(K=ks, d=ds)
@settings(max_examples=200, deadline=None)
def test_grid_never_exceeds_closed_form(K, d):
    inp = BoundInput(K=K, d=d)
    assert GridSweep([K], [d], 10**4).finish()[0, 0] <= sup_bound_closed(inp) + 1e-12


@given(K=ks, d=ds)
@settings(max_examples=200, deadline=None)
def test_scaling_identity(K, d):
    # gap(s; K, d) = d^{-2} gap(s; K d^2, 1), so the suprema scale the same way
    ref = sup_bound_closed(BoundInput(K=K * d * d, d=1.0)) / d**2
    val = sup_bound_closed(BoundInput(K=K, d=d))
    assert val == pytest.approx(ref, rel=1e-12, abs=1e-300)


@given(K=ks, d=ds)
@settings(max_examples=200, deadline=None)
def test_half_slope_member_and_positivity(K, d):
    inp = BoundInput(K=K, d=d)
    closed = sup_bound_closed(inp)
    assert closed >= 0.0
    # the s = 1/2 member is andrews_ni; the supremum dominates it
    half = andrews_ni_bound(inp)
    assert closed >= half - 1e-9 * max(1.0, abs(half))
    if K >= 0.0:
        assert closed >= math.pi**2 / d**2 - 1e-12


def test_fixed_slope_values():
    inp = BoundInput(K=2.0, d=3.0)
    assert futaki_sano_bound(inp) == pytest.approx(math.pi**2 / 9.0 + 0.62, abs=1e-12)
    assert andrews_ni_bound(inp) == pytest.approx(math.pi**2 / 9.0 + 1.0, abs=1e-12)


def test_optimal_s_closed_form_and_grid():
    opt = soliton_optimal_s()
    assert opt.s_star == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-15)
    assert opt.g_max == pytest.approx(12.0 - 8.0 * math.sqrt(2.0), abs=1e-15)
    # g(s*) equals the claimed maximum
    g_at_star = 4.0 * opt.s_star * (1.0 - opt.s_star) / (2.0 - opt.s_star)
    assert g_at_star == pytest.approx(opt.g_max, abs=1e-14)
    # a fine grid never exceeds it and comes within its resolution
    s = np.arange(1, 2_000_001, dtype=np.float64) / 2_000_001
    g = 4.0 * s * (1.0 - s) / (2.0 - s)
    assert g.max() <= opt.g_max + 1e-14
    assert abs(g.max() - opt.g_max) <= 1e-12


def test_soliton_constants_and_ordering():
    c_sup = 2.0 * (math.sqrt(2.0) - 1.0)
    c_half = math.sqrt(2.0 / 3.0)
    c_fixed = 10.0 / 13.0
    assert c_sup > c_half > c_fixed
    b = soliton_diameter_bounds(SolitonInput(lam=1.0))
    assert b.sup_bound == pytest.approx(c_sup * math.pi, abs=1e-12)
    assert b.andrews_ni == pytest.approx(c_half * math.pi, abs=1e-12)
    assert b.futaki_sano == pytest.approx(c_fixed * math.pi, abs=1e-12)
    # the sup-family constant, 10 digits
    assert b.sup_bound == pytest.approx(2.6025805690, abs=1e-9)


@given(lam=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_soliton_bounds_scale(lam):
    b1 = soliton_diameter_bounds(SolitonInput(lam=1.0))
    b = soliton_diameter_bounds(SolitonInput(lam=lam))
    rt = math.sqrt(lam)
    assert b.sup_bound == pytest.approx(b1.sup_bound / rt, rel=1e-12)
    assert b.sup_bound > b.andrews_ni > b.futaki_sano


def test_shrinker_bound_values():
    # circle normalization: lam = 1, K0 = 1 gives pi / sqrt(2)
    inp = ShrinkerBoundInput(lam=1.0, K0=1.0)
    assert shrinker_diameter_bound(inp) == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-12)
    # the sup over s dominates the s = 1/2 member
    sup = shrinker_diameter_bound_sup(inp)
    assert sup >= shrinker_diameter_bound(inp) - 1e-8


@given(
    lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    K0=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_shrinker_sup_dominates(lam, K0):
    inp = ShrinkerBoundInput(lam=lam, K0=K0)
    assert shrinker_diameter_bound_sup(inp) >= shrinker_diameter_bound(inp) - 1e-6


def shrinker_sup_grid(inp, grid_size=10**5):
    """Oracle: the largest s-family diameter bound on a uniform interior s-grid."""
    s = np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)
    K = inp.lam - inp.K0
    return float((2.0 * math.pi * np.sqrt(s * (1.0 - s) / (2.0 * inp.lam - s * K))).max())


@given(
    lam=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
    K0=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_shrinker_sup_closed_form_vs_grid(lam, K0):
    inp = ShrinkerBoundInput(lam=lam, K0=K0)
    closed = shrinker_diameter_bound_sup(inp)
    grid = shrinker_sup_grid(inp)
    # a grid node within ~1e-8 of s* can round one ulp above the closed form
    assert closed >= grid - 4.0 * np.finfo(float).eps * closed
    assert closed - grid <= 1e-8 * closed


@pytest.mark.parametrize("lam", [0.01, 1.0, 3.7, 100.0])
def test_shrinker_sup_at_zero_curvature_is_the_soliton_bound(lam):
    # K0 = 0 puts the maximizer at s* = 2 - sqrt(2), the soliton optimum
    sup = shrinker_diameter_bound_sup(ShrinkerBoundInput(lam=lam, K0=0.0))
    assert sup == pytest.approx(soliton_diameter_bounds(SolitonInput(lam)).sup_bound, rel=1e-14)


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInput(K=0.0, d=0.0)
    with pytest.raises(ValueError):
        BoundInput(K=math.nan, d=1.0)
    with pytest.raises(ValueError):
        SolitonInput(lam=0.0)
    with pytest.raises(ValueError):
        ShrinkerBoundInput(lam=-1.0, K0=1.0)
    with pytest.raises(ValueError):
        GridSweep([0.0], [1.0], 0).finish()


@pytest.mark.parametrize("d", [1e-200, 1e-160, 1e200])
def test_diameter_whose_square_leaves_the_float_range_is_rejected(d):
    # d**2 underflows to 0, pi^2 / d^2 overflows to inf, d**2 overflows
    with pytest.raises(ValueError, match="diameter d out of range"):
        BoundInput(K=1.0, d=d)
