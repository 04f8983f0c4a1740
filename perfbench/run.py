#!/usr/bin/env python3
"""Benchmark for wittengap: one workload per process, timed from outside.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0

Run from the repository root (the program is imported from ``src/``).  The
workload repeats complete passes, one operation at a time, while the next
pass is expected to end within ``--seconds`` (at least one pass).  Every
output is checked; see ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median over fresh interpreters of imports plus input
generation), ``op_p50_ms`` / ``op_p99_ms`` (over the operations that
completed, each timed by its median over the passes, which repeat the same
inputs),
``ok_ratio`` (operations that completed and passed their checks over those
attempted, i.e. 1 - fail_ratio) and ``peak_rss_mb`` of this process.
``attempted`` and ``failed`` count the operations of one pass; every later
pass must fail the same ones.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (per pass) plus
``trace.overhead_ratio``, the traced over the untraced median pass time, and
``trace.outside_spans_s``, the part of a traced pass that no span covers.
A span costs about 1.5 us.  With one pass of each, as on verify-all, the
traced pass runs second and gains the process's warm-up (the first pass of
a fresh process allocates its large temporaries more slowly), so the ratio
can read below 1.
Traced numbers never feed the end-to-end metrics.  Spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify-all", "interval-sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter needs to import the program and build inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def blas_info() -> list[dict]:
    """Loaded OpenBLAS libraries with their build string and thread count."""
    import ctypes

    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    info = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"lib": Path(path).name, "config": "unknown", "threads": -1}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None and entry["threads"] < 0:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        info.append(entry)
    return info


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas": blas_info(),
    }


def run_passes(workload, budget_s: float, tracer=None) -> tuple[list, list]:
    """Closed loop of passes; start another only if it should end in budget.

    With a tracer, passes alternate untraced and traced (at least one of
    each), so drift over the run affects both sides alike.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            with tracer.installed():
                p = workload.execute()
            traced.append(p)
        else:
            p = workload.execute()
            plain.append(p)
        workload.check(p)
        for q in plain + traced:
            if q is not p:
                q.outputs = None  # keep only the last pass, for the negative controls
        elapsed = time.perf_counter() - start
        expected = statistics.median(q.wall_s for q in plain + traced)
        if elapsed + expected > budget_s and (tracer is None or traced):
            return plain, traced


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # BLAS threads at most nproc, so numbers measure the program, not the scheduler
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(requested, nproc)))

    if not (ROOT / "src" / "wittengap" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'wittengap'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.make(args.workload, args.seed, OUT)
        print(repr(time.perf_counter() - t0))
        return 0

    OUT.mkdir(exist_ok=True)
    setup_times = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import workloads
    from tracer import Tracer

    workload = workloads.make(args.workload, args.seed, OUT)
    env = environment(nproc)
    print("environment " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else None
    plain, traced = run_passes(workload, args.seconds, tracer)
    passes = plain + traced
    for kind, group in (("untraced", plain), ("traced", traced)):
        for p in group:
            errors = ", ".join(f"{k} x{v}" for k, v in sorted(p.errors.items())) or "none"
            print(f"{kind} pass: {p.wall_s:.3f} s, {p.attempted} ops, {p.failed} failed, "
                  f"errors: {errors}")
            for line in p.mismatches[:10]:
                print(f"  mismatch: {line}")

    controls = workload.controls(next(p for p in passes if p.outputs is not None))
    for name, red in controls.items():
        print(f"negative control {name!r}: {'caught' if red else 'NOT CAUGHT'}")

    # attempted and failed count the workload's operations once: how many
    # passes fit in the run is a matter of timing, and must not change them.
    # Every pass repeats the same inputs and must fail the same operations
    # (the workloads also check that the outputs repeat), or the run is wrong.
    attempted, failed = passes[0].attempted, passes[0].failed
    repeated = all((p.attempted, p.failed) == (attempted, failed) for p in passes)
    if not repeated:
        print("error: passes over the same inputs disagree on what failed")
    correct = repeated and all(controls.values()) and not any(p.mismatches for p in passes)
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6f} per pass")

    if args.trace:
        n = len(traced)
        metrics = tracer.per_layer(n)
        traced_wall = statistics.median(p.wall_s for p in traced)
        plain_wall = statistics.median(p.wall_s for p in plain)
        metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
        outside = (sum(p.wall_s for p in traced) - tracer.self_total()) / n
        metrics["trace.outside_spans_s"] = (outside, "s")
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        print(f"{len(tracer.spans)} spans over {n} traced passes written to {spans_path}")
    else:
        # Every pass repeats the same inputs.  An operation's time is its median
        # over the passes, so the tail shows slow inputs, not momentary interference.
        per_op = [
            statistics.median(done)
            for ts in zip(*(p.op_ms for p in passes))
            if (done := [t for t in ts if t is not None])
        ] or [0.0]
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_ms": (percentile(per_op, 50.0), "ms"),
            "op_p99_ms": (percentile(per_op, 99.0), "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        beyond = int(len(per_op) * 0.01)
        print(
            f"{len(passes)} passes; {len(per_op)} operations timed, each by its median over "
            f"the passes ({beyond} beyond p99{'; p99 not resolved' if beyond < 10 else ''}); "
            f"setup probes {[round(t, 4) for t in setup_times]}"
        )

    declared = declared_metrics(args.trace)
    if {k: u for k, (_, u) in metrics.items()} != declared:
        extra = sorted(set(metrics) - set(declared))
        missing = sorted(set(declared) - set(metrics))
        print(f"error: metrics disagree with BENCHMARK.json: extra {extra}, missing {missing}"
              " (or units differ)", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "controls": controls, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
