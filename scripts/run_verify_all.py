#!/usr/bin/env python3
"""Run the full certification suite and time each case.

Same cases as `wittengap verify-all`, with a per-case wall-clock column so
slow regressions show up early.  Reports land in the chosen output
directory (default: reports/)."""

import argparse
import os
import time

from wittengap.cli import config_from_sources, run_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="flat 'key = value' config file")
    ap.add_argument("--out", default=None, help="report directory")
    args = ap.parse_args()

    cfg = config_from_sources(args.config, {})
    out_dir = args.out or cfg.out_dir or os.environ.get("WITTEN_GAP_OUT", "reports")
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.perf_counter()
    reports = run_suite(cfg)
    total = time.perf_counter() - t0

    n_pass = 0
    for rep in reports:
        with open(os.path.join(out_dir, rep.case_id + ".json"), "w") as fh:
            fh.write(rep.to_json())
        n_pass += rep.passed
        worst = min(
            (rep.margins[k] + rep.tolerances[k] for k in rep.margins), default=float("inf")
        )
        print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.case_id:<28s} slack {worst:+.3e}")
    print(f"{n_pass}/{len(reports)} cases passed in {total:.1f}s; reports in {out_dir}/")
    return 0 if n_pass == len(reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
