#!/usr/bin/env python3
"""Survey closed rosette curves over the admissible (p, q) range.

For every coprime pair with 1/2 < p/q < sqrt(2)/2 and q up to --max-q,
find the closed curve and tabulate its geometry against the diameter
bounds.  With --csv the table is also written as comma-separated rows."""

import argparse
import math
import sys
import time

from wittengap.bounds import ShrinkerBoundInput, shrinker_diameter_bound
from wittengap.shrinkers import (
    eigen_identity_residual,
    find_abresch_langer,
    k0_and_diameter,
    mean_curvature_identity_residual,
)


def admissible_pairs(max_q: int):
    for q in range(3, max_q + 1):
        for p in range(2, q):
            if math.gcd(p, q) == 1 and 0.5 < p / q < math.sqrt(2.0) / 2.0:
                yield p, q


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=15)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=4096)
    ap.add_argument("--csv", help="also write the table to this CSV file")
    args = ap.parse_args()

    header = f"{'p/q':>5s} {'r0':>10s} {'k_max':>9s} {'length':>10s} {'d-bound':>9s} {'mc-res':>9s} {'eig-res':>9s} {'secs':>6s}"
    print(header)
    rows = []
    for p, q in admissible_pairs(args.max_q):
        t0 = time.perf_counter()
        try:
            curve = find_abresch_langer(args.lam, p, q, n_points=args.points)
        except (ValueError, RuntimeError) as exc:
            print(f"{p}/{q}: no closed curve: {exc}", file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        kd = k0_and_diameter(curve)
        bound = shrinker_diameter_bound(ShrinkerBoundInput(lam=args.lam, K0=kd.K0))
        mc = mean_curvature_identity_residual(curve)
        eig = eigen_identity_residual(curve)
        print(
            f"{p}/{q:>3d} {curve.radii.min():10.6f} {curve.curvatures.max():9.5f} "
            f"{curve.length:10.6f} {kd.d - bound:+9.5f} {mc:9.2e} {eig:9.2e} {dt:6.2f}"
        )
        rows.append((p, q, curve.radii.min(), curve.curvatures.max(), curve.length, kd.d - bound, mc, eig))
        # every closed rosette must clear its own diameter bound
        assert kd.d >= bound, (p, q, kd.d, bound)

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("p,q,r0,k_max,length,diameter_margin,mc_residual,eigen_residual\n")
            for row in rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
