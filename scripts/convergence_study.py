#!/usr/bin/env python3
"""Mesh-refinement study for the two eigensolvers.

Left table: raw interval eigenvalues against the exact flat value pi^2/d^2
and the K = 1, d = 2 case with exact continuum value 3, doubling the cell
count each row.  Right table: circle and icosphere eigenvalues against
their continuum targets.  Error ratios near 4 confirm second order."""

import argparse
import math

from wittengap.spectral import build_icosphere, build_weighted_circle, lambda1_witten
from wittengap.sturm import NEUMANN, raw_lambda1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=5, help="number of doublings")
    args = ap.parse_args()

    print("interval operator, raw eigenvalues")
    print(f"{'m':>6s} {'err K=0,d=2':>12s} {'ratio':>6s} {'err K=1,d=2':>12s} {'ratio':>6s}")
    prev = (None, None)
    m = 125
    for _ in range(args.levels):
        e_flat = abs(raw_lambda1(0.0, 2.0, m, NEUMANN) - math.pi**2 / 4.0)
        e_cubic = abs(raw_lambda1(1.0, 2.0, m, NEUMANN) - 3.0)
        r_flat = f"{prev[0] / e_flat:6.2f}" if prev[0] else "     -"
        r_cubic = f"{prev[1] / e_cubic:6.2f}" if prev[1] else "     -"
        print(f"{m:>6d} {e_flat:12.3e} {r_flat} {e_cubic:12.3e} {r_cubic}")
        prev = (e_flat, e_cubic)
        m *= 2

    print()
    print("circle (target 1) and icosphere (target 2)")
    print(f"{'n':>6s} {'circle err':>12s}    {'sub':>3s} {'sphere err':>12s}")
    n = 125
    for sub in range(1, min(args.levels, 5) + 1):
        circle_err = abs(lambda1_witten(build_weighted_circle(max(n, 16))).lambda1 - 1.0)
        sphere_err = abs(lambda1_witten(build_icosphere(sub)).lambda1 - 2.0)
        print(f"{max(n, 16):>6d} {circle_err:12.3e}    {sub:>3d} {sphere_err:12.3e}")
        n *= 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
