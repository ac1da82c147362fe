#!/usr/bin/env python3
"""Certified approach of G(m, lam) to 1 along a descending lam grid.

Example:
  python3 scripts/limit_curve.py --m 1 --decades 4
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from cfcert import limit_check


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=Fraction, default=Fraction(1))
    ap.add_argument("--decades", type=int, default=4,
                    help="grid lam = 10^-1 .. 10^-decades")
    ap.add_argument("--tol", type=Fraction, default=Fraction(1, 10**4))
    ap.add_argument("--max-depth", type=int, default=100_000)
    args = ap.parse_args()

    grid = [Fraction(1, 10**k) for k in range(1, args.decades + 1)]
    print("lambda,lo,hi,dist_to_one,depth,mode")
    for lam, enc in zip(grid, limit_check(args.m, grid, args.tol, max_depth=args.max_depth)):
        dist = abs(enc.midpoint - 1)
        print(f"{lam},{float(enc.lo):.12f},{float(enc.hi):.12f},"
              f"{float(dist):.3e},{enc.depth},{enc.mode.value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
