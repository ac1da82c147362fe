#!/usr/bin/env python3
"""Sweep the default small-m values for certified decrease pairs of lam -> G(m, lam).

Example:
  python3 scripts/witness_search.py --tol 1e-12
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from cfcert import DEFAULT_WITNESS_GRID, NoWitnessFoundError, find_witness

#: m values worth scanning by default (the dip below 1 lives at small m)
DEFAULT_WITNESS_MS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tol", type=Fraction, default=Fraction(1, 10**12))
    ap.add_argument("--ms", default=None,
                    help="comma list of m values in (0,1); default 1/10,1/4,1/2")
    args = ap.parse_args()

    ms = DEFAULT_WITNESS_MS if args.ms is None else [Fraction(s) for s in args.ms.split(",")]
    print("m,lambda1,lambda2,g1_lo,g2_hi,gap")
    found = 0
    for m in ms:
        try:
            w = find_witness(m, list(DEFAULT_WITNESS_GRID), args.tol)
        except NoWitnessFoundError:
            print(f"{m},,,,,", file=sys.stdout)
            continue
        found += 1
        print(f"{m},{w.lambda1},{w.lambda2},{float(w.g1.lo):.15f},"
              f"{float(w.g2.hi):.15f},{float(w.g1.lo - w.g2.hi):.3e}")
    return 0 if found else 1


if __name__ == "__main__":
    raise SystemExit(main())
