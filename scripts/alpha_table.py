#!/usr/bin/env python3
"""Tabulate the crossing alpha(lam) where G(alpha, lam) = 1 over a lam list.

Example:
  python3 scripts/alpha_table.py --lambdas 1/4,1/2,1,2,4
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from cfcert import AlphaResult, CFCertError, find_alpha


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lambdas", default="1/4,1/2,1,2,4")
    ap.add_argument("--bracket-tol", type=Fraction, default=Fraction(1, 10**6))
    ap.add_argument("--g-tol", type=Fraction, default=Fraction(1, 10**9))
    args = ap.parse_args()

    lams = [Fraction(s) for s in args.lambdas.split(",")]
    print("lambda,m_lo,m_hi,width,alpha_mid,iterations,flag")
    for lam in lams:
        try:
            res = find_alpha(lam, args.bracket_tol, args.g_tol)
        except CFCertError as exc:  # flagged inline, in order
            res = AlphaResult(lam=lam, m_lo=Fraction(0), m_hi=Fraction(1), g_at_mid=None,
                              iterations=0, flag=f"error: {exc}")
        print(f"{res.lam},{res.m_lo},{res.m_hi},{float(res.width):.3e},"
              f"{float(res.midpoint):.12f},{res.iterations},{res.flag or ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
