"""Certificates for the inequalities and identities satisfied by G(m, lam).

The central quantity is the quadratic bound B(m, lam), the positive root of
y**2 - m*lam*y - 1 = 0 (equivalently m*lam/2 + sqrt(m**2*lam**2/4 + 1)),
which separates G(m, lam) from G(m+1, lam) for m >= 0.  theorem_bound
encloses it with integer arithmetic and one isqrt, never a floating square
root.  All certificates are interval statements: a strict inequality a < b
is certified exactly when the enclosure of a lies entirely below the
enclosure of b.  Overlapping enclosures are retried at tol/10, tol/100, ...
(cf_core._tightened).  Every claim here is strict, so the retries give up
only where an evaluation reaches the depth budget max_depth: its best
enclosure is still rigorous, and enclosures that still overlap there raise
Inconclusive carrying them.  An identity that fails outright raises
Violation since it can only mean an arithmetic bug.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import isqrt

from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    RationalLike,
    _best,
    _from_tail,
    _tightened,
    as_fraction,
)
from .errors import DomainError, InconclusiveError, ViolationError

ONE = Fraction(1)


class Claim(str, Enum):
    SANDWICH_UPPER = "sandwich-upper"
    SANDWICH_LOWER = "sandwich-lower"
    FUNCTIONAL_EQUATION = "functional"
    ABOVE_ONE = "above-one"
    RECIPROCAL = "reciprocal"
    ORACLE = "oracle-intersect"


class CheckReport(namedtuple("CheckReport", "point claim left right gap")):
    """One certificate that holds; a claim that does not certify raises instead.

    An immutable named tuple of the CFPoint, the Claim, the Enclosures
    ``left`` and ``right`` and the Fraction ``gap``.  For inequality claims
    ``gap`` is the certified separation between the two enclosures
    (positive).  For identity claims (functional equation, reciprocal
    product, oracle intersection) it is the width of the overlap that
    witnesses consistency.
    """

    __slots__ = ()


def theorem_bound(point: CFPoint, tol: RationalLike = DEFAULT_TOL) -> Enclosure:
    """Enclose B(m, lam) on the dyadic grid of its defining quadratic, by one isqrt.

    The enclosure is the one that bisecting [1, c + 1] (or [0, 1] when
    c = m*lam < 0) until its width is <= tol would return: the grid cell of
    width w0 / 2**j that holds the root, with j the fewest halvings.  With
    c = e/f the root is (e + sqrt(d)) / (2f), d = e**2 + 4f**2, so the cell
    index is a floor of (integer + sqrt(d << 2j)) over an integer, and
    isqrt(d << 2j) gives it exactly.  No floating square root is ever taken:
    the bounds carry the sign witness lo**2 - c*lo - 1 <= 0 <= hi**2 - c*hi - 1.
    When d is a perfect square the root itself is rational and the enclosure
    is returned exact (width zero), which covers m = 0 where the bound is 1.
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    c = point.m * point.lam
    e, f = c.numerator, c.denominator
    disc = e * e + 4 * f * f
    r = isqrt(disc)
    if r * r == disc:
        root = Fraction(e + r, 2 * f)
        return Enclosure(lo=root, hi=root, depth=0, mode=EvalMode.EXACT)
    # j halvings take the initial width w0 (e/f when c > 0, else 1) to <= tol:
    # the least j with 2**j >= ceil(w0 / tol)
    w_num, w_den = (e, f) if c > 0 else (1, 1)
    j = ((w_num * tol.denominator - 1) // (w_den * tol.numerator)).bit_length()
    # sqrt(disc) * 2**j is irrational here, so the floor may be taken inside
    s = isqrt(disc << (2 * j))
    if c > 0:
        k = (((e - 2 * f) << j) + s) // (2 * e)
        cell = Fraction(e, f << j)
        lo = 1 + k * cell
    else:
        k = ((e << j) + s) // (2 * f)
        cell = Fraction(1, 1 << j)
        lo = k * cell
    return Enclosure(lo=lo, hi=lo + cell, depth=0, mode=EvalMode.EXACT)


def check_sandwich(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[CheckReport, CheckReport]:
    """Certify G(m+1, lam) > B(m, lam) > G(m, lam) for m >= 0.

    Returns the (upper, lower) report pair; each certificate is a disjoint
    pair of enclosures with a positive gap.  Raises InconclusiveError if
    the enclosures still overlap at the last tolerance; it names a failing
    half and carries the enclosures of G(m+1, lam) and G(m, lam).
    """
    if point.m < 0:
        raise DomainError(f"sandwich hypothesis needs m >= 0, got m = {point.m}")
    for t, (g_hi, g_lo) in _tightened([point.shifted(), point], tol, max_depth):
        bound = theorem_bound(point, t)
        if g_hi.lo > bound.hi and bound.lo > g_lo.hi:
            upper = CheckReport(
                point=point,
                claim=Claim.SANDWICH_UPPER,
                left=g_hi,
                right=bound,
                gap=g_hi.lo - bound.hi,
            )
            lower = CheckReport(
                point=point,
                claim=Claim.SANDWICH_LOWER,
                left=bound,
                right=g_lo,
                gap=bound.lo - g_lo.hi,
            )
            return upper, lower
    raise InconclusiveError(
        f"sandwich enclosures still overlap at m={point.m}, lam={point.lam}",
        claim=Claim.SANDWICH_LOWER if g_hi.lo > bound.hi else Claim.SANDWICH_UPPER,
        left=g_hi,
        right=g_lo,
    )


def check_functional_equation(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CheckReport:
    """Verify the enclosure of G(m, lam) meets m*lam + 1/[enclosure of G(m+1, lam)].

    Both intervals contain the same real number, so they must intersect;
    a disjoint pair raises ViolationError.  An evaluation out of budget
    contributes its best enclosure.
    """
    direct, tail = (_best(p, tol, max_depth)[0] for p in (point, point.shifted()))
    shifted = _from_tail(
        point, tail.lo.as_integer_ratio(), tail.hi.as_integer_ratio(), tail.depth, tail.mode
    )
    overlap = min(direct.hi, shifted.hi) - max(direct.lo, shifted.lo)
    if overlap < 0:
        raise ViolationError(
            f"functional equation enclosures disjoint at m={point.m}, "
            f"lam={point.lam}: {direct} vs {shifted}"
        )
    return CheckReport(
        point=point,
        claim=Claim.FUNCTIONAL_EQUATION,
        left=direct,
        right=shifted,
        gap=overlap,
    )


def check_g_above_one(
    point: CFPoint,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CheckReport:
    """Certify G(m, lam) > 1 for m >= 1."""
    if point.m < 1:
        raise DomainError(f"hypothesis needs m >= 1, got m = {point.m}")
    unit = Enclosure(lo=ONE, hi=ONE, depth=0, mode=EvalMode.EXACT)
    for _, (enc,) in _tightened([point], tol, max_depth):
        if enc.lo > 1:
            return CheckReport(
                point=point,
                claim=Claim.ABOVE_ONE,
                left=enc,
                right=unit,
                gap=enc.lo - 1,
            )
    raise InconclusiveError(
        f"G enclosure still touches 1 at m={point.m}, lam={point.lam}",
        claim=Claim.ABOVE_ONE,
        left=enc,
        right=unit,
    )


def check_reciprocal(
    lam: RationalLike,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CheckReport:
    """Certify G(0, lam) * G(1, lam) = 1 (as an interval statement) and G(0, lam) < 1.

    The product interval must contain 1, since the two values are exact
    reciprocals; a product interval that excludes 1 raises ViolationError.
    """
    lam = as_fraction(lam)
    p0 = CFPoint(Fraction(0), lam)
    for _, (g0, g1) in _tightened([p0, CFPoint(Fraction(1), lam)], tol, max_depth):
        if not (g0.lo * g1.lo <= 1 <= g0.hi * g1.hi):
            raise ViolationError(
                f"product interval excludes 1 at lam={lam}: {g0} * {g1}"
            )
        if g0.hi < 1:
            return CheckReport(
                point=p0,
                claim=Claim.RECIPROCAL,
                left=g0,
                right=g1,
                gap=1 - g0.hi,
            )
    raise InconclusiveError(
        f"G(0, lam) enclosure still touches 1 at lam={lam}",
        claim=Claim.RECIPROCAL,
        left=g0,
        right=g1,
    )
