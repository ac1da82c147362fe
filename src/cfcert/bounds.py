"""Certificates for the inequalities and identities satisfied by G(m, lam).

The sandwich G(m+1, lam) > B(m, lam) > G(m, lam), m >= 0, with B the
positive root of y**2 - m*lam*y - 1, is one inequality: f(y) = m*lam + 1/y
decreases on y > 0, B is its fixed point and G(m) = f(G(m+1)), so
G(m+1) > B exactly when G(m) < B, exactly when G(m) < G(m+1).  So
check_sandwich, and check_reciprocal (m = 0, B = 1), evaluate only the tail
G(m+1, lam), map G(m, lam) from it (cf_core._mapped) and never form B.
All certificates are interval statements: a strict inequality a < b is
certified exactly when the enclosure of a lies entirely below the
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
    _mapped,
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
    ``gap`` is the certified separation between the two sides (positive).
    In place of B, which is never formed, a sandwich half holds the window
    [G(m)'s hi, G(m+1)'s lo], with B strictly inside, and ``gap`` is its
    width.  For identity claims (functional equation, oracle intersection)
    ``gap`` is the width of the overlap that witnesses consistency.
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
    No verdict uses it; it stays while the benchmark traces it.
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

    Certified where G(m)'s enclosure, mapped from G(m+1)'s, lies below it:
    B lies strictly inside the window between them.  Returns the reports
    (G(m+1), window) and (window, G(m)).  Raises InconclusiveError, with the
    enclosures of G(m+1, lam) and G(m, lam), where they still meet at the
    last tolerance.
    """
    if point.m < 0:
        raise DomainError(f"sandwich hypothesis needs m >= 0, got m = {point.m}")
    for _, (g1,) in _tightened([point.shifted()], tol, max_depth):
        g0 = _mapped(point, g1)
        if g0.hi < g1.lo:
            window = Enclosure(g0.hi, g1.lo, g1.depth, g1.mode, g1.tol)
            upper = CheckReport(point, Claim.SANDWICH_UPPER, g1, window, window.width)
            lower = CheckReport(point, Claim.SANDWICH_LOWER, window, g0, window.width)
            return upper, lower
    raise InconclusiveError(
        f"sandwich enclosures still overlap at m={point.m}, lam={point.lam}",
        claim=Claim.SANDWICH_UPPER,
        left=g1,
        right=g0,
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
    shifted = _mapped(point, tail)
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
    """Certify G(0, lam) < 1, with G(0, lam) = 1/G(1, lam).

    G(0, lam), mapped from G(1, lam), is [1/hi, 1/lo]: it lies below 1
    where G(1, lam) lies above.  The report carries G(0) as left, G(1) as
    right.
    """
    p0 = CFPoint(0, lam)
    for _, (g1,) in _tightened([p0.shifted()], tol, max_depth):
        g0 = _mapped(p0, g1)
        if g1.lo > 1:
            return CheckReport(p0, Claim.RECIPROCAL, g0, g1, 1 - g0.hi)
    raise InconclusiveError(
        f"G(0, lam) enclosure still touches 1 at lam={p0.lam}",
        claim=Claim.RECIPROCAL,
        left=g0,
        right=g1,
    )
