"""Locate the crossing alpha(lam) in (0, 1) where G(alpha, lam) = 1.

find_alpha bisects on m and only ever moves an endpoint on certified
evidence: G(0, lam) < 1 and G(1, lam) > 1 are certified before it starts,
and each step needs only the side of 1 that G(mid, lam) lies on.  Where a
midpoint stays undecided, find_alpha certifies the ends of the cell of the
target width centred on it instead (epsilon-inflation; Rump, "Verification
methods", Acta Numerica 2010).  Below DIRECTED_LAMBDA_CUTOFF the first
midpoint, 1/2, is such a point: G(1/2, lam) = coth(2/lam) lies within about
2e^(-4/lam) of 1, while the cell's ends lie about lam * width / 4 from 1.
At an exact-routed lam a float Newton estimate of alpha picks the cell
where bisection starts; every verdict is exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DIRECTED_LAMBDA_CUTOFF,
    CFPoint,
    Enclosure,
    RationalLike,
    _best,
    _depth_guess,
    _pair_enclosure,
    _side_of_one,
    _tightened,
    _width_bound,
    as_fraction,
)
from .errors import DomainError, InconclusiveError

_BELOW, _STRADDLE, _ABOVE = -1, 0, 1

FLAG_INCONCLUSIVE = "inconclusive-midpoint"


def _side(enc: Enclosure) -> int:
    """The side of 1 that enc shows its value on, or _STRADDLE."""
    return _BELOW if enc.hi < 1 else _ABOVE if enc.lo > 1 else _STRADDLE


class AlphaResult(
    namedtuple(
        "AlphaResult",
        "lam m_lo m_hi g_at_mid iterations flag g_at_lo g_at_hi",
        defaults=(None, None, None),
    )
):
    """Bracket [m_lo, m_hi] for the crossing, with the G enclosure at its midpoint.

    An immutable named tuple.  The endpoints carry re-certifiable verdicts:
    G(m_lo, lam) < 1 and G(m_hi, lam) > 1 both hold with disjoint
    enclosures, ``g_at_lo`` and ``g_at_hi``, the ones that decided them.
    ``flag`` is None on a clean run, or names why the bracket was
    returned early.  The m's and ``lam`` are Fractions, each ``g_at_*`` an
    Enclosure or None, and ``iterations`` is log2(1/width).
    """

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.m_hi - self.m_lo

    @property
    def midpoint(self) -> Fraction:
        return (self.m_lo + self.m_hi) / 2


def classify_vs_one(
    point: CFPoint, tol: RationalLike, *, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[int, Enclosure]:
    """Certified side of G(point) relative to 1, with the enclosure that shows it.

    At an exact-routed point (lam >= DIRECTED_LAMBDA_CUTOFF, as evaluate
    routes) this is the cf_core._side_of_one walk, and tol is unused.  At a
    directed-routed point the tolerance runs from tol down by 10 a round
    until the side is decided or an evaluation runs out of budget: its best
    enclosure may still decide the side, and otherwise the straddle verdict
    is returned.  So a point whose G lies extremely near 1, such as m = 1/2,
    costs passes up to max_depth; find_alpha sends it no midpoint.
    """
    if point.lam >= DIRECTED_LAMBDA_CUTOFF:
        m, lam = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
        side, pair = _side_of_one(*m, *lam, max_depth)
        return side, _pair_enclosure(point, pair)
    for _, (enc,) in _tightened([point], tol, max_depth):
        if _side(enc):
            break
    return _side(enc), enc


def _newton_alpha(lam: Fraction, max_depth: int) -> float | None:
    """Double-precision Newton estimate of alpha, or None if it does not settle.

    G(m) and dG/dm come from one backward pass over _depth_guess(lam, 2**-50)
    terms, at most max_depth.  Newton starts at m = 1/2 and stays in
    [0, 1/2], which holds alpha because G(1/2, lam) = coth(2/lam) > 1.
    Raises OverflowError when lam has no double, ZeroDivisionError when it
    rounds to zero.
    """
    x = float(lam)
    depth = min(_depth_guess(lam, Fraction(1, 2**50)), max_depth)
    m = 0.5
    for _ in range(8):
        t, dt = (m + depth) * x, x
        for j in range(depth - 1, -1, -1):
            dt = x - dt / (t * t)
            t = (m + j) * x + 1 / t
        step = (t - 1) / dt
        m = min(max(m - step, 0.0), 0.5)
        if abs(step) < 2**-40:
            return m
    return None


def find_alpha(
    lam: RationalLike,
    bracket_tol: RationalLike = Fraction(1, 10**6),
    g_tol: RationalLike = Fraction(1, 10**9),
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> AlphaResult:
    """Bisect m over (0, 1) down to a certified bracket for the crossing.

    The loop keeps going until the bracket is interior to (0, 1) and at most
    bracket_tol/4 wide (the extra factor keeps the midpoint's G value well
    within g_tol of 1).  A midpoint c whose side stays undecided is not
    bisected: the result is the cell [c - h, c + h] when its ends certify,
    with h = 2**-e and e the least level past c's own with 2h <= bracket_tol/4,
    so the cell lies strictly inside the bracket; otherwise the bracket,
    flagged FLAG_INCONCLUSIVE.  Either way the width is 2**-iterations.

    Every side of 1 is decided once per point: when lam routes to exact mode
    by one walk of the exact recurrence (cf_core._side_of_one), which gives
    up only at max_depth; otherwise a midpoint's by one evaluation at g_tol,
    and the anchors' and the cell ends' by classify_vs_one.  A float Newton
    estimate of alpha names the dyadic cell where the loop would stop, at
    level 32 at most.  The loop starts
    from that cell instead of (0, 1) when walks certify G < 1 at its lower
    end and G > 1 at its upper end, each with a bound more than W from 1,
    where W bounds the width of every exact enclosure at m >= 0 and depth
    max_depth (cf_core._width_bound).  The cell then holds the unique
    crossing, since G increases in m, and the result is the one bisection
    from (0, 1) returns: each midpoint on the way lies beyond an end, so its
    G is more than W from 1 and its walk decides the side within max_depth.
    """
    lam = as_fraction(lam)
    bracket_tol = as_fraction(bracket_tol)
    g_tol = as_fraction(g_tol)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if bracket_tol <= 0 or g_tol <= 0:
        raise DomainError("tolerances must be positive")

    exact = lam >= DIRECTED_LAMBDA_CUTOFF
    c, d = lam.numerator, lam.denominator
    decided: dict[tuple[int, int], tuple] = {}

    def side_at(a: int, j: int, probe: bool = False) -> tuple:
        """Side of G(a / 2**j, lam) relative to 1, once per reduced point, with the
        walk's tail pair at an exact-routed lam, else the enclosure that showed it:
        one evaluation at g_tol for a midpoint ``probe``, classify_vs_one's otherwise."""
        while j and not a & 1:
            a >>= 1
            j -= 1
        if (a, j) not in decided:
            if exact:
                decided[a, j] = _side_of_one(a, 1 << j, c, d, max_depth)
            elif probe:
                enc = _best(CFPoint(Fraction(a, 1 << j), lam), g_tol, max_depth)[0]
                decided[a, j] = _side(enc), enc
            else:
                point = CFPoint(Fraction(a, 1 << j), lam)
                decided[a, j] = classify_vs_one(point, g_tol, max_depth=max_depth)
        return decided[a, j]

    def enclosure_at(a: int, j: int) -> Enclosure:
        """The enclosure that decided the side of G(a / 2**j, lam)."""
        found = side_at(a, j)[1]
        return _pair_enclosure(CFPoint(Fraction(a, 1 << j), lam), found) if exact else found

    for m, want, rel in ((0, _BELOW, "<"), (1, _ABOVE, ">")):
        if side_at(m, 0)[0] != want:
            raise InconclusiveError(
                f"could not certify G({m}, {lam}) {rel} 1", left=enclosure_at(m, 0)
            )

    target = bracket_tol / 4

    def unfinished(k: int, j: int) -> bool:
        """Whether [k, k + 1] / 2**j is wider than target or touches 0 or 1."""
        return target.numerator << j < target.denominator or k == 0 or k + 1 == 1 << j

    def clear(a: int, j: int, want: int) -> bool:
        """Whether the walk at m = a / 2**j decides ``want`` by a bound more than W from 1."""
        side, (n, p, q, pp, qq) = side_at(a, j)
        if n & 1 != (want > 0):  # an even convergent decides below, an odd one above
            p, q = pp, qq
        big_d = d << j
        r = abs(p * (big_d - a * c) - q * big_d)  # the bound is r / (D * p) from 1
        rhs = w_num * big_d * p
        # w_den has about 2 * max_depth bits: try the bit lengths first
        bits = r.bit_length() + w_den.bit_length() - 2 >= rhs.bit_length()
        return side == want and (bits or r * w_den > rhs)

    k = j = 0  # the bracket is [k, k + 1] / 2**j
    w = _width_bound(lam, max_depth) if exact else None
    if w is not None:
        w_num, w_den = w
        try:
            est = _newton_alpha(lam, max_depth)
        except ArithmeticError:
            est = None
        if est is not None and 0 <= est <= 0.5:
            # the cell the loop stops in, at most at level 32, which a double
            # resolves; the upper end stays <= 1/2 where alpha rounds to 1/2
            pk = pj = 0
            while pj < 32 and unfinished(pk, pj):
                pj += 1
                pk = min(int(est * (1 << pj)), (1 << (pj - 1)) - 1)
            if clear(pk + 1, pj, _ABOVE) and clear(pk, pj, _BELOW):
                k, j = pk, pj
    flag = cell = g_mid = None
    while unfinished(k, j):
        mid = 2 * k + 1  # the midpoint is mid / 2**(j + 1)
        side, found = side_at(mid, j + 1, probe=True)
        if side == _STRADDLE:
            if not exact:
                g_mid = found
            e = j + 2  # the cell's ends, (a -+ 1) / 2**e, lie inside the bracket
            while target.numerator << (e - 1) < target.denominator:
                e += 1
            a = mid << (e - j - 1)
            if side_at(a - 1, e)[0] == _BELOW and side_at(a + 1, e)[0] == _ABOVE:
                cell, j = (a - 1, a + 1, e), e - 1
            else:
                flag = FLAG_INCONCLUSIVE
            break
        k = mid if side == _BELOW else 2 * k
        j += 1

    a_lo, a_hi, level = cell or (k, k + 1, j)
    lo, hi = Fraction(a_lo, 1 << level), Fraction(a_hi, 1 << level)
    if g_mid is None:
        # out of budget, the midpoint keeps its best enclosure
        g_mid = _best(CFPoint((lo + hi) / 2, lam), g_tol, max_depth)[0]
    return AlphaResult(
        lam=lam, m_lo=lo, m_hi=hi, g_at_mid=g_mid, iterations=j, flag=flag,
        g_at_lo=enclosure_at(a_lo, level), g_at_hi=enclosure_at(a_hi, level),
    )
