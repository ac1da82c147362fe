"""Locate the crossing alpha(lam) in (0, 1) where G(alpha, lam) = 1.

find_alpha estimates alpha, then certifies the two ends of one cell of the
target width: G(m_lo, lam) < 1 and G(m_hi, lam) > 1, so the cell holds the
crossing, since G increases in m.  The estimate never certifies anything;
only the enclosures at the two ends do (epsilon-inflation; Rump,
"Verification methods", Acta Numerica 2010).  Below DIRECTED_LAMBDA_CUTOFF,
alpha lies within about 4e^(-4/lam)/lam below m = 1/2, where
G(1/2, lam) = coth(2/lam) lies within about 2e^(-4/lam) of 1.  No affordable
evaluation decides that point, so where it is the cell end nearest alpha,
the cell is centred on it instead.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cf_core import (
    DEFAULT_MAX_DEPTH,
    CFPoint,
    Enclosure,
    RationalLike,
    _best,
    _check_budget,
    _depth_model,
    _exact_routed,
    _pair_enclosure,
    _side_of_one,
    _tightened,
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
    ``flag`` is None on a clean run, or names why the bracket is wider.
    The m's and ``lam`` are Fractions, each ``g_at_*`` an Enclosure or None,
    and ``iterations`` is floor(log2(1/width)), so a clean bracket is
    2**-iterations wide.
    """

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.m_hi - self.m_lo

    @property
    def midpoint(self) -> Fraction:
        return (self.m_lo + self.m_hi) / 2


def classify_vs_one(
    point: CFPoint, tol: RationalLike | None, *, max_depth: int = DEFAULT_MAX_DEPTH
) -> tuple[int, Enclosure]:
    """Certified side of G(point) relative to 1, with the enclosure that shows it.

    At an exact-routed point (lam >= DIRECTED_LAMBDA_CUTOFF, as evaluate
    routes) this is the cf_core._side_of_one walk, and tol is unused: it may
    be None there.  At a directed-routed point the tolerance runs from tol
    down by 10 a round until the side is decided or an evaluation runs out
    of budget: its best enclosure may still decide the side, and otherwise
    the straddle verdict is returned.  So a point whose G lies extremely
    near 1, such as m = 1/2, costs passes up to max_depth; find_alpha sends
    such points one evaluation, not this call.
    """
    if _exact_routed(point.lam):
        m, lam = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
        side, pair = _side_of_one(*m, *lam, max_depth)
        return side, _pair_enclosure(point, pair)
    for _, (enc,) in _tightened([point], tol, max_depth):
        if _side(enc):
            break
    return _side(enc), enc


def _newton_alpha(lam: Fraction, max_depth: int) -> float | None:
    """Double-precision Newton estimate of alpha, or None if it does not settle.

    G(m) and dG/dm come from one backward pass over
    _depth_model(CFPoint(0, lam), 2**-50, max_depth) terms, the start where
    G(0, lam) meets 2**-50; a larger m only narrows the truncation.  Newton
    starts at m = 1/2 and stays in [0, 1/2], which holds alpha because
    G(1/2, lam) = coth(2/lam) > 1.
    Raises OverflowError when lam has no double, ZeroDivisionError when it
    rounds to zero.
    """
    x = float(lam)
    depth = _depth_model(CFPoint(0, lam), Fraction(1, 2**50), max_depth)
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


def _level(target: Fraction, x: Fraction) -> int:
    """The first level j >= 2 with 2**-j <= target and, for x > 0, 2**-j <= x:
    where bisection from (0, 1) stops when alpha = x, since alpha < 1/2.
    That is the bit length of ceil(r) - 1 for r the larger of 1/target and
    1/x, and ceil(r) is the larger of the two ceilings, taken on integers."""
    (tn, td), (xn, xd) = target.as_integer_ratio(), x.as_integer_ratio()
    r = -(-td // tn)
    if xn > 0:
        r = max(r, -(-xd // xn))
    return max(2, (r - 1).bit_length())


def find_alpha(
    lam: RationalLike,
    bracket_tol: RationalLike = Fraction(1, 10**6),
    g_tol: RationalLike = Fraction(1, 10**9),
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> AlphaResult:
    """A certified bracket for the crossing, interior to (0, 1) and at most
    bracket_tol/4 wide (the extra factor keeps the midpoint's G value well
    within g_tol of 1), found in three steps.

    1. Estimate alpha.  Start from the float Newton estimate (_newton_alpha)
       or, where there is none, from 1/2.  With w = 2**-level and level =
       _level(bracket_tol/4, estimate), a settled double is kept as it is
       while w is at least 2**-32 of it.  Otherwise take secant steps on the
       midpoints of enclosures of G at tol = lam * w / 16, each iterate
       rounded to level + 4 bits, until an enclosure contains 1, which puts
       the estimate within w/8 of alpha (G' lies between about lam/2 and
       lam there), or a step is zero or no shorter than the one before.
    2. Pick the cell [p - w, p] or [p, p + w] by the side of 1 at p, the level
       point nearest the estimate, then decide its other end.  An end on the
       wrong side moves the cell toward alpha by whole widths, as many as
       G' <= lam allows, halving it where it would reach 0.  A dyadic end left
       undecided (m = 1/2 at a directed lam) lies within about w/8 of alpha,
       so the cell centred on it is taken.
    3. Certify the two ends.  At an exact-routed lam classify_vs_one walks
       each end and gives up only at max_depth, so the cell is the dyadic one
       that bisection from (0, 1) returns unless a walk gives up.  At a
       directed lam a dyadic end gets one evaluation at tol, a centred one
       classify_vs_one from tol.

    When an end of the centred cell cannot be certified, each uncertified
    end moves out by doubling steps (epsilon-inflation) until one certifies,
    or to the anchor 0 or 1, which classify_vs_one decides from g_tol; the
    bracket is returned flagged FLAG_INCONCLUSIVE, and InconclusiveError is
    raised when an anchor fails.
    """
    lam = as_fraction(lam)
    bracket_tol = as_fraction(bracket_tol)
    g_tol = as_fraction(g_tol)
    if lam.numerator <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if bracket_tol.numerator <= 0 or g_tol.numerator <= 0:
        raise DomainError("tolerances must be positive")
    _check_budget(max_depth)
    exact = _exact_routed(lam)
    target = bracket_tol / 4

    try:
        # below the cutoff alpha lies within 4e^(-4/lam)/lam < 1e-108 of 1/2
        est = _newton_alpha(lam, max_depth) if exact else None
    except ArithmeticError:
        est = None
    settled = est is not None and 0 < est <= 0.5
    x, prev = (Fraction(est) if settled else Fraction(1, 2)), None
    while True:
        level = _level(target, x)
        # a settled double, good to about 2**-40 of itself, picks a 32-bit cell
        if settled and x.numerator << level <= x.denominator << 32:
            break
        tol = lam / (16 << level)
        enc = _best(CFPoint(x, lam), tol, max_depth)[0]
        if not _side(enc):
            break
        # G(x) - 1 at the enclosure's midpoint, rounded down to a dyadic below tol/4
        (ln, ld), (hn, hd) = enc.lo.as_integer_ratio(), enc.hi.as_integer_ratio()
        bits = (tol.denominator // tol.numerator).bit_length() + 2
        f = Fraction(((ln * hd + hn * ld - 2 * ld * hd) << bits) // (2 * ld * hd), 1 << bits)
        if prev is None:
            y = x - 2 * f / lam
        elif f == prev[1]:
            break
        else:
            y = x - f * (x - prev[0]) / (f - prev[1])
        y = min(max(y, Fraction(0)), Fraction(1, 2))
        grid = 1 << (_level(target, y) + 4)
        y = Fraction(round(y * grid), grid)
        if y == x or prev is not None and abs(y - x) >= abs(x - prev[0]):
            break
        prev, x = (x, f), y

    n = level + 1  # the cell's ends are a / 2**n and (a + 2) / 2**n
    best = {}  # side: the (m, enclosure) of the end nearest alpha certified on it
    centred = False

    def probe(a: int) -> tuple[int, Enclosure]:
        """Side of 1 of G(a / 2**n, lam), and the enclosure that shows it."""
        point = CFPoint(Fraction(a, 1 << n), lam)
        t = None if exact else lam / (8 << n)  # read by no exact-routed probe
        if exact or centred:
            side, found = classify_vs_one(point, t, max_depth=max_depth)
        else:  # one evaluation, the estimate's own at x
            found = enc if (point.m, t) == (x, tol) else _best(point, t, max_depth)[0]
            side = _side(found)
        if side and (side not in best or side * point.m < side * best[side][0]):
            best[side] = point.m, found
        return side, found

    p = max(1, round(x * (1 << level)))  # the level point nearest the estimate
    a, lo, hi = 2 * p - 2, None, None  # the cell [p - w, p], p probed first
    while True:
        hi = hi or probe(a + 2)
        if hi[0] == _BELOW:  # alpha lies (1 - G) / lam or more above it, as G' <= lam
            k = int((1 - hi[1].hi) * (1 << (n - 1)) / lam) + 1
            a, lo, hi = a + 2 * k, hi if k == 1 else None, None
            continue
        if hi[0] == _ABOVE:
            while a <= 0:  # the cell would touch 0: halve it, keeping its upper end
                a, n = 2 * a + 2, n + 1
            lo = lo or probe(a)
            if lo[0] == _ABOVE:  # alpha lies (G - 1) / lam or more below it
                k = int((lo[1].lo - 1) * (1 << (n - 1)) / lam) + 1
                a, lo, hi = a - 2 * k, None, lo if k == 1 else None
                continue
            if lo[0] == _BELOW:
                break
        if centred:
            break
        # one evaluation left an end undecided: centre the cell on that end
        a += 1 if hi[0] == _STRADDLE else -1
        lo, hi, centred = None, None, True

    if hi[0] == _ABOVE and lo and lo[0] == _BELOW:
        flag, ends = None, ((Fraction(a, 1 << n), lo[1]), (Fraction(a + 2, 1 << n), hi[1]))
    else:
        # epsilon-inflation: move each uncertified end out by doubling steps
        flag = FLAG_INCONCLUSIVE
        for side, m, rel in ((_BELOW, 0, "<"), (_ABOVE, 1, ">")):
            d = side
            while side not in best and 0 < a + 1 + d < 1 << n:
                probe(a + 1 + d)
                d *= 2
            if side not in best:
                verdict, anchor = classify_vs_one(CFPoint(m, lam), g_tol, max_depth=max_depth)
                if verdict != side:
                    raise InconclusiveError(f"could not certify G({m}, {lam}) {rel} 1", left=anchor)
                best[side] = Fraction(m), anchor
        ends = best[_BELOW], best[_ABOVE]
    (m_lo, g_lo), (m_hi, g_hi) = ends
    width = m_hi - m_lo
    g_mid = _best(CFPoint(m_lo + width / 2, lam), g_tol, max_depth)[0]
    return AlphaResult(
        lam=lam, m_lo=m_lo, m_hi=m_hi, g_at_mid=g_mid, flag=flag, g_at_lo=g_lo, g_at_hi=g_hi,
        iterations=(width.denominator // width.numerator).bit_length() - 1,
    )
