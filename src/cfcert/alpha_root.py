"""Locate the crossing alpha(lam) in (0, 1) where G(alpha, lam) = 1.

The anchors are certified rather than assumed: G(0, lam) < 1 and
G(1, lam) > 1 are both checked before bisection starts.  Bisection on m
only ever moves an endpoint on certified evidence.  A bisection step only
needs the side of 1 that G(mid, lam) lies on.  At an exact-routed lam it
walks the exact recurrence once, stops at the first convergent pair whose
enclosure excludes 1, and gives up only at max_depth.  At a directed-routed
lam classify_vs_one tightens the tolerance from g_tol by 10 per round,
TIGHTEN_ROUNDS (8) rounds, and an evaluation out of depth budget decides
from its best enclosure: running to the budget there needs widths near
e^(-4/lam), which directed passes cannot afford.  A midpoint still
undecided returns the current bracket flagged instead of guessing.  The
bracket's midpoint enclosure is the best one reached within the budget.

At an exact-routed lam the anchors are walked too, and bisection usually
starts near its end: a double-precision Newton estimate of alpha names
the dyadic cell where the loop would stop, and two walks certify its ends.
The float only picks which cell the walks look at; every verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf_core import (
    DEFAULT_SETTINGS,
    TIGHTEN_ROUNDS,
    CFPoint,
    Enclosure,
    EvalSettings,
    RationalLike,
    _depth_guess,
    _pair_enclosure,
    _side_of_one,
    _tightened,
    _width_bound,
    as_fraction,
)
from .errors import CFCertError, DomainError, InconclusiveError

_BELOW, _STRADDLE, _ABOVE = -1, 0, 1

FLAG_BUDGET = "budget-exceeded"
FLAG_INCONCLUSIVE = "inconclusive-midpoint"


@dataclass(frozen=True)
class AlphaResult:
    """Bracket [m_lo, m_hi] for the crossing, with the G enclosure at its midpoint.

    The endpoints carry re-certifiable verdicts: G(m_lo, lam) < 1 and
    G(m_hi, lam) > 1 both hold with disjoint enclosures.  ``flag`` is None
    on a clean run, or names why the bracket was returned early.
    """

    lam: Fraction
    m_lo: Fraction
    m_hi: Fraction
    g_at_mid: Enclosure | None
    iterations: int
    flag: str | None = None

    @property
    def width(self) -> Fraction:
        return self.m_hi - self.m_lo

    @property
    def midpoint(self) -> Fraction:
        return (self.m_lo + self.m_hi) / 2


def classify_vs_one(
    point: CFPoint, tol: RationalLike, *, settings: EvalSettings | None = None
) -> tuple[int, Enclosure]:
    """Certified side of G(point) relative to 1, with the enclosure that shows it.

    At an exact-routed point (lam >= settings.directed_cutoff, as evaluate
    routes) this is the cf_core._side_of_one walk, and tol is unused.  At a
    directed-routed point the tolerance runs from tol down to
    tol / 10**TIGHTEN_ROUNDS.  An evaluation out of budget ends the rounds:
    its best enclosure may still decide the side, and otherwise the
    straddle verdict is returned.
    """
    s = settings or DEFAULT_SETTINGS
    if point.lam >= s.directed_cutoff:
        m, lam = point.m.as_integer_ratio(), point.lam.as_integer_ratio()
        side, pair = _side_of_one(*m, *lam, s.max_depth)
        return side, _pair_enclosure(point, pair)
    for _, (enc,) in _tightened([point], tol, TIGHTEN_ROUNDS, settings):
        if enc.hi < 1:
            return _BELOW, enc
        if enc.lo > 1:
            return _ABOVE, enc
    return _STRADDLE, enc


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
    settings: EvalSettings | None = None,
    max_iterations: int = 256,
) -> AlphaResult:
    """Bisect m over (0, 1) down to a certified bracket for the crossing.

    Each accepted step halves the bracket, so the final width is exactly
    2**-iterations.  The loop keeps going until the bracket is interior to
    (0, 1) and at most bracket_tol/4 wide (the extra factor keeps the
    midpoint's G value well within g_tol of 1).

    Every side of 1, the anchors' included, is decided once per point: when
    lam routes to exact mode by one walk of the exact recurrence
    (cf_core._side_of_one), which gives up only at max_depth, and otherwise
    by classify_vs_one.  A float Newton estimate of alpha names the dyadic
    cell where the loop would stop, at level 32 at most.  The loop starts
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

    s = settings or DEFAULT_SETTINGS
    exact = lam >= s.directed_cutoff
    c, d = lam.numerator, lam.denominator
    decided: dict[tuple[int, int], tuple] = {}

    def side_at(a: int, j: int) -> tuple:
        """Side of G(a / 2**j, lam) relative to 1, once per reduced point, with the
        walk's tail pair at an exact-routed lam, else classify_vs_one's enclosure."""
        while j and not a & 1:
            a >>= 1
            j -= 1
        if (a, j) not in decided:
            decided[a, j] = (
                _side_of_one(a, 1 << j, c, d, s.max_depth) if exact
                else classify_vs_one(CFPoint(Fraction(a, 1 << j), lam), g_tol, settings=settings)
            )
        return decided[a, j]

    for m, want, rel in ((0, _BELOW, "<"), (1, _ABOVE, ">")):
        side, found = side_at(m, 0)
        if side != want:
            enc = _pair_enclosure(CFPoint(Fraction(m), lam), found) if exact else found
            raise InconclusiveError(f"could not certify G({m}, {lam}) {rel} 1", left=enc)

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
    w = _width_bound(lam, s.max_depth) if exact else None
    if w is not None:
        w_num, w_den = w
        try:
            est = _newton_alpha(lam, s.max_depth)
        except ArithmeticError:
            est = None
        if est is not None and 0 <= est <= 0.5:
            # the cell the loop stops in, at most at level 32, which a double
            # resolves; the upper end stays <= 1/2 where alpha rounds to 1/2
            pk = pj = 0
            while pj < min(32, max_iterations) and unfinished(pk, pj):
                pj += 1
                pk = min(int(est * (1 << pj)), (1 << (pj - 1)) - 1)
            if clear(pk + 1, pj, _ABOVE) and clear(pk, pj, _BELOW):
                k, j = pk, pj
    flag = None
    while unfinished(k, j):
        if j >= max_iterations:
            flag = FLAG_BUDGET
            break
        mid = 2 * k + 1  # the midpoint is mid / 2**(j + 1)
        side = side_at(mid, j + 1)[0]
        if side == _STRADDLE:
            flag = FLAG_INCONCLUSIVE
            break
        k = mid if side == _BELOW else 2 * k
        j += 1

    lo, hi = Fraction(k, 1 << j), Fraction(k + 1, 1 << j)
    # out of budget, the midpoint keeps its best enclosure
    _, (g_mid,) = next(_tightened([CFPoint((lo + hi) / 2, lam)], g_tol, 0, settings))
    return AlphaResult(
        lam=lam, m_lo=lo, m_hi=hi, g_at_mid=g_mid, iterations=j, flag=flag
    )


def alpha_curve(
    lams: list[RationalLike],
    bracket_tol: RationalLike = Fraction(1, 10**6),
    g_tol: RationalLike = Fraction(1, 10**9),
    *,
    settings: EvalSettings | None = None,
) -> list[AlphaResult]:
    """find_alpha per lam, order preserved; per-point failures are flagged inline."""
    out = []
    for lam in lams:
        try:
            out.append(
                find_alpha(lam, bracket_tol, g_tol, settings=settings)
            )
        except CFCertError as exc:
            out.append(
                AlphaResult(
                    lam=as_fraction(lam),
                    m_lo=Fraction(0),
                    m_hi=Fraction(1),
                    g_at_mid=None,
                    iterations=0,
                    flag=f"error: {exc}",
                )
            )
    return out
