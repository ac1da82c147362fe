"""Locate the crossing alpha(lam) in (0, 1) where G(alpha, lam) = 1.

The anchors are certified rather than assumed: G(0, lam) < 1 and
G(1, lam) > 1 are both checked before bisection starts.  Bisection on m
only ever moves an endpoint on certified evidence.  A bisection step only
needs the side of 1 that G(mid, lam) lies on: at an exact-routed lam it
walks the exact recurrence once and stops at the first convergent pair
whose enclosure excludes 1; at a directed-routed lam classify_vs_one
tightens the tolerance from g_tol by 10 per round, TIGHTEN_ROUNDS (8)
rounds, and an evaluation out of depth budget decides from its best
enclosure.  Both give up at the same depth, the one an enclosure of width
g_tol / 10**8 needs (or max_depth), and a midpoint still undecided there
returns the current bracket flagged instead of guessing.  The bracket's
midpoint enclosure is the best one reached within the budget.

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
    _side_of_one,
    _tightened,
    _width_met,
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
    """Certified side of G(point) relative to 1, tightening on straddles.

    The tolerance runs from tol down to tol / 10**TIGHTEN_ROUNDS.  An
    evaluation out of budget ends the rounds: its best enclosure may still
    decide the side, and otherwise the straddle verdict is returned.
    """
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

    When lam routes to exact mode, every side of 1, the anchors' included,
    comes from one walk of the exact recurrence (cf_core._side_of_one),
    which gives up at width give_up = g_tol / 10**TIGHTEN_ROUNDS and so
    returns the side classify_vs_one would; each point is walked at most
    once.  A float Newton estimate of alpha names the dyadic cell where the
    loop would stop, at level 32 at most.  The loop starts from that cell
    instead of (0, 1) when walks certify G < 1 at its lower end and G > 1
    at its upper end, each more than give_up from 1, and every walk at
    m >= 0 meets the give-up width within max_depth (cf_core._width_met).
    The cell then holds the unique crossing, since G increases in m, and
    the result is the one bisection from (0, 1) returns: each midpoint on
    the way lies beyond an end, so its G is more than give_up from 1 and
    its walk decides the side before giving up.  Directed-routed lams step
    through classify_vs_one.
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
    give_up = g_tol / 10**TIGHTEN_ROUNDS
    c, d = lam.numerator, lam.denominator
    walked: dict[tuple[int, int], tuple[int, bool]] = {}

    def side_at(a: int, j: int) -> tuple[int, bool]:
        """_side_of_one at m = a / 2**j, walked once per reduced point."""
        while j and not a & 1:
            a >>= 1
            j -= 1
        if (a, j) not in walked:
            walked[a, j] = _side_of_one(a, 1 << j, c, d, give_up, s.max_depth)
        return walked[a, j]

    for m, want, rel in ((0, _BELOW, "<"), (1, _ABOVE, ">")):
        if not exact or side_at(m, 0)[0] != want:
            side, enc = classify_vs_one(CFPoint(Fraction(m), lam), g_tol, settings=settings)
            if side != want:
                raise InconclusiveError(
                    f"could not certify G({m}, {lam}) {rel} 1", left=enc
                )

    target = bracket_tol / 4

    def unfinished(k: int, j: int) -> bool:
        """Whether [k, k + 1] / 2**j is wider than target or touches 0 or 1."""
        return target.numerator << j < target.denominator or k == 0 or k + 1 == 1 << j

    k = j = 0  # the bracket is [k, k + 1] / 2**j
    if exact and _width_met(lam, give_up, s.max_depth):
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
            if side_at(pk + 1, pj) == (_ABOVE, True) and side_at(pk, pj) == (_BELOW, True):
                k, j = pk, pj
    flag = None
    while unfinished(k, j):
        if j >= max_iterations:
            flag = FLAG_BUDGET
            break
        mid = 2 * k + 1  # the midpoint is mid / 2**(j + 1)
        if exact:
            side, _ = side_at(mid, j + 1)
        else:
            side, _ = classify_vs_one(
                CFPoint(Fraction(mid, 2 << j), lam), g_tol, settings=settings
            )
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
