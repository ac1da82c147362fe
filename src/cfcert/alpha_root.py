"""Locate the crossing alpha(lam) in (0, 1) where G(alpha, lam) = 1.

The anchors are certified rather than assumed: G(0, lam) < 1 and
G(1, lam) > 1 are both checked before bisection starts.  Bisection on m
only ever moves an endpoint on certified evidence.  A bisection step only
needs the side of 1 that G(mid, lam) lies on: at an exact-routed lam it
walks the exact recurrence once and stops at the first convergent pair
whose enclosure excludes 1; at a directed-routed lam it tightens the
tolerance (factor 10, up to 8 rounds).  Both give up at the same depth,
the one an enclosure of width g_tol / 10**8 needs, and a midpoint still
undecided there returns the current bracket flagged instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf_core import (
    DEFAULT_SETTINGS,
    CFPoint,
    Enclosure,
    EvalSettings,
    RationalLike,
    _side_of_one,
    as_fraction,
    evaluate,
)
from .errors import (
    BudgetExceededError,
    CFCertError,
    DomainError,
    InconclusiveError,
    NotConvergedError,
)

_BELOW, _STRADDLE, _ABOVE = -1, 0, 1
TIGHTEN_ROUNDS = 8

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
    point: CFPoint,
    tol: RationalLike,
    *,
    settings: EvalSettings | None = None,
    rounds: int = TIGHTEN_ROUNDS,
) -> tuple[int, Enclosure]:
    """Certified side of G(point) relative to 1, tightening on straddles.

    A depth-budget hit is not fatal: the best rigorous enclosure may still
    decide the side, and if it straddles 1 no further tightening can help,
    so the straddle verdict is returned right away.
    """
    t = as_fraction(tol)
    enc = None
    for _ in range(rounds + 1):
        try:
            enc = evaluate(point, t, settings=settings)
        except (BudgetExceededError, NotConvergedError) as exc:
            enc = exc.best
            if enc.hi < 1:
                return _BELOW, enc
            if enc.lo > 1:
                return _ABOVE, enc
            return _STRADDLE, enc
        if enc.hi < 1:
            return _BELOW, enc
        if enc.lo > 1:
            return _ABOVE, enc
        t = t / 10
    return _STRADDLE, enc


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

    When lam routes to exact mode, each step's side of 1 comes from one walk
    of the exact recurrence (cf_core._side_of_one), which gives up at width
    g_tol / 10**TIGHTEN_ROUNDS and so returns the side classify_vs_one
    would; directed-routed lams step through classify_vs_one.
    """
    lam = as_fraction(lam)
    bracket_tol = as_fraction(bracket_tol)
    g_tol = as_fraction(g_tol)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if bracket_tol <= 0 or g_tol <= 0:
        raise DomainError("tolerances must be positive")

    side, enc = classify_vs_one(CFPoint(Fraction(0), lam), g_tol, settings=settings)
    if side != _BELOW:
        raise InconclusiveError(
            f"could not certify G(0, {lam}) < 1", left=enc
        )
    side, enc = classify_vs_one(CFPoint(Fraction(1), lam), g_tol, settings=settings)
    if side != _ABOVE:
        raise InconclusiveError(
            f"could not certify G(1, {lam}) > 1", left=enc
        )

    s = settings or DEFAULT_SETTINGS
    exact = lam >= s.directed_cutoff
    give_up = g_tol / 10**TIGHTEN_ROUNDS
    c, d = lam.numerator, lam.denominator
    target = bracket_tol / 4
    flag = None
    k = j = 0  # the bracket is [k, k + 1] / 2**j
    # bisect while the width 2**-j exceeds target or the bracket touches 0 or 1
    while target.numerator << j < target.denominator or k == 0 or k + 1 == 1 << j:
        if j >= max_iterations:
            flag = FLAG_BUDGET
            break
        mid = 2 * k + 1  # the midpoint is mid / 2**(j + 1)
        if exact:
            side = _side_of_one(mid, 2 << j, c, d, give_up, s.max_depth)
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
    g_mid = evaluate(CFPoint((lo + hi) / 2, lam), g_tol, settings=settings)
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
