"""Structurally independent cross-check of the convergent engine.

For integer m >= 0 the value G(m, lam) equals the ratio S_{m-1}(x)/S_m(x)
of modified-Bessel-type power series at x = 2/lam, because the ratios
R_v = S_{v-1}/S_v satisfy the same shift recurrence R_v = v*lam + 1/R_{v+1}
that defines the fraction.  That identity is not assumed here: this module
only produces rigorous series enclosures, and cross_check treats a disjoint
pair as a hard Violation, so agreement is established empirically over the
whole test grid.

All arithmetic is on integers.  With h = x/2 = a/b, each truncated series
is its first term t_0 = h**nu / nu! times a numerator over a denominator,
and one forward Horner pass sums both numerators, where every step
multiplies the big integers by small ones.  The two denominators, products
of b**2 * k * (k + nu) over k = 1..T, are never formed: their ratio
telescopes,

    d_den / n_den = prod_k (k + m) / (k + m - 1) = (T + m) / m    (m >= 1)
    d_den / n_den = prod_k k / (k + 1)           = 1 / (T + 1)    (m = 0),

and times the ratio of the two first terms it leaves r = b*(T + m)/a, or
a/(b*(T + 1)) at m = 0, with no factorial (_parts).  So each end of the
quotient interval is a pair of unreduced integers of about half the size.
Tails are bounded by a geometric majorant: once the term ratio at the
truncation point is below 1/2, the tail is at most twice the first omitted
term; that ratio is checked before any term is summed.

cross_check accepts the least truncation whose tail is bounded and whose
interval is at most tol wide.  A float estimate places the Horner pass,
and exact integer tests settle the truncation from there: one term is
dropped from, or added to, both sums without a new pass.  The
Fractions are built once, for the accepted truncation, so enclosures are
reproducible bit for bit and do not depend on the platform.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt, lgamma, log

from .bounds import CheckReport, Claim, _disjoint
from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    RationalLike,
    _check_budget,
    _product_ge,
    _rational_str,
    as_fraction,
    evaluate,
)
from .errors import BudgetExceededError, DomainError, TailNotBoundedError, ViolationError

def _horner(m: int, aa: int, bb: int, last: int, start=(0, 1, 1, 1)) -> tuple[int, int, int, int]:
    """(last, n_num, d_num, aa**last): both series of _orders(m) to ``last``,
    h**2 = aa/bb, continued from ``start``, that tuple at an earlier truncation.

    For S_nu, num/den = (t_0 + ... + t_last) / t_0 with den = w_1 ... w_last,
    w_k = bb*k*(k+nu), which no caller needs (_parts), so t_last =
    t_0 * aa**last / den and num = sum_j aa**j * w_{j+1} ... w_last.  Horner's
    rule sums it forward, num(k) = w_k * num(k - 1) + aa**k, so one term is
    added by one more step, and dropped by num(k - 1) = (num(k) - aa**k) / w_k.
    """
    top, bot = _orders(m)
    k, n_num, d_num, p = start
    for k in range(k + 1, last + 1):
        w, p = bb * k, p * aa
        n_num, d_num = w * (k + top) * n_num + p, w * (k + bot) * d_num + p
    return last, n_num, d_num, p


def _orders(m: int) -> tuple[int, int]:
    # numerator order m-1; at m = 0 the order -1 series coincides termwise with order 1
    return (m - 1 if m >= 1 else 1), m


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        shown = _rational_str(m) if type(m) is int else repr(m)
        raise DomainError(f"series oracle needs integer m >= 0, got {shown}")


def _parts(m: int, a: int, b: int, terms: int, p: int) -> tuple[int, int, int, int, int]:
    """(q_top, q_bot, tail, rn, rd) at T = ``terms``, h = a/b, p = (a*a)**T.

    Successive terms of S_nu(x) = sum_k h**(2k+nu) / (k! (k+nu)!) have the
    ratio h**2 / ((k+1)(k+nu+1)) at k, which falls with k and is a**2 / q_nu
    at T; below 1/2 it bounds the tail by 2 * t_T * a**2 / q_nu =
    t_0 * tail / (den * q_nu).  rn/rd = r (module docstring).
    """
    top, bot = _orders(m)
    bb = b * b
    rn, rd = (b * (terms + m), a) if m else (a, b * (terms + 1))
    q_top, q_bot = bb * (terms + 1) * (terms + top + 1), bb * (terms + 1) * (terms + bot + 1)
    return q_top, q_bot, 2 * a * a * p, rn, rd


def _series_bounds(
    m: int, lam: Fraction, terms: int, nums: tuple[int, int] | None = None
) -> tuple[int, int, int, int]:
    """Unreduced (lo_num, lo_den, hi_num, hi_den) of the series quotient
    interval [r n q_bot / (d q_bot + tail), r (n q_top + tail) / (q_top d)],
    n and d the Horner numerators and the rest from _parts.

    Takes validated arguments: integer m >= 0, lam > 0 and terms >= 1.
    ``nums`` are the two Horner numerators at ``terms`` (numerator order
    first) where the caller has them; otherwise they are summed here, after
    the tail checks.  All four integers are positive.
    """
    a, b = lam.denominator, lam.numerator  # h = x/2 = 1/lam
    aa = a * a
    q_top, q_bot, tail, rn, rd = _parts(m, a, b, terms, aa**terms)
    for nu, q in zip(_orders(m), (q_top, q_bot)):
        if 2 * aa >= q:
            raise TailNotBoundedError(
                f"term ratio {aa / q:.3f} >= 1/2 at truncation k={terms}, nu={nu}; "
                "more terms needed"
            )
    n_num, d_num = nums or _horner(m, aa, b * b, terms)[1:3]
    y = d_num * q_bot + tail
    return rn * n_num * q_bot, rd * y, rn * (n_num * q_top + tail), rd * q_top * d_num


def _summed(
    m: int, lam: Fraction, terms: int, nums: tuple[int, int] | None = None
) -> Enclosure:
    """The interval of _series_bounds, reduced, as an exact-mode Enclosure
    whose depth is the truncation."""
    lo_num, lo_den, hi_num, hi_den = _series_bounds(m, lam, terms, nums)
    return Enclosure(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den), terms, EvalMode.EXACT)


def series_ratio(m: int, lam: RationalLike, terms: int) -> Enclosure:
    """Rigorous quotient interval S_{m-1}(2/lam) / S_m(2/lam) truncated at
    ``terms``: an exact-mode Enclosure whose depth is ``terms``."""
    _check_order(m)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {_rational_str(terms)}")
    lam = as_fraction(lam)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {_rational_str(lam)}")
    return _summed(m, lam, terms)


def _least_root(nu: int, r: int) -> int:
    """The least integer y >= 0 with y * (y + nu) >= r, for nu >= 0."""
    y = (isqrt(nu * nu + 4 * r) - nu) // 2
    while y * (y + nu) < r:
        y += 1
    return y


def _floor_terms(m: int, a: int, b: int) -> int:
    """The least truncation T >= 1 whose tail ratio is bounded (_parts) for
    both orders: 2*a**2 < b**2 * (T+1) * (T+nu+1), that is
    (T+1) * (T+nu+1) >= 2*a**2 // b**2 + 1.  The smaller order has the larger
    ratio, so it sets T.  The ratio falls as T grows, so every T from here on
    is bounded and none before it."""
    return max(1, _least_root(min(_orders(m)), 2 * a * a // (b * b) + 1) - 1)


def _predicted_terms(
    m: int, a: int, b: int, tol: Fraction, g: Fraction, lo: int, hi: int
) -> int:
    """A float guess, in [lo, hi], at the least truncation whose quotient
    is at most tol wide, for lo at or past the floor.

    The width is about g times the sum of the two relative tails
    2 t_{T+1} / S, and the order nu = min(_orders(m)) has the larger one.
    With S at least its largest term t_k, at the least k with
    (k+1)(k+nu+1) > h**2, the estimate f(T) = ln(4 t_{T+1} / t_k) is high,
    so the guess is at or just past the least truncation.  Logs come from
    lgamma.  f(T+1) - f(T) = ln rho_{T+1} < 0 and falls with T, so one
    Newton step from lo lands past the root, and steps back by
    (ln tol/g - f(T)) / ln(1/rho_T) stay past it.  The guess only places the
    Horner pass; a lost float returns lo.
    """
    try:
        nu = min(_orders(m))
        log_h = log(a) - log(b)
        k = _least_root(nu, a * a // (b * b) + 1) - 1
        short = log(tol.numerator * g.denominator) - log(tol.denominator * g.numerator)
        base = lgamma(k + 1) + lgamma(k + nu + 1) + log(4) - 2 * k * log_h

        def f(t: int) -> float:
            return base + 2 * (t + 1) * log_h - lgamma(t + 2) - lgamma(t + nu + 2)

        def fall(t: int) -> float:  # ln(1/rho_t) > 0
            return log(t + 1) + log(t + nu + 1) - 2 * log_h

        over = f(lo) - short
        if over <= 0:
            return lo
        t = min(hi, lo + ceil(over / fall(lo + 1)))
        while t > lo:
            under = short - f(t)
            step = int(under / fall(t)) if under > 0 else 0
            if not step:
                return t
            t = max(lo, t - step)
    except (ArithmeticError, ValueError):
        return lo
    return t


def _fits(
    m: int, a: int, b: int, terms: int, n_num: int, d_num: int, p: int, tol: Fraction
) -> bool:
    """Whether the quotient interval of _series_bounds at ``terms`` is at most
    tol wide, given its Horner numerators and p = aa**terms.

    With y = d_num*q_bot + tail, its width is
    r * tail * (n_num*q_top + y) / (q_top * d_num * y).
    """
    q_top, q_bot, tail, rn, rd = _parts(m, a, b, terms, p)
    y = d_num * q_bot + tail
    return _product_ge(
        (tol.numerator * rd * q_top, d_num, y), (rn * tol.denominator, tail, n_num * q_top + y)
    )


def _exhausted(max_depth: int) -> str:
    """cross_check's BudgetExceededError message, built only when raised."""
    return f"series width did not reach tol within max_depth={_rational_str(max_depth)} terms"


def cross_check(
    m: int,
    lam: RationalLike,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> CheckReport:
    """Certified-intersection test between the convergent and series enclosures.

    Disjoint enclosures would mean one engine is wrong and raise
    ViolationError.  The series enclosure is _summed at the least
    truncation N whose tail is bounded and whose width is at most tol:
    - The tail is bounded from the floor T0 (_floor_terms) on and at no T
      before it.  Past T0 the intervals nest.  Each lower end of a sum,
      the partial sum P_T, grows with T.  Each upper end P_T + 2 t_{T+1}
      does not: P_{T+1} + 2 t_{T+2} = P_T + t_{T+1} * (1 + 2 rho_{T+1}),
      and rho_{T+1} < 1/2.  So the quotient's width strictly falls, and the
      test "bounded and width <= tol" holds from N on and nowhere before.
    - A float estimate (_predicted_terms) places the Horner pass, which
      sums both series, at a T >= T0.  The last term is dropped from both
      sums while the test holds one term shorter.  If none was dropped,
      terms are added until the test holds.  Neither needs a new pass
      (_horner), and each test is exact (_fits).  By the nesting the T
      reached is N, whatever the estimate was.
    No truncation is longer than max_depth, the budget the convergent side
    obeys.  BudgetExceededError is raised before anything is evaluated,
    with no best, when T0 is longer, and with the enclosure at max_depth
    when that one is still wider than tol.
    """
    _check_order(m)
    lam = as_fraction(lam)
    tol = as_fraction(tol)
    point = CFPoint(Fraction(m), lam)
    if tol.numerator <= 0:
        raise DomainError(f"tol must be positive, got {_rational_str(tol)}")
    _check_budget(max_depth)
    a, b = lam.denominator, lam.numerator  # h = x/2 = 1/lam
    floor = _floor_terms(m, a, b)
    if floor > max_depth:
        raise BudgetExceededError(_exhausted(max_depth))
    cf_enc = evaluate(point, tol, max_depth=max_depth)
    terms = _predicted_terms(m, a, b, tol, cf_enc.hi, floor, max_depth)
    top, bot = _orders(m)
    aa, bb = a * a, b * b
    state, fitted = _horner(m, aa, bb, terms), False
    while state[0] > floor:  # drop t_T from both sums (_horner)
        t, n_num, d_num, p = state
        w = bb * t
        prev = (t - 1, (n_num - p) // (w * (t + top)), (d_num - p) // (w * (t + bot)), p // aa)
        if not _fits(m, a, b, *prev, tol):
            break
        state, fitted = prev, True
    while not fitted and not _fits(m, a, b, *state, tol):
        if state[0] >= max_depth:
            best = _summed(m, lam, state[0], state[1:3])
            raise BudgetExceededError(_exhausted(max_depth), best=best)
        state = _horner(m, aa, bb, state[0] + 1, state)  # add t_{T+1} to both sums
    oracle = _summed(m, lam, state[0], state[1:3])
    if _disjoint(cf_enc, oracle):
        raise ViolationError(
            f"convergent and series enclosures disjoint at m={_rational_str(m)}, "
            f"lam={_rational_str(lam)}: [{_rational_str(cf_enc.lo)}, {_rational_str(cf_enc.hi)}] "
            f"vs [{_rational_str(oracle.lo)}, {_rational_str(oracle.hi)}]"
        )
    return CheckReport(point, Claim.ORACLE, cf_enc, oracle)
