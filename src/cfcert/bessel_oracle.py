"""Structurally independent cross-check of the convergent engine.

For integer m >= 0 the value G(m, lam) equals the ratio S_{m-1}(x)/S_m(x)
of modified-Bessel-type power series at x = 2/lam, because the ratios
R_v = S_{v-1}/S_v satisfy the same shift recurrence R_v = v*lam + 1/R_{v+1}
that defines the fraction.  That identity is not assumed here: this module
only produces rigorous series enclosures, and cross_check treats a disjoint
pair as a hard Violation, so agreement is established empirically over the
whole test grid.

All arithmetic is on integers.  With h = x/2 = a/b, each truncated series
is summed as one numerator and denominator by a backward Horner pass in
which every step multiplies the big integers by small ones, and each end
of the quotient interval is one Fraction, so enclosures are reproducible
bit for bit.  Tails are bounded by a geometric majorant: once the term
ratio at the truncation point is below 1/2, the tail is at most twice the
first omitted term; that ratio is checked before any term is summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bounds import CheckReport, Claim
from .cf_core import (
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    EvalSettings,
    RationalLike,
    as_fraction,
    evaluate,
)
from .errors import BudgetExceededError, DomainError, TailNotBoundedError, ViolationError

#: the longest truncation cross_check tries before giving up
MAX_TERMS = 65536


def _tail_den(nu: int, a: int, b: int, last: int) -> int:
    """Denominator q of the term ratio rho = a**2 / q of S_nu at k = last, h = a/b.

    Terms of S_nu(x) = sum_k h**(2k+nu) / (k! (k+nu)!) are positive and their
    successive ratio at k is h**2 / ((k+1)(k+nu+1)), decreasing in k.  With
    rho < 1/2 at the truncation point the tail is below 2 * t_last * rho;
    otherwise this raises TailNotBoundedError.
    """
    q = b * b * (last + 1) * (last + nu + 1)
    if 2 * a * a >= q:
        raise TailNotBoundedError(
            f"term ratio {a * a / q:.3f} >= 1/2 at truncation k={last}, nu={nu}; "
            "more terms needed"
        )
    return q


def _horner(nu: int, aa: int, bb: int, last: int) -> tuple[int, int]:
    """(num, den) with num/den = (t_0 + ... + t_last) / t_0 for S_nu, h**2 = aa/bb.

    Summed backward: num/den <- 1 + h**2/(k (k+nu)) * num/den for k = last
    down to 1.  The final den is the product of the weights bb*k*(k+nu), so
    t_last = t_0 * aa**last / den.
    """
    num = den = 1
    for k in range(last, 0, -1):
        wd = bb * k * (k + nu) * den
        num, den = wd + aa * num, wd
    return num, den


def _orders(m: int) -> tuple[int, int]:
    # numerator order m-1; at m = 0 the order -1 series coincides termwise with order 1
    return (m - 1 if m >= 1 else 1), m


@dataclass(frozen=True)
class SeriesEnclosure:
    """Exact-rational interval for the series ratio, with the truncation index used."""

    lo: Fraction
    hi: Fraction
    terms_used: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def as_enclosure(self) -> Enclosure:
        return Enclosure(lo=self.lo, hi=self.hi, depth=self.terms_used, mode=EvalMode.EXACT)


def series_ratio(m: int, lam: RationalLike, terms: int) -> SeriesEnclosure:
    """Rigorous quotient interval S_{m-1}(2/lam) / S_m(2/lam) truncated at ``terms``."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"series oracle needs integer m >= 0, got {m!r}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    lam = as_fraction(lam)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    a, b = lam.denominator, lam.numerator  # h = x/2 = 1/lam
    top, bot = _orders(m)
    q_top = _tail_den(top, a, b, terms)
    q_bot = _tail_den(bot, a, b, terms)
    aa, bb = a * a, b * b
    # 2 * t_last * rho = t_0 * tail / (den * q)
    tail = 2 * aa ** (terms + 1)
    n_num, n_den = _horner(top, aa, bb, terms)
    d_num, d_den = _horner(bot, aa, bb, terms)
    # t_0 = h**nu / nu!, so t_0(top) / t_0(bot) = r_num / r_den
    r_num = a**top * b**bot * factorial(bot)
    r_den = a**bot * b**top * factorial(top)
    lo = Fraction(r_num * n_num * d_den * q_bot, r_den * n_den * (d_num * q_bot + tail))
    hi = Fraction(r_num * (n_num * q_top + tail) * d_den, r_den * n_den * q_top * d_num)
    return SeriesEnclosure(lo=lo, hi=hi, terms_used=terms)


def cross_check(
    m: int,
    lam: RationalLike,
    tol: RationalLike = DEFAULT_TOL,
    *,
    settings: EvalSettings | None = None,
    max_terms: int = MAX_TERMS,
) -> CheckReport:
    """Certified-intersection test between the convergent and series enclosures.

    Disjoint enclosures would mean one engine is wrong and raise
    ViolationError.  The series truncation grows until its width fits tol.
    """
    lam = as_fraction(lam)
    tol = as_fraction(tol)
    point = CFPoint(Fraction(m), lam)
    cf_enc = evaluate(point, tol, settings=settings)
    terms = max(8, (2 * lam.denominator) // lam.numerator + 8)
    series = None
    while True:
        try:
            series = series_ratio(m, lam, terms)
        except TailNotBoundedError:
            series = None
        if series is not None and series.width <= tol:
            break
        if terms >= max_terms:
            raise BudgetExceededError(
                f"series width did not reach tol within {max_terms} terms",
                best=series.as_enclosure() if series is not None else None,
            )
        terms = min(2 * terms, max_terms)
    oracle = series.as_enclosure()
    overlap = min(cf_enc.hi, oracle.hi) - max(cf_enc.lo, oracle.lo)
    if overlap < 0:
        raise ViolationError(
            f"convergent and series enclosures disjoint at m={m}, lam={lam}: "
            f"[{cf_enc.lo}, {cf_enc.hi}] vs [{oracle.lo}, {oracle.hi}]"
        )
    return CheckReport(
        point=point,
        claim=Claim.ORACLE,
        certified=True,
        left=cf_enc,
        right=oracle,
        gap=overlap,
    )
