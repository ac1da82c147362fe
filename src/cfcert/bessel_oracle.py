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
which every step multiplies the big integers by small ones.  The two
Horner denominators, products of b**2 * k * (k + nu) over k = 1..T, never
enter the quotient: their ratio telescopes,

    d_den / n_den = prod_k (k + m) / (k + m - 1) = (T + m) / m    (m >= 1)
    d_den / n_den = prod_k k / (k + 1)           = 1 / (T + 1)    (m = 0),

so each end of the quotient interval is a pair of unreduced integers of
about half the size.  cross_check compares the interval's width with tol
by integer products and builds one Fraction per end only for the
truncation it accepts, so enclosures are reproducible bit for bit.  Tails
are bounded by a geometric majorant: once the term ratio at the truncation
point is below 1/2, the tail is at most twice the first omitted term; that
ratio is checked before any term is summed.
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


def _den_ratio(m: int, terms: int) -> tuple[int, int]:
    """(rn, rd) with rn/rd = d_den/n_den, the Horner denominators of _orders(m)."""
    return (terms + m, m) if m >= 1 else (1, terms + 1)


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"series oracle needs integer m >= 0, got {m!r}")


def _series_bounds(m: int, lam: Fraction, terms: int) -> tuple[int, int, int, int]:
    """Unreduced (lo_num, lo_den, hi_num, hi_den) of the series quotient interval.

    Takes validated arguments: integer m >= 0, lam > 0 and terms >= 1.
    All four integers are positive.
    """
    a, b = lam.denominator, lam.numerator  # h = x/2 = 1/lam
    top, bot = _orders(m)
    q_top = _tail_den(top, a, b, terms)
    q_bot = _tail_den(bot, a, b, terms)
    aa, bb = a * a, b * b
    # 2 * t_last * rho = t_0 * tail / (den * q)
    tail = 2 * aa ** (terms + 1)
    n_num, _ = _horner(top, aa, bb, terms)
    d_num, _ = _horner(bot, aa, bb, terms)
    rn, rd = _den_ratio(m, terms)
    # t_0 = h**nu / nu!, so r_num / r_den = t_0(top) / t_0(bot) * d_den / n_den
    r_num = a**top * b**bot * factorial(bot) * rn
    r_den = a**bot * b**top * factorial(top) * rd
    return (
        r_num * n_num * q_bot,
        r_den * (d_num * q_bot + tail),
        r_num * (n_num * q_top + tail),
        r_den * q_top * d_num,
    )


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


def _series_enclosure(bounds: tuple[int, int, int, int], terms: int) -> SeriesEnclosure:
    lo_num, lo_den, hi_num, hi_den = bounds
    return SeriesEnclosure(
        lo=Fraction(lo_num, lo_den), hi=Fraction(hi_num, hi_den), terms_used=terms
    )


def series_ratio(m: int, lam: RationalLike, terms: int) -> SeriesEnclosure:
    """Rigorous quotient interval S_{m-1}(2/lam) / S_m(2/lam) truncated at ``terms``."""
    _check_order(m)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    lam = as_fraction(lam)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    return _series_enclosure(_series_bounds(m, lam, terms), terms)


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
    ViolationError.  The series truncation starts near 2/lam + 8 terms and
    doubles until its width fits tol; no truncation is longer than
    max_terms, and BudgetExceededError is raised once one that long fails.
    """
    _check_order(m)
    if max_terms < 1:
        raise DomainError(f"max_terms must be >= 1, got {max_terms}")
    lam = as_fraction(lam)
    tol = as_fraction(tol)
    point = CFPoint(Fraction(m), lam)
    cf_enc = evaluate(point, tol, settings=settings)
    tol_num, tol_den = tol.numerator, tol.denominator
    terms = min(max(8, (2 * lam.denominator) // lam.numerator + 8), max_terms)
    while True:
        try:
            bounds = _series_bounds(m, lam, terms)
        except TailNotBoundedError:
            bounds = None
        if bounds is not None:
            lo_num, lo_den, hi_num, hi_den = bounds
            # width <= tol, with every denominator positive
            if (hi_num * lo_den - lo_num * hi_den) * tol_den <= tol_num * hi_den * lo_den:
                break
        if terms >= max_terms:
            raise BudgetExceededError(
                f"series width did not reach tol within {max_terms} terms",
                best=(
                    None if bounds is None
                    else _series_enclosure(bounds, terms).as_enclosure()
                ),
            )
        terms = min(2 * terms, max_terms)
    oracle = _series_enclosure(bounds, terms).as_enclosure()
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
