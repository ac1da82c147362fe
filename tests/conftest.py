from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

import pytest

from cfcert import (
    AlphaResult,
    CFPoint,
    ConvergentPair,
    DomainError,
    InconclusiveError,
    PrecisionError,
    TailNotBoundedError,
    advance,
    as_fraction,
    classify_vs_one,
    evaluate,
    term,
)
from cfcert.alpha_root import _ABOVE, _BELOW, FLAG_BUDGET, FLAG_INCONCLUSIVE


def reference_convergents(point: CFPoint, depth: int) -> list[Fraction]:
    """Plain-Fraction recurrence chain, independent of the scaled-integer path."""
    state = ConvergentPair.seed()
    values = []
    for j in range(depth + 1):
        state = advance(state, term(point, j))
        values.append(state.value())
    return values


def reference_enclosure(point: CFPoint, depth: int) -> tuple[Fraction, Fraction]:
    """Reference enclosure of G(point) from the shifted tail at the given depth."""
    vals = reference_convergents(point.shifted(), depth)
    last, prev = vals[-1], vals[-2]
    t_lo, t_hi = (last, prev) if depth % 2 == 0 else (prev, last)
    x0 = point.m * point.lam
    return x0 + 1 / t_hi, x0 + 1 / t_lo


def reference_directed_tail(
    a: int, b: int, c: int, big_d: int, depth: int, bits: int
) -> tuple[int, int]:
    """Backward directed pass that divides by D afresh for every rounded term.

    Reference for the stepped rounding in cf_core._directed_tail: the two
    must return the same scaled (lo, hi) for the same arguments.
    """
    sq = 1 << (2 * bits)

    def down(u: int) -> int:
        return (u << bits) // big_d

    def up(u: int) -> int:
        return -((-u << bits) // big_d)

    du = b * c
    u = (a + depth * b) * c
    x_next = down(u + du)
    lo = down(u)
    if lo <= 0 or x_next <= 0:
        raise PrecisionError("tail term rounds to zero")
    hi = up(u) + (-(-sq // x_next))
    for _ in range(depth):
        u -= du
        xl = down(u)
        if xl <= 0:
            raise PrecisionError("tail term rounds to zero")
        lo, hi = xl + sq // hi, up(u) + (-(-sq // lo))
    return lo, hi


def reference_theorem_bound(point: CFPoint, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect the quadratic y**2 - m*lam*y - 1 over Fractions until width <= tol.

    Reference for bounds.theorem_bound, which finds the same cell with one
    isqrt: the two must return the same (lo, hi) for the same arguments.
    """
    c = point.m * point.lam
    e, f = c.numerator, c.denominator
    disc = e * e + 4 * f * f
    r = isqrt(disc)
    if r * r == disc:
        root = Fraction(e + r, 2 * f)
        return root, root
    if c >= 0:
        lo, hi = Fraction(1), c + 1
    else:
        lo, hi = Fraction(0), Fraction(1)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        v = mid * mid - c * mid - 1
        if v == 0:
            return mid, mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _reference_series_interval(nu: int, x: Fraction, last: int) -> tuple[Fraction, Fraction]:
    """S_nu(x) summed term by term over Fractions, k = 0..last, plus the tail bound."""
    h = x / 2
    t = h**nu / factorial(nu)
    s = t
    hh = h * h
    for k in range(1, last + 1):
        t *= hh / (k * (k + nu))
        s += t
    rho = hh / ((last + 1) * (last + nu + 1))
    if rho >= Fraction(1, 2):
        raise TailNotBoundedError(f"term ratio >= 1/2 at truncation k={last}, nu={nu}")
    return s, s + 2 * t * rho


def reference_series_ratio(m: int, lam: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Fraction-by-Fraction series quotient interval.

    Reference for bessel_oracle.series_ratio and its integer Horner sums:
    the two must return the same (lo, hi), or both raise TailNotBoundedError.
    """
    x = Fraction(2) / lam
    top = m - 1 if m >= 1 else 1
    n_lo, n_hi = _reference_series_interval(top, x, terms)
    d_lo, d_hi = _reference_series_interval(m, x, terms)
    return n_lo / d_hi, n_hi / d_lo


def reference_find_alpha(
    lam,
    bracket_tol=Fraction(1, 10**6),
    g_tol=Fraction(1, 10**9),
    *,
    settings=None,
    max_iterations=256,
) -> AlphaResult:
    """Fraction bisection that classifies every midpoint by tightening rounds.

    Reference for alpha_root.find_alpha, whose exact-routed steps walk the
    recurrence once instead: the two must return equal AlphaResults, or
    raise the same error, for the same arguments.
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

    lo, hi = Fraction(0), Fraction(1)
    target = bracket_tol / 4
    flag = None
    iterations = 0
    while hi - lo > target or lo == 0 or hi == 1:
        if iterations >= max_iterations:
            flag = FLAG_BUDGET
            break
        mid = (lo + hi) / 2
        side, _ = classify_vs_one(CFPoint(mid, lam), g_tol, settings=settings)
        if side == _BELOW:
            lo = mid
        elif side == _ABOVE:
            hi = mid
        else:
            flag = FLAG_INCONCLUSIVE
            break
        iterations += 1

    g_mid = evaluate(CFPoint((lo + hi) / 2, lam), g_tol, settings=settings)
    return AlphaResult(
        lam=lam, m_lo=lo, m_hi=hi, g_at_mid=g_mid, iterations=iterations, flag=flag
    )


@pytest.fixture
def oracle():
    return reference_enclosure


@pytest.fixture
def oracle_convergents():
    return reference_convergents
