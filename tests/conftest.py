from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt

import pytest

from cfcert import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    DEFAULT_WITNESS_GRID,
    AlphaResult,
    BudgetExceededError,
    CFPoint,
    CheckReport,
    Claim,
    DomainError,
    Enclosure,
    EvalMode,
    InconclusiveError,
    NotConvergedError,
    NoWitnessFoundError,
    PrecisionError,
    TailNotBoundedError,
    ViolationError,
    Witness,
    as_fraction,
    classify_vs_one,
    evaluate,
    scan,
    series_ratio,
    theorem_bound,
)
from cfcert.alpha_root import _ABOVE, _BELOW, FLAG_BUDGET, FLAG_INCONCLUSIVE
from cfcert.bessel_oracle import MAX_TERMS
from cfcert.bounds import CERT_TOL_FLOOR
from cfcert.cf_core import TIGHTEN_ROUNDS, _scaled_convergents


@dataclass(frozen=True)
class ConvergentPair:
    """Recurrence state (P_n, Q_n) with the previous pair and the index n.

    Seeded from P_{-2} = 0, P_{-1} = 1, Q_{-2} = 1, Q_{-1} = 0, so that the
    n-th advance with term x_n produces the classical convergent P_n / Q_n.
    """

    p: Fraction
    q: Fraction
    p_prev: Fraction
    q_prev: Fraction
    n: int

    @classmethod
    def seed(cls) -> "ConvergentPair":
        return cls(
            p=Fraction(1), q=Fraction(0), p_prev=Fraction(0), q_prev=Fraction(1), n=-1
        )

    def determinant(self) -> Fraction:
        """P_n * Q_{n-1} - P_{n-1} * Q_n, which must equal (-1)**(n+1)."""
        return self.p * self.q_prev - self.p_prev * self.q

    def value(self) -> Fraction:
        """The convergent P_n / Q_n; undefined on the seed state."""
        if self.n < 0:
            raise DomainError("seed state has no convergent value (Q_{-1} = 0)")
        return self.p / self.q


def term(point: CFPoint, j: int) -> Fraction:
    """Exact j-th partial quotient (m + j) * lam."""
    if j < 0:
        raise DomainError(f"term index must be >= 0, got {j}")
    return (point.m + j) * point.lam


def advance(state: ConvergentPair, x) -> ConvergentPair:
    """One recurrence step over Fractions: P_n = x*P_{n-1} + P_{n-2}, likewise for Q."""
    x = as_fraction(x)
    return ConvergentPair(
        p=x * state.p + state.p_prev,
        q=x * state.q + state.q_prev,
        p_prev=state.p,
        q_prev=state.q,
        n=state.n + 1,
    )


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


def reference_tolerances(tol: Fraction, tighten_limit: int | None):
    """Working tolerances: tol, tol/10, ... down to the floor (or a step cap).

    Reference for bounds._rounds: a check runs _rounds(tol, cap) + 1
    tolerances, as many as this eager Fraction loop yields.
    """
    t = tol
    steps = 0
    while True:
        yield t
        steps += 1
        if tighten_limit is not None and steps > tighten_limit:
            return
        if t <= CERT_TOL_FLOOR:
            return
        t = t / 10


def reference_check_sandwich(point, tol=DEFAULT_TOL, *, settings=None, tighten_limit=None):
    """check_sandwich over reference_tolerances, letting a budget error propagate.

    Reference for bounds.check_sandwich: wherever no evaluation runs out of
    budget the two must agree exactly.
    """
    if point.m < 0:
        raise DomainError(f"sandwich hypothesis needs m >= 0, got m = {point.m}")
    tol = as_fraction(tol)
    upper_point = point.shifted()
    last = None
    for t in reference_tolerances(tol, tighten_limit):
        g_hi = evaluate(upper_point, t, settings=settings)
        g_lo = evaluate(point, t, settings=settings)
        bound = theorem_bound(point, t)
        last = (g_hi, g_lo, bound)
        if g_hi.lo > bound.hi and bound.lo > g_lo.hi:
            upper = CheckReport(
                point=point,
                claim=Claim.SANDWICH_UPPER,
                certified=True,
                left=g_hi,
                right=bound,
                gap=g_hi.lo - bound.hi,
            )
            lower = CheckReport(
                point=point,
                claim=Claim.SANDWICH_LOWER,
                certified=True,
                left=bound,
                right=g_lo,
                gap=bound.lo - g_lo.hi,
            )
            return upper, lower
    g_hi, g_lo, bound = last
    raise InconclusiveError(
        f"sandwich enclosures still overlap at m={point.m}, lam={point.lam}",
        claim=Claim.SANDWICH_UPPER,
        left=g_hi,
        right=bound,
    )


def reference_check_g_above_one(point, tol=DEFAULT_TOL, *, settings=None, tighten_limit=None):
    """check_g_above_one over reference_tolerances, letting a budget error propagate."""
    if point.m < 1:
        raise DomainError(f"hypothesis needs m >= 1, got m = {point.m}")
    tol = as_fraction(tol)
    unit = Enclosure(lo=Fraction(1), hi=Fraction(1), depth=0, mode=EvalMode.EXACT)
    enc = None
    for t in reference_tolerances(tol, tighten_limit):
        enc = evaluate(point, t, settings=settings)
        if enc.lo > 1:
            return CheckReport(
                point=point,
                claim=Claim.ABOVE_ONE,
                certified=True,
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


def reference_check_reciprocal(lam, tol=DEFAULT_TOL, *, settings=None, tighten_limit=None):
    """check_reciprocal over reference_tolerances, letting a budget error propagate."""
    lam = as_fraction(lam)
    tol = as_fraction(tol)
    p0 = CFPoint(Fraction(0), lam)
    p1 = CFPoint(Fraction(1), lam)
    g0 = g1 = None
    for t in reference_tolerances(tol, tighten_limit):
        g0 = evaluate(p0, t, settings=settings)
        g1 = evaluate(p1, t, settings=settings)
        if not (g0.lo * g1.lo <= 1 <= g0.hi * g1.hi):
            raise ViolationError(
                f"product interval excludes 1 at lam={lam}: {g0} * {g1}"
            )
        if g0.hi < 1:
            return CheckReport(
                point=p0,
                claim=Claim.RECIPROCAL,
                certified=True,
                left=g0,
                right=g1,
                gap=1 - g0.hi,
            )
    raise InconclusiveError(
        f"G(0, lam) enclosure still touches 1 at lam={lam}",
        claim=Claim.RECIPROCAL,
        left=g0,
        right=g1,
    )


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


def reference_cross_check(
    m,
    lam,
    tol=DEFAULT_TOL,
    *,
    settings=None,
    max_terms: int = MAX_TERMS,
) -> CheckReport:
    """Cross-check that builds every truncation's SeriesEnclosure and compares Fractions.

    Reference for bessel_oracle.cross_check, which tests each width with
    integer products: the two must return equal CheckReports, or raise the
    same error, wherever the first truncation is within max_terms.
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
    raise the same error, for the same arguments.  The midpoint enclosure
    is the best one reached when its evaluation runs out of budget.
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

    try:
        g_mid = evaluate(CFPoint((lo + hi) / 2, lam), g_tol, settings=settings)
    except (BudgetExceededError, NotConvergedError) as exc:
        g_mid = exc.best
    return AlphaResult(
        lam=lam, m_lo=lo, m_hi=hi, g_at_mid=g_mid, iterations=iterations, flag=flag
    )


def _reference_pair_interval(n: int, p: int, q: int, pp: int, qq: int) -> tuple[Fraction, Fraction]:
    """Order the consecutive convergents (n-1, n) as (even, odd) = (lo, hi)."""
    g_last = Fraction(p, q)
    g_prev = Fraction(pp, qq)
    if n % 2 == 0:
        return g_last, g_prev
    return g_prev, g_last


def _reference_from_tail(point: CFPoint, t_lo: Fraction, t_hi: Fraction, depth: int) -> Enclosure:
    """m*lam + 1/tail over Fractions; the tail's upper bound gives the lower one."""
    x0 = point.m * point.lam
    return Enclosure(lo=x0 + 1 / t_hi, hi=x0 + 1 / t_lo, depth=depth, mode=EvalMode.EXACT)


def reference_eval_enclosure(point: CFPoint, tol, *, max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    """Exact evaluation with the right side of the stopping test as a running product.

    Reference for cf_core.eval_enclosure, whose bit-length test and integer
    mapping must give equal enclosures, depths and budget errors.
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    m, lam = point.m, point.lam
    big_d = m.denominator * lam.denominator
    dd = big_d * big_d
    tn, td = tol.numerator, tol.denominator
    tn_bits = tn.bit_length()
    rhs = big_d * td  # D**(2n+1) * tol_den at the pair (n-1, n), updated as n grows
    for n, p, q, pp, qq in _scaled_convergents(
        m.numerator + m.denominator, m.denominator, lam.numerator, lam.denominator
    ):
        if n == 0:
            continue
        rhs *= dd
        # cheap filter: lhs < 2**lb and rhs >= 2**(rb-1), so lb < rb rules it out
        if p.bit_length() + pp.bit_length() + tn_bits >= rhs.bit_length():
            if p * pp * tn >= rhs:
                return _reference_from_tail(point, *_reference_pair_interval(n, p, q, pp, qq), n)
        if n >= max_depth:
            best = _reference_from_tail(point, *_reference_pair_interval(n, p, q, pp, qq), n)
            raise BudgetExceededError(
                f"width {float(best.width):.3e} > tol {float(tol):.3e} "
                f"at max_depth={max_depth}; raise the budget or use directed mode",
                best=best,
            )
    raise AssertionError("unreachable")


def reference_side_of_one(
    a: int, b: int, c: int, d: int, give_up_tol: Fraction, max_depth: int
) -> tuple[int, bool]:
    """cf_core._side_of_one with the running-product width test.

    The deciding bound m*lam + q/p is formed as a Fraction and its distance
    from 1 compared with give_up_tol directly.
    """
    big_d = b * d
    e = big_d - a * c
    dd = big_d * big_d
    tn, td = give_up_tol.numerator, give_up_tol.denominator
    tn_bits = tn.bit_length()
    rhs = big_d * td  # D**(2n+1) * tol_den, as in reference_eval_enclosure
    for n, p, q, pp, _ in _scaled_convergents(a + b, b, c, d):
        side = 0
        if n & 1:
            if p * e < q * big_d:
                side = 1
        elif p * e > q * big_d:
            side = -1
        if side:
            bound = Fraction(a * c, big_d) + Fraction(q, p)
            return side, abs(bound - 1) > give_up_tol
        if n == 0:
            continue
        rhs *= dd
        if n >= max_depth or (
            p.bit_length() + pp.bit_length() + tn_bits >= rhs.bit_length()
            and p * pp * tn >= rhs
        ):
            return 0, False
    raise AssertionError("unreachable")


def reference_find_witness(
    m,
    lambda_grid=None,
    tol=DEFAULT_TOL,
    *,
    settings=None,
) -> Witness:
    """Witness search that scans the whole grid before trying any pair.

    Reference for lambda_scan.find_witness, which evaluates grid points
    only when the pair search reaches them.  A near miss is judged at its
    best enclosures once an evaluation runs out of budget, and not retried.
    """
    m = as_fraction(m)
    if not (0 < m < 1):
        raise DomainError(f"witness search needs 0 < m < 1, got {m}")
    tol = as_fraction(tol)
    grid = list(DEFAULT_WITNESS_GRID) if lambda_grid is None else lambda_grid
    entries = scan(m, grid, tol, settings=settings)
    usable = [(e.lam, e.enclosure) for e in entries if e.enclosure is not None]

    for i in range(len(usable)):
        lam1, g1 = usable[i]
        for lam2, g2 in usable[i + 1 :]:
            if g1.lo > g2.hi:
                return Witness(m=m, lambda1=lam1, lambda2=lam2, g1=g1, g2=g2)

    # near misses: decreasing midpoints but overlapping enclosures
    for i in range(len(usable)):
        lam1, g1 = usable[i]
        for lam2, g2 in usable[i + 1 :]:
            if g1.midpoint <= g2.midpoint:
                continue
            t = tol
            for _ in range(TIGHTEN_ROUNDS):
                t = t / 10
                encs, out_of_budget = [], False
                for lam in (lam1, lam2):
                    try:
                        encs.append(evaluate(CFPoint(m, lam), t, settings=settings))
                    except (NotConvergedError, BudgetExceededError) as exc:
                        encs.append(exc.best)
                        out_of_budget = True
                e1, e2 = encs
                if e1.lo > e2.hi:
                    return Witness(m=m, lambda1=lam1, lambda2=lam2, g1=e1, g2=e2)
                if e1.hi < e2.lo or out_of_budget:
                    break  # decided, or no tighter tolerance can go deeper
    raise NoWitnessFoundError(
        f"no certified decrease for m={m} on the scanned grid "
        "(absence on a grid is not a refutation)",
        m=m,
        grid=[lam for lam, _ in usable],
    )


@pytest.fixture
def oracle():
    return reference_enclosure


@pytest.fixture
def oracle_convergents():
    return reference_convergents
