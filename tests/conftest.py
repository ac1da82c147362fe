from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
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
    TailNotBoundedError,
    Witness,
    evaluate,
    scan,
)
from cfcert.alpha_root import _ABOVE, _BELOW, _STRADDLE, FLAG_INCONCLUSIVE
from cfcert.cf_core import as_fraction

#: the checks' former give-up: tightening stopped once the tolerance reached it
REFERENCE_TOL_FLOOR = Fraction(1, 10**30)


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
    """Backward interval pass over the tail terms u_j / D, u_j = (a + j*b) * c.

    Bounds are integers scaled by 2**bits; every rounding is outward, so the
    returned [lo, hi] (divided by 2**bits) rigorously contains the tail value.
    The seed uses T_depth in (x_depth, x_depth + 1/x_{depth+1}).

    Term j rounds down to q and up to q + (r != 0), where
    (q, r) = divmod(u_j << bits, D).  Stepping j down subtracts the fixed
    divmod(du << bits, D) with a borrow, so the loop never divides by D.

    Reference for cf_core._directed_tail, which replaced this fixed-point
    kernel with one on exact terms over D * 2**bits.
    """
    sq = 1 << (2 * bits)
    du = b * c
    u = (a + depth * b) * c
    # terms grow with j, so the j = 0 term is the first to round to zero;
    # eval_directed sizes ``bits`` so that it never does
    if ((a * c) << bits) // big_d <= 0:
        raise AssertionError("tail term rounds to zero")
    dq, dr = divmod(du << bits, big_d)
    q, r = divmod(u << bits, big_d)
    x_next = ((u + du) << bits) // big_d
    lo, hi = q, q + (r != 0) + (-(-sq // x_next))
    for _ in range(depth):
        q -= dq
        r -= dr
        if r < 0:
            q -= 1
            r += big_d
        # old hi feeds the new lower bound and vice versa (reciprocal flips order)
        lo, hi = q + sq // hi, q + (r != 0) + (-(-sq // lo))
    return lo, hi


def exact_directed_tail(
    a: int, b: int, c: int, big_d: int, depth: int
) -> tuple[Fraction, Fraction]:
    """The directed pass's interval in exact Fractions, from the same seed."""
    x = [Fraction((a + j * b) * c, big_d) for j in range(depth + 2)]
    lo, hi = x[depth], x[depth] + 1 / x[depth + 1]
    for j in range(depth - 1, -1, -1):
        lo, hi = x[j] + 1 / hi, x[j] + 1 / lo
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


def reference_tolerances(tol: Fraction, floor=REFERENCE_TOL_FLOOR):
    """Working tolerances: tol, tol/10, ... down to ``floor``.

    With the default floor this is the checks' former schedule, which the
    reference checks below keep; with floor=None it never ends, as in
    bounds' checks, which stop only where an evaluation is out of budget.
    """
    t = tol
    while True:
        yield t
        if floor is not None and t <= floor:
            return
        t = t / 10


def reference_check_g_above_one(point, tol=DEFAULT_TOL, *, max_depth=DEFAULT_MAX_DEPTH):
    """check_g_above_one over reference_tolerances, letting a budget error propagate."""
    if point.m < 1:
        raise DomainError(f"hypothesis needs m >= 1, got m = {point.m}")
    tol = as_fraction(tol)
    unit = Enclosure(lo=Fraction(1), hi=Fraction(1), depth=0, mode=EvalMode.EXACT)
    enc = None
    for t in reference_tolerances(tol):
        enc = evaluate(point, t, max_depth=max_depth)
        if enc.lo > 1:
            return CheckReport(
                point=point,
                claim=Claim.ABOVE_ONE,
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


def _reference_side(enc: Enclosure) -> int:
    return _BELOW if enc.hi < 1 else _ABOVE if enc.lo > 1 else _STRADDLE


def reference_classify_vs_one(point, tol, *, max_depth=DEFAULT_MAX_DEPTH):
    """Side of G(point) relative to 1 from tol down by 10 a round, in any mode.

    Reference for alpha_root.classify_vs_one, which runs these rounds only
    at directed-routed points and walks the recurrence at exact-routed ones.
    The rounds end at the first enclosure that excludes 1, or at an
    evaluation out of budget, which decides from its best enclosure.
    """
    t = as_fraction(tol)
    while True:
        try:
            enc, out = evaluate(point, t, max_depth=max_depth), False
        except (BudgetExceededError, NotConvergedError) as exc:
            enc, out = exc.best, True
        side = _reference_side(enc)
        if side or out:
            return side, enc
        t = t / 10


def reference_find_alpha(
    lam, bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9), *, max_depth=DEFAULT_MAX_DEPTH
) -> AlphaResult:
    """Bisection from (0, 1) that decides the anchors 0 and 1 and every
    midpoint by reference_side_of_one, the exact walk.

    Reference for alpha_root.find_alpha at an exact-routed lam: wherever this
    returns an unflagged bracket, a dyadic cell, find_alpha must return the
    equal AlphaResult, ends' enclosures included.  Bisection stops at the
    first bracket at most bracket_tol/4 wide that touches neither 0 nor 1,
    or, flagged, at the first midpoint the walk leaves undecided at
    max_depth.  The midpoint enclosure is the best one reached at g_tol, and
    each end keeps the enclosure of the pair that decided it.
    """
    lam = as_fraction(lam)
    bracket_tol = as_fraction(bracket_tol)
    g_tol = as_fraction(g_tol)
    if lam <= 0:
        raise DomainError(f"lam must be positive, got {lam}")
    if bracket_tol <= 0 or g_tol <= 0:
        raise DomainError("tolerances must be positive")

    def walk(k: int, j: int):
        """Side of G(k / 2**j, lam) relative to 1, and the enclosure-making pair."""
        side, pair = reference_side_of_one(k, 1 << j, lam.numerator, lam.denominator, max_depth)
        return side, (Fraction(k, 1 << j), pair)

    def enclosure(found) -> Enclosure:
        m, pair = found
        return _reference_from_tail(CFPoint(m, lam), *_reference_pair_interval(*pair), pair[0])

    for m, want, rel in ((0, _BELOW, "<"), (1, _ABOVE, ">")):
        side, found = walk(m, 0)
        if side != want:
            raise InconclusiveError(f"could not certify G({m}, {lam}) {rel} 1", left=enclosure(found))
        if m:
            end_hi = found
        else:
            end_lo = found

    k = j = 0  # the bracket is [k, k + 1] / 2**j
    target = bracket_tol / 4
    flag = None
    while target * (1 << j) < 1 or k == 0 or k + 1 == 1 << j:
        side, found = walk(2 * k + 1, j + 1)
        if side == _BELOW:
            k, end_lo = 2 * k + 1, found
        elif side == _ABOVE:
            k, end_hi = 2 * k, found
        else:
            flag = FLAG_INCONCLUSIVE
            break
        j += 1

    lo, hi = Fraction(k, 1 << j), Fraction(k + 1, 1 << j)
    try:
        g_mid = evaluate(CFPoint((lo + hi) / 2, lam), g_tol, max_depth=max_depth)
    except (BudgetExceededError, NotConvergedError) as exc:
        g_mid = exc.best
    return AlphaResult(
        lam=lam, m_lo=lo, m_hi=hi, g_at_mid=g_mid, iterations=j, flag=flag,
        g_at_lo=enclosure(end_lo), g_at_hi=enclosure(end_hi),
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


def _reference_bd_convergents(a: int, b: int, c: int, d: int):
    """Scaled convergents (n, p, q, p_prev, q_prev) at (a/b, c/d) at the scale D = b*d.

    The terms are u_j / D with u_j = (a + j*b) * c, and p_n = u_n * p_{n-1} +
    D**2 * p_{n-2}, so p/q is the convergent G_n.  cf_core._scaled_convergents
    divides gcd(b, c) out of this scale; the reference keeps its own copy.
    """
    big_d = b * d
    dd = big_d * big_d
    u, du = a * c, b * c
    p_prev, q_prev, p, q = 1, 0, u, big_d
    for n in count():
        yield n, p, q, p_prev, q_prev
        u += du
        p, p_prev = u * p + dd * p_prev, p
        q, q_prev = u * q + dd * q_prev, q


def reference_eval_enclosure(point: CFPoint, tol, *, max_depth: int = DEFAULT_MAX_DEPTH) -> Enclosure:
    """Exact evaluation by a walk that tests every depth from 1, with the right
    side of the stopping test as a running product.

    Reference for cf_core.eval_enclosure, whose predicted depth, product
    tree, scale and integer mapping must give equal enclosures, depths and
    budget errors.  It runs its own recurrence at the scale D = b*d.
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
    for n, p, q, pp, qq in _reference_bd_convergents(
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


def reference_side_of_one(a: int, b: int, c: int, d: int, max_depth: int):
    """cf_core._side_of_one from both ends of every pair enclosure.

    It walks its own tail recurrence at the scale b*d
    (_reference_bd_convergents), not the kernel's, so its pairs match the
    kernel's as ratios, not as integers.  Each tail pair (n-1, n), n >= 1,
    bounds G(a/b, c/d) by m*lam + 1/t at both tail ends t; the first pair
    with both bounds on one side of 1 decides, and the pair at max_depth
    (at least 1) gives up.  Each bound is compared with 1 by
    cross-multiplication.  Returns the side and the pair.
    """
    ac, bd = a * c, b * d
    for pair in _reference_bd_convergents(a + b, b, c, d):
        n, p, q, pp, qq = pair
        if n == 0:
            continue
        # even tail convergents are lower bounds, odd ones upper bounds
        (lo_p, lo_q), (hi_p, hi_q) = ((p, q), (pp, qq)) if n % 2 == 0 else ((pp, qq), (p, q))
        if ac * lo_p + bd * lo_q < bd * lo_p:  # m*lam + 1/t_lo, G's upper bound, < 1
            return -1, pair
        if ac * hi_p + bd * hi_q > bd * hi_p:  # m*lam + 1/t_hi, G's lower bound, > 1
            return 1, pair
        if n >= max_depth:
            return 0, pair
    raise AssertionError("unreachable")


def reference_find_witness(
    m,
    lambda_grid=None,
    tol=DEFAULT_TOL,
    *,
    max_depth=DEFAULT_MAX_DEPTH,
) -> Witness:
    """Witness search that scans the whole grid before trying any pair.

    Reference for lambda_scan.find_witness, which evaluates grid points
    only when the pair search reaches them.  A near miss is retried from
    tol/10 until its enclosures separate or an evaluation runs out of
    budget, when it is judged once at its best enclosures.
    """
    m = as_fraction(m)
    if not (0 < m < 1):
        raise DomainError(f"witness search needs 0 < m < 1, got {m}")
    tol = as_fraction(tol)
    grid = list(DEFAULT_WITNESS_GRID) if lambda_grid is None else lambda_grid
    entries = scan(m, grid, tol, max_depth=max_depth)
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
            while True:
                t = t / 10
                encs, out_of_budget = [], False
                for lam in (lam1, lam2):
                    try:
                        encs.append(evaluate(CFPoint(m, lam), t, max_depth=max_depth))
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
