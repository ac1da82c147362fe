from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    reference_check_g_above_one,
    reference_check_reciprocal,
    reference_check_sandwich,
    reference_theorem_bound,
    reference_tolerances,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcert import (
    DEFAULT_MAX_DEPTH,
    BudgetExceededError,
    CFCertError,
    CFPoint,
    CheckReport,
    Claim,
    DomainError,
    Enclosure,
    EvalMode,
    InconclusiveError,
    NotConvergedError,
    check_functional_equation,
    check_g_above_one,
    check_reciprocal,
    check_sandwich,
    evaluate,
)
from cfcert.bounds import theorem_bound

PHI = Fraction("1.618033988749894848204587")  # (1 + sqrt 5) / 2
THREE_PLUS_SQRT10 = Fraction("6.162277660168379331998894")
G_5_2 = Fraction("10.08284240783199369711829538132900")  # frozen from depth-60 exact run

points = st.builds(
    CFPoint,
    st.fractions(min_value=Fraction(-9, 10), max_value=4, max_denominator=20),
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=20),
)


def separated(report) -> bool:
    """The report's left enclosure lies above its right one, by exactly its gap."""
    return report.gap > 0 and report.gap == report.left.lo - report.right.hi


def overlap(report) -> bool:
    """The report's two enclosures meet, and its gap is the width they share."""
    shared = min(report.left.hi, report.right.hi) - max(report.left.lo, report.right.lo)
    return report.gap == shared >= 0


BIG_DEN = 999999999989  # a prime, so m = k / BIG_DEN stays in lowest terms


@st.composite
def bound_args(draw):
    """A point with m in (-1, 5] and lam in [1/64, 4], and a tolerance for it.

    Decimal tolerances run from 1e-1 (above small positive m*lam, so no
    halving at all) to 1e-40.  Dyadic ones are w0 / 2**i and its neighbours,
    with w0 the initial bisection width, so the halving count sits exactly
    on a boundary.  Rational-root points (m*lam = p - 1/p) take the exact path.
    """
    lam = draw(st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=10**6))
    if draw(st.integers(0, 4)) == 0:
        root = Fraction(draw(st.sampled_from(["1/2", "2/3", "1", "3/2", "2", "3"])))
        m = (root - 1 / root) / lam
        if not -1 < m <= 5:
            m = Fraction(0)
    else:
        m = draw(st.fractions(min_value=-1, max_value=5, max_denominator=BIG_DEN).filter(
            lambda x: x > -1 and x != 0))
    c = m * lam
    w0 = c if c > 0 else Fraction(1)
    if draw(st.booleans()):
        tol = Fraction(draw(st.integers(1, 9)), 10 ** draw(st.integers(1, 40)))
    else:
        tol = w0 / 2 ** draw(st.integers(0, 130))
        tol *= draw(st.sampled_from([1, Fraction(10**9 - 1, 10**9), Fraction(10**9 + 1, 10**9)]))
    return CFPoint(m, lam), tol


class TestTheoremBound:
    def test_m_zero_exact_one(self):
        b = theorem_bound(CFPoint(0, 7))
        assert b.lo == b.hi == 1

    def test_golden_ratio(self):
        b = theorem_bound(CFPoint(1, 1), Fraction(1, 10**12))
        assert b.width <= Fraction(1, 10**12)
        assert b.lo <= PHI <= b.hi

    def test_three_plus_sqrt_ten(self):
        b = theorem_bound(CFPoint(2, 3), Fraction(1, 10**12))
        assert b.lo <= THREE_PLUS_SQRT10 <= b.hi

    def test_rational_root_detected_exactly(self):
        # m*lam = 3/2 gives discriminant 25/4, so the root is exactly 2
        b = theorem_bound(CFPoint(Fraction(3, 2), 1))
        assert b.lo == b.hi == 2

    @given(
        point=points,
        tol=st.sampled_from([Fraction(1, 10**6), Fraction(1, 10**12), Fraction(1, 10**18)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_sign_witness(self, point, tol):
        b = theorem_bound(point, tol)
        c = point.m * point.lam
        assert b.width <= tol
        assert b.lo**2 - c * b.lo - 1 <= 0
        assert b.hi**2 - c * b.hi - 1 >= 0

    def test_returns_exact_enclosure(self):
        b = theorem_bound(CFPoint(1, 1), Fraction(1, 10**12))
        assert isinstance(b, Enclosure)
        assert (b.depth, b.mode) == (0, EvalMode.EXACT)

    @given(args=bound_args())
    @example(args=(CFPoint(Fraction(1, 100), 1), Fraction(1, 10)))  # c <= tol: no halving
    @example(args=(CFPoint(Fraction(-1, 2), 1), Fraction(1, 2)))  # c < 0, one halving
    @example(args=(CFPoint(1, 1), Fraction(1, 2**40)))  # width lands exactly on tol
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_reference(self, args):
        point, tol = args
        b = theorem_bound(point, tol)
        lo, hi = reference_theorem_bound(point, tol)
        assert (b.lo.numerator, b.lo.denominator) == (lo.numerator, lo.denominator)
        assert (b.hi.numerator, b.hi.denominator) == (hi.numerator, hi.denominator)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(DomainError):
            theorem_bound(CFPoint(1, 1), 0)


class TestSandwich:
    def test_m0_lambda1(self):
        upper, lower = check_sandwich(CFPoint(0, 1))
        assert separated(upper) and separated(lower)
        assert upper.gap > 0 and lower.gap > 0
        # G(1,1) > 1 > G(0,1) with the documented approximate magnitudes
        assert upper.left.lo > Fraction(14, 10)
        assert lower.right.hi < Fraction(7, 10)

    def test_m1_lambda1(self):
        upper, lower = check_sandwich(CFPoint(1, 1))
        assert separated(upper) and separated(lower)
        assert upper.left.lo > PHI - Fraction(1, 10**6)  # G(2,1) above the bound
        assert upper.right.lo <= PHI <= upper.right.hi

    def test_hypothesis_gate(self):
        with pytest.raises(DomainError):
            check_sandwich(CFPoint(Fraction(-1, 2), 1))

    def test_inconclusive_when_tightening_capped(self):
        # G(0, 1) in [2/3, 1] at depth 1 touches B(0, 1) = 1
        with pytest.raises(InconclusiveError):
            check_sandwich(CFPoint(0, 1), Fraction(9, 10), max_depth=1)

    def test_certificate_stable_under_tighter_tol(self):
        u1, l1 = check_sandwich(CFPoint(2, Fraction(1, 2)), Fraction(1, 10**8))
        u2, l2 = check_sandwich(CFPoint(2, Fraction(1, 2)), Fraction(1, 10**14))
        assert all(separated(r) for r in (u1, u2, l1, l2))

    @given(
        m=st.fractions(min_value=0, max_value=3, max_denominator=10),
        lam=st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_coherence_with_above_one(self, m, lam):
        point = CFPoint(m, lam)
        upper, lower = check_sandwich(point)
        assert separated(upper) and separated(lower)
        assert separated(check_g_above_one(point.shifted()))


class TestFunctionalEquation:
    @pytest.mark.parametrize(
        "m, lam",
        [(0, 1), (1, 1), (Fraction(-1, 2), 1), (Fraction(-1, 10), 2), (3, Fraction(1, 2))],
    )
    def test_consistent(self, m, lam):
        report = check_functional_equation(CFPoint(m, lam))
        assert overlap(report)
        assert 0 <= report.gap <= 2 * Fraction(1, 10**12)

    def test_reciprocal_special_case_m0(self):
        # at m = 0 the shifted interval is exactly the reciprocal of the tail
        report = check_functional_equation(CFPoint(0, 1))
        assert overlap(report)
        assert report.right.lo > 0


class TestAboveOne:
    def test_m1_lambda1_gap(self):
        report = check_g_above_one(CFPoint(1, 1))
        assert separated(report)
        assert abs(report.gap - Fraction(433127, 10**6)) < Fraction(1, 10**3)

    def test_small_lambda_directed(self):
        report = check_g_above_one(CFPoint(1, Fraction(1, 100)))
        assert separated(report)
        assert report.gap > 0

    def test_m5_lambda2(self):
        report = check_g_above_one(CFPoint(5, 2))
        assert separated(report)
        assert report.left.lo <= G_5_2 <= report.left.hi

    def test_hypothesis_gate(self):
        with pytest.raises(DomainError):
            check_g_above_one(CFPoint(Fraction(1, 2), 1))


class TestReciprocal:
    @pytest.mark.parametrize("lam", [Fraction(1, 10), 1, 10])
    def test_certified(self, lam):
        report = check_reciprocal(lam)
        assert report.gap == 1 - report.left.hi > 0
        assert report.left.lo * report.right.lo <= 1 <= report.left.hi * report.right.hi

    def test_gap_positive(self):
        report = check_reciprocal(1)
        assert report.gap == 1 - report.left.hi > 0


def _sandwich_decides(point, t, g_hi, g_lo):
    bound = theorem_bound(point, t)
    return (g_hi.lo > bound.hi and bound.lo > g_lo.hi), [g_hi, g_lo, bound]


# claim -> (check, reference, points evaluated per tolerance, verdict and
# carried enclosures at tolerance t)
CHECKS = {
    "sandwich": (
        check_sandwich, reference_check_sandwich,
        lambda p: [p.shifted(), p], _sandwich_decides,
    ),
    "above-one": (
        check_g_above_one, reference_check_g_above_one,
        lambda p: [p],
        lambda p, t, g: (g.lo > 1, [g, Enclosure(1, 1, 0, EvalMode.EXACT)]),
    ),
    "reciprocal": (
        check_reciprocal, reference_check_reciprocal,
        lambda p: [CFPoint(0, p.lam), CFPoint(1, p.lam)],
        lambda p, t, g0, g1: (g0.hi < 1, [g0, g1]),
    ),
}


def _carried(got):
    """The enclosures a check outcome carries, in evaluation order, then the bound."""
    if isinstance(got, (InconclusiveError, CheckReport)):
        return [got.left, got.right]
    upper, lower = got  # the sandwich (upper, lower) pair
    return [upper.left, lower.right, upper.right]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CFCertError as exc:
        return exc


def _comparable(got):
    if isinstance(got, CFCertError):
        return type(got), str(got), getattr(got, "left", None), getattr(got, "right", None)
    return got


@given(
    claim=st.sampled_from(sorted(CHECKS)),
    m=st.fractions(min_value=0, max_value=3, max_denominator=BIG_DEN),
    # both sides of the 1/64 directed cutoff
    lam=st.sampled_from([997, BIG_DEN]).flatmap(
        lambda den: st.integers(den // 200 + 1, 4 * den).map(lambda k: Fraction(k, den))
    ),
    tol=st.builds(lambda k, e: Fraction(k, 10**e), st.integers(1, 9), st.integers(0, 32)),
    max_depth=st.sampled_from([3, 12, DEFAULT_MAX_DEPTH]),
)
@example(claim="above-one", m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=3)  # G(1, 1) > 1 from its depth-3 enclosure
@example(claim="reciprocal", m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=1)  # [2/3, 1] touches 1: inconclusive
@example(claim="sandwich", m=Fraction(1), lam=Fraction(1, 100), tol=Fraction(1, 10**12),
         max_depth=12)
# G(1, 1) > 1 = B(0, 1) holds at depth 1, but G(0, 1) in [2/3, 1] touches B
@example(claim="sandwich", m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=1)
# B - G(m) is about 7e-37, below the reference's 1e-30 floor
@example(claim="sandwich", m=Fraction(10**12), lam=Fraction(10**12), tol=Fraction(1, 10**12),
         max_depth=DEFAULT_MAX_DEPTH)
@settings(max_examples=200, deadline=None)
def test_checks_match_tightening_reference(claim, m, lam, tol, max_depth):
    check, reference, points_of, decides = CHECKS[claim]
    point = CFPoint(m + 1 if claim == "above-one" else m, lam)
    arg = lam if claim == "reciprocal" else point
    got = _outcome(check, arg, tol, max_depth=max_depth)
    try:
        want = reference(arg, tol, max_depth=max_depth)
    except (BudgetExceededError, NotConvergedError, InconclusiveError):
        want = None
    except CFCertError as exc:
        want = exc
    if want is not None:
        assert _comparable(got) == _comparable(want)
        return
    # the reference gave up at its 1e-30 floor or the depth budget; the check
    # goes on to a verdict or the first tolerance where an evaluation is out
    # of budget, and judges the enclosures reached there
    for t in reference_tolerances(tol, floor=None):
        encs, out = [], False
        for p in points_of(point):
            try:
                encs.append(evaluate(p, t, max_depth=max_depth))
            except (BudgetExceededError, NotConvergedError) as exc:
                encs.append(exc.best)
                out = True
        certified, carried = decides(point, t, *encs)
        if certified or out:
            break
    if certified:
        assert not isinstance(got, CFCertError)
        assert _carried(got) == carried
    else:
        assert isinstance(got, InconclusiveError)
        assert _carried(got) == carried[:2]
        if claim == "sandwich":
            g_hi, _, bound = carried
            assert got.claim is (Claim.SANDWICH_LOWER if g_hi.lo > bound.hi
                                 else Claim.SANDWICH_UPPER)
