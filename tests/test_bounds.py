from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import (
    reference_check_g_above_one,
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
from cfcert.cf_core import _mapped

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


def sandwiched(point, upper, lower) -> bool:
    """The two halves are one certificate: G(m), mapped from the tail G(m+1),
    lies below it, and both halves carry the window between the two, with
    its width as gap.  B(m, lam) lies strictly inside the window: the
    quadratic y**2 - c*y - 1 is negative at its lower end and positive at
    its upper end."""
    g1, window, g0 = upper.left, upper.right, lower.right
    c = point.m * point.lam
    return (
        g0 == _mapped(point, g1)
        and lower.left == window
        and (window.lo, window.hi) == (g0.hi, g1.lo)
        and upper.gap == lower.gap == window.width > 0
        and window.lo**2 - c * window.lo - 1 < 0 < window.hi**2 - c * window.hi - 1
    )


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
        point = CFPoint(0, 1)
        upper, lower = check_sandwich(point)
        assert sandwiched(point, upper, lower)
        # G(1,1) > 1 > G(0,1) with the documented approximate magnitudes
        assert upper.left.lo > Fraction(14, 10)
        assert lower.right.hi < Fraction(7, 10)

    def test_m1_lambda1(self):
        point = CFPoint(1, 1)
        upper, lower = check_sandwich(point)
        assert sandwiched(point, upper, lower)
        assert upper.left.lo > PHI - Fraction(1, 10**6)  # G(2,1) above the bound
        assert upper.right.lo <= PHI <= upper.right.hi

    def test_hypothesis_gate(self):
        with pytest.raises(DomainError):
            check_sandwich(CFPoint(Fraction(-1, 2), 1))

    def test_inconclusive_when_tightening_capped(self):
        # G(1, 1/4) in [0.795, 2.25] at depth 1 straddles B(0, 1/4) = 1
        point = CFPoint(0, Fraction(1, 4))
        with pytest.raises(InconclusiveError) as exc:
            check_sandwich(point, Fraction(9, 10), max_depth=1)
        g1, g0 = exc.value.left, exc.value.right
        assert exc.value.claim is Claim.SANDWICH_UPPER
        assert (g1.lo, g1.hi, g1.depth) == (Fraction(35, 44), Fraction(9, 4), 1)
        assert g0 == _mapped(point, g1)

    def test_certificate_stable_under_tighter_tol(self):
        point = CFPoint(2, Fraction(1, 2))
        for tol in (Fraction(1, 10**8), Fraction(1, 10**14)):
            assert sandwiched(point, *check_sandwich(point, tol))

    @given(
        m=st.fractions(min_value=0, max_value=3, max_denominator=10),
        lam=st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_coherence_with_above_one(self, m, lam):
        point = CFPoint(m, lam)
        upper, lower = check_sandwich(point)
        assert sandwiched(point, upper, lower)
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
        # G(0, lam) is mapped from G(1, lam): its ends are the reciprocals of the tail's
        assert report.left == _mapped(CFPoint(0, lam), report.right)
        assert report.left.lo * report.right.hi == 1 == report.left.hi * report.right.lo

    def test_gap_positive(self):
        report = check_reciprocal(1)
        assert report.gap == 1 - report.left.hi > 0


def _evaluated(point, t, max_depth):
    """evaluate at t, or its best enclosure out of budget; and whether it was out."""
    try:
        return evaluate(point, t, max_depth=max_depth), False
    except (BudgetExceededError, NotConvergedError) as exc:
        return exc.best, True


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CFCertError as exc:
        return exc


def _comparable(got):
    if isinstance(got, CFCertError):
        return type(got), str(got), getattr(got, "left", None), getattr(got, "right", None)
    return got


CHECK_ARGS = dict(
    m=st.fractions(min_value=0, max_value=3, max_denominator=BIG_DEN),
    # both sides of the 1/64 directed cutoff
    lam=st.sampled_from([997, BIG_DEN]).flatmap(
        lambda den: st.integers(den // 200 + 1, 4 * den).map(lambda k: Fraction(k, den))
    ),
    tol=st.builds(lambda k, e: Fraction(k, 10**e), st.integers(1, 9), st.integers(0, 32)),
    max_depth=st.sampled_from([3, 12, DEFAULT_MAX_DEPTH]),
)


@given(**CHECK_ARGS)
@example(m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=3)  # G(1, 1) > 1 from its depth-3 enclosure
@settings(max_examples=100, deadline=None)
def test_checks_match_tightening_reference(m, lam, tol, max_depth):
    point = CFPoint(m + 1, lam)
    got = _outcome(check_g_above_one, point, tol, max_depth=max_depth)
    try:
        want = reference_check_g_above_one(point, tol, max_depth=max_depth)
    except (BudgetExceededError, NotConvergedError, InconclusiveError):
        want = None
    if want is not None:
        assert _comparable(got) == _comparable(want)
        return
    # the reference gave up at its 1e-30 floor or the depth budget; the check
    # goes on to a verdict or the first tolerance where an evaluation is out
    # of budget, and judges the enclosure reached there
    for t in reference_tolerances(tol, floor=None):
        enc, out = _evaluated(point, t, max_depth)
        certified = enc.lo > 1
        if certified or out:
            break
    assert isinstance(got, InconclusiveError) is not certified
    assert (got.left, got.right) == (enc, Enclosure(1, 1, 0, EvalMode.EXACT))


def _bound_cell_inside(point, window) -> bool:
    """Some cell of reference_theorem_bound's bisection lies inside ``window``."""
    t = window.width
    for _ in range(64):
        t /= 2**16
        lo, hi = reference_theorem_bound(point, t)
        if window.lo < lo and hi < window.hi:
            return True
    return False


def _parent_rule(claim, point, tol, max_depth):
    """The tolerance where G(m+1) and G(m), each evaluated directly, and
    theorem_bound's cell of B at the same tolerance, first certify, or None.

    At m = 0 the reciprocal claim G(0) < 1 is decided on G(0) alone.  Like
    the checks, it stops at the first tolerance where an evaluation is out
    of budget.
    """
    for t in reference_tolerances(tol, floor=None):
        (g1, out1), (g0, out0) = (_evaluated(p, t, max_depth) for p in (point.shifted(), point))
        if claim == "sandwich":
            bound = theorem_bound(point, t)
            holds = g1.lo > bound.hi and bound.lo > g0.hi
        else:
            holds = g0.hi < 1
        if holds:
            return t
        if out1 or out0:
            return None


@given(claim=st.sampled_from(["reciprocal", "sandwich"]), **CHECK_ARGS)
# G(1, 1) in [10/7, 3/2] at depth 1 lies above 1 = B(0, 1)
@example(claim="reciprocal", m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=1)
@example(claim="sandwich", m=Fraction(0), lam=Fraction(1), tol=Fraction(1, 10**12),
         max_depth=1)
# G(1, 1/4) in [35/44, 9/4] at depth 1 straddles 1: inconclusive
@example(claim="reciprocal", m=Fraction(0), lam=Fraction(1, 4), tol=Fraction(1, 10**12),
         max_depth=1)
@example(claim="sandwich", m=Fraction(0), lam=Fraction(1, 4), tol=Fraction(1, 10**12),
         max_depth=1)
@example(claim="sandwich", m=Fraction(1), lam=Fraction(1, 100), tol=Fraction(1, 10**12),
         max_depth=12)
# B - G(m) is about 7e-37
@example(claim="sandwich", m=Fraction(10**12), lam=Fraction(10**12), tol=Fraction(1, 10**12),
         max_depth=DEFAULT_MAX_DEPTH)
@settings(max_examples=200, deadline=None)
def test_one_tail_decides_sandwich_and_reciprocal(claim, m, lam, tol, max_depth):
    point = CFPoint(0 if claim == "reciprocal" else m, lam)
    c = point.m * point.lam
    # one tail enclosure per tolerance: the first G(m+1) whose lower end y
    # has y*(y - c) > 1 lies above B(m, lam), which is 1 at m = 0, and then
    # G(m) = c + 1/G(m+1) lies below it; or the first out of budget
    for t in reference_tolerances(tol, floor=None):
        g1, out = _evaluated(point.shifted(), t, max_depth)
        certified = g1.lo * (g1.lo - c) > 1
        if certified or out:
            break
    if claim == "sandwich":
        got = _outcome(check_sandwich, point, tol, max_depth=max_depth)
        inconclusive = isinstance(got, InconclusiveError)
        got_g1, got_g0 = (got.left, got.right) if inconclusive else (got[0].left, got[1].right)
    else:
        got = _outcome(check_reciprocal, lam, tol, max_depth=max_depth)
        got_g0, got_g1 = got.left, got.right
    assert isinstance(got, InconclusiveError) is not certified
    assert got_g1 == g1
    # G(m) is mapped from that tail: m*lam + 1/hi, m*lam + 1/lo
    assert got_g0 == _mapped(point, g1)
    assert (got_g0.lo, got_g0.hi) == (c + 1 / g1.hi, c + 1 / g1.lo)
    # a certificate holds exactly where the mapped G(m) lies below G(m+1)
    assert certified is (got_g0.hi < got_g1.lo if claim == "sandwich" else got_g0.hi < 1)
    if certified and claim == "sandwich":
        upper, lower = got
        assert sandwiched(point, upper, lower)
        assert _bound_cell_inside(point, upper.right)
    elif certified:
        assert got.gap == 1 - got_g0.hi > 0
    # wherever the rule that evaluated G(m) too and bounded B at the same
    # tolerance certifies, the tail certifies at that tolerance or a looser one
    parent = _parent_rule(claim, point, tol, max_depth)
    if parent is not None:
        assert certified and t >= parent
