from __future__ import annotations

import copy
import math
import operator
import pickle
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ConvergentPair,
    advance,
    exact_directed_tail,
    kernel_scaled_convergents,
    reference_convergents,
    reference_directed_tail,
    reference_enclosure,
    reference_eval_enclosure,
    reference_side_of_one,
    term,
)

from cfcert import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    BudgetExceededError,
    CFPoint,
    DomainError,
    Enclosure,
    EvalMode,
    NotConvergedError,
    evaluate,
)
from cfcert import cf_core
from cfcert.cf_core import (
    DIRECTED_LAMBDA_CUTOFF,
    _BOUND_BITS,
    _LEAF,
    _best,
    _coprime,
    _depth_model,
    _directed_tail,
    _exact_at,
    _from_tail,
    _meets,
    _product_ge,
    _rounding_steps,
    _side_of_one,
    _step_product,
    _terms,
    _tightened,
    eval_directed,
    eval_enclosure,
)
from cfcert.cli import main, parse_records, reverify_records

# reference midpoints frozen from exact convergent runs at width < 1e-45
G_1_1 = Fraction("1.433127426722311758317183455775992")
G_0_1 = Fraction("0.6977746579640079820067905925517526")

points = st.builds(
    CFPoint,
    st.fractions(min_value=Fraction(-9, 10), max_value=4, max_denominator=20),
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=20),
)
# below the directed cutoff, with the leading term nonpositive and m's
# denominator up to 1e12
small_lam_points = st.builds(
    CFPoint,
    st.fractions(min_value=-1, max_value=0, max_denominator=10**12).filter(lambda m: m > -1),
    st.fractions(
        min_value=Fraction(1, 2000), max_value=Fraction(1, 64), max_denominator=4000
    ).filter(lambda lam: lam < Fraction(1, 64)),
)
# m in (-1, 5] with small to 1e12-sized denominators; lam in [1/2000, 4],
# integers included, so that D = b*d = 1 also occurs
wide_points = st.builds(
    CFPoint,
    st.sampled_from([1, 3, 997, 999999999989]).flatmap(
        lambda den: st.integers(-den + 1, 5 * den).map(lambda k: Fraction(k, den))
    ),
    st.one_of(
        st.integers(1, 4).map(Fraction),
        st.fractions(min_value=Fraction(1, 2000), max_value=4, max_denominator=10**6),
    ),
)
# 1e-1 .. 1e-300, numerators above 1 included: the stopping test multiplies by them
wide_tols = st.one_of(
    st.builds(lambda k, e: Fraction(k, 10**e), st.integers(1, 9), st.integers(1, 300)),
    st.builds(lambda k, e: Fraction(k, 2**e), st.integers(1, 15), st.integers(7, 997)),
)
depth_caps = st.one_of(st.integers(1, 50), st.just(DEFAULT_MAX_DEPTH))


def exact_outcome(fn, *args, **kwargs):
    """The enclosure, or the budget error's message and best enclosure."""
    try:
        return fn(*args, **kwargs)
    except BudgetExceededError as exc:
        return str(exc), exc.best


@contextmanager
def top_level_trees():
    """Yields a list of the (lo, hi) of every product tree built inside the
    block, without the tree's own recursive calls."""
    original, trees, nested = cf_core._step_product, [], []

    def counting(*args):
        if not nested:
            trees.append(args[-2:])
        nested.append(None)
        try:
            return original(*args)
        finally:
            nested.pop()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf_core, "_step_product", counting)
        yield trees


def assert_one_tree_below(point, tol):
    """eval_enclosure builds one tree, 1 below _depth_model's start, and never
    halves it: the start lies from 1 below to 2 above the minimal depth, and
    two steps back cover the 2 above."""
    start = _depth_model(point, tol, DEFAULT_MAX_DEPTH)
    with top_level_trees() as trees:
        enc = eval_enclosure(point, tol)
    assert enc.depth - 1 <= start <= enc.depth + 2
    assert trees == [(0, max(start - 1, 0) + 1)]
    return enc


def least_single_pass(point, tol, depth):
    """The least depth down from ``depth``, a depth one directed pass meets tol
    at, where one such pass still does.  Under a budget k at or below the
    start, eval_directed's first pass runs at depth k, and meets tol there
    exactly when it raises nothing."""
    while depth > 1 and _best(point, tol, depth - 1, "directed")[1] is None:
        depth -= 1
    return depth


def with_examples(cases):
    """Apply @example(point=, tol=, max_depth=) for each case."""
    def apply(fn):
        for point, tol, max_depth in cases:
            fn = example(point=point, tol=tol, max_depth=max_depth)(fn)
        return fn
    return apply


# fixed exact evaluations: test_matches_running_product_reference checks each
# against the reference, test_prediction_only_places_the_test with a wrong
# predicted depth
EXACT_EXAMPLES = [
    (CFPoint(1, 1), Fraction(3, 10**40), DEFAULT_MAX_DEPTH),
    (CFPoint(0, 2), Fraction(7, 2**200), DEFAULT_MAX_DEPTH),
    (CFPoint(4, 3), Fraction(1, 10**300), DEFAULT_MAX_DEPTH),
    (CFPoint(1, 1), Fraction(1, 10**9), 5),
    # the stopping test's two sides are equal at the minimal depth (1, 5, 5),
    # so "met" there is decided by >=, not >
    (CFPoint(4, 1), Fraction(7, 2**10), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(9, 2), Fraction(9, 8)), Fraction(15, 2**38), DEFAULT_MAX_DEPTH),
    (CFPoint(3, Fraction(7, 4)), Fraction(11, 2**41), DEFAULT_MAX_DEPTH),
    # a huge denominator at small lam: D is 3e53, so the scale D**(n+1), not
    # P_n, sets the size of the integers on both sides of the stopping test
    (CFPoint(-1 + Fraction(1, 10**50), Fraction(1, 3000)), Fraction(1, 10**12),
     DEFAULT_MAX_DEPTH),
    # gcd(m.den, lam.num) > 1: the kernel divides it out of its scale, the
    # reference keeps the scale b*d (at seed 7 a shared recurrence stopped at
    # depth 45 for the kernel's 18)
    (CFPoint(Fraction(1, 3), Fraction(192, 997)), Fraction(1, 10**12), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(1, 3), Fraction(192, 997)), Fraction(1, 10**300), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(-1, 2), Fraction(80, 997)), Fraction(1, 10**12), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(-1, 2), Fraction(80, 997)), Fraction(1, 10**300), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(1, 3), Fraction(300, 997)), Fraction(1, 10**12), DEFAULT_MAX_DEPTH),
    (CFPoint(Fraction(1, 3), Fraction(300, 997)), Fraction(1, 10**300), DEFAULT_MAX_DEPTH),
]


nonneg_points = st.builds(
    CFPoint,
    st.fractions(min_value=0, max_value=4, max_denominator=20),
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=20),
)
negative_m_points = st.builds(
    CFPoint,
    st.fractions(min_value=-1, max_value=0, max_denominator=10**6).filter(lambda m: -1 < m < 0),
    st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=20),
)


class TestCFPoint:
    def test_rejects_m_at_or_below_minus_one(self):
        with pytest.raises(DomainError):
            CFPoint(-1, 1)
        with pytest.raises(DomainError):
            CFPoint(-2, 1)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            CFPoint(1, 0)
        with pytest.raises(DomainError):
            CFPoint(1, -3)

    def test_exact_coercion(self):
        p = CFPoint("0.1", "1/3")
        assert p.m == Fraction(1, 10)
        assert p.lam == Fraction(1, 3)


TINY = Fraction(1, 10**40)


class TestIntegerChecks:
    """The order, domain, tol and routing checks compare numerators and
    denominators; each boundary falls exactly where the Fraction comparison
    puts it."""

    def test_domain_boundaries(self):
        # caught: m.numerator < -m.denominator and lam.numerator < 0
        for m, lam in [(-1, 1), (-1 - TINY, 1), (1, 0), (1, -TINY), (1, -3)]:
            with pytest.raises(DomainError):
                CFPoint(m, lam)
        point = CFPoint(-1 + TINY, TINY)
        assert (point.m, point.lam) == (-1 + TINY, TINY)

    def test_shifted_adds_one(self):
        # caught: a shift that drops the denominator, a + 1 for a + b
        for m in (-1 + TINY, Fraction(-1, 2), 0, Fraction(7, 3), 10**40):
            shift = CFPoint(m, 1).shifted()
            assert type(shift.m) is Fraction and shift.m == m + 1
            assert shift.m.as_integer_ratio() == (m + 1).as_integer_ratio()

    def test_enclosure_order_boundaries(self):
        # caught: >= for >, a cross product that mixes up the two ends, and
        # float or bool ends let into the integer path
        k = 3 * 10**39
        ordered = [
            (Fraction(k, 10**40), Fraction(k, 10**40)),
            (Fraction(k, 10**40), Fraction(k + 1, 10**40)),
            (1, 1),
            (1, 1 + TINY),
            (1 - TINY, 1),
            (0, TINY),
            (0.3, Fraction(3, 10)),  # the float 0.3 lies a little below 3/10
        ]
        for lo, hi in ordered:
            assert Enclosure(lo, hi, 1, EvalMode.EXACT)[:2] == (lo, hi)
        for lo, hi in ordered:
            if lo != hi:
                with pytest.raises(ValueError, match="malformed enclosure"):
                    Enclosure(hi, lo, 1, EvalMode.EXACT)
        # other types keep the generic comparison: here a float and a bool
        # raise and pass where they always did
        with pytest.raises(ValueError, match="malformed enclosure"):
            Enclosure(0.5, 0.25, 1, EvalMode.EXACT)
        with pytest.raises(ValueError, match="malformed enclosure"):
            Enclosure(True, Fraction(1, 2), 1, EvalMode.EXACT)
        assert Enclosure(False, 0.5, 1, EvalMode.EXACT).hi == 0.5
        with pytest.raises(TypeError):
            Enclosure("1", 2, 1, EvalMode.EXACT)

    @pytest.mark.parametrize("evaluator", [eval_enclosure, eval_directed])
    def test_tol_boundaries(self, evaluator):
        # caught: tol.numerator < 0
        for tol in (0, -TINY, -1):
            with pytest.raises(DomainError, match="tol must be positive"):
                evaluator(CFPoint(1, 1), tol)
        assert evaluator(CFPoint(1, 1), TINY).width <= TINY

    def test_routing_at_the_cutoff(self):
        # caught: lam > cutoff routing 1/64 itself to directed mode
        cut = cf_core.DIRECTED_LAMBDA_CUTOFF
        for lam, mode in [(cut, EvalMode.EXACT), (cut + TINY, EvalMode.EXACT),
                          (cut - TINY, EvalMode.DIRECTED)]:
            assert evaluate(CFPoint(1, lam), Fraction(1, 10**6)).mode is mode


class TestTerm:
    @pytest.mark.parametrize(
        "m, lam, j, expected",
        [
            (0, 1, 0, Fraction(0)),
            (1, 1, 3, Fraction(4)),
            (Fraction(1, 10), 2, 1, Fraction(11, 5)),
        ],
    )
    def test_values(self, m, lam, j, expected):
        assert term(CFPoint(m, lam), j) == expected

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            term(CFPoint(1, 1), -1)


class TestAdvance:
    def test_depth_one_fraction(self):
        state = ConvergentPair.seed()
        state = advance(state, 1)
        state = advance(state, 2)
        assert state.value() == Fraction(3, 2)

    def test_depth_two_fraction(self):
        state = ConvergentPair.seed()
        for x in (1, 2, 3):
            state = advance(state, x)
        assert state.value() == Fraction(10, 7)

    def test_seed_has_no_value(self):
        with pytest.raises(DomainError):
            ConvergentPair.seed().value()

    @given(
        xs=st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=20),
            min_size=1,
            max_size=25,
        )
    )
    def test_determinant_identity(self, xs):
        state = ConvergentPair.seed()
        for x in xs:
            state = advance(state, x)
            assert state.determinant() == (-1) ** (state.n + 1)


class TestTailEnclosure:
    """_exact_at: G(point) from the tail pair (depth - 1, depth) at m + 1."""

    def test_hand_computed_convergents(self):
        # the tail G(1, 1) lies in [225/157, 43/30] at depth 4
        enc = _exact_at(CFPoint(0, 1), 4)
        assert (enc.lo, enc.hi) == (Fraction(30, 43), Fraction(157, 225))
        assert (enc.depth, enc.mode) == (4, EvalMode.EXACT)

    def test_width_small_by_depth_20(self):
        enc = _exact_at(CFPoint(0, 1), 20)
        assert enc.width < Fraction(1, 10**12)

    def test_nesting_two_steps(self):
        outer = _exact_at(CFPoint(0, 1), 6)
        inner = _exact_at(CFPoint(0, 1), 8)
        assert outer.encloses(inner)
        assert inner.width < outer.width

    def test_depth_too_small(self, capsys):
        # the record check rejects depth < 1 before any exact rebuild
        assert main(["eval", "--m", "1", "--lambda", "1"]) == 0
        (rec,) = parse_records(capsys.readouterr().out, "csv")
        for depth in (-1, 0):
            with pytest.raises(ValueError, match="depth outside"):
                reverify_records([rec._replace(depth=depth)])

    @given(point=nonneg_points, depth=st.integers(min_value=1, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_chain(self, point, depth):
        enc = _exact_at(point, depth)
        assert (enc.lo, enc.hi) == reference_enclosure(point, depth)
        assert (enc.depth, enc.mode) == (depth, EvalMode.EXACT)

    @given(point=negative_m_points, depth=st.integers(min_value=1, max_value=15))
    @example(point=CFPoint(Fraction(-1, 2), 1), depth=4)
    @settings(max_examples=40, deadline=None)
    def test_negative_m_matches_reference_chain(self, point, depth):
        enc = _exact_at(point, depth)
        assert (enc.lo, enc.hi) == reference_enclosure(point, depth)

    @given(point=wide_points, tol=wide_tols, max_depth=depth_caps)
    @settings(max_examples=40, deadline=None)
    def test_rebuilds_eval_enclosure(self, point, tol, max_depth):
        outcome = exact_outcome(eval_enclosure, point, tol, max_depth=max_depth)
        enc = outcome if isinstance(outcome, Enclosure) else outcome[1]
        assert _exact_at(point, enc.depth) == enc


class TestBracketing:
    @given(point=nonneg_points)
    @settings(max_examples=40, deadline=None)
    def test_even_increase_odd_decrease_even_below_odd(self, point):
        vals = reference_convergents(point, 13)
        evens = vals[0::2]
        odds = vals[1::2]
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))
        assert max(evens) < min(odds)


class TestEvalEnclosure:
    def test_g_1_1(self, oracle):
        enc = eval_enclosure(CFPoint(1, 1), Fraction(1, 10**6))
        lo, hi = oracle(CFPoint(1, 1), 40)
        assert enc.width <= Fraction(1, 10**6)
        assert enc.lo <= G_1_1 <= enc.hi
        assert max(enc.lo, lo) <= min(enc.hi, hi)

    def test_g_0_1(self, oracle):
        enc = eval_enclosure(CFPoint(0, 1), Fraction(1, 10**6))
        assert enc.width <= Fraction(1, 10**6)
        assert enc.lo <= G_0_1 <= enc.hi
        assert enc.hi < 1

    def test_m_zero_is_pure_reciprocal_of_tail(self):
        enc = eval_enclosure(CFPoint(0, 1), Fraction(1, 10**9))
        tail = reference_convergents(CFPoint(1, 1), enc.depth)[-2:]
        assert {enc.lo, enc.hi} == {1 / t for t in tail}

    def test_budget_exceeded_carries_best(self):
        with pytest.raises(BudgetExceededError) as exc:
            eval_enclosure(CFPoint(1, Fraction(1, 1000)), Fraction(1, 10**12), max_depth=80)
        best = exc.value.best
        assert best is not None
        assert best.lo < best.hi

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            eval_enclosure(CFPoint(1, 1), 0)

    @pytest.mark.parametrize("m", [Fraction(-1, 2), Fraction(0), Fraction(1, 3)])
    @pytest.mark.parametrize(
        "lam, tol",
        [(Fraction(1, 64), Fraction(1, 10**300)), (Fraction(1), Fraction(1, 10**1000)),
         # terms past 4 from j = 64 on, where P_n grows at the factorial rate
         (Fraction(4), Fraction(1, 10**3000))],
    )
    def test_deep_tolerance_depth_is_minimal(self, m, lam, tol):
        point = CFPoint(m, lam)
        enc = assert_one_tree_below(point, tol)
        lo, hi = reference_enclosure(point, enc.depth)
        assert (enc.lo, enc.hi) == (lo, hi)
        assert enc.width <= tol
        lo, hi = reference_enclosure(point, enc.depth - 1)
        assert hi - lo > tol

    @given(
        point=st.builds(
            CFPoint,
            st.sampled_from([Fraction(-1, 2), 0, Fraction(1, 3), 1, 5, Fraction(-999, 1000)]),
            st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=997),
        ),
        tol=st.builds(lambda k, e: Fraction(k, 10**e), st.integers(1, 9), st.integers(1, 3000)),
    )
    @example(point=CFPoint(0, 4), tol=Fraction(1, 10**3000))
    @example(point=CFPoint(Fraction(1, 3), Fraction(1, 64)), tol=Fraction(1, 10**3000))
    # explicit exact mode at small lam and large m: the model's start lies 2
    # above the minimal depth (287 and 31 for 285 and 29)
    @example(point=CFPoint(10**4, Fraction(100, 10000019)), tol=Fraction(1, 10**12))
    @example(point=CFPoint(10**4, Fraction(1000, 10000019)), tol=Fraction(1, 10**12))
    @settings(max_examples=60, deadline=None)
    def test_deep_prediction_at_or_just_below_the_depth(self, point, tol):
        # the model's start overshoots by at most 2, so the tree, 1 below it,
        # is built once and never rebuilt from a halved start: at most two
        # exact steps back reach the depth
        assert_one_tree_below(point, tol)

    @given(point=wide_points, tol=wide_tols, max_depth=depth_caps)
    @with_examples(EXACT_EXAMPLES)
    @settings(max_examples=300, deadline=None)
    def test_matches_running_product_reference(self, point, tol, max_depth):
        got = exact_outcome(eval_enclosure, point, tol, max_depth=max_depth)
        want = exact_outcome(reference_eval_enclosure, point, tol, max_depth=max_depth)
        assert got == want

    @pytest.mark.parametrize("start", ["one", -7, 7, "max_depth"])
    @pytest.mark.parametrize("point, tol, max_depth", EXACT_EXAMPLES)
    def test_prediction_only_places_the_test(self, monkeypatch, point, tol, max_depth, start):
        # the exact test settles the depth from any start in [1, max_depth]
        want = exact_outcome(eval_enclosure, point, tol, max_depth=max_depth)
        n = (want if isinstance(want, Enclosure) else want[1]).depth
        guess = {"one": 1, "max_depth": max_depth}.get(start) or min(max(n + start, 1), max_depth)
        monkeypatch.setattr(cf_core, "_depth_model", lambda *args: guess)
        assert exact_outcome(eval_enclosure, point, tol, max_depth=max_depth) == want

    @pytest.mark.parametrize(
        "point, tol, depth",
        [
            # lam overflows a float: the start is 1, where it is met
            (CFPoint(1, 10**400), Fraction(1, 10**30), 1),
            # m + 1 = 1e-400 is 0.0 as a float, but the model takes m + 3/2,
            # one rounding from integers, and starts at the depth itself
            (CFPoint(-1 + Fraction(1, 10**400), 1), Fraction(1, 10**30), 18),
        ],
    )
    def test_prediction_lost_in_floats(self, point, tol, depth):
        assert _depth_model(point, tol, DEFAULT_MAX_DEPTH) == depth
        enc = eval_enclosure(point, tol)
        assert enc == reference_eval_enclosure(point, tol)
        assert enc.depth == depth

    @pytest.mark.parametrize(
        "point, tol, near",
        [
            # x = 10 or 4 from the first term on, with lam * lam 0.0 or
            # subnormal: n * lam is far below x0's float resolution
            (CFPoint(10**201, Fraction(1, 10**200)), Fraction(1, 10**300), True),
            (CFPoint(2**1000, Fraction(1, 2**998)), Fraction(1, 10**300), True),
            (CFPoint(4 * 10**160, Fraction(1, 10**160)), Fraction(1, 10**300), True),
            # lam * lam and x_0 * x_1 are inf: the integrand is 2 ln(lam * y)
            (CFPoint(0, 2**600), Fraction(1, 2**100000), True),
            # huge m: m + 3/2 + n is m + 3/2 as a float
            (CFPoint(10**15, Fraction(1, 10**14)), Fraction(1, 10**300), True),
            (CFPoint(10**300, 1), Fraction(1, 10**300), True),
            # lam near 2**1024: the log form, or lam itself overflows (start 1)
            (CFPoint(1, 2**1023), Fraction(1, 10**300), True),
            (CFPoint(-1 + Fraction(1, 2**60), 2**1024 - 2**970), Fraction(1, 10**300), True),
            (CFPoint(0, 2**1000), Fraction(1, 2**400000), True),
            # m + 3/2 + n is not one float
            (CFPoint(10**20, Fraction(1, 10**19)), Fraction(1, 10**3000), True),
            # x = 2**400 from the first term, with lam**-2 = 2**1000
            (CFPoint(2**900, Fraction(1, 2**500)), Fraction(1, 2**20000), True),
        ],
    )
    def test_prediction_at_float_edges(self, point, tol, near):
        for max_depth in (1, 64, 65, DEFAULT_MAX_DEPTH):
            assert 1 <= _depth_model(point, tol, max_depth) <= max_depth
        if near:
            assert_one_tree_below(point, tol)

    def test_prediction_lost_in_floats_out_of_budget(self):
        # lam = 1e-400 is 0.0 as a float: the start is the budget, 50, and the
        # exact test steps there from the tree 1 below it
        point = CFPoint(0, Fraction(1, 10**400))
        assert _depth_model(point, DEFAULT_TOL, 50) == 50
        with pytest.raises(BudgetExceededError) as exc:
            evaluate(point, mode="exact", max_depth=50)
        best = exc.value.best
        assert best.depth == 50
        assert (best.lo, best.hi) == reference_enclosure(point, 50)

    @given(
        x=st.integers(1, 2**3500),
        # dd above 64 bits is cut too; n * bitlen(dd) on both sides of _BOUND_BITS
        dd=st.one_of(st.integers(1, 2**24), st.integers(2**60, 2**80)),
        n=st.one_of(st.integers(0, 64), st.integers(0, 3000)),
        pp=st.integers(1, 2**300),
        tn=st.integers(1, 2**70),
        delta=st.integers(-4, 4),
        shift=st.integers(-3, 3),
    )
    @example(x=1, dd=1, n=0, pp=1, tn=1, delta=0, shift=0)
    @example(x=2**100, dd=1, n=0, pp=1, tn=1, delta=-1, shift=0)
    # n * bitlen(dd) at _BOUND_BITS and one step below it, each side tied
    @example(x=3, dd=2**63 + 1, n=_BOUND_BITS // 64, pp=7, tn=1, delta=0, shift=0)
    @example(x=3, dd=2**63 + 1, n=_BOUND_BITS // 64 - 1, pp=7, tn=1, delta=0, shift=0)
    @example(x=3, dd=997**2, n=3000, pp=2**300, tn=5, delta=1, shift=0)
    @example(x=3, dd=997**2, n=3000, pp=2**300, tn=5, delta=-1, shift=0)
    @settings(max_examples=200, deadline=None)
    def test_meets_is_the_exact_comparison(self, x, dd, n, pp, tn, delta, shift):
        # p * pp * tn at, within 4 * pp * tn of, and a few bits either side of
        # x * dd**n: with delta alone the bounds overlap, and the exact
        # comparison decides
        rhs = x * dd**n
        p = max((rhs << shift if shift >= 0 else rhs >> -shift) + delta, 1)
        x *= pp * tn
        assert _meets(p, pp, tn, x, dd, n) == (p * pp * tn >= x * dd**n)

    @given(
        left=st.lists(st.integers(1, 2**400), min_size=1, max_size=3),
        right=st.lists(st.integers(1, 2**400), min_size=1, max_size=3),
        dd=st.one_of(st.just(1), st.integers(1, 2**80)),
        n=st.one_of(st.just(0), st.integers(0, 80)),
        tie=st.booleans(),
        delta=st.integers(-4, 4),
    )
    @example(left=[6, 2**200], right=[3, 2**201], dd=1, n=0, tie=False, delta=0)
    @example(left=[6, 2**200], right=[3, 2**201 + 1], dd=1, n=0, tie=False, delta=0)
    @settings(max_examples=200, deadline=None)
    def test_product_ge_is_the_exact_comparison(self, left, right, dd, n, tie, delta):
        # with tie, the last left factor puts the sides level or within
        # delta times the other left factors of each other, where the
        # bounds overlap and the exact products decide
        rhs = prod(right) * dd**n
        if tie:
            left[-1] = max(rhs // prod(left[:-1]) + delta, 1)
        assert _product_ge(tuple(left), tuple(right), dd, n) == (prod(left) >= rhs)

    @given(
        point=wide_points,
        depth=st.one_of(
            st.sampled_from([0, 1, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF]),
            st.integers(0, 3000),
        ),
    )
    @example(point=CFPoint(Fraction(1, 3), Fraction(192, 997)), depth=2 * _LEAF + 1)
    @example(point=CFPoint(Fraction(1, 3), Fraction(192, 997)), depth=3000)
    @settings(max_examples=60, deadline=None)
    def test_step_product_matches_walk(self, point, depth):
        # the product tree's tail pair is the walk's, integer for integer
        m, lam = point.m, point.lam
        args = (m.numerator + m.denominator, m.denominator, lam.numerator, lam.denominator)
        _, *want = next(islice(kernel_scaled_convergents(*args), depth, None))
        assert list(_step_product(*_terms(*args), 0, depth + 1)) == want

    @given(point=wide_points, max_depth=depth_caps)
    @example(point=CFPoint(0, 1), max_depth=DEFAULT_MAX_DEPTH)
    # the depth-1 pair of G(0, 1), [2/3, 1], touches 1: undecided at max_depth 1
    @example(point=CFPoint(0, 1), max_depth=1)
    # G(0, 2) <= 1/2 from the depth-0 convergent: returned with the depth-1 pair
    @example(point=CFPoint(0, 2), max_depth=1)
    @example(point=CFPoint(0, 2), max_depth=DEFAULT_MAX_DEPTH)
    @example(point=CFPoint(Fraction(-1, 4), Fraction(5, 16)), max_depth=DEFAULT_MAX_DEPTH)
    @example(point=CFPoint(1, Fraction(39, 8)), max_depth=DEFAULT_MAX_DEPTH)
    # gcd(m.den, lam.num) > 1, which the recurrence divides out of its scale
    @example(point=CFPoint(Fraction(1, 3), Fraction(192, 997)), max_depth=DEFAULT_MAX_DEPTH)
    @example(point=CFPoint(Fraction(-1, 2), Fraction(80, 997)), max_depth=DEFAULT_MAX_DEPTH)
    @example(point=CFPoint(Fraction(1, 3), Fraction(300, 997)), max_depth=DEFAULT_MAX_DEPTH)
    # G(1/2, 1/4) = coth(8), 2.3e-7 above 1: undecided when the walk ends at
    # max_depth 5, after steps from both sides; decided from depth 12 on
    @example(point=CFPoint(Fraction(1, 2), Fraction(1, 4)), max_depth=5)
    @example(point=CFPoint(Fraction(1, 2), Fraction(1, 4)), max_depth=DEFAULT_MAX_DEPTH)
    @settings(max_examples=300, deadline=None)
    def test_side_of_one_matches_pair_reference(self, point, max_depth):
        m, lam = point.m, point.lam
        args = (m.numerator, m.denominator, lam.numerator, lam.denominator, max_depth)
        # the kernel and the reference work at different scales: compare ratios
        side, (n, p, q, pp, qq) = _side_of_one(*args)
        ref_side, (ref_n, rp, rq, rpp, rqq) = reference_side_of_one(*args)
        assert (side, n) == (ref_side, ref_n)
        assert (Fraction(p, q), Fraction(pp, qq)) == (Fraction(rp, rq), Fraction(rpp, rqq))
        # the walk's pair is the product tree's, integer for integer, and an
        # undecided walk stops exactly at its budget
        terms = _terms(m.numerator + m.denominator, m.denominator, lam.numerator, lam.denominator)
        assert (p, q, pp, qq) == _step_product(*terms, 0, n + 1)
        assert n >= 1 and (side != 0 or n == max_depth)

    @given(point=points)
    @settings(max_examples=30, deadline=None)
    def test_contains_reference_interval(self, point):
        enc = eval_enclosure(point, Fraction(1, 10**8))
        lo, hi = reference_enclosure(point, 60)
        assert max(enc.lo, lo) <= min(enc.hi, hi)

    @given(point=points)
    @settings(max_examples=25, deadline=None)
    def test_nesting_in_tolerance(self, point):
        wide = eval_enclosure(point, Fraction(1, 10**4))
        narrow = eval_enclosure(point, Fraction(1, 10**9))
        assert wide.encloses(narrow)

    @given(point=points)
    @settings(max_examples=25, deadline=None)
    def test_shift_identity_intersection(self, point):
        tol = Fraction(1, 10**8)
        direct = eval_enclosure(point, tol)
        tail = eval_enclosure(point.shifted(), tol)
        x0 = point.m * point.lam
        lo, hi = x0 + 1 / tail.hi, x0 + 1 / tail.lo
        assert max(direct.lo, lo) <= min(direct.hi, hi)


@st.composite
def tail_points(draw):
    """m with the denominators used across the tests, lam with denominator 997,
    64 or 81, and lam's numerator times m's denominator half the time.  Powers
    of 2 and 3 then repeat in the tail pairs, so _reduced runs several rounds."""
    b = draw(st.sampled_from([1, 2, 3, 997, 999999999989]))
    m = Fraction(draw(st.integers(-b + 1, 5 * b)), b)
    d = draw(st.sampled_from([997, 64, 81]))
    c = draw(st.integers(1, 4 * d)) * (m.denominator if draw(st.booleans()) else 1)
    return CFPoint(m, Fraction(c, d))


class TestFromTail:
    """_from_tail reduces each end without a wide gcd, to the lowest terms
    that Fraction(ac*p + bd*q, bd*p) gives."""

    @given(point=tail_points(), depth=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_swapped_tail_ends_are_rejected(self, point, depth):
        # _from_tail builds its enclosure without Enclosure.__new__, so it
        # must run the order check itself: swapped ends map to lo > hi
        m, lam = point.m, point.lam
        terms = _terms(m.numerator + m.denominator, m.denominator, lam.numerator, lam.denominator)
        p, q, pp, qq = _step_product(*terms, 0, depth + 1)
        ends = ((p, q), (pp, qq)) if depth % 2 == 0 else ((pp, qq), (p, q))
        enc = _from_tail(point, *ends, depth, EvalMode.EXACT)
        assert enc.lo < enc.hi
        for mode in EvalMode:
            with pytest.raises(ValueError, match="malformed enclosure: .* > "):
                _from_tail(point, ends[1], ends[0], depth, mode)

    @staticmethod
    def assert_lowest_terms(point, t_lo, t_hi, mode):
        m, lam = point.m, point.lam
        ac, bd = m.numerator * lam.numerator, m.denominator * lam.denominator
        enc = _from_tail(point, t_lo, t_hi, 0, mode)
        for got, (p, q) in ((enc.lo, t_hi), (enc.hi, t_lo)):
            want = Fraction(ac * p + bd * q, bd * p)
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @given(point=tail_points(), depth=st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_exact_tail_pairs(self, point, depth):
        m, lam = point.m, point.lam
        pairs = kernel_scaled_convergents(
            m.numerator + m.denominator, m.denominator, lam.numerator, lam.denominator
        )
        n, p, q, pp, qq = next(islice(pairs, depth, None))
        # even tail convergents are lower bounds, odd ones upper bounds
        ends = ((p, q), (pp, qq)) if n % 2 == 0 else ((pp, qq), (p, q))
        self.assert_lowest_terms(point, *ends, EvalMode.EXACT)

    @given(point=tail_points(), depth=st.integers(0, 200), bits=st.integers(128, 1100))
    @settings(max_examples=100, deadline=None)
    def test_directed_ends(self, point, depth, bits):
        shift = point.shifted()
        a, b = shift.m.numerator, shift.m.denominator
        c, d = point.lam.numerator, point.lam.denominator
        lo, hi, scale = _directed_tail(a, b, c, b * d, depth, bits)
        self.assert_lowest_terms(point, (lo, scale), (hi, scale), EvalMode.DIRECTED)

    @given(
        point=tail_points(),
        ends=st.lists(
            st.builds(Fraction, st.integers(1, 2**300), st.integers(1, 2**300)),
            min_size=2, max_size=2,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_coprime_ends(self, point, ends):
        # bounds.check_functional_equation passes the (num, den) of Fractions
        t_lo, t_hi = sorted(ends)
        self.assert_lowest_terms(
            point, t_lo.as_integer_ratio(), t_hi.as_integer_ratio(), EvalMode.EXACT
        )

    def test_no_wide_gcd_in_deep_evaluation(self, monkeypatch):
        # gcd(3, 600) = 3 at m + 1 = 4/3; the ends are about 8k bits wide
        point, tol = CFPoint(Fraction(1, 3), Fraction(600, 997)), Fraction(1, 10**2000)
        want = reference_eval_enclosure(point, tol)
        calls = []

        def recording_gcd(*args):
            calls.append(args)
            return gcd(*args)  # bound before the patch: the original

        monkeypatch.setattr(math, "gcd", recording_gcd)  # the gcd that fractions calls
        got = eval_enclosure(point, tol)
        monkeypatch.undo()
        assert all(min(abs(x).bit_length() for x in args) <= 64 for args in calls)
        assert (got.lo.numerator, got.lo.denominator, got.hi.numerator, got.hi.denominator,
                got.depth) == (want.lo.numerator, want.lo.denominator, want.hi.numerator,
                               want.hi.denominator, want.depth)


@contextmanager
def int_str_digits(limit):
    """Run the block with sys.set_int_max_str_digits(limit)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def outcome(fn, *args):
    """What fn(*args) gives or raises, in a form that compares by value and type."""
    try:
        value = fn(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    if isinstance(value, Fraction):
        return type(value), value.numerator, value.denominator
    if isinstance(value, float):
        return float, value.hex()  # a nan compares equal to itself here
    return type(value), value


def observed(x, others):
    """Everything a caller can see of the Fraction x: its own protocols, and
    arithmetic and comparisons both ways with each of ``others``."""
    seen = [outcome(f, x) for f in (
        type, hash, repr, str, float, int, round, abs, operator.neg, bool,
        lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy)]
    seen += [outcome(lambda v: v == x, f(x)) for f in (copy.copy, copy.deepcopy)]
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
           operator.mod, operator.lt, operator.le, operator.eq, operator.ne, operator.gt,
           operator.ge)
    seen += [outcome(op, *args) for y in others for op in ops for args in ((x, y), (y, x))]
    return seen


@st.composite
def coprime_pairs(draw):
    """(num, den) in lowest terms with den > 0, each 1 to 20000 bits, signed num."""
    def sized(bits):
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1))

    num, den = sized(draw(st.integers(1, 20000))), sized(draw(st.integers(1, 20000)))
    g = gcd(num, den)
    return draw(st.sampled_from([1, -1])) * (num // g), den // g


class TestCoprime:
    """_coprime builds its Fraction without Fraction.__new__; nothing a caller
    can do tells it apart from Fraction(num, den)."""

    @given(
        pair=coprime_pairs(),
        y_int=st.integers(-(2**70), 2**70),
        y_frac=st.fractions(max_denominator=10**30),
        y_float=st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(pair=(-1, 1), y_int=0, y_frac=Fraction(-1), y_float=-0.0)
    @example(pair=(2**20000 - 1, 1), y_int=1, y_frac=Fraction(1, 3), y_float=1e308)
    @example(pair=(-(3**12000), 2**19000), y_int=-7, y_frac=Fraction(5, 7), y_float=5e-324)
    @settings(max_examples=60, deadline=None)
    def test_indistinguishable_from_fraction(self, pair, y_int, y_frac, y_float):
        # caught: a helper that builds a Fraction subclass, or swaps the slots
        others = (y_int, y_frac, y_float)
        # repr, str and pickle of ends past 4300 digits raise by default
        for limit in (0, sys.get_int_max_str_digits()):
            with int_str_digits(limit):
                assert observed(_coprime(*pair), others) == observed(Fraction(*pair), others)


class TestEvalDirected:
    def test_agrees_with_exact_on_1_1(self):
        exact = eval_enclosure(CFPoint(1, 1), Fraction(1, 10**9))
        directed = eval_directed(CFPoint(1, 1), Fraction(1, 10**9))
        assert directed.mode is EvalMode.DIRECTED
        assert max(exact.lo, directed.lo) <= min(exact.hi, directed.hi)

    def test_deep_small_lambda_near_one(self):
        enc = eval_directed(CFPoint(1, Fraction(1, 1000)), Fraction(1, 10**4))
        assert enc.width <= Fraction(1, 10**4)
        assert abs(enc.midpoint - 1) < Fraction(1, 100)

    def test_m_zero_small_lambda_below_one(self):
        enc = eval_directed(CFPoint(0, Fraction(1, 100)), Fraction(1, 10**4))
        assert enc.hi < 1

    def test_not_converged_carries_best(self):
        with pytest.raises(NotConvergedError) as exc:
            eval_directed(CFPoint(1, Fraction(1, 1000)), Fraction(1, 10**9), max_depth=50)
        best = exc.value.best
        assert best is not None
        assert best.lo < best.hi

    def test_first_term_far_below_default_precision(self):
        # the first tail term (m + 1) * lam = 10**-55 lies far below 2**-bits,
        # but it is a normal double in the float stage and the exact integer
        # u_0 << bits at the integer stage's scale D * 2**bits, so the
        # precision worked out from tol still gives a valid enclosure
        point = CFPoint(Fraction(-1) + Fraction(1, 10**50), Fraction(1, 10**5))
        tol = Fraction(1, 10**3)
        enc = eval_directed(point, tol)
        ref = reference_eval_enclosure(point, tol)
        assert enc.width <= tol and ref.width <= tol
        assert max(enc.lo, ref.lo) <= min(enc.hi, ref.hi)

    @given(point=points)
    @settings(max_examples=20, deadline=None)
    def test_mode_consistency(self, point):
        tol = Fraction(1, 10**8)
        exact = eval_enclosure(point, tol)
        directed = eval_directed(point, tol)
        assert max(exact.lo, directed.lo) <= min(exact.hi, directed.hi)

    @given(point=small_lam_points)
    @settings(max_examples=20, deadline=None)
    def test_mode_consistency_below_cutoff(self, point):
        tol = Fraction(1, 10**8)
        exact = eval_enclosure(point, tol)
        directed = eval_directed(point, tol)
        assert max(exact.lo, directed.lo) <= min(exact.hi, directed.hi)
        assert directed.width <= tol

    @given(point=st.one_of(points, small_lam_points),
           tol=st.builds(lambda e: Fraction(1, 10**e), st.integers(1, 300)))
    # above the cutoff the first pass starts at the exact depth
    @example(point=CFPoint(Fraction(1, 3), 1), tol=Fraction(1, 10**100))
    @example(point=CFPoint(0, Fraction(1, 2)), tol=Fraction(1, 10**1000))
    @example(point=CFPoint(2, 4), tol=Fraction(1, 10**300))
    @settings(max_examples=40, deadline=None)
    def test_rebuilds_from_its_own_tol_and_depth(self, point, tol):
        enc = eval_directed(point, tol)
        assert enc.tol == tol
        assert eval_directed(point, enc.tol, max_depth=enc.depth) == enc

    @pytest.mark.parametrize(
        "point, tol, depth",
        [
            # _depth_model starts each at the exact depth, which one pass meets
            (CFPoint(Fraction(1, 3), 1), Fraction(1, 10**100), 41),
            (CFPoint(0, Fraction(1, 2)), Fraction(1, 10**1000), 288),
            (CFPoint(2, 4), Fraction(1, 10**300), 72),
        ],
    )
    def test_one_pass_at_the_exact_depth_above_the_cutoff(self, monkeypatch, point, tol, depth):
        passes = []
        original = cf_core._directed_tail
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or original(*args))
        assert eval_directed(point, tol).depth == depth == eval_enclosure(point, tol).depth
        assert passes == [depth] == [_depth_model(point, tol, DEFAULT_MAX_DEPTH)]

    def test_depth_tracks_tolerance(self):
        # the minimal sufficient depth here is 238
        tol = Fraction(1, 10**12)
        enc = eval_directed(CFPoint(1, Fraction(1, 1000)), tol)
        assert enc.width <= tol
        assert enc.depth <= 280

    def test_tiny_lambda_tight_tol_single_pass(self):
        # minimal sufficient depth ~3750; one pass runs, not far past it
        tol = Fraction(1, 10**30)
        enc = eval_directed(CFPoint(1, Fraction(1, 10**5)), tol)
        assert enc.width <= tol
        assert enc.depth <= 4100 < DEFAULT_MAX_DEPTH

    @pytest.mark.parametrize("lam", [Fraction(1, 10**6), Fraction(1, 10**7)])
    @pytest.mark.parametrize("tol", ["lam * 2**-26", Fraction(1, 10**30)])
    def test_single_pass_below_1e_5(self, monkeypatch, lam, tol):
        # below lam = 1e-5 the float stage's rounding outgrows the model's
        # margin: without _rounding_steps a second pass ran (8150 then 8153
        # at lam = 1e-6, 26654 then 26687 at 1e-7, tol = lam * 2**-26)
        tol = lam / 2**26 if tol == "lam * 2**-26" else tol
        passes = []
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or _directed_tail(*args))
        for m in (Fraction(4194303, 8388608), Fraction(1, 3)):
            passes.clear()
            point = CFPoint(m, lam)
            depth = eval_directed(point, tol, max_depth=10**5).depth
            start = _depth_model(point, tol, 10**5)
            assert passes == [depth] and start < depth <= least_single_pass(point, tol, depth) + 3

    def test_rounding_steps_add_nothing_from_the_cutoff_up(self):
        # there x_h >= lam*ya >= 2**-7, so the rounding's share of the log
        # width stays under one step (see _rounding_steps)
        for m in (Fraction(-999, 1000), 0, Fraction(1, 2), 10**6):
            for lam in (DIRECTED_LAMBDA_CUTOFF, Fraction(1, 2), 1000):
                for e in (11, 12, 30, 300):
                    point, tol = CFPoint(m, lam), Fraction(1, 10**e)
                    for depth in (1, _depth_model(point, tol, DEFAULT_MAX_DEPTH)):
                        assert _rounding_steps(point, tol, depth) == 0

    def test_single_pass_across_small_lam_sweep(self, monkeypatch):
        # small-lam-sweep's range: lam = k/10000019 log-spaced in [1e-5, 1/65],
        # with its m values and large m, where the terms start far above lam.
        # A second pass would show up in the bench's depth_sum, a long first
        # one in its time
        ks = [round(101 * (153846 / 101) ** (i / 24)) for i in range(25)]
        lams = [Fraction(k, 10000019) for k in ks]
        assert Fraction(1, 10**5) <= lams[0] and lams[-1] <= Fraction(1, 65)
        tols = [Fraction(1, 10**e) for e in range(3, 31, 3)]
        passes = []
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or _directed_tail(*args))
        misses = []
        for m in (Fraction(-1, 2), 0, Fraction(1, 3), 1, 5, 100, 10**4, 10**6):
            for lam in lams:
                for tol in tols:
                    passes.clear()
                    point = CFPoint(m, lam)
                    depth = eval_directed(point, tol).depth
                    if len(passes) != 1 or depth > 1.05 * least_single_pass(point, tol, depth) + 8:
                        misses.append((m, lam, tol, list(passes)))
        assert misses == []

    @given(
        k=st.integers(10**4, 153846),
        m=st.one_of(
            st.fractions(min_value=Fraction(-1, 2), max_value=5, max_denominator=10**12),
            st.builds(lambda j, b: Fraction(j, b) - 1, st.integers(1, 6 * 10**11),
                      st.integers(10**11, 10**12)),
        ),
        e=st.integers(3, 20),
    )
    # D = b*d of 64 bits: bits is 67 + 10 + 24 - 63 = 38 at tol 1e-20 and
    # clamps to 1 at tol 1e-3; and D of 24 bits, where bits is 40 + 8 + 24 - 23
    @example(k=12345, m=Fraction(10**12 - 11, 10**12), e=20)
    @example(k=12345, m=Fraction(10**12 - 11, 10**12), e=3)
    @example(k=153846, m=Fraction(0), e=12)
    @settings(max_examples=60, deadline=None)
    def test_integer_rounding_stays_2_to_the_24_below_tol(self, k, m, e):
        # at eval_directed's own bits and depth the pass contains the exact
        # pass from the same seed, and run on integers alone its outward
        # rounding moves each end of G by at most tol / 2**24.  Caught:
        # subtracting bitlen(D) - 1 twice (the unit 1/S grows by about D) and
        # dropping the + 24 (the rounding reaches about tol)
        point, tol = CFPoint(m, Fraction(k, 10000019)), Fraction(1, 10**e)
        passes = []
        with mock.patch.object(cf_core, "_directed_tail",
                               lambda *args: passes.append(args) or _directed_tail(*args)):
            eval_directed(point, tol)
        ml = point.m * point.lam
        for args in passes:
            exact_lo, exact_hi = exact_directed_tail(*args[:-1])
            lo, hi, scale = _directed_tail(*args)
            assert Fraction(lo, scale) <= exact_lo <= exact_hi <= Fraction(hi, scale)
            with mock.patch.object(cf_core, "_NARROW", math.inf):  # no float step
                lo, hi, scale = _directed_tail(*args)
            g_lo, g_hi = ml + Fraction(scale, hi), ml + Fraction(scale, lo)
            assert 0 <= (ml + 1 / exact_hi) - g_lo <= tol / 2**24
            assert 0 <= g_hi - (ml + 1 / exact_lo) <= tol / 2**24

    def test_a_missed_pass_retries_below_twice_its_depth(self, monkeypatch):
        # a first pass at 80% of the model's start misses tol; the second runs
        # where the measured width deficit says, not at double depth.  Caught:
        # a return to doubling, and a retry too short to meet tol
        point, tol = CFPoint(Fraction(1, 3), Fraction(1, 1000)), Fraction(1, 10**30)
        monkeypatch.setattr(cf_core, "_depth_model", lambda *args: _depth_model(*args) * 4 // 5)
        passes = []
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or _directed_tail(*args))
        enc = eval_directed(point, tol)
        assert len(passes) == 2 and passes[1] < 2 * passes[0]
        assert enc.depth == passes[1] and enc.width <= tol
        assert eval_directed(point, enc.tol, max_depth=enc.depth) == enc

    def test_huge_lam_near_m_minus_one_is_one_pass(self, monkeypatch):
        # T_0 = G(m+1, lam) is about 1/lam here, so the map to G multiplies the
        # tail's rounding by about lam**2 = 2**60, which bits adds back.
        # Caught: dropping those bits (no pass meets tol, by rounding alone).
        # The start, 1, misses: the model leaves out P_0 = x_0 = 1e-11, so
        # the one pass that meets tol is the retry at the least depth, 2
        point, tol = CFPoint(Fraction(-1) + Fraction(1, 10**20), 10**9), Fraction(1, 10**10)
        passes = []
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or _directed_tail(*args))
        enc = eval_directed(point, tol)
        assert passes == [1, enc.depth] == [1, 2] and enc.width <= tol

    def test_retries_grow_where_depth_does_not_narrow(self, monkeypatch):
        # starved of precision (bits = 1), the width stops shrinking with
        # depth; each retry that falls short at least doubles the next one,
        # so the budget is reached in few passes.  Caught: retries sized by
        # the deficit alone, which step one depth at a time (about 10**4 passes)
        point, tol = CFPoint(Fraction(-1) + Fraction(1, 10**20), 10**9), Fraction(1, 10**10)
        passes = []
        monkeypatch.setattr(cf_core, "_directed_tail",
                            lambda *args: passes.append(args[4]) or _directed_tail(*args[:5], 1))
        with pytest.raises(NotConvergedError):
            eval_directed(point, tol)
        assert passes[-1] == DEFAULT_MAX_DEPTH and len(passes) <= 20

    @pytest.mark.parametrize(
        "m, k, e",
        [
            # small-lam-sweep's m values and lam = k/10000019 across its range
            (Fraction(-1, 2), 101, 30), (Fraction(1, 3), 208, 6), (Fraction(1), 431, 18),
            (Fraction(-1, 2), 1000, 3), (Fraction(1, 3), 1847, 24), (Fraction(1), 3811, 12),
            (Fraction(-1, 2), 7863, 9), (Fraction(1, 3), 16224, 27), (Fraction(1), 48766, 3),
            (Fraction(1, 3), 153846, 15),
        ],
    )
    def test_first_pass_overshoots_the_minimal_depth_by_little(self, m, k, e):
        # the minimal depth is where exact evaluation first meets tol.  Caught:
        # the margin creeping back (n/16 + 16 overshoots the deep points, a
        # constant of 16 the shallow ones)
        point, tol = CFPoint(m, Fraction(k, 10000019)), Fraction(1, 10**e)
        minimal = eval_enclosure(point, tol).depth
        assert eval_directed(point, tol).depth <= minimal * 1.05 + 8

    def test_float_stage_premises(self):
        # the outward-factor proof in _directed_tail assumes binary64 that
        # rounds to nearest
        assert sys.float_info.radix == 2
        assert sys.float_info.mant_dig == 53
        assert sys.float_info.rounds == 1

    @given(
        # dyadic b and lam make exact terms (remainder 0) that a shortcut would miss
        b=st.one_of(
            st.integers(min_value=1, max_value=10**13), st.just(2**40),
            st.integers(min_value=1, max_value=10**50),
        ),
        a_frac=st.fractions(min_value=0, max_value=6),
        lam=st.one_of(
            # small lam keeps the float stage's interval wide for many steps
            st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(1, 100),
                         max_denominator=10**12),
            st.fractions(min_value=Fraction(1, 10**5), max_value=4, max_denominator=10**12),
            st.builds(Fraction, st.integers(min_value=1, max_value=2**22), st.just(2**20)),
            # first terms from 10**-250 down to 10**-300, on both sides of the
            # float stage's range guard at 2**-900
            st.just(Fraction(1, 10**250)),
        ),
        depth=st.integers(min_value=0, max_value=300),
        bits=st.integers(min_value=26, max_value=200),
    )
    # first terms 10**-25 and 10**-55, below 2**-64 and 2**-128: the old
    # kernel rounds them to zero
    @example(b=10**13, a_frac=Fraction(0), lam=Fraction(1, 10**12), depth=30, bits=64)
    @example(b=10**50, a_frac=Fraction(0), lam=Fraction(1, 10**5), depth=200, bits=128)
    # all 1000 steps in floats: the width never falls to 2**-36 of the bound
    @example(b=3, a_frac=Fraction(4, 3), lam=Fraction(1, 10**6), depth=1000, bits=40)
    # floats, then integers: 242, 10 and 310 float steps, the last at b = 10**50
    @example(b=3, a_frac=Fraction(4, 3), lam=Fraction(1, 10**4), depth=1200, bits=40)
    @example(b=7, a_frac=Fraction(1, 2), lam=Fraction(3, 1000), depth=1000, bits=26)
    @example(b=10**50, a_frac=Fraction(0), lam=Fraction(1, 10**4), depth=1000, bits=64)
    # the range guard: first term 10**-300, no float step
    @example(b=10**50, a_frac=Fraction(0), lam=Fraction(1, 10**250), depth=40, bits=64)
    # a handover where the bounds have only about 28 bits at scale S, so a
    # handover that rounds to nearest, not outward, breaks containment
    @example(b=1, a_frac=Fraction(0), lam=Fraction(1, 10**250), depth=1, bits=26)
    @settings(max_examples=100, deadline=None)
    def test_exact_term_pass_contains_exact_pass(self, b, a_frac, lam, depth, bits):
        # shifted m = a/b lies in (0, 6], i.e. the original m in (-1, 5]
        a = max(1, int(a_frac * b))
        args = (a, b, lam.numerator, b * lam.denominator, depth, bits)
        lo, hi, scale = _directed_tail(*args)
        lo, hi = Fraction(lo, scale), Fraction(hi, scale)
        exact_lo, exact_hi = exact_directed_tail(*args[:-1])
        assert lo <= exact_lo <= exact_hi <= hi
        try:
            old_lo, old_hi = reference_directed_tail(*args)
        except AssertionError as exc:
            # the old fixed-point kernel gave up where a term rounded to zero
            assert "rounds to zero" in str(exc)
            return
        one = 1 << bits
        assert max(lo, Fraction(old_lo, one)) <= min(hi, Fraction(old_hi, one))


class TestClosedForms:
    """Half-integer m admits elementary closed forms via the shift identity."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2, 3), 1, 2])
    def test_m_half_is_coth(self, lam):
        import math

        enc = eval_enclosure(CFPoint(Fraction(1, 2), lam), Fraction(1, 10**13))
        assert abs(float(enc.midpoint) - 1 / math.tanh(2 / lam)) < 1e-12

    @pytest.mark.parametrize("lam", [Fraction(1, 2), 1, 2])
    def test_m_minus_half_is_tanh_shifted(self, lam):
        import math

        enc = eval_enclosure(CFPoint(Fraction(-1, 2), lam), Fraction(1, 10**13))
        assert abs(float(enc.midpoint) - (math.tanh(2 / lam) - lam / 2)) < 1e-12


class TestEvaluateRouting:
    def test_auto_exact_above_cutoff(self):
        assert evaluate(CFPoint(1, 1), Fraction(1, 10**6)).mode is EvalMode.EXACT

    def test_auto_directed_below_cutoff(self):
        enc = evaluate(CFPoint(1, Fraction(1, 128)), Fraction(1, 10**6))
        assert enc.mode is EvalMode.DIRECTED

    def test_explicit_modes(self):
        assert evaluate(CFPoint(1, 1), mode="directed").mode is EvalMode.DIRECTED
        assert evaluate(CFPoint(1, 1), mode="exact").mode is EvalMode.EXACT

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            evaluate(CFPoint(1, 1), mode="fast")

    @pytest.mark.parametrize("max_depth", [0, -5])
    @pytest.mark.parametrize("mode", ["exact", "directed"])
    def test_budget_below_one_rejected(self, mode, max_depth):
        with pytest.raises(DomainError, match="max_depth"):
            evaluate(CFPoint(1, Fraction(1, 100)), mode=mode, max_depth=max_depth)


class TestTightened:
    def test_uncapped_rounds_end_at_the_budget(self):
        # tol/10**k for every k until G(1, 1)'s enclosure needs more than depth 3
        rounds = list(islice(_tightened([CFPoint(1, 1)], Fraction(1, 10), 3), 9))
        assert [t for t, _ in rounds] == [Fraction(1, 10**k) for k in range(1, 5)]
        assert [enc.depth for _, (enc,) in rounds] == [1, 2, 3, 3]

    @pytest.mark.parametrize("mode, error", [("exact", BudgetExceededError),
                                             ("directed", NotConvergedError)])
    def test_best_hands_back_the_error_and_its_enclosure(self, mode, error):
        point = CFPoint(1, 1)
        enc, exc = _best(point, Fraction(1, 10**9), DEFAULT_MAX_DEPTH, mode)
        assert exc is None and enc == evaluate(point, Fraction(1, 10**9), mode=mode)
        enc, exc = _best(point, Fraction(1, 10**9), 3, mode)
        assert type(exc) is error and enc is exc.best and enc.depth == 3
