from __future__ import annotations

import time
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from conftest import reference_series_ratio
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcert import (
    BudgetExceededError,
    CFPoint,
    DomainError,
    Enclosure,
    EvalMode,
    TailNotBoundedError,
    bessel_oracle,
    cross_check,
    evaluate,
    series_ratio,
)
from cfcert.bessel_oracle import MAX_TERMS, _den_ratio, _horner, _orders

G_1_1 = Fraction("1.433127426722311758317183455775992")
G_0_1 = Fraction("0.6977746579640079820067905925517526")


class TestSeriesRatio:
    def test_m1_lambda1(self):
        enc = series_ratio(1, 1, 14)
        # the one enclosure type: an exact one whose depth is the truncation
        assert type(enc) is Enclosure
        assert (enc.depth, enc.mode, enc.tol) == (14, EvalMode.EXACT, None)
        assert enc.lo <= G_1_1 <= enc.hi
        cf = evaluate(CFPoint(1, 1), Fraction(1, 10**10))
        assert max(enc.lo, cf.lo) <= min(enc.hi, cf.hi)

    def test_m0_reciprocal_consistency(self):
        e0 = series_ratio(0, 1, 14)
        e1 = series_ratio(1, 1, 14)
        assert e0.lo <= G_0_1 <= e0.hi
        # reciprocal pair: the product interval must contain 1
        assert e0.lo * e1.lo <= 1 <= e0.hi * e1.hi

    def test_m3_lambda2_intersects_cf(self):
        enc = series_ratio(3, 2, 12)
        cf = evaluate(CFPoint(3, 2), Fraction(1, 10**10))
        assert max(enc.lo, cf.lo) <= min(enc.hi, cf.hi)

    def test_width_shrinks_with_terms(self):
        widths = [series_ratio(1, 1, k).width for k in (8, 12, 16, 24)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_reproducible_bit_for_bit(self):
        assert series_ratio(2, Fraction(1, 3), 20) == series_ratio(2, Fraction(1, 3), 20)

    def test_tail_not_bounded_when_truncated_too_early(self):
        # x = 2/lam = 8, so the term ratio at k = 2 is still above 1/2
        with pytest.raises(TailNotBoundedError):
            series_ratio(0, Fraction(1, 4), 2)

    @pytest.mark.parametrize("bad_m", [Fraction(1, 2), -1, 1.5, True])
    def test_rejects_non_integer_orders(self, bad_m):
        with pytest.raises(DomainError):
            series_ratio(bad_m, 1, 10)

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            series_ratio(1, 1, 0)

    @given(
        m=st.integers(min_value=0, max_value=8),
        lam=st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=1000),
        terms=st.integers(min_value=1, max_value=300),
    )
    @example(m=0, lam=Fraction(1, 4), terms=2)  # tail ratio above 1/2: both raise
    @example(m=0, lam=Fraction(1, 4), terms=3)  # still 16/(4*5) >= 1/2 at k = 3
    @example(m=1, lam=Fraction(1, 2), terms=2)  # 4/9 and 1/3: the first bounded truncation
    @example(m=3, lam=Fraction(1, 2), terms=1)  # order-2 ratio 4/(2*4) is exactly 1/2
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_reference(self, m, lam, terms):
        try:
            want = reference_series_ratio(m, lam, terms)
        except TailNotBoundedError:
            want = None
        try:
            enc = series_ratio(m, lam, terms)
            got = (enc.lo.numerator, enc.lo.denominator, enc.hi.numerator, enc.hi.denominator)
        except TailNotBoundedError:
            got = None
        if want is not None:
            want = (want[0].numerator, want[0].denominator, want[1].numerator, want[1].denominator)
        assert got == want

    def test_horner_denominator_ratio_telescopes(self):
        # d_den / n_den = prod (k + bot) / (k + top), the products of the
        # weights 3*k*(k + nu) that _horner never forms; _den_ratio states it
        # in closed form
        for m in range(11):
            top, bot = _orders(m)
            n_den = d_den = 1
            for terms in range(1, 301):
                n_den *= 3 * terms * (terms + top)
                d_den *= 3 * terms * (terms + bot)
                rn, rd = _den_ratio(m, terms)
                assert d_den * rd == n_den * rn

    @given(
        m=st.integers(min_value=0, max_value=8),
        aa=st.integers(min_value=1, max_value=10**7),
        bb=st.integers(min_value=1, max_value=10**7),
        last=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_horner_sums_both_numerators(self, m, aa, bb, last):
        # num = sum_j aa**j * w_{j+1} ... w_last with w_k = bb*k*(k + nu), for
        # each order of _orders(m); a pass continued from an earlier
        # truncation ends where the whole pass does; and one term drops:
        # num(last) - aa**last = w_last * num(last - 1)
        def num(nu, t):
            return sum(aa**j * prod(bb * k * (k + nu) for k in range(j + 1, t + 1))
                       for j in range(t + 1))

        top, bot = _orders(m)
        whole = _horner(m, aa, bb, last)
        assert whole == (last, num(top, last), num(bot, last), aa**last)
        for k in {0, last // 2, last}:
            assert _horner(m, aa, bb, last, _horner(m, aa, bb, k)) == whole
        if last:
            _, n_num, d_num, p = whole
            w = bb * last
            assert (n_num - p, d_num - p) == (
                w * (last + top) * num(top, last - 1), w * (last + bot) * num(bot, last - 1))


def test_real_order_ratio_spot_check():
    # third, fully external engine: scipy's real-order iv, float precision only
    scipy_special = pytest.importorskip("scipy.special")
    import random

    rng = random.Random(7)
    for _ in range(50):
        den = rng.randint(1, 30)
        m = Fraction(rng.randint(-den + 1, 4 * den), den)
        lam = Fraction(rng.randint(den // 8 + 1, 6 * den), den)
        enc = evaluate(CFPoint(m, lam), Fraction(1, 10**14))
        z = 2.0 / float(lam)
        ref = scipy_special.iv(float(m) - 1.0, z) / scipy_special.iv(float(m), z)
        assert abs(float(enc.midpoint) - ref) < 1e-9


class TestCrossCheck:
    @pytest.mark.parametrize(
        "m, lam", [(1, 1), (0, Fraction(1, 2)), (5, 3)]
    )
    def test_engines_intersect(self, m, lam):
        report = cross_check(m, lam, Fraction(1, 10**10))
        shared = min(report.left.hi, report.right.hi) - max(report.left.lo, report.right.lo)
        assert report.gap == shared >= 0
        assert report.left.width <= Fraction(1, 10**10)
        assert report.right.width <= Fraction(1, 10**10)

    def test_grid_agreement(self):
        tol = Fraction(1, 10**10)
        for m in range(0, 9, 2):
            for lam in (Fraction(1, 4), 1, 4):
                assert cross_check(m, lam, tol).gap >= 0

    def test_accepts_width_equal_to_tol(self):
        # the first truncation at lam = 1 has 10 terms; its width is exactly tol
        tol = series_ratio(1, 1, 10).width
        report = cross_check(1, 1, tol)
        assert report.right.depth == 10
        assert report.right.width == tol

    @pytest.mark.parametrize("m", [Fraction(1, 2), -1, 1.5, True])
    def test_rejects_bad_arguments_before_evaluating(self, monkeypatch, m):
        def no_evaluate(*args, **kwargs):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(bessel_oracle, "evaluate", no_evaluate)
        with pytest.raises(DomainError, match="series oracle needs integer m"):
            cross_check(m, 1)

    @pytest.mark.parametrize(
        "m, lam, tol, max_terms",
        [
            # the floor, about sqrt(2)/lam = 141421 terms, is over the budget
            (1, Fraction(1, 10**5), Fraction(1, 10**6), MAX_TERMS),
            # floors of 90 and 89 terms, over a budget of 8
            (0, Fraction(1, 64), Fraction(1, 10**10), 8),
            (3, Fraction(1, 64), Fraction(1, 10**10), 8),
        ],
    )
    def test_no_truncation_exceeds_max_terms(self, monkeypatch, m, lam, tol, max_terms):
        seen = []
        kernel = bessel_oracle._horner

        def recording(m, aa, bb, last, *start):
            seen.append(last)
            return kernel(m, aa, bb, last, *start)

        monkeypatch.setattr(bessel_oracle, "_horner", recording)
        start = time.perf_counter()
        with mock.patch.object(bessel_oracle, "MAX_TERMS", max_terms), \
                pytest.raises(BudgetExceededError) as info:
            cross_check(m, lam, tol)
        assert time.perf_counter() - start < 2
        assert info.value.best is None  # the tail is not yet bounded at max_terms
        assert seen == []  # nothing is summed when the floor exceeds the budget

    @given(
        m=st.integers(min_value=0, max_value=8),
        lam=st.one_of(
            st.integers(min_value=16, max_value=8 * 997).map(lambda k: Fraction(k, 997)),
            st.integers(
                min_value=999999999989 // 64 + 1, max_value=8 * 999999999989
            ).map(lambda k: Fraction(k, 999999999989)),
            st.integers(min_value=1, max_value=6).map(Fraction),
        ),
        tol=st.builds(
            lambda d, e: Fraction(d, 10**e),
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=40),
        ),
        max_terms=st.sampled_from([8, 16, 100, MAX_TERMS]),
    )
    @example(m=0, lam=Fraction(1, 4), tol=Fraction(1, 10**40), max_terms=16)  # budget, best set
    @example(m=1, lam=Fraction(1, 4), tol=Fraction(1, 10**40), max_terms=8)  # floor over budget
    @example(m=1, lam=Fraction(1), tol=Fraction(1, 10**40), max_terms=MAX_TERMS)  # 21, floor 1
    @example(m=2, lam=Fraction(16, 997), tol=Fraction(1, 10), max_terms=MAX_TERMS)  # 87, the floor
    @settings(max_examples=150, deadline=None)
    def test_accepts_the_least_passing_truncation(self, m, lam, tol, max_terms):
        def fits(terms):
            try:
                return terms >= 1 and series_ratio(m, lam, terms).width <= tol
            except TailNotBoundedError:
                return False

        passes = []
        kernel = bessel_oracle._horner

        def counting(order, aa, bb, last, *start):
            if not start:  # a pass from the first term; adding a term continues one
                passes.append(order)
            return kernel(order, aa, bb, last, *start)

        with mock.patch.object(bessel_oracle, "MAX_TERMS", max_terms), \
                mock.patch.object(bessel_oracle, "_horner", counting):
            try:
                report = cross_check(m, lam, tol)
            except BudgetExceededError as exc:
                report = exc
        if isinstance(report, BudgetExceededError):
            # as before: nothing within the budget fits, and best is the
            # truncation at the budget once its tail is bounded
            assert str(report) == f"series width did not reach tol within {max_terms} terms"
            assert not fits(max_terms)
            try:
                want = series_ratio(m, lam, max_terms)
            except TailNotBoundedError:
                want = None
            assert report.best == want
            assert passes == ([] if want is None else [m])
            return
        n = report.right.depth
        assert n <= max_terms
        assert fits(n) and not fits(n - 1)
        # one Horner pass over both series, whatever the float estimate was
        assert passes == [m]
        enc = series_ratio(m, lam, n)
        assert report.right == enc
        assert (enc.lo, enc.hi) == reference_series_ratio(m, lam, n)
        assert report.left == evaluate(CFPoint(m, lam), tol)
        shared = min(report.left.hi, report.right.hi) - max(report.left.lo, report.right.lo)
        assert report.gap == shared >= 0

    @pytest.mark.parametrize("guess", ["floor", "floor + 40", "budget"])
    @pytest.mark.parametrize(
        "m, lam, tol",
        [(1, Fraction(1), Fraction(1, 10**40)), (0, Fraction(30, 997), Fraction(1, 10**14)),
         (5, Fraction(45, 997), Fraction(1, 10**19)), (2, Fraction(1, 100), Fraction(1, 10**6))],
    )
    def test_estimate_only_places_the_pass(self, monkeypatch, m, lam, tol, guess):
        want = cross_check(m, lam, tol)
        steer = {
            "floor": lambda lo, hi: lo,
            "floor + 40": lambda lo, hi: min(lo + 40, hi),
            "budget": lambda lo, hi: hi,
        }[guess]
        monkeypatch.setattr(
            bessel_oracle, "_predicted_terms", lambda m, a, b, tol, g, lo, hi: steer(lo, hi)
        )
        with mock.patch.object(bessel_oracle, "MAX_TERMS", 400):
            assert cross_check(m, lam, tol) == want
