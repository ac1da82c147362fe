from __future__ import annotations

import time
from fractions import Fraction

import pytest
from conftest import reference_cross_check, reference_series_ratio
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfcert import (
    BudgetExceededError,
    CFPoint,
    DomainError,
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
        # d_den / n_den = prod (k + bot) / (k + top), which _den_ratio states in closed form
        for m in range(11):
            top, bot = _orders(m)
            for terms in range(1, 301):
                rn, rd = _den_ratio(m, terms)
                _, n_den = _horner(top, 1, 3, terms)
                _, d_den = _horner(bot, 1, 3, terms)
                assert d_den * rd == n_den * rn


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
        assert report.certified
        assert report.gap >= 0
        assert report.left.width <= Fraction(1, 10**10)
        assert report.right.width <= Fraction(1, 10**10)

    def test_grid_agreement(self):
        tol = Fraction(1, 10**10)
        for m in range(0, 9, 2):
            for lam in (Fraction(1, 4), 1, 4):
                assert cross_check(m, lam, tol).certified

    def test_accepts_width_equal_to_tol(self):
        # the first truncation at lam = 1 has 10 terms; its width is exactly tol
        tol = series_ratio(1, 1, 10).width
        report = cross_check(1, 1, tol)
        assert report.right.depth == 10
        assert report.right.width == tol

    @pytest.mark.parametrize(
        "m, max_terms",
        [(Fraction(1, 2), MAX_TERMS), (-1, MAX_TERMS), (1.5, MAX_TERMS), (True, MAX_TERMS), (1, 0)],
    )
    def test_rejects_bad_arguments_before_evaluating(self, monkeypatch, m, max_terms):
        def no_evaluate(*args, **kwargs):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(bessel_oracle, "evaluate", no_evaluate)
        with pytest.raises(DomainError, match="series oracle needs integer m|max_terms"):
            cross_check(m, 1, max_terms=max_terms)

    @pytest.mark.parametrize(
        "m, lam, tol, max_terms",
        [
            # the uncapped first truncation would sum 200008 terms
            (1, Fraction(1, 10**5), Fraction(1, 10**6), MAX_TERMS),
            # 2/lam + 8 = 136 terms, over a budget of 8
            (0, Fraction(1, 64), Fraction(1, 10**10), 8),
            (3, Fraction(1, 64), Fraction(1, 10**10), 8),
        ],
    )
    def test_no_truncation_exceeds_max_terms(self, monkeypatch, m, lam, tol, max_terms):
        seen = []
        kernel = bessel_oracle._series_bounds

        def recording(m, lam, terms):
            seen.append(terms)
            return kernel(m, lam, terms)

        monkeypatch.setattr(bessel_oracle, "_series_bounds", recording)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            cross_check(m, lam, tol, max_terms=max_terms)
        assert time.perf_counter() - start < 2
        assert info.value.best is None  # the tail is not yet bounded at max_terms
        assert seen == [max_terms]

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
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, m, lam, tol, max_terms):
        # wider first truncations are covered by test_no_truncation_exceeds_max_terms
        assume(max(8, (2 * lam.denominator) // lam.numerator + 8) <= max_terms)

        def outcome(check):
            try:
                return check(m, lam, tol, max_terms=max_terms)
            except BudgetExceededError as exc:
                return type(exc), str(exc), exc.best

        assert outcome(cross_check) == outcome(reference_cross_check)
