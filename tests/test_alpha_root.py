from __future__ import annotations

import math
from fractions import Fraction

import pytest
from conftest import (
    reference_classify_vs_one,
    reference_enclosure,
    reference_find_alpha,
    reference_side_of_one,
    reference_walk_classify_vs_one,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.alpha_root as alpha_root
import cfcert.cf_core as cf_core
from cfcert import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_SETTINGS,
    AlphaResult,
    BudgetExceededError,
    CFCertError,
    CFPoint,
    DomainError,
    EvalSettings,
    InconclusiveError,
    NotConvergedError,
    alpha_curve,
    classify_vs_one,
    evaluate,
    find_alpha,
)
from cfcert.alpha_root import FLAG_BUDGET, FLAG_INCONCLUSIVE
from cfcert.cf_core import _side_of_one

BRACKET_TOL = Fraction(1, 10**6)
G_TOL = Fraction(1, 10**6)

# regression pins from certified bisection runs (bracket width 2.4e-7)
ALPHA_1 = Fraction("0.4496256")
ALPHA_HALF = Fraction("0.4977292")
ALPHA_2 = Fraction("0.3250891")


def test_lambda_one_bracket():
    res = find_alpha(1, BRACKET_TOL, G_TOL)
    assert res.flag is None
    assert 0 < res.m_lo < res.m_hi < 1
    assert res.width <= BRACKET_TOL
    assert res.m_lo < ALPHA_1 < res.m_hi
    # endpoints re-certify to the stored directions
    lo_enc = evaluate(CFPoint(res.m_lo, res.lam), Fraction(1, 10**9))
    hi_enc = evaluate(CFPoint(res.m_hi, res.lam), Fraction(1, 10**9))
    assert lo_enc.hi < 1
    assert hi_enc.lo > 1


def test_lambda_one_initial_anchors():
    # the bisection start is a genuine sign change: G(0,1) < 1 < G(1,1)
    g0 = evaluate(CFPoint(0, 1), Fraction(1, 10**9))
    g1 = evaluate(CFPoint(1, 1), Fraction(1, 10**9))
    assert g0.hi < 1 < g1.lo
    assert abs(g0.midpoint - Fraction("0.6977747")) < Fraction(1, 10**6)
    assert abs(g1.midpoint - Fraction("1.4331274")) < Fraction(1, 10**6)


def test_midpoint_g_near_one():
    res = find_alpha(1, BRACKET_TOL, G_TOL)
    g = res.g_at_mid
    near = min(abs(g.lo - 1), abs(g.hi - 1)) <= G_TOL
    assert g.contains(1) or near


@pytest.mark.parametrize(
    "lam, pin", [(Fraction(1, 2), ALPHA_HALF), (1, ALPHA_1), (2, ALPHA_2)]
)
def test_known_crossings(lam, pin):
    res = find_alpha(lam, BRACKET_TOL, G_TOL)
    assert res.m_lo < pin < res.m_hi


def test_each_step_halves():
    res = find_alpha(1, BRACKET_TOL, G_TOL)
    assert res.width == Fraction(1, 2**res.iterations)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        find_alpha(0)
    with pytest.raises(DomainError):
        find_alpha(1, bracket_tol=0)


def test_classify_sides():
    side, enc = classify_vs_one(CFPoint(Fraction(1, 10), 1), Fraction(1, 10**6))
    assert side == -1 and enc.hi < 1
    side, enc = classify_vs_one(CFPoint(1, 1), Fraction(1, 10**6))
    assert side == 1 and enc.lo > 1


def test_classify_survives_budget_cap():
    # too little depth to converge at tiny lam; the best rigorous enclosure
    # straddles 1, so the verdict is straddle rather than an exception
    settings = EvalSettings(max_depth=64)
    side, enc = classify_vs_one(
        CFPoint(Fraction(1, 2), Fraction(1, 10**6)), Fraction(1, 10**9),
        settings=settings,
    )
    assert side == 0
    assert enc.lo <= 1 <= enc.hi


def test_budget_capped_anchor_is_inconclusive():
    with pytest.raises(InconclusiveError):
        find_alpha(Fraction(1, 10**6), settings=EvalSettings(max_depth=64))


# lam = k / den: a small and a large prime denominator
LAM_DENS = (997, 999999999989)


@st.composite
def exact_lams(draw):
    """lam in [1/64, 4], routed to exact mode."""
    den = draw(st.sampled_from(LAM_DENS))
    return Fraction(draw(st.integers(-(-den // 64), 4 * den)), den)


@st.composite
def directed_lams(draw):
    """lam just below 1/64, routed to directed mode."""
    den = draw(st.sampled_from(LAM_DENS))
    return Fraction(draw(st.integers(den // 64 - 2, den // 64)), den)


def decimal_tols(lo_exp, hi_exp):
    return st.builds(
        lambda k, e: Fraction(k, 10**e), st.integers(1, 9), st.integers(lo_exp, hi_exp)
    )


def outcome(fn, *args, **kwargs):
    """The result, or the error's type, message and attached enclosure."""
    try:
        return fn(*args, **kwargs)
    except CFCertError as exc:
        return type(exc), str(exc), getattr(exc, "left", None)


def assert_matches_reference(lam, bracket_tol, g_tol, *, settings=None, max_iterations=256):
    """find_alpha against the 8-round reference, which gives up where G is near 1.

    Wherever the reference is not flagged inconclusive, the results are
    equal.  Where it is, at an exact-routed lam, find_alpha walks on from the
    same path: its bracket nests in the reference's, its ends re-certify at
    max_depth, and it stops unflagged, at max_iterations, or at a midpoint
    still undecided at max_depth.  At every exact-routed lam the result is
    the one bisection from (0, 1) by walks to max_depth returns.
    """
    kwargs = dict(settings=settings, max_iterations=max_iterations)
    got = outcome(find_alpha, lam, bracket_tol, g_tol, **kwargs)
    want = outcome(reference_find_alpha, lam, bracket_tol, g_tol, **kwargs)
    s = settings or DEFAULT_SETTINGS
    lam = Fraction(lam)
    exact = lam >= s.directed_cutoff  # directed-routed lams keep the 8 rounds
    if exact:
        walked = outcome(reference_find_alpha, lam, bracket_tol, g_tol, **kwargs,
                         classify=reference_walk_classify_vs_one)
        assert got == walked
    if exact and isinstance(want, AlphaResult) and want.flag == FLAG_INCONCLUSIVE:
        lo, hi, steps = want.m_lo, want.m_hi, want.iterations
    elif exact and isinstance(want, tuple) and want[0] is InconclusiveError:  # an anchor
        lo, hi, steps = Fraction(0), Fraction(1), 0
    else:
        assert got == want
        return
    depth = max(s.max_depth, 1)
    if isinstance(got, tuple):  # the anchor is undecided at max_depth too
        assert got[:2] == want[:2]
        assert got[2].depth == depth and got[2].contains(1)
        return
    assert got.iterations >= steps and lo <= got.m_lo < got.m_hi <= hi
    c, d = lam.numerator, lam.denominator
    assert reference_side_of_one(got.m_lo.numerator, got.m_lo.denominator, c, d, depth)[0] == -1
    assert reference_side_of_one(got.m_hi.numerator, got.m_hi.denominator, c, d, depth)[0] == 1
    if got.flag == FLAG_INCONCLUSIVE:
        g_lo, g_hi = reference_enclosure(CFPoint(got.midpoint, lam), depth)
        assert g_lo <= 1 <= g_hi
    else:
        assert got.flag is None or (got.flag, got.iterations) == (FLAG_BUDGET, max_iterations)
    try:
        g_mid = evaluate(CFPoint(got.midpoint, lam), g_tol, settings=settings)
    except (BudgetExceededError, NotConvergedError) as exc:
        g_mid = exc.best
    assert got.g_at_mid == g_mid


# every lam drawn here (<= 4) routes to directed mode under this cutoff
ALL_DIRECTED = EvalSettings(directed_cutoff=Fraction(8))


@given(
    lam=st.one_of(exact_lams(), exact_lams(), exact_lams(), directed_lams()),
    bracket_tol=decimal_tols(1, 30),
    g_tol=decimal_tols(6, 40),
    max_iterations=st.one_of(st.just(256), st.just(256), st.integers(0, 40)),
    eval_settings=st.sampled_from([None, None, None, EvalSettings(max_depth=12), ALL_DIRECTED]),
)
# exact, the reference flags: G(mid, 1/50) - 1 is below 1e-12 / 1e8 from the
# first midpoint on, and the walks decide on
@example(lam=Fraction(1, 50), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**12),
         max_iterations=256, eval_settings=None)
# exact, the reference flags after 47 steps: some midpoints are decided only in
# its last round
@example(lam=Fraction(1, 2), bracket_tol=Fraction(1, 10**15), g_tol=Fraction(1, 10**6),
         max_iterations=256, eval_settings=None)
# exact, the reference flags: 1/2 at lam 1/16 needs a width near 2e-28
@example(lam=Fraction(1, 16), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_iterations=256, eval_settings=None)
# exact, capped by max_iterations
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**12), g_tol=Fraction(1, 10**9),
         max_iterations=5, eval_settings=None)
# exact, flagged after 65 steps: a midpoint straddles 1 at max_depth
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**25), g_tol=Fraction(1, 10**19),
         max_iterations=256, eval_settings=EvalSettings(max_depth=12))
# directed, flagged at the first midpoint
@example(lam=Fraction(15, 997), bracket_tol=Fraction(1, 10**3), g_tol=Fraction(1, 10**9),
         max_iterations=256, eval_settings=None)
# directed by the cutoff, clean after 22 steps
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_iterations=256, eval_settings=ALL_DIRECTED)
@settings(max_examples=150, deadline=None)
def test_matches_tightening_reference(lam, bracket_tol, g_tol, max_iterations, eval_settings):
    assert_matches_reference(
        lam, bracket_tol, g_tol, settings=eval_settings, max_iterations=max_iterations
    )


@st.composite
def wide_exact_lams(draw):
    """lam from 1/64 to 4 * 10**5, routed to exact mode."""
    den = draw(st.sampled_from(LAM_DENS))
    k = draw(st.integers(-(-den // 64), 4 * den))
    return Fraction(k, den) * 10 ** draw(st.integers(0, 5))


@given(
    # 10**400 has no double, so the float estimate overflows
    lam=st.one_of(
        wide_exact_lams(), wide_exact_lams(), st.integers(1, 10**6).map(Fraction),
        st.just(Fraction(10**400)),
    ),
    bracket_tol=decimal_tols(1, 30),
    # g_tol >= 1 makes the reference give up near the predicted cell
    g_tol=st.one_of(decimal_tols(6, 30), decimal_tols(6, 30), st.integers(1, 10**7).map(Fraction)),
    max_iterations=st.one_of(st.just(256), st.integers(0, 40)),
    eval_settings=st.sampled_from([None, None, EvalSettings(max_depth=12)]),
)
# the reference gives up at 55/128 after 6 steps, within g_tol / 10**8 of 1,
# where the walks decide on
@example(lam=Fraction(1178, 997), bracket_tol=Fraction(157, 12800),
         g_tol=Fraction(5421875, 8), max_iterations=256, eval_settings=None)
# bracket_tol 1e-30 goes on bisecting past the level-32 cap
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**30), g_tol=Fraction(1, 10**25),
         max_iterations=256, eval_settings=None)
@example(lam=Fraction(10**400), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_iterations=256, eval_settings=None)
@settings(max_examples=150, deadline=None)
def test_predicted_start_matches_tightening_reference(
    lam, bracket_tol, g_tol, max_iterations, eval_settings
):
    assert_matches_reference(
        lam, bracket_tol, g_tol, settings=eval_settings, max_iterations=max_iterations
    )


@st.composite
def dyadic_points(draw):
    """(k, j) with m = (k + 2**j) / 2**j in (-1, 2], unreduced when k is even."""
    j = draw(st.integers(0, 12))
    return draw(st.integers(-(2 << j) + 1, 1 << j)), j


@given(
    kj=dyadic_points(),
    lam=exact_lams(),
    tol=decimal_tols(1, 40),
    max_depth=st.sampled_from([1, 2, 3, 12, DEFAULT_MAX_DEPTH]),
)
# the first pair's upper end is exactly 1: G_0 of the tail at m = 0, lam = 1
@example(kj=(-1, 0), lam=Fraction(1), tol=Fraction(1, 10**9), max_depth=1)
@example(kj=(-1, 0), lam=Fraction(1), tol=Fraction(1, 10**9), max_depth=2)
@example(kj=(0, 0), lam=Fraction(4), tol=Fraction(1, 10), max_depth=1)  # m*lam >= 1
# G(0, 2) <= 1/2 from the depth-0 convergent, returned at depth 1
@example(kj=(-1, 0), lam=Fraction(2), tol=Fraction(1, 10**9), max_depth=1)
@settings(max_examples=300, deadline=None)
def test_side_of_one_matches_classify(kj, lam, tol, max_depth):
    # at an exact-routed point classify_vs_one is the walk: it decides wherever
    # the 8-round classification does, the same way, from the first exact
    # enclosure that excludes 1, at depth 1 or deeper
    k, j = kj
    point = CFPoint(Fraction(k + 2**j, 2**j), lam)
    eval_settings = EvalSettings(max_depth=max_depth)
    side, enc = classify_vs_one(point, tol, settings=eval_settings)
    assert side == _side_of_one(k + 2**j, 2**j, lam.numerator, lam.denominator, max_depth)[0]
    assert 1 <= enc.depth <= max(max_depth, 1)
    assert (enc.lo, enc.hi) == reference_enclosure(point, enc.depth)
    assert (side == -1, side == 1) == (enc.hi < 1, enc.lo > 1)
    ref_side, ref_enc = reference_classify_vs_one(point, tol, settings=eval_settings)
    if ref_side:
        assert side == ref_side and enc.depth <= ref_enc.depth
    elif not side:
        assert enc.depth == max(max_depth, 1)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_exact_steps_evaluate_nothing(monkeypatch):
    # only g_at_mid evaluates; the anchors and the predicted cell's ends are walked
    calls = counting(monkeypatch, cf_core, "eval_enclosure")
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    res = find_alpha(1, 1e-6, 1e-9)
    assert res.flag is None and res.iterations == 22
    assert len(calls) == 1
    assert len(walks) == 4


def walked_points(walks):
    return [Fraction(a, b) for a, b, *_ in walks]


@pytest.mark.parametrize("estimate", [0.1, 0.5 - 2**-30, math.nan, OverflowError])
@pytest.mark.parametrize("lam", [Fraction(1, 16), Fraction(1), Fraction(4)])
def test_missed_prediction_matches_reference(monkeypatch, lam, estimate):
    # a wrong, NaN or failed estimate starts the loop from (0, 1)
    def fake_estimate(*args):
        if estimate is OverflowError:
            raise OverflowError
        return estimate

    monkeypatch.setattr(alpha_root, "_newton_alpha", fake_estimate)
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    assert_matches_reference(lam, BRACKET_TOL, G_TOL)
    points = walked_points(walks)
    assert len(points) == len(set(points))


def test_straddling_half_is_walked_once(monkeypatch):
    # G(1/2, 1/16) - 1 = coth(32) - 1, about 2e-28, is decided at depth 47 but
    # lies within W(1/16, 80), about 6e-27, of 1; so the predicted cell, whose
    # upper end is 1/2, is not taken, and 1/2 is the loop's first midpoint
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    res = find_alpha(Fraction(1, 16), settings=EvalSettings(max_depth=80))
    assert res.flag is None and res.iterations == 22
    assert (res.m_lo, res.m_hi) == (Fraction(2097151, 4194304), Fraction(1, 2))
    assert walked_points(walks).count(Fraction(1, 2)) == 1
    # the anchors, 1/2, and the loop's other 21 midpoints
    assert len(walks) == 24
    # with the default budget the cell is taken: its two ends are walked
    walks.clear()
    assert find_alpha(Fraction(1, 16)) == res
    assert len(walks) == 4


def test_directed_steps_classify(monkeypatch):
    calls = counting(monkeypatch, alpha_root, "classify_vs_one")
    res = find_alpha(1, 1e-6, 1e-9, settings=ALL_DIRECTED)
    assert res.flag is None and res.iterations == 22
    assert len(calls) == 2 + 22


class TestAlphaCurve:
    def test_singleton(self):
        out = alpha_curve([1], BRACKET_TOL, G_TOL)
        assert len(out) == 1
        assert out[0].flag is None

    def test_three_lambdas_order_preserved(self):
        out = alpha_curve([Fraction(1, 2), 1, 2], BRACKET_TOL, G_TOL)
        assert [r.lam for r in out] == [Fraction(1, 2), 1, 2]
        for r in out:
            assert 0 < r.m_lo < r.m_hi < 1

    def test_empty(self):
        assert alpha_curve([], BRACKET_TOL, G_TOL) == []

    def test_bad_lambda_recorded_inline(self):
        out = alpha_curve([1, -1], BRACKET_TOL, G_TOL)
        assert out[0].flag is None
        assert out[1].flag is not None and out[1].flag.startswith("error")
