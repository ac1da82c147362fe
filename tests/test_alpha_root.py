from __future__ import annotations

import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    reference_classify_vs_one,
    reference_enclosure,
    reference_find_alpha,
    reference_side_of_one,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfcert.alpha_root as alpha_root
import cfcert.cf_core as cf_core
from cfcert import (
    DEFAULT_MAX_DEPTH,
    AlphaResult,
    CFCertError,
    CFPoint,
    DomainError,
    InconclusiveError,
    evaluate,
    find_alpha,
)
from cfcert.alpha_root import FLAG_INCONCLUSIVE, classify_vs_one
from cfcert.cf_core import DIRECTED_LAMBDA_CUTOFF, _side_of_one

BRACKET_TOL = Fraction(1, 10**6)
G_TOL = Fraction(1, 10**6)

# regression pins from certified runs (bracket width 2.4e-7)
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
    # the anchors, a flagged bracket's last resort, are a genuine sign change:
    # G(0,1) < 1 < G(1,1)
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
    side, enc = classify_vs_one(
        CFPoint(Fraction(1, 2), Fraction(1, 10**6)), Fraction(1, 10**9), max_depth=64
    )
    assert side == 0
    assert enc.lo <= 1 <= enc.hi


def test_budget_capped_anchor_is_inconclusive():
    # at depth 64 no point near alpha decides, nor does the anchor G(0, 1e-6),
    # about 1 - 2.5e-7
    with pytest.raises(InconclusiveError, match=r"G\(0, 1/1000000\) < 1"):
        find_alpha(Fraction(1, 10**6), max_depth=64)


def test_flagged_bracket_falls_back_to_an_anchor():
    # depth-2 walks decide no point near alpha(1/2), about 0.4977: inflated
    # by doubling steps, the lower end certifies at 3/8 and the upper end
    # reaches no m < 1 that certifies, so it is the anchor 1
    res = find_alpha(Fraction(1, 2), max_depth=2)
    assert res.flag == FLAG_INCONCLUSIVE
    assert (res.m_lo, res.m_hi, res.iterations) == (Fraction(3, 8), 1, 0)
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    assert res.g_at_hi == classify_vs_one(CFPoint(1, Fraction(1, 2)), 1, max_depth=2)[1]


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


def walk_side(m, lam, max_depth=DEFAULT_MAX_DEPTH):
    """The side of 1 that the reference walk decides for G(m, lam), or 0."""
    m, lam = Fraction(m), Fraction(lam)
    return reference_side_of_one(m.numerator, m.denominator, lam.numerator, lam.denominator,
                                 max_depth)[0]


def assert_certified(res, bracket_tol, max_depth=DEFAULT_MAX_DEPTH):
    """res brackets alpha: its ends' enclosures decide G < 1 at m_lo and
    G > 1 at m_hi, and the reference walk decides no end the other way.
    Unflagged, it is interior to (0, 1) and 2**-iterations <= bracket_tol/4
    wide; flagged, iterations is floor(log2(1/width))."""
    assert isinstance(res, AlphaResult), res
    assert 0 <= res.m_lo < res.m_hi <= 1
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    assert walk_side(res.m_lo, res.lam, max_depth) != 1
    assert walk_side(res.m_hi, res.lam, max_depth) != -1
    assert res.width <= Fraction(1, 2**res.iterations) < 2 * res.width
    if res.flag is None:
        assert 0 < res.m_lo and res.m_hi < 1
        assert res.width == Fraction(1, 2**res.iterations) <= Fraction(bracket_tol) / 4
    else:
        assert res.flag == FLAG_INCONCLUSIVE


def assert_matches_reference(lam, bracket_tol, g_tol, *, max_depth=DEFAULT_MAX_DEPTH):
    """find_alpha returns a certified bracket, or raises InconclusiveError.

    At an exact-routed lam it is the AlphaResult of reference_find_alpha,
    bisection by exact walks, ends' enclosures included, wherever that is
    unflagged; where the reference is flagged, both brackets hold alpha, so
    they overlap.  A directed-routed lam is judged by assert_certified alone.
    """
    got = outcome(find_alpha, lam, bracket_tol, g_tol, max_depth=max_depth)
    want = None
    if Fraction(lam) >= DIRECTED_LAMBDA_CUTOFF:
        want = outcome(reference_find_alpha, lam, bracket_tol, g_tol, max_depth=max_depth)
        if isinstance(want, AlphaResult) and want.flag is None:
            assert got == want
            return
    if not isinstance(got, AlphaResult):
        assert got[0] is InconclusiveError
        return
    assert_certified(got, bracket_tol, max_depth)
    if isinstance(want, AlphaResult):
        assert max(got.m_lo, want.m_lo) < min(got.m_hi, want.m_hi)


@given(
    lam=st.one_of(exact_lams(), exact_lams(), exact_lams(), directed_lams()),
    bracket_tol=decimal_tols(1, 30),
    # g_tol sets only g_at_mid's tolerance and the anchors' start; at a
    # directed lam the tightest decide G(1/2, lam), about 2e^(-4/lam) from 1
    g_tol=st.one_of(decimal_tols(6, 40), decimal_tols(6, 40), decimal_tols(150, 200)),
    max_depth=st.sampled_from([DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH, 12]),
)
# exact: G(1/2, 1/50) - 1 is about 4e-87, and the walk decides 1/2, the cell's
# upper end
@example(lam=Fraction(1, 50), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**12),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, a 2**-52 cell
@example(lam=Fraction(1, 2), bracket_tol=Fraction(1, 10**15), g_tol=Fraction(1, 10**6),
         max_depth=DEFAULT_MAX_DEPTH)
# exact: 1/2 at lam 1/16 needs a width near 2e-28
@example(lam=Fraction(1, 16), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, a 2**-268 cell: secant steps refine the float estimate
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**80), g_tol=Fraction(1, 10**90),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, the 2**-268 cell centred on 1/2
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**80), g_tol=Fraction(1, 10**180),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, flagged: depth-12 walks leave the cell's ends undecided, and the
# inflated ends certify a bracket 2**-66 wide; bisection stops after 65 halvings
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**25), g_tol=Fraction(1, 10**19),
         max_depth=12)
# directed: the estimate, 1/2, straddles 1, and the cell
# [4095/8192, 4097/8192] centred on it certifies
@example(lam=Fraction(15, 997), bracket_tol=Fraction(1, 10**3), g_tol=Fraction(1, 10**9),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, flagged: the centred cell's ends, about 1e-33 from 1, need more
# than depth 100, and the inflated ends certify a bracket 2**-100 wide
@example(lam=Fraction(15, 997), bracket_tol=Fraction(1, 10**30), g_tol=Fraction(1, 10**9),
         max_depth=100)
# directed, the 2**-22 cell centred on 1/2
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**180),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, out of budget: no end decides at depth 12, and G(0, 1/100)'s
# enclosure still touches 1, so the anchor fails
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**180),
         max_depth=12)
@settings(max_examples=150, deadline=None)
def test_matches_tightening_reference(lam, bracket_tol, g_tol, max_depth):
    assert_matches_reference(lam, bracket_tol, g_tol, max_depth=max_depth)


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
    # g_tol >= 1 leaves every midpoint to the walks
    g_tol=st.one_of(decimal_tols(6, 30), decimal_tols(6, 30), st.integers(1, 10**7).map(Fraction)),
    max_depth=st.sampled_from([DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH, 12]),
)
# a loose bracket_tol and a g_tol above 1: the 2**-9 cell, walked
@example(lam=Fraction(1178, 997), bracket_tol=Fraction(157, 12800),
         g_tol=Fraction(5421875, 8), max_depth=DEFAULT_MAX_DEPTH)
# bracket_tol 1e-30: the 2**-102 cell lies past the float estimate's bits
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**30), g_tol=Fraction(1, 10**25),
         max_depth=DEFAULT_MAX_DEPTH)
@example(lam=Fraction(10**400), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_depth=DEFAULT_MAX_DEPTH)
# depth-12 walks leave 1/2 undecided, but certify the cell [4095/8192, 4097/8192]
@example(lam=Fraction(160, 997), bracket_tol=Fraction(1, 10**3), g_tol=Fraction(1, 10**9),
         max_depth=12)
@settings(max_examples=150, deadline=None)
def test_predicted_start_matches_tightening_reference(lam, bracket_tol, g_tol, max_depth):
    assert_matches_reference(lam, bracket_tol, g_tol, max_depth=max_depth)


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
    # tightening from tol does, the same way, from the first exact enclosure
    # that excludes 1, at depth 1 or deeper
    k, j = kj
    point = CFPoint(Fraction(k + 2**j, 2**j), lam)
    side, enc = classify_vs_one(point, tol, max_depth=max_depth)
    assert side == _side_of_one(k + 2**j, 2**j, lam.numerator, lam.denominator, max_depth)[0]
    assert 1 <= enc.depth <= max_depth
    assert (enc.lo, enc.hi) == reference_enclosure(point, enc.depth)
    assert (side == -1, side == 1) == (enc.hi < 1, enc.lo > 1)
    ref_side, ref_enc = reference_classify_vs_one(point, tol, max_depth=max_depth)
    if ref_side:
        assert side == ref_side and enc.depth <= ref_enc.depth
    elif not side:
        assert enc.depth == max_depth


def walked_points(walks):
    return [Fraction(a, b) for a, b, *_ in walks]


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_exact_steps_evaluate_nothing(monkeypatch):
    # only g_at_mid evaluates: the float estimate alone picks a 2**-22 cell,
    # and its two ends are walked, no anchor
    calls = counting(monkeypatch, cf_core, "eval_enclosure")
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    res = find_alpha(1, 1e-6, 1e-9)
    assert res.flag is None and res.iterations == 22
    assert len(calls) == 1
    # the level point nearest the estimate first, then the cell's other end
    assert walked_points(walks) == [res.m_hi, res.m_lo]


@pytest.mark.parametrize("estimate", [0.1, 0.5 - 2**-30, math.nan, OverflowError])
@pytest.mark.parametrize("lam", [Fraction(1, 16), Fraction(1), Fraction(4)])
def test_missed_prediction_matches_reference(monkeypatch, lam, estimate):
    # a wrong float estimate is trusted at level 22, so walks move the cell
    # toward alpha by the whole widths that G' <= lam allows; a NaN or failed
    # one starts secant steps from 1/2, which find the cell, and only its two
    # ends are walked.  Either way each point is walked once
    def fake_estimate(*args):
        if estimate is OverflowError:
            raise OverflowError
        return estimate

    monkeypatch.setattr(alpha_root, "_newton_alpha", fake_estimate)
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    assert_matches_reference(lam, BRACKET_TOL, G_TOL)
    points = walked_points(walks)
    assert len(points) == len(set(points))
    if estimate is OverflowError or math.isnan(estimate):
        assert len(points) == 2


def test_straddling_half_is_walked_once(monkeypatch):
    # G(1/2, 1/16) - 1 = coth(32) - 1, about 2e-28, is decided at depth 47.
    # alpha lies about 1e-26 below 1/2, so 1/2 is the level point nearest the
    # estimate: it is walked first, once, then the cell's lower end
    walks = counting(monkeypatch, alpha_root, "_side_of_one")
    res = find_alpha(Fraction(1, 16), max_depth=80)
    assert res.flag is None and res.iterations == 22
    assert (res.m_lo, res.m_hi) == (Fraction(2097151, 4194304), Fraction(1, 2))
    assert res.g_at_hi.depth == 47
    assert walked_points(walks) == [Fraction(1, 2), res.m_lo]
    # the default budget walks the same two points
    walks.clear()
    assert find_alpha(Fraction(1, 16)) == res
    assert len(walks) == 2


def test_directed_steps_classify(monkeypatch):
    # at a directed lam the estimate, 1/2, takes one evaluation, which leaves it
    # undecided; the ends of the cell centred on it are classified, the upper
    # first, and g_at_mid evaluates 1/2 again at g_tol.  No anchor is visited
    calls = counting(monkeypatch, alpha_root, "classify_vs_one")
    probes = counting(monkeypatch, alpha_root, "_best")
    res = find_alpha(Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 10**180))
    assert res.flag is None and res.iterations == 22
    assert [Fraction(point.m) for point, *_ in calls] == [res.m_hi, res.m_lo]
    assert [Fraction(point.m) for point, *_ in probes] == [Fraction(1, 2)] * 2


CELL = (Fraction(4194303, 8388608), Fraction(4194305, 8388608))


@pytest.mark.parametrize(
    "lam, depth", [(Fraction(1, 100), 68), (Fraction(1, 1000), 228), (Fraction(1, 10**5), 2485)]
)
def test_undecided_half_gives_the_centred_cell(lam, depth):
    # G(1/2, lam) is within about 2e^(-4/lam) of 1, so the estimate 1/2 stays
    # undecided at tol = lam * 2**-26; the ends of the cell centred on it lie
    # about lam * 2**-24 from 1, and one evaluation at that tol decides each
    res = find_alpha(lam)
    assert res.flag is None and (res.m_lo, res.m_hi) == CELL
    assert res.iterations == 22 and res.width == Fraction(1, 2**22)
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    assert res.g_at_lo.depth == res.g_at_hi.depth == depth
    assert res.g_at_lo.tol == res.g_at_hi.tol == lam / 2**26
    assert res.g_at_mid.contains(1) and res.midpoint == Fraction(1, 2)
    for side, m, enc in ((-1, res.m_lo, res.g_at_lo), (1, res.m_hi, res.g_at_hi)):
        assert classify_vs_one(CFPoint(m, lam), lam / 2**26) == (side, enc)


def test_tight_bracket_cell_certifies():
    # the centred cell's ends lie about 1e-33 from 1: one evaluation at
    # tol = lam * 2**-106 decides each
    res = find_alpha(Fraction(1, 100), Fraction(1, 10**30))
    assert res.flag is None and res.iterations == 102
    assert res.width <= Fraction(1, 4 * 10**30) and res.midpoint == Fraction(1, 2)
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    assert res.g_at_lo.tol == res.g_at_hi.tol == Fraction(1, 100) / 2**106


@st.composite
def small_directed_lams(draw):
    """lam in [1/200, 1/64), routed to directed mode."""
    den = draw(st.sampled_from(LAM_DENS))
    return Fraction(draw(st.integers(-(-den // 200), -(-den // 64) - 1)), den)


@given(lam=small_directed_lams(), bracket_tol=decimal_tols(1, 150))
# alpha lies about 4e^(-4/lam)/lam below 1/2: at lam 1/70 that is 35 cells of
# 2**-401, so the cell lies below 1/2, where the secant steps put it
@example(lam=Fraction(1, 70), bracket_tol=Fraction(1, 10**120))
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**200))
@settings(max_examples=20, deadline=None)
def test_directed_crossing_certifies(lam, bracket_tol):
    res = find_alpha(lam, bracket_tol)
    assert res.flag is None
    assert 0 < res.m_lo < res.m_hi < 1 and res.width <= bracket_tol / 4
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    # the exact walk, affordable at these lam, puts the crossing in the cell
    assert walk_side(res.m_lo, lam) == -1 and walk_side(res.m_hi, lam) == 1


@pytest.mark.parametrize("lam", [Fraction(1, 100), Fraction(1)])
def test_ends_carry_their_deciding_enclosures(lam):
    res = find_alpha(lam, Fraction(1, 10**6), Fraction(1, 10**180))
    assert res.flag is None
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    for m, enc in ((res.m_lo, res.g_at_lo), (res.m_hi, res.g_at_hi)):
        # a directed end is classified from its own tol; an exact one is walked
        assert classify_vs_one(CFPoint(m, lam), enc.tol or 1)[1] == enc


@pytest.mark.parametrize("max_depth", [0, -5])
def test_budget_below_one_rejected(max_depth):
    for lam in (Fraction(1, 100), Fraction(1)):
        with pytest.raises(DomainError, match="max_depth"):
            find_alpha(lam, max_depth=max_depth)
        with pytest.raises(DomainError, match="max_depth"):
            classify_vs_one(CFPoint(Fraction(1, 2), lam), Fraction(1, 10**9), max_depth=max_depth)


def test_huge_lambda_bisects_past_256_halvings():
    # alpha(1e80) is about 1e-80: the cell [0, 2**-256] would still touch 0, so
    # the level follows alpha, not bracket_tol
    res = find_alpha(10**80)
    assert res.flag is None and res.iterations > 256
    assert 0 < res.m_lo < res.m_hi < 1
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo


def test_tiny_bracket_tol_certifies_from_the_cli(capsys):
    from cfcert.cli import main, parse_records, reverify_records

    code = main(["alpha", "--lambda", "1", "--bracket-tol", "1e-80", "--g-tol", "1e-90"])
    assert code == 0
    recs = parse_records(capsys.readouterr().out, "csv")
    assert [r.command for r in recs] == ["alpha-lo", "alpha-hi", "alpha-mid"]
    lo, hi = Fraction(recs[0].inputs["m"]), Fraction(recs[1].inputs["m"])
    assert 0 < hi - lo <= Fraction(1, 4 * 10**80)
    assert reverify_records(recs)



def alpha_table_rows(capsys, monkeypatch, lams: str) -> list[list[str]]:
    """The rows `scripts/alpha_table.py --lambdas <lams>` prints, split into fields."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "alpha_table.py"
    main = runpy.run_path(str(script))["main"]
    argv = [str(script), "--lambdas", lams, "--bracket-tol", str(BRACKET_TOL), "--g-tol", str(G_TOL)]
    monkeypatch.setattr(sys, "argv", argv)
    capsys.readouterr()
    assert main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "lambda,m_lo,m_hi,width,alpha_mid,iterations,flag"
    return [row.split(",", 6) for row in rows]


class TestAlphaCurve:
    """The per-lam loop of scripts/alpha_table.py: order kept, failures flagged inline."""

    def test_singleton(self, capsys, monkeypatch):
        out = alpha_table_rows(capsys, monkeypatch, "1")
        assert len(out) == 1
        assert out[0][0] == "1" and out[0][6] == ""

    def test_three_lambdas_order_preserved(self, capsys, monkeypatch):
        out = alpha_table_rows(capsys, monkeypatch, "1/2,1,2")
        assert [Fraction(r[0]) for r in out] == [Fraction(1, 2), 1, 2]
        for r in out:
            assert 0 < Fraction(r[1]) < Fraction(r[2]) < 1
            assert r[6] == ""

    def test_bad_lambda_recorded_inline(self, capsys, monkeypatch):
        out = alpha_table_rows(capsys, monkeypatch, "1,-1")
        assert out[0][6] == ""
        assert out[1][0] == "-1" and out[1][6].startswith("error")
