from __future__ import annotations

import math
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    FLAG_BUDGET,
    reference_classify_vs_one,
    reference_enclosure,
    reference_find_alpha,
    reference_walk_classify_vs_one,
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
from cfcert.alpha_root import classify_vs_one
from cfcert.cf_core import DIRECTED_LAMBDA_CUTOFF, _side_of_one

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
    side, enc = classify_vs_one(
        CFPoint(Fraction(1, 2), Fraction(1, 10**6)), Fraction(1, 10**9), max_depth=64
    )
    assert side == 0
    assert enc.lo <= 1 <= enc.hi


def test_budget_capped_anchor_is_inconclusive():
    with pytest.raises(InconclusiveError):
        find_alpha(Fraction(1, 10**6), max_depth=64)


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


def assert_equal_or_narrower(got, want, bracket_tol):
    """got equals want, unless want stopped at the reference's cap of
    max_iterations halvings: find_alpha has no cap, so it bisects on from the
    same path to an unflagged bracket inside want's, at most bracket_tol/4 wide.
    """
    if isinstance(want, AlphaResult) and want.flag == FLAG_BUDGET:
        assert isinstance(got, AlphaResult) and got.flag is None
        assert got.width <= Fraction(bracket_tol) / 4
        assert want.m_lo <= got.m_lo < got.m_hi <= want.m_hi
    else:
        assert got == want


def assert_matches_reference(lam, bracket_tol, g_tol, *, max_depth=DEFAULT_MAX_DEPTH):
    """find_alpha against reference_find_alpha under the same policy.

    At an exact-routed lam every point is walked to max_depth.  At a
    directed-routed lam each midpoint is probed by one evaluation at g_tol,
    and the anchors and the cell ends are tightened from g_tol to max_depth.
    The results are equal, ends' enclosures included, except where the
    reference stops at its own 256-halving cap (assert_equal_or_narrower).
    """
    got = outcome(find_alpha, lam, bracket_tol, g_tol, max_depth=max_depth)
    walk = reference_walk_classify_vs_one
    policy = dict(probe=walk, classify=walk) if Fraction(lam) >= DIRECTED_LAMBDA_CUTOFF else {}
    want = outcome(reference_find_alpha, lam, bracket_tol, g_tol, max_depth=max_depth, **policy)
    assert_equal_or_narrower(got, want, bracket_tol)


@given(
    lam=st.one_of(exact_lams(), exact_lams(), exact_lams(), directed_lams()),
    bracket_tol=decimal_tols(1, 30),
    # G(1/2, lam) - 1 is near 2e^(-4/lam), below 1e-110 at a directed lam:
    # only the tightest g_tols let the first probe decide there, and the
    # others take the cell centred on 1/2
    g_tol=st.one_of(decimal_tols(6, 40), decimal_tols(6, 40), decimal_tols(150, 200)),
    max_depth=st.sampled_from([DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH, DEFAULT_MAX_DEPTH, 12]),
)
# exact: G(1/2, 1/50) - 1 is about 4e-87, and the walks decide every midpoint
@example(lam=Fraction(1, 50), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**12),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, clean after 52 steps
@example(lam=Fraction(1, 2), bracket_tol=Fraction(1, 10**15), g_tol=Fraction(1, 10**6),
         max_depth=DEFAULT_MAX_DEPTH)
# exact: 1/2 at lam 1/16 needs a width near 2e-28
@example(lam=Fraction(1, 16), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**9),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, the reference stops at its 256-halving cap; find_alpha goes on to 268
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**80), g_tol=Fraction(1, 10**90),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, the same past the cap
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**80), g_tol=Fraction(1, 10**180),
         max_depth=DEFAULT_MAX_DEPTH)
# exact, flagged after 65 steps: a midpoint and its cell's lower end straddle 1
# at max_depth
@example(lam=Fraction(1), bracket_tol=Fraction(1, 10**25), g_tol=Fraction(1, 10**19),
         max_depth=12)
# directed: the first midpoint, 1/2, straddles 1, and the cell
# [4095/8192, 4097/8192] certifies
@example(lam=Fraction(15, 997), bracket_tol=Fraction(1, 10**3), g_tol=Fraction(1, 10**9),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, flagged at the first midpoint: the cell's lower end, about 1e-33
# from 1, needs more than depth 100
@example(lam=Fraction(15, 997), bracket_tol=Fraction(1, 10**30), g_tol=Fraction(1, 10**9),
         max_depth=100)
# directed, clean after 22 steps
@example(lam=Fraction(1, 100), bracket_tol=Fraction(1, 10**6), g_tol=Fraction(1, 10**180),
         max_depth=DEFAULT_MAX_DEPTH)
# directed, out of budget: G(0, 1/100)'s depth-12 enclosure still touches 1
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
# G(55/128) - 1 is within g_tol / 10**8 of 1 at step 6, and the walk decides it
@example(lam=Fraction(1178, 997), bracket_tol=Fraction(157, 12800),
         g_tol=Fraction(5421875, 8), max_depth=DEFAULT_MAX_DEPTH)
# bracket_tol 1e-30 goes on bisecting past the level-32 cap
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
    res = find_alpha(Fraction(1, 16), max_depth=80)
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
    # at a directed lam the anchors are classified and each of the 22 midpoints
    # is probed by one evaluation, as is the final midpoint for g_at_mid
    calls = counting(monkeypatch, alpha_root, "classify_vs_one")
    probes = counting(monkeypatch, alpha_root, "_best")
    res = find_alpha(Fraction(1, 100), Fraction(1, 10**6), Fraction(1, 10**180))
    assert res.flag is None and res.iterations == 22
    assert [Fraction(point.m) for point, *_ in calls] == [0, 1]
    assert len(probes) == 22 + 1


CELL = (Fraction(4194303, 8388608), Fraction(4194305, 8388608))


@pytest.mark.parametrize(
    "lam, depth", [(Fraction(1, 100), 84), (Fraction(1, 1000), 231), (Fraction(1, 10**5), 2421)]
)
def test_undecided_half_gives_the_centred_cell(lam, depth):
    # G(1/2, lam) is within about 2e^(-4/lam) of 1, so the first probe straddles
    # 1; the ends of the cell centred on 1/2 lie about lam * 2**-24 from 1
    res = find_alpha(lam)
    assert res.flag is None and (res.m_lo, res.m_hi) == CELL
    assert res.iterations == 22 and res.width == Fraction(1, 2**22)
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    assert res.g_at_lo.depth == res.g_at_hi.depth == depth
    assert res.g_at_mid.contains(1) and res.midpoint == Fraction(1, 2)
    for side, m, enc in ((-1, res.m_lo, res.g_at_lo), (1, res.m_hi, res.g_at_hi)):
        assert classify_vs_one(CFPoint(m, lam), Fraction(1, 10**9)) == (side, enc)


def test_tight_bracket_cell_certifies():
    # the cell ends lie about 1e-33 from 1: classify_vs_one tightens to them
    res = find_alpha(Fraction(1, 100), Fraction(1, 10**30))
    assert res.flag is None and res.iterations == 102
    assert res.width <= Fraction(1, 4 * 10**30) and res.midpoint == Fraction(1, 2)
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo


@pytest.mark.parametrize("lam", [Fraction(1, 100), Fraction(1)])
def test_ends_carry_their_deciding_enclosures(lam):
    res = find_alpha(lam, Fraction(1, 10**6), Fraction(1, 10**180))
    assert res.flag is None
    assert res.g_at_lo.hi < 1 < res.g_at_hi.lo
    for m, enc in ((res.m_lo, res.g_at_lo), (res.m_hi, res.g_at_hi)):
        assert (classify_vs_one(CFPoint(m, lam), Fraction(1, 10**180))[1]) == enc


@pytest.mark.parametrize("max_depth", [0, -5])
def test_budget_below_one_rejected(max_depth):
    for lam in (Fraction(1, 100), Fraction(1)):
        with pytest.raises(DomainError, match="max_depth"):
            find_alpha(lam, max_depth=max_depth)
        with pytest.raises(DomainError, match="max_depth"):
            classify_vs_one(CFPoint(Fraction(1, 2), lam), Fraction(1, 10**9), max_depth=max_depth)


def test_huge_lambda_bisects_past_256_halvings():
    # alpha(1e80) is about 1e-80: the bracket [0, 2**-256] would still touch 0
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
