"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is desk scale; the whole module runs in well under a
minute.
"""

from __future__ import annotations

import random
from fractions import Fraction

from conftest import ConvergentPair, advance, reference_convergents, term

from cfcert import (
    CFPoint,
    check_functional_equation,
    check_g_above_one,
    check_reciprocal,
    check_sandwich,
    cross_check,
    evaluate,
    find_alpha,
    find_witness,
    limit_check,
)
from cfcert.cli import main, parse_records, reverify_records

TOL12 = Fraction(1, 10**12)
TOL10 = Fraction(1, 10**10)


def report(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {label}"


def _random_fraction(rng: random.Random, lo_num: int, hi_num: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo_num, hi_num), den)


def test_criterion_1_determinant_identity():
    rng = random.Random(20260811)
    ok = True
    for _ in range(200):
        den = rng.randint(1, 50)
        m = Fraction(rng.randint(-den + 1, 5 * den), den)
        lam = Fraction(rng.randint(1, 8 * den), den)
        point = CFPoint(m, lam)
        depth = rng.randint(1, 60)
        state = ConvergentPair.seed()
        for j in range(depth + 1):
            state = advance(state, term(point, j))
            if state.determinant() != (-1) ** (state.n + 1):
                ok = False
    report(1, "determinant identity", ok)


def test_criterion_2_bracketing():
    rng = random.Random(20260812)
    ok = True
    for _ in range(100):
        den = rng.randint(1, 40)
        m = Fraction(rng.randint(0, 5 * den), den)
        lam = Fraction(rng.randint(1, 8 * den), den)
        vals = reference_convergents(CFPoint(m, lam), 25)
        evens, odds = vals[0::2], vals[1::2]
        if not all(a < b for a, b in zip(evens, evens[1:])):
            ok = False
        if not all(a > b for a, b in zip(odds, odds[1:])):
            ok = False
        if not max(evens) < min(odds):
            ok = False
    report(2, "even/odd bracketing", ok)


SANDWICH_GRID = [
    (m, lam)
    for m in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
    for lam in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10))
]


def test_criterion_3_sandwich_certification():
    ok = True
    for m, lam in SANDWICH_GRID:
        upper, lower = check_sandwich(CFPoint(m, lam), TOL12)
        for rep in (upper, lower):
            if not rep.certified or rep.gap <= 0:
                ok = False
            if rep.left.width > TOL12 or rep.right.width > TOL12:
                ok = False
        if not (upper.left.lo > upper.right.hi and lower.left.lo > lower.right.hi):
            ok = False
    report(3, "sandwich inequality", ok)


def test_criterion_4_functional_equation():
    grid = SANDWICH_GRID + [
        (m, lam)
        for m in (Fraction(-1, 2), Fraction(-1, 10))
        for lam in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10))
    ]
    ok = True
    for m, lam in grid:
        rep = check_functional_equation(CFPoint(m, lam), TOL12)
        if not rep.certified:
            ok = False
        if rep.left.width > TOL12 or rep.right.width > TOL12:
            ok = False
    report(4, "functional equation", ok)


def test_criterion_5_reciprocal():
    ok = True
    for lam in (Fraction(1, 10), Fraction(1), Fraction(10)):
        rep = check_reciprocal(lam, TOL12)
        if not rep.certified or rep.left.hi >= 1:
            ok = False
        if not (rep.left.lo * rep.right.lo <= 1 <= rep.left.hi * rep.right.hi):
            ok = False
    report(5, "reciprocal identity and G(0, lam) < 1", ok)


def test_criterion_6_above_one():
    ok = True
    for m in (Fraction(1), Fraction(3, 2), Fraction(5)):
        for lam in (Fraction(1, 100), Fraction(1), Fraction(10)):
            rep = check_g_above_one(CFPoint(m, lam), TOL12)
            if not rep.certified or rep.gap <= 0:
                ok = False
    report(6, "G > 1 for m >= 1", ok)


def test_criterion_7_oracle_agreement():
    ok = True
    for m in range(0, 9):
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)):
            rep = cross_check(m, lam, TOL10)
            if not rep.certified:
                ok = False
            if rep.left.width > TOL10 or rep.right.width > TOL10:
                ok = False
    report(7, "series-oracle agreement", ok)


def test_criterion_8_alpha_bracketing():
    ok = True
    tol6 = Fraction(1, 10**6)
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        res = find_alpha(lam, tol6, tol6)
        if res.flag is not None:
            ok = False
        if not (0 < res.m_lo < res.m_hi < 1 and res.width <= tol6):
            ok = False
        lo_enc = evaluate(CFPoint(res.m_lo, lam), Fraction(1, 10**9))
        hi_enc = evaluate(CFPoint(res.m_hi, lam), Fraction(1, 10**9))
        if not (lo_enc.hi < 1 < hi_enc.lo):
            ok = False
        g = res.g_at_mid
        near = min(abs(g.lo - 1), abs(g.hi - 1)) <= tol6
        if not (g.contains(1) or near):
            ok = False
    report(8, "alpha bracketing", ok)


def test_criterion_9_limit_behavior():
    ok = True
    for m in (Fraction(0), Fraction(1)):
        (enc,) = limit_check(m, [Fraction(1, 1000)], Fraction(1, 10**4))
        if not (Fraction(99, 100) <= enc.lo and enc.hi <= Fraction(101, 100)):
            ok = False
    report(9, "small-lambda limit", ok)


def test_criterion_10_witness():
    w1 = find_witness(Fraction(1, 10))
    w2 = find_witness(Fraction(1, 10))
    ok = w1.g1.lo > w1.g2.hi and 0 < w1.lambda1 < w1.lambda2
    ok = ok and w1 == w2  # bit-identical rerun in exact mode
    ok = ok and w1.g1.mode.value == "exact" and w1.g2.mode.value == "exact"
    report(10, "non-monotonicity witness", ok)


CLI_RUNS = [
    ("check", "sandwich", "--m", "1", "--lambda", "1"),
    ("check", "functional", "--m=-1/2", "--lambda", "1"),
    ("check", "reciprocal", "--lambda", "10"),
    ("check", "above-one", "--m", "1", "--lambda", "1/100"),
    ("oracle", "--m", "2", "--lambda", "1"),
    ("alpha", "--lambda", "1", "--bracket-tol", "1e-6"),
    ("eval", "--m", "1", "--lambda", "1/1000", "--tol", "1e-4"),
    ("witness", "--m", "1/10"),
    ("scan", "--m", "1/10", "--grid-list", "1/10,1,2"),
]

EXIT_TABLE = [
    (["eval", "--m", "1", "--lambda", "1"], 0),
    (["eval", "--m", "-2", "--lambda", "1"], 1),
    (
        ["eval", "--m", "1", "--lambda", "0.001", "--mode", "directed",
         "--max-depth", "50", "--tol", "1e-9"],
        2,
    ),
    (
        ["check", "sandwich", "--m", "0", "--lambda", "1", "--tol", "0.9",
         "--max-tighten", "0"],
        3,
    ),
    (["witness", "--m", "9/10", "--grid-list", "1,2"], 4),
]


def test_criterion_11_cli_round_trip(capsys):
    ok = True
    for argv in CLI_RUNS:
        code_csv = main([*argv, "--format", "csv"])
        csv_out = capsys.readouterr().out
        code_json = main([*argv, "--format", "json"])
        json_out = capsys.readouterr().out
        if code_csv != 0 or code_json != 0:
            ok = False
        csv_recs = parse_records(csv_out, "csv")
        json_recs = parse_records(json_out, "json")
        if csv_recs != json_recs or not csv_recs:
            ok = False
        if not reverify_records(json_recs):
            ok = False
    for argv, expected in EXIT_TABLE:
        code = main(argv)
        capsys.readouterr()
        if code != expected:
            ok = False
    report(11, "CLI round-trip and exit codes", ok)
