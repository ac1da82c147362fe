"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from reference import Const, References, RefG, WrongCertificate
from workloads import WORKLOADS, Outcome, Request, generate, verify

api, cli = run.import_cfcert()

#: per-layer metrics that are counts, so they must repeat exactly for a seed
COUNTERS = [name for name, (unit, _, _) in run.PER_LAYER.items()
            if unit in ("count", "bits", "digits", "ratio")]


def fraction_enclosure(m: Fraction, lam: Fraction, depth: int) -> tuple[Fraction, Fraction]:
    """The plain-Fraction recurrence of tests/conftest.py, over the tail at m + 1."""
    p, q, p_prev, q_prev = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    values = []
    for j in range(depth + 1):
        x = (m + 1 + j) * lam
        p, q, p_prev, q_prev = x * p + p_prev, x * q + q_prev, p, q
        values.append(p / q)
    last, prev = values[-1], values[-2]
    t_lo, t_hi = (last, prev) if depth % 2 == 0 else (prev, last)
    return m * lam + 1 / t_hi, m * lam + 1 / t_lo


@pytest.mark.parametrize("m, lam", [(Fraction(-1, 2), Fraction(1, 3)), (Fraction(0), Fraction(4)),
                                    (Fraction(7, 3), Fraction(1, 64)),
                                    (Fraction(123456789, 10**9), Fraction(3, 1000))])
def test_integer_reference_matches_fraction_recurrence(m, lam):
    ref = RefG(m, lam)
    for _ in range(40):
        assert ref.bounds() == fraction_enclosure(m, lam, ref.depth)
        ref._step()


def test_reference_b_encloses_the_root():
    refs = References()
    for m, lam in [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(5, 7)), (Fraction(5), Fraction(4))]:
        lo, hi = refs.b(m, lam, Fraction(1, 10**40)).bounds()
        c = m * lam
        assert lo * lo - c * lo - 1 <= 0 <= hi * hi - c * hi - 1
        assert hi - lo <= Fraction(1, 10**40)


def test_forged_enclosure_is_a_wrong_certificate():
    point = api.CFPoint(Fraction(1, 3), Fraction(1, 2))
    tol = Fraction(1, 10**20)
    enc = api.evaluate(point, tol)
    req = Request("evaluate", (point.m, point.lam, tol))
    verify(req, Outcome("ok", enc), References())
    shifted = api.Enclosure(lo=enc.lo + 2 * tol, hi=enc.hi + 2 * tol, depth=enc.depth, mode=enc.mode)
    with pytest.raises(WrongCertificate):
        verify(req, Outcome("ok", shifted), References())


def test_reversed_claim_is_a_wrong_certificate():
    refs = References()
    tol = Fraction(1, 10**12)
    refs.check_above("G(1, 1) > 1", refs.g(1, 1, tol), Const(1), tol)
    with pytest.raises(WrongCertificate):
        refs.check_above("1 > G(1, 1)", Const(1), refs.g(1, 1, tol), tol)


def test_seed_fixes_the_inputs():
    for name in WORKLOADS:
        assert generate(name, 7) == generate(name, 7)
        assert generate(name, 7) != generate(name, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_for_a_seed(workload, capsys):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0)
    first = run.run_traced(args, api, cli)["metrics"]
    second = run.run_traced(args, api, cli)["metrics"]
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert set(first) == set(run.PER_LAYER)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: (unit, better, bound) for name, (unit, better, bound, _) in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()}


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
