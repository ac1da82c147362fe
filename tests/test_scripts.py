"""Each script's stdout, byte for byte, against its committed golden file."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("alpha_table", ["--lambdas", "1/64,1/16,1/4,1,4"]),
        ("limit_curve", []),
        ("witness_search", []),
    ],
)
def test_script_output_matches_golden(script, args):
    assert run_script(script, *args) == golden_lines(script)


def run_script(script: str, *args: str) -> list[bytes]:
    """The script's stdout lines; it must exit 0."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout.splitlines(keepends=True)


def golden_lines(script: str) -> list[bytes]:
    return (ROOT / "tests" / "golden" / f"{script}.csv").read_bytes().splitlines(keepends=True)


def test_alpha_table_flags_a_bad_lambda_inline():
    # rows keep the order of --lambdas; a lam that find_alpha rejects gets a flag row
    header, *rows = golden_lines("alpha_table")
    clean = next(r for r in rows if r.startswith(b"1,"))
    assert run_script("alpha_table", "--lambdas", "1,-1") == [
        header,
        clean,
        b"-1,0,1,1.000e+00,0.500000000000,0,error: lam must be positive, got -1\n",
    ]


def test_witness_search_single_m():
    header, *rows = golden_lines("witness_search")
    assert run_script("witness_search", "--ms", "1/4") == [
        header,
        next(r for r in rows if r.startswith(b"1/4,")),
    ]
