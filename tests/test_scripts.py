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
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "golden" / f"{script}.csv").read_bytes()
