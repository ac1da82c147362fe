"""Every cli-roundtrip benchmark call of seeds 1-8, against its committed output.

tests/golden/cli_roundtrip.jsonl holds, per call, the argv with the exit
code, stdout and stderr of cli.main (written by scripts/cli_golden.py).
Replaying the committed argvs keeps this test independent of bench/.  Each
committed stdout must also re-verify, as the benchmark re-verifies it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from cfcert.cli import main, parse_records, reverify_records

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_roundtrip.jsonl"
CALLS = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_covers_eight_seeds():
    assert len(CALLS) == 88
    assert sorted({call["seed"] for call in CALLS}) == list(range(1, 9))


@pytest.mark.parametrize(
    "call", CALLS, ids=[f"s{c['seed']}-{c['argv'][0]}-{i}" for i, c in enumerate(CALLS)]
)
def test_cli_output_matches_golden(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(call["argv"])
    assert (code, out.getvalue(), err.getvalue()) == (call["exit"], call["stdout"], call["stderr"])
    argv = call["argv"]
    assert reverify_records(parse_records(call["stdout"], argv[argv.index("--format") + 1]))
