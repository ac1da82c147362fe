#!/usr/bin/env python3
"""Record what ``cfcert`` prints for the cli-roundtrip benchmark calls.

Each line of tests/golden/cli_roundtrip.jsonl is one JSON object: the
seed (1 to 8), one argv that bench/workloads.generate draws for the
cli-roundtrip workload at that seed, and the exit code, stdout and stderr
of cli.main run in-process on it.  tests/test_cli_golden.py replays the
committed argvs and compares all three, so a change that moves any output
of these calls shows there.

Example (rewrites the committed golden file):
  PYTHONPATH=src python3 scripts/cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import generate  # noqa: E402

from cfcert import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "cli_roundtrip.jsonl"


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of cli.main(argv), run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    lines = []
    for seed in range(1, 9):
        for req in generate("cli-roundtrip", seed):
            argv = list(req.args)
            lines.append(json.dumps({"seed": seed, "argv": argv, **run(argv)}) + "\n")
    GOLDEN.write_text("".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
