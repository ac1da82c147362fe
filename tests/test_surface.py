"""The public surface: exactly the names the CLI, the scripts and the benchmark use."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import cfcert

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

PUBLIC = {
    # classes and constants
    "AlphaResult", "CFPoint", "CheckReport", "Claim", "DEFAULT_MAX_DEPTH", "DEFAULT_TOL",
    "DEFAULT_WITNESS_GRID", "Enclosure", "EvalMode", "ScanPoint",
    "SeriesEnclosure", "Witness",
    # functions
    "check_functional_equation", "check_g_above_one", "check_reciprocal", "check_sandwich",
    "cross_check", "evaluate", "find_alpha", "find_witness", "limit_check", "scan",
    "series_ratio",
    # errors
    "BudgetExceededError", "CFCertError", "DomainError", "InconclusiveError",
    "NoWitnessFoundError", "NotConvergedError", "TailNotBoundedError",
    "ViolationError",
}


def test_all_is_the_public_surface():
    assert len(cfcert.__all__) == len(PUBLIC) == 31
    assert set(cfcert.__all__) == PUBLIC
    namespace: dict = {}
    exec("from cfcert import *", namespace)
    assert all(namespace[name] is getattr(cfcert, name) for name in PUBLIC)


def test_bench_reads_only_package_attributes():
    # the benchmark calls the library as api.<name>, with api the cfcert package
    read = set()
    for path in BENCH.glob("*.py"):
        read |= set(re.findall(r"\bapi\.(\w+)", path.read_text()))
    assert {"evaluate", "series_ratio", "limit_check", "scan"} <= read
    assert [name for name in sorted(read) if not hasattr(cfcert, name)] == []


def test_bench_layers_resolve_in_their_modules():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    layers = ast.literal_eval(layers)
    assert layers
    for module_name, attr in layers.values():
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_max_depth_is_the_one_budget():
    # evaluate also picks its mode; series_ratio sums a given truncation
    own = {"evaluate": {"mode", "max_depth"}, "series_ratio": set()}
    for name in cfcert.__all__:
        obj = getattr(cfcert, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert keywords == own.get(name, {"max_depth"}), name


def test_check_has_no_tightening_cap(capsys):
    from cfcert.cli import main

    assert main(["check", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--max-depth" in out and "--max-tighten" not in out


def run_bare(*args: str) -> subprocess.CompletedProcess:
    """A ``python -S`` child (no site, so no .pth preloads) importing cfcert from src/."""
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    run = run_bare("-c", "import sys, cfcert.cli; "
                   "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_bare_module_run_prints_what_main_prints(capsys):
    from cfcert.cli import main

    argv = ["eval", "--m", "1/3", "--lambda", "1932/997", "--tol", "1e-25"]
    run = run_bare("-m", "cfcert", *argv)
    assert main(argv) == 0
    assert (run.returncode, run.stdout) == (0, capsys.readouterr().out), run.stderr
