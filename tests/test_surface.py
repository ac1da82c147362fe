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

import pytest

import cfcert

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

PUBLIC = {
    # classes and constants
    "AlphaResult", "CFPoint", "CheckReport", "Claim", "DEFAULT_MAX_DEPTH", "DEFAULT_TOL",
    "DEFAULT_WITNESS_GRID", "Enclosure", "EvalMode", "ScanPoint", "Witness",
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
    assert len(cfcert.__all__) == len(PUBLIC) == 30
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


#: runs cfcert the way ``python -m cfcert`` does (runpy, as __main__) with an
#: audit hook on exec, and prints (exit code, the cfcert modules whose code
#: ran, the cfcert modules in sys.modules, whether each is the package
#: attribute of its name) as its last stderr line; with no arguments it only
#: imports cfcert.  The modules that ran are listed last, so a listing that
#: ran a registered module would show it
RUN_LISTING = """
import runpy, sys
from pathlib import Path

package = Path(sys.argv[1])
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0].co_filename))
code = 0
if len(sys.argv) == 2:
    import cfcert
else:
    sys.argv = ["cfcert", *sys.argv[2:]]
    try:
        runpy.run_module("cfcert", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
registered = sorted(name for name in sys.modules if name.startswith("cfcert."))
attributes = all(getattr(sys.modules["cfcert"], name[7:]) is sys.modules[name]
                 for name in registered)
names = sorted({p.stem for p in map(Path, ran) if p.parent == package})
print((code, names, registered, attributes), file=sys.stderr)
"""

EVAL_SET = ["__init__", "__main__", "cf_core", "cli", "errors"]
SUBMODULES = ["cfcert.alpha_root", "cfcert.bessel_oracle", "cfcert.bounds",
              "cfcert.cf_core", "cfcert.errors", "cfcert.lambda_scan"]


def run_listing(*argv: str) -> tuple[int, list[str], list[str], bool]:
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", RUN_LISTING, str(ROOT / "src" / "cfcert"), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    return ast.literal_eval(run.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv, also",
    [
        (("eval", "--m", "1/3", "--lambda", "1/2"), []),
        (("eval", "--m", "1/3", "--lambda", "1/200", "--format", "json"), []),
        (("check", "above-one", "--m", "1", "--lambda", "1"), ["bounds"]),
        (("alpha", "--lambda", "1"), ["alpha_root"]),
        (("scan", "--m", "1", "--grid-list", "1/2,1"), ["lambda_scan"]),
        (("witness", "--m", "1/10"), ["lambda_scan"]),
        (("oracle", "--m", "1", "--lambda", "1"), ["bessel_oracle", "bounds"]),
    ],
)
def test_a_subcommand_runs_only_the_modules_it_uses(argv, also):
    assert run_listing(*argv) == (
        0, sorted(EVAL_SET + also), sorted([*SUBMODULES, "cfcert.cli"]), True
    )


def test_import_registers_every_submodule_and_runs_two():
    assert run_listing() == (0, ["__init__", "cf_core", "errors"], SUBMODULES, True)


#: many threads make the first access to deferred modules at once, by
#: package name and by module attribute, and to bessel_oracle, whose run
#: imports bounds; each snapshots the module's names right after its access
FIRST_TOUCH = """
import sys, threading
import cfcert

THREADS = 8
touches = [
    lambda: (cfcert.find_witness, cfcert.lambda_scan),
    lambda: (cfcert.lambda_scan.find_witness, cfcert.lambda_scan),
    lambda: (cfcert.cross_check, cfcert.bessel_oracle),
    lambda: (cfcert.bounds.check_sandwich, cfcert.bounds),
]
barrier = threading.Barrier(THREADS)
seen, errors = [], []

def touch(i):
    barrier.wait()
    try:
        _, module = touches[i % len(touches)]()
        seen.append((module.__name__, frozenset(vars(module))))
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=touch, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
assert not any(thread.is_alive() for thread in threads), "a thread is stuck"
assert not errors, errors
assert len(seen) == THREADS
for name, names in seen:
    assert names == frozenset(vars(sys.modules[name])), name
print("ok")
"""


def test_threads_that_touch_a_deferred_module_at_once_see_it_whole():
    run = run_bare("-c", FIRST_TOUCH)
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr


def test_package_names_read_the_defining_module(monkeypatch):
    from cfcert import bounds

    def fake(*args, **kwargs):
        return "fake"

    monkeypatch.setattr(bounds, "check_sandwich", fake)
    assert cfcert.check_sandwich is fake
    namespace: dict = {}
    exec("from cfcert import *", namespace)
    assert namespace["check_sandwich"] is fake
    monkeypatch.undo()
    assert cfcert.check_sandwich is bounds.check_sandwich is not fake


#: a deferred module changed before its first use keeps the change, and a
#: reload of the package keeps every submodule object, run or not
EARLY_CHANGES = """
import importlib, sys
import cfcert, cfcert.cli as cli

cfcert.lambda_scan.DEFAULT_WITNESS_GRID = "patched"
del cfcert.alpha_root.find_alpha
assert cfcert.DEFAULT_WITNESS_GRID == "patched"
assert not hasattr(cfcert.alpha_root, "find_alpha")

before = {name: sys.modules[name] for name in sys.modules if name.startswith("cfcert.")}
importlib.reload(cfcert)
assert all(sys.modules[name] is module for name, module in before.items())
assert cli.bounds is cfcert.bounds and cfcert.Claim is cli.bounds.Claim
assert cfcert.DEFAULT_WITNESS_GRID == "patched"
assert cfcert.cross_check is cfcert.bessel_oracle.cross_check
print("ok")
"""


def test_changes_before_first_use_and_a_reload_keep_the_modules():
    run = run_bare("-W", "error", "-c", EARLY_CHANGES)
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr


def test_a_failed_run_fails_every_access_until_a_run_succeeds():
    import threading
    import time
    from importlib.machinery import ModuleSpec
    from importlib.util import module_from_spec

    started, release = threading.Event(), threading.Event()

    class Loader:
        runs = 0

        def create_module(self, spec):
            return None

        def exec_module(self, module):
            Loader.runs += 1
            module.first = 1
            if Loader.runs == 1:
                started.set()
                release.wait(10)
            if Loader.runs < 3:
                raise ImportError(f"run {Loader.runs} failed")
            module.last = 2

    module = module_from_spec(ModuleSpec("cfcert_failing_module", Loader()))
    module.__class__ = cfcert._Deferred
    results: list = []

    def read():
        try:
            results.append(module.first)
        except ImportError as exc:
            results.append(str(exc))

    first = threading.Thread(target=read)
    first.start()
    assert started.wait(10)
    waiting = threading.Thread(target=read)
    waiting.start()
    time.sleep(0.05)  # let it reach the lock the first run holds
    release.set()
    first.join(10)
    waiting.join(10)
    # the waiting thread ran the module again instead of reading `first`
    # from the half-filled module
    assert sorted(results) == ["run 1 failed", "run 2 failed"]
    assert (module.first, module.last, Loader.runs) == (1, 2, 3)
    assert type(module) is type(cfcert)
