"""Certified enclosures and inequality certificates for the continued
fraction G(m, lam) whose j-th partial quotient is (m + j) * lam.

Everything user-facing works over exact rationals.  Enclosures are closed
intervals guaranteed to contain the limit value; a strict inequality is
"certified" exactly when the enclosures of its two sides are disjoint in
the claimed direction.

The names below are what the CLI, the scripts and the benchmark use.  The
layers under them (eval_enclosure, eval_directed, theorem_bound,
classify_vs_one, ...) are imported from their own modules.  Every
evaluating function takes one setting, the depth budget ``max_depth``
(default DEFAULT_MAX_DEPTH), as a keyword.

Importing the package runs ``cf_core`` and ``errors``, which every
evaluation needs.  It registers ``alpha_root``, ``bessel_oracle``, ``bounds``
and ``lambda_scan`` in ``sys.modules`` and as attributes of the package
without running them.  Each runs once, on the first read, write or delete
of one of its attributes (``import cfcert.bounds`` and ``from cfcert.bounds
import ...`` read one), under one lock: a thread that touches a module while
another thread runs it waits, and then sees the whole module, or runs it
again if that run failed.  A reload of the package keeps the submodule
objects it finds in ``sys.modules``.  The public
names those modules define resolve through ``__getattr__`` (PEP 562), which
reads the defining module on every access, so ``cfcert.check_sandwich`` is
always ``cfcert.bounds.check_sandwich``, even after that is rebound.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    evaluate,
)
from .errors import (
    BudgetExceededError,
    CFCertError,
    DomainError,
    InconclusiveError,
    NotConvergedError,
    NoWitnessFoundError,
    TailNotBoundedError,
    ViolationError,
)

__version__ = "0.1.0"

#: submodule run on first use -> the public names it defines
_DEFERRED = {
    "alpha_root": ("AlphaResult", "find_alpha"),
    "bessel_oracle": ("cross_check", "series_ratio"),
    "bounds": (
        "CheckReport",
        "Claim",
        "check_functional_equation",
        "check_g_above_one",
        "check_reciprocal",
        "check_sandwich",
    ),
    "lambda_scan": (
        "DEFAULT_WITNESS_GRID",
        "ScanPoint",
        "Witness",
        "find_witness",
        "limit_check",
        "scan",
    ),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

# re-entrant, because running bessel_oracle imports bounds
_RUN_LOCK = threading.RLock()
#: names of the deferred submodules whose code is running now
_RUNNING: set[str] = set()


def _run(module: types.ModuleType) -> None:
    """Run a deferred submodule's code, unless it has run or this thread is
    running it.  Another thread's run is waited for; after a failed run the
    module stays deferred, so the next access runs it again and gets the
    error too."""
    with _RUN_LOCK:
        # a plain module has run; anything else has not (after a reload of
        # the package, a deferred module's class is the old _Deferred)
        if type(module) is types.ModuleType:
            return
        spec = types.ModuleType.__getattribute__(module, "__spec__")
        if spec.name in _RUNNING:
            return
        _RUNNING.add(spec.name)
        try:
            spec.loader.exec_module(module)
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
        finally:
            _RUNNING.discard(spec.name)


class _Deferred(types.ModuleType):
    """A registered submodule whose code has not run: reading, setting or
    deleting an attribute runs it first.  It becomes a plain module once the
    run is over."""

    def __getattribute__(self, attr):
        _run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _run(self)
        types.ModuleType.__delattr__(self, attr)


def _register(name: str) -> types.ModuleType:
    """The submodule ``name``: the one in ``sys.modules`` if there is one
    (so a reload of the package keeps the module objects), else a new,
    deferred one put there."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        module = sys.modules[full] = module_from_spec(find_spec(full))
        module.__class__ = _Deferred
    return module


globals().update({name: _register(name) for name in _DEFERRED})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())


__all__ = [
    "AlphaResult",
    "BudgetExceededError",
    "CFCertError",
    "CFPoint",
    "CheckReport",
    "Claim",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_TOL",
    "DEFAULT_WITNESS_GRID",
    "DomainError",
    "Enclosure",
    "EvalMode",
    "InconclusiveError",
    "NoWitnessFoundError",
    "NotConvergedError",
    "ScanPoint",
    "TailNotBoundedError",
    "ViolationError",
    "Witness",
    "check_functional_equation",
    "check_g_above_one",
    "check_reciprocal",
    "check_sandwich",
    "cross_check",
    "evaluate",
    "find_alpha",
    "find_witness",
    "limit_check",
    "scan",
    "series_ratio",
]
