"""Spans around cfcert's public functions, recorded from outside the package.

Each wrapped call records a span (name, start, end, parent).  A layer's self
time is its span minus the spans of its children.  Modules bind names with
``from .cf_core import evaluate``, so patching the defining module alone
misses most calls: ``install`` replaces every binding of the original
function in every loaded cfcert module, and ``uninstall`` restores them.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

#: span name -> (defining module, function)
LAYERS = {
    "cf_core.evaluate": ("cfcert.cf_core", "evaluate"),
    "cf_core.eval_enclosure": ("cfcert.cf_core", "eval_enclosure"),
    "cf_core.eval_directed": ("cfcert.cf_core", "eval_directed"),
    "bounds.theorem_bound": ("cfcert.bounds", "theorem_bound"),
    "bounds.check_sandwich": ("cfcert.bounds", "check_sandwich"),
    "bounds.check_functional_equation": ("cfcert.bounds", "check_functional_equation"),
    "bounds.check_g_above_one": ("cfcert.bounds", "check_g_above_one"),
    "bounds.check_reciprocal": ("cfcert.bounds", "check_reciprocal"),
    "alpha_root.classify_vs_one": ("cfcert.alpha_root", "classify_vs_one"),
    "alpha_root.find_alpha": ("cfcert.alpha_root", "find_alpha"),
    "lambda_scan.scan": ("cfcert.lambda_scan", "scan"),
    "lambda_scan.limit_check": ("cfcert.lambda_scan", "limit_check"),
    "lambda_scan.find_witness": ("cfcert.lambda_scan", "find_witness"),
    "bessel_oracle.series_ratio": ("cfcert.bessel_oracle", "series_ratio"),
    "bessel_oracle.cross_check": ("cfcert.bessel_oracle", "cross_check"),
    "cli.main": ("cfcert.cli", "main"),
    "cli.emit": ("cfcert.cli", "emit"),
    "cli.parse_records": ("cfcert.cli", "parse_records"),
    "cli.reverify_records": ("cfcert.cli", "reverify_records"),
}

REQUEST = "request"


def _log10(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def _bits(enc) -> int:
    return max(enc.lo.numerator.bit_length(), enc.lo.denominator.bit_length(),
               enc.hi.numerator.bit_length(), enc.hi.denominator.bit_length())


class Tracer:
    """In-memory spans plus result-derived work counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent))
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._count(name, args, kwargs, None, exc)
            raise
        else:
            self._count(name, args, kwargs, result, None)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def attach(self, parent_name: str, name: str, duration_ns: int) -> None:
        """Add a child span measured elsewhere to the latest ``parent_name`` span."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index][0] == parent_name:
                start = self.spans[index][1]
                self.spans.append((name, start, start + duration_ns, index))
                self.counts[name + ".calls"] += 1
                return

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _count(self, name, args, kwargs, result, exc) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        if name in ("cf_core.eval_enclosure", "cf_core.eval_directed"):
            enc = result if exc is None else getattr(exc, "best", None)
            if enc is None:
                return
            c[name + ".depth_sum"] += enc.depth
            if name == "cf_core.eval_enclosure":
                c[name + ".result_bits_max"] = max(c[name + ".result_bits_max"], _bits(enc))
            elif len(args) > 1 and enc.width > 0:
                c[name + ".excess_digits_sum"] += _log10(Fraction(args[1])) - _log10(enc.width)
        elif name == "cf_core.evaluate" and self._in("lambda_scan.find_witness"):
            c["lambda_scan.find_witness.evaluate_calls"] += 1
        elif exc is not None:
            if name == "cli.reverify_records":
                c[name + ".failures"] += 1
        elif name == "alpha_root.find_alpha":
            c[name + ".iterations_sum"] += result.iterations
            c[name + ".flagged"] += result.flag is not None
        elif name in ("lambda_scan.scan", "lambda_scan.limit_check"):
            c[name + ".points"] += len(result)
        elif name == "bessel_oracle.series_ratio":
            c[name + ".terms_sum"] += result.terms_used

    def self_ms(self) -> dict[str, float]:
        """Self time per span name over the recorded spans, in milliseconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start - inner) / 1e6
        return out

    def total_ms(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name) / 1e6

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cfcert" or n.startswith("cfcert."))]
        for name, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper
