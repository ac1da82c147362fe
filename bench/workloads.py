"""Seeded workloads: request generation, execution and output checks.

A workload is one *pass*: a fixed list of requests drawn from the seed.  A
run repeats the pass, so every pass does identical work and the per-pass
counters are exact.  Parameters are drawn by stratified sampling: one draw
in each bucket of a log scale, with buckets of different parameters paired
by a fixed permutation.  Two seeds therefore give different inputs with the
same mix and spread, which keeps run-to-run figures steady across seeds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from reference import Const, References, WrongCertificate

F = Fraction
# Exact-arithmetic cost grows with the size of denominators, so each input
# class has a fixed prime denominator: a draw moves the value, not the cost class.
LAM_LO, LAM_HI, LAM_DEN = F(1, 64), F(4), 997
SMALL_LAM_LO, SMALL_LAM_HI, SMALL_LAM_DEN = F(1, 10**5), F(1, 65), 10**7 + 19
BIG, BIG_DEN = "large-denominator", 999_999_999_989

#: m values per claim, each where the claim's hypothesis allows it
M_SMALL_DEN = (F(-1, 2), F(0), F(1, 3), F(1), F(2), F(3), F(4), F(5))
M_ANY = (*M_SMALL_DEN, BIG)
M_NONNEG = M_ANY[1:]
M_GE_ONE = (F(1), F(2), F(3), F(4), F(5), BIG)
M_WITNESS = (F(1, 3), BIG)
M_INT = (0, 1, 2, 3, 4, 5)
SWEEP_MS = (F(-1, 2), F(1, 3), F(1))
SWEEP_ALPHA_LAMS = (F(1, 50), F(1, 100), F(1, 1000))

WORKLOADS = {
    "certify-mix": {
        "why": "certificate layers (theorem_bound, refinement loops, alpha bisection, "
        "series oracle) do the work; exact evaluation stays shallow",
        "generator": {
            "requests": 96,
            "request": "one call each, in turn, of check_sandwich, check_functional_equation, "
            "check_g_above_one, check_reciprocal, find_alpha, find_witness, cross_check",
            "lam": "k/997, log-stratified in [1/64, 4]",
            "tol": "10^-k, k stratified in 12..30",
            "m": "{-1/2, 0, 1/3, 1, 2..5, k/999999999989}, where the hypothesis allows",
        },
    },
    "small-lam-sweep": {
        "why": "the directed backward pass does the work (depth guess ignores tol); "
        "find_alpha at lam <= 1/50 is inconclusive today",
        "generator": {
            "grids": "for m in {-1/2, 1/3, 1}: 2 descending (limit_check) and 2 ascending "
            "(scan) grids of 8 lam = k/10000019, log-stratified in [1e-5, 1/65]",
            "tol": "10^-k, k stratified in 12..30",
            "find_alpha": "lam in {1/50, 1/100, 1/1000}, default tolerances",
            "check_g_above_one": "lam in {1/50, 1/100, 1/1000}, m >= 1",
            "settings": "default EvalSettings (max_depth 10000)",
        },
    },
    "exact-deep": {
        "why": "the exact recurrence and stopping test do all the work on big integers",
        "generator": {
            "requests": 96,
            "call": "evaluate, default settings",
            "lam": "k/997, log-stratified in [1/64, 4]",
            "tol": "10^-k, k stratified in 300..3000",
            "m": "cycled through {-1/2, 0, 1/3, 1, 2..5}: depth, not m's denominator, "
            "sets the size of the integers",
            "pairing": "lam and tol buckets paired by a fixed golden-ratio lattice",
        },
    },
    "cli-roundtrip": {
        "why": "interpreter start, import, argparse and record emit/parse/reverify "
        "only show here",
        "generator": {
            "subcommands": "eval, check x4, alpha, scan, witness, oracle with seeded "
            "arguments and format; plus alpha --lambda 1 --g-tol 1e-25 --bracket-tol "
            "1e-20 and alpha --lambda 0.000001",
            "process": "python -m cfcert with PYTHONPATH=src, one at a time",
        },
    },
}


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple


@dataclass
class Outcome:
    """``status`` is ok, inconclusive or error; ``value`` is what was returned or raised."""

    status: str
    value: object

    def key(self):
        """Comparable form, so later passes can be checked against the first."""
        if isinstance(self.value, BaseException):
            return (self.status, type(self.value).__name__, str(self.value))
        if isinstance(self.value, list) and self.value and isinstance(self.value[0], Outcome):
            return (self.status, tuple(out.key() for out in self.value))
        return (self.status, self.value)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _buckets(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal buckets, in bucket order."""
    return [(i + rng.random()) / n for i in range(n)]


def _paired(i: int, n: int) -> int:
    """A fixed bucket permutation (a golden-ratio lattice), so which lam bucket
    meets which tol bucket does not depend on the seed."""
    step = round(0.618 * n)
    while math.gcd(step, n) != 1:
        step += 1
    return (i * step) % n


def _log_lam(u: float, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """The point at log-position u in [lo, hi], as a multiple of 1/den."""
    x = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    num = min(max(round(x * den), math.ceil(lo * den)), math.floor(hi * den))
    return F(num, den)


def _tol(u: float, lo_exp: int, hi_exp: int) -> Fraction:
    return F(1, 10 ** (lo_exp + int(u * (hi_exp - lo_exp + 1))))


def _big(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    num = math.floor(lo * BIG_DEN) + 1 + rng.randrange(math.floor((hi - lo) * BIG_DEN) - 1)
    return F(num, BIG_DEN)


def _m(rng: random.Random, choice, lo: Fraction, hi: Fraction):
    return _big(rng, lo, hi) if choice is BIG else choice


def gen_certify_mix(rng: random.Random) -> list[Request]:
    k = WORKLOADS["certify-mix"]["generator"]["requests"]

    def draws(ms=None, m_lo=F(0), m_hi=F(5)):
        lams, tols = _buckets(rng, k), _buckets(rng, k)
        out = []
        for i in range(k):
            lam = _log_lam(lams[i], LAM_LO, LAM_HI, LAM_DEN)
            tol = _tol(tols[_paired(i, k)], 12, 30)
            out.append((lam, tol) if ms is None
                       else (_m(rng, ms[i % len(ms)], m_lo, m_hi), lam, tol))
        return out

    kinds = [
        [Request("sandwich", a) for a in draws(M_NONNEG)],
        [Request("functional", a) for a in draws(M_ANY, F(-1, 2), F(5))],
        [Request("above_one", a) for a in draws(M_GE_ONE, F(1), F(5))],
        [Request("reciprocal", a) for a in draws()],
        [Request("alpha", (lam, F(1, 10**6), tol)) for lam, tol in draws()],
        [Request("witness", (m, tol)) for m, _, tol in draws(M_WITNESS, F(0), F(1, 3))],
        [Request("cross_check", a) for a in draws(M_INT)],
    ]
    # a request is one call of each kind; offsetting each kind's lam buckets
    # gives every batch a similar mix of cheap and dear calls
    reqs = [Request("batch", tuple(calls[(i + j * k // len(kinds)) % k]
                                   for j, calls in enumerate(kinds)))
            for i in range(k)]
    rng.shuffle(reqs)
    return reqs


def gen_small_lam_sweep(rng: random.Random) -> list[Request]:
    reqs = []
    kinds = ("limit_check", "scan", "limit_check", "scan")
    tols = _buckets(rng, len(SWEEP_MS) * len(kinds))
    for g, (m, kind) in enumerate((m, kind) for m in SWEEP_MS for kind in kinds):
        grid = [_log_lam(u, SMALL_LAM_LO, SMALL_LAM_HI, SMALL_LAM_DEN) for u in _buckets(rng, 8)]
        if kind == "limit_check":
            grid.reverse()
        reqs.append(Request(kind, (m, tuple(grid), _tol(tols[_paired(g, len(tols))], 12, 30))))
    n = len(SWEEP_ALPHA_LAMS)
    tols = _buckets(rng, n)
    for i, lam in enumerate(SWEEP_ALPHA_LAMS):
        reqs.append(Request("alpha", (lam, F(1, 10**6), F(1, 10**9))))
        m = _m(rng, M_GE_ONE[i % len(M_GE_ONE)], F(1), F(5))
        reqs.append(Request("above_one", (m, lam, _tol(tols[_paired(i, n)], 12, 30))))
    rng.shuffle(reqs)
    return reqs


def gen_exact_deep(rng: random.Random) -> list[Request]:
    n = WORKLOADS["exact-deep"]["generator"]["requests"]
    lams, tols = _buckets(rng, n), _buckets(rng, n)
    reqs = []
    for i in range(n):
        m = M_SMALL_DEN[i % len(M_SMALL_DEN)]
        lam = _log_lam(lams[i], LAM_LO, LAM_HI, LAM_DEN)
        reqs.append(Request("evaluate", (m, lam, _tol(tols[_paired(i, n)], 300, 3000))))
    rng.shuffle(reqs)
    return reqs


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def gen_cli_roundtrip(rng: random.Random) -> list[Request]:
    def lam():
        return _q(_log_lam(rng.random(), LAM_LO, LAM_HI, LAM_DEN))

    def tol():
        return f"1e-{rng.randint(12, 30)}"

    def m(options, lo, hi):
        return _q(_m(rng, rng.choice(options), lo, hi))

    lo, hi = sorted(_log_lam(rng.random(), LAM_LO, LAM_HI, LAM_DEN) for _ in range(2))
    argvs = [
        ["eval", f"--m={m(M_ANY, F(-1, 2), F(5))}", "--lambda", lam(), "--tol", tol()],
        ["check", "sandwich", f"--m={m(M_NONNEG, F(0), F(5))}", "--lambda", lam(), "--tol", tol()],
        ["check", "functional", f"--m={m(M_ANY, F(-1, 2), F(5))}", "--lambda", lam(), "--tol", tol()],
        ["check", "above-one", f"--m={m(M_GE_ONE, F(1), F(5))}", "--lambda", lam(), "--tol", tol()],
        ["check", "reciprocal", "--lambda", lam(), "--tol", tol()],
        # lam >= 1/8 keeps this one conclusive; the small-lam defect has its own rows
        ["alpha", "--lambda", _q(_log_lam(rng.random(), F(1, 8), LAM_HI, LAM_DEN))],
        ["scan", f"--m={m(M_ANY, F(-1, 2), F(5))}", "--grid-geom",
         f"{_q(lo)}:{_q(hi if hi > lo else lo * 2)}:6", "--tol", tol()],
        ["witness", f"--m={m(M_WITNESS, F(0), F(1, 3))}", "--tol", tol()],
        ["oracle", f"--m={rng.choice(M_INT)}", "--lambda", lam(), "--tol", tol()],
        # known defects, kept visible: reverify hard-codes g_tol 1e-9 ...
        ["alpha", "--lambda", "1", "--g-tol", "1e-25", "--bracket-tol", "1e-20"],
        # ... and lam = 1e-6 would need about e^(-4e6), so inconclusive is right
        ["alpha", "--lambda", "0.000001"],
    ]
    reqs = []
    for argv in argvs:
        fmt = rng.choice(("csv", "json"))
        reqs.append(Request("cli", (*argv, "--format", fmt)))
    rng.shuffle(reqs)
    return reqs


GENERATORS = {
    "certify-mix": gen_certify_mix,
    "small-lam-sweep": gen_small_lam_sweep,
    "exact-deep": gen_exact_deep,
    "cli-roundtrip": gen_cli_roundtrip,
}


def generate(workload: str, seed: int) -> list[Request]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def child_env(root: str) -> dict[str, str]:
    """The environment for a child interpreter that imports cfcert from ``root``/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Executor:
    """Runs requests through the public API and the CLI.

    Every library name is looked up on the ``cfcert`` module at call time,
    so the tracer's wrappers are picked up when installed.
    """

    def __init__(self, api, cli, root: str, *, in_process: bool = False, tracer=None):
        """CLI requests run as ``python -m cfcert`` subprocesses, or through
        ``cli.main(argv)`` when ``in_process``.  With a ``tracer``, each
        subprocess is a ``cli.process`` span whose ``cli.import`` child is the
        import time the child reports under ``-X importtime``."""
        self.api = api
        self.cli = cli
        self.root = root
        self.in_process = in_process
        self.tracer = tracer
        self.env = child_env(root)
        self.inconclusive = (api.NotConvergedError, api.BudgetExceededError, api.InconclusiveError)

    def __call__(self, req: Request) -> Outcome:
        if req.kind == "cli":
            return self._cli(req.args)
        if req.kind == "batch":
            return Outcome("ok", [self(call) for call in req.args])
        try:
            value = self._library(req)
        except self.inconclusive as exc:
            return Outcome("inconclusive", exc)
        except self.api.NoWitnessFoundError as exc:
            return Outcome("ok", exc)  # a grid without a decrease is an answer
        except Exception as exc:  # counted in error_ratio, never hidden
            return Outcome("error", exc)
        return Outcome("ok", value)

    def _library(self, req: Request):
        api, a = self.api, req.args
        kind = req.kind
        if kind == "evaluate":
            return api.evaluate(api.CFPoint(a[0], a[1]), a[2])
        if kind == "sandwich":
            return api.check_sandwich(api.CFPoint(a[0], a[1]), a[2])
        if kind == "functional":
            return api.check_functional_equation(api.CFPoint(a[0], a[1]), a[2])
        if kind == "above_one":
            return api.check_g_above_one(api.CFPoint(a[0], a[1]), a[2])
        if kind == "reciprocal":
            return api.check_reciprocal(a[0], a[1])
        if kind == "alpha":
            return api.find_alpha(a[0], a[1], a[2])
        if kind == "witness":
            return api.find_witness(a[0], None, a[1])
        if kind == "cross_check":
            return api.cross_check(a[0], a[1], a[2])
        if kind == "scan":
            return api.scan(a[0], list(a[1]), a[2])
        if kind == "limit_check":
            return api.limit_check(a[0], list(a[1]), a[2])
        raise ValueError(f"unknown request kind {kind!r}")

    @staticmethod
    def settle(req: Request, out: Outcome) -> Outcome:
        """Final status of a returned value; kept out of the timed call."""
        if req.kind == "batch":
            calls = [Executor.settle(call, o) for call, o in zip(req.args, out.value)]
            statuses = {o.status for o in calls}
            out.status = next(s for s in ("error", "inconclusive", "ok") if s in statuses)
            return out
        if out.status != "ok" or isinstance(out.value, BaseException) or req.kind == "cli":
            return out
        v = out.value
        if req.kind == "alpha" and v.flag is not None:
            out.status = "inconclusive"
        elif req.kind == "scan" and any(e.error is not None for e in v):
            out.status = "inconclusive"
        elif req.kind == "limit_check" and any(e.width > req.args[2] for e in v):
            out.status = "inconclusive"  # limit_check hands back the best enclosure silently
        elif req.kind == "evaluate" and v.width > req.args[2]:
            out.status = "error"
        return out

    def _subprocess(self, argv: tuple) -> subprocess.CompletedProcess:
        flags = ["-X", "importtime"] if self.tracer is not None else []
        return subprocess.run(
            [sys.executable, *flags, "-m", "cfcert", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )

    def _cli(self, argv: tuple) -> Outcome:
        fmt = argv[argv.index("--format") + 1]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(argv))
            out = buf.getvalue()
        elif self.tracer is not None:
            proc = self.tracer.span("cli.process", self._subprocess, argv)
            self.tracer.attach("cli.process", "cli.import", import_ns(proc.stderr))
            code, out = proc.returncode, proc.stdout
        else:
            proc = self._subprocess(argv)
            code, out = proc.returncode, proc.stdout
        value = (code, out)
        try:
            records = self.cli.parse_records(out, fmt)
            self.cli.reverify_records(records)
        except Exception as exc:  # a record the CLI cannot re-verify is an error
            return Outcome("error", (code, out, f"{type(exc).__name__}: {exc}"))
        if code in (0, 4):  # 4: no witness on the grid, an answer
            return Outcome("ok", value)
        if code in (2, 3):
            return Outcome("inconclusive", value)
        return Outcome("error", value)


def import_ns(stderr: str) -> int:
    """Import time of cfcert and cfcert.cli from a ``-X importtime`` report."""
    total_us = 0
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            _, cumulative, name = line.split("|")
            if name.strip() in ("cfcert", "cfcert.cli") and not name[1:].startswith(" "):
                total_us += int(cumulative)
    return total_us * 1000


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def verify(req: Request, out: Outcome, refs: References, cli=None) -> None:
    """Check one output against the references; raise WrongCertificate on contradiction."""
    if req.kind == "batch":
        for call, call_out in zip(req.args, out.value):
            verify(call, call_out, refs, cli)
        return
    if req.kind == "cli":
        code, text = out.value[0], out.value[1]
        if text:
            fmt = req.args[req.args.index("--format") + 1]
            _verify_records(cli.parse_records(text, fmt), refs)
        return
    v, a = out.value, req.args
    if isinstance(v, BaseException):
        _verify_partial(req, v, refs)
        return
    enc = refs.check_encloses_g
    kind = req.kind
    if kind == "evaluate":
        enc(kind, v.lo, v.hi, a[0], a[1], a[2])
    elif kind == "sandwich":
        m, lam, tol = a
        upper, lower = v
        enc(kind, upper.left.lo, upper.left.hi, m + 1, lam, tol)
        enc(kind, lower.right.lo, lower.right.hi, m, lam, tol)
        blo, bhi = refs.b(m, lam, tol).bounds()
        if max(blo, upper.right.lo) > min(bhi, upper.right.hi):
            raise WrongCertificate(f"{kind}: bound enclosure misses B({m}, {lam})")
        refs.check_above(f"{kind} upper {m},{lam}", refs.g(m + 1, lam, tol), refs.b(m, lam, tol), tol)
        refs.check_above(f"{kind} lower {m},{lam}", refs.b(m, lam, tol), refs.g(m, lam, tol), tol)
    elif kind == "functional":
        enc(kind, v.left.lo, v.left.hi, a[0], a[1], a[2])
        enc(kind, v.right.lo, v.right.hi, a[0], a[1], a[2])
    elif kind == "above_one":
        m, lam, tol = a
        enc(kind, v.left.lo, v.left.hi, m, lam, tol)
        refs.check_above(f"{kind} {m},{lam}", refs.g(m, lam, tol), Const(1), tol)
    elif kind == "reciprocal":
        lam, tol = a
        enc(kind, v.left.lo, v.left.hi, 0, lam, tol)
        enc(kind, v.right.lo, v.right.hi, 1, lam, tol)
        refs.check_above(f"{kind} {lam}", Const(1), refs.g(0, lam, tol), tol)
    elif kind == "alpha":
        lam, _, g_tol = a
        refs.check_above(f"alpha-lo {lam}", Const(1), refs.g(v.m_lo, lam, g_tol), g_tol)
        refs.check_above(f"alpha-hi {lam}", refs.g(v.m_hi, lam, g_tol), Const(1), g_tol)
        enc("alpha-mid", v.g_at_mid.lo, v.g_at_mid.hi, v.midpoint, lam, g_tol)
    elif kind == "witness":
        tol = a[1]
        enc(kind, v.g1.lo, v.g1.hi, v.m, v.lambda1, tol)
        enc(kind, v.g2.lo, v.g2.hi, v.m, v.lambda2, tol)
        refs.check_above(f"{kind} {v.m}", refs.g(v.m, v.lambda1, tol), refs.g(v.m, v.lambda2, tol), tol)
    elif kind == "cross_check":
        enc(kind, v.left.lo, v.left.hi, a[0], a[1], a[2])
        enc("series", v.right.lo, v.right.hi, a[0], a[1], a[2])
    elif kind == "scan":
        for e in v:
            enc(kind, e.enclosure.lo, e.enclosure.hi, a[0], e.lam, a[2])
    elif kind == "limit_check":
        for lam, e in zip(a[1], v):
            enc(kind, e.lo, e.hi, a[0], lam, a[2])


def _verify_partial(req: Request, exc: BaseException, refs: References) -> None:
    """Enclosures attached to a not-converged or inconclusive outcome are still rigorous."""
    a = req.args
    best = getattr(exc, "best", None)
    if best is not None and req.kind == "evaluate":
        refs.check_encloses_g(req.kind, best.lo, best.hi, a[0], a[1], a[2])
    left = getattr(exc, "left", None)
    if left is None:
        return
    if req.kind == "sandwich":
        refs.check_encloses_g(req.kind, left.lo, left.hi, a[0] + 1, a[1], a[2])
    elif req.kind == "above_one":
        refs.check_encloses_g(req.kind, left.lo, left.hi, a[0], a[1], a[2])
    elif req.kind == "reciprocal":
        refs.check_encloses_g(req.kind, left.lo, left.hi, 0, a[0], a[1])


#: printed bounds carry 15 significant digits; the reference is 100 times tighter
RECORD_WIDTH = F(1, 10**17)


def _verify_records(records, refs: References) -> None:
    """Printed intervals must meet the references and certified rows must hold."""
    w = RECORD_WIDTH
    by_command = {}
    for rec in records:
        lo, hi = F(rec.lo), F(rec.hi)
        lam = F(rec.inputs["lambda"])
        m = F(rec.inputs.get("m", "0"))
        by_command[rec.command] = (m, lam)
        cmd = rec.command
        if cmd == "check-sandwich-upper":
            refs.check_encloses_g(cmd, lo, hi, m + 1, lam, w)
            if rec.certified:
                refs.check_above(cmd, refs.g(m + 1, lam, w), refs.b(m, lam, w), w)
        elif cmd == "check-sandwich-lower":
            refs.check_encloses_g(cmd, lo, hi, m, lam, w)
            if rec.certified:
                refs.check_above(cmd, refs.b(m, lam, w), refs.g(m, lam, w), w)
        else:
            refs.check_encloses_g(cmd, lo, hi, m, lam, w)
        if not rec.certified:
            continue
        if cmd == "check-above-one" or cmd == "alpha-hi":
            refs.check_above(cmd, refs.g(m, lam, w), Const(1), w)
        elif cmd == "check-reciprocal" or cmd == "alpha-lo":
            refs.check_above(cmd, Const(1), refs.g(m, lam, w), w)
    if "witness-g1" in by_command and "witness-g2" in by_command:
        (m, lam1), (_, lam2) = by_command["witness-g1"], by_command["witness-g2"]
        refs.check_above("witness", refs.g(m, lam1, w), refs.g(m, lam2, w), w)
