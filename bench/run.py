#!/usr/bin/env python3
"""The cfcert benchmark: seeded workloads through the public API and the CLI.

Run from the repository root:

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 12 --trace 0

Load comes from one process and one closed-loop client: each request is sent
when the previous one returns, and CLI subprocesses run one at a time.  A run
repeats the workload's seeded pass until ``--seconds`` have elapsed (at a
pass boundary), then checks every output against independent references
(``reference.py``).  An output that contradicts them is a wrong certificate:
the run prints it to stderr and exits 3 without a result.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
spends half the time untraced and half with spans around every public
layer (``tracing.py``) and reports per-layer metrics per pass, with both
throughputs so the tracing overhead shows.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--describe`` writes ``bench/manifest.json``: metric and workload
definitions, the layer -> end-to-end predictions, and the machine and code
size figures this baseline was taken with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

from reference import References, WrongCertificate  # noqa: E402
from tracing import REQUEST, Tracer  # noqa: E402
from workloads import WORKLOADS, Executor, Request, child_env, generate, verify  # noqa: E402

SETUP_REPS = 5
EXIT_NO_PACKAGE = 2
EXIT_WRONG_CERTIFICATE = 3

#: name -> (unit, better, bound, meaning); mirrored in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "import of cfcert and cfcert.cli in a fresh interpreter, input generation "
                "and warm-up; median of 5 set-ups"),
    "latency_p50_ms": ("ms", "lower", 0.25, "median wall time per request"),
    "latency_p95_ms": ("ms", "lower", 0.25,
                       "p95 per request, or the highest percentile with >= 10 samples beyond it"),
    "throughput_rps": ("1/s", "higher", 0.25, "requests completed per wall second"),
    "conclusive_ratio": ("ratio", "higher", 0.1,
                         "1 - inconclusive_ratio: share of requests not ending inconclusive, "
                         "not converged or flagged"),
    "ok_ratio": ("ratio", "higher", 0.1,
                 "1 - error_ratio: share of requests that neither raise unexpectedly nor fail "
                 "CLI re-verification"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "ru_maxrss of the bench process (plus its children on cli-roundtrip)"),
}

#: name -> (unit, better, meaning); every value is per pass unless it says otherwise
PER_LAYER = {
    "cf_core.eval_enclosure.calls": ("count", "lower", "exact evaluations"),
    "cf_core.eval_enclosure.self_ms": ("ms", "lower", "exact recurrence and stopping test"),
    "cf_core.eval_enclosure.depth_sum": ("count", "lower", "sum of returned depths"),
    "cf_core.eval_enclosure.result_bits_max": ("bits", "lower", "largest bit length in a returned bound"),
    "cf_core.eval_directed.calls": ("count", "lower", "directed evaluations"),
    "cf_core.eval_directed.self_ms": ("ms", "lower", "directed backward passes"),
    "cf_core.eval_directed.depth_sum": ("count", "lower", "sum of returned depths"),
    "cf_core.eval_directed.excess_digits": ("digits", "lower", "mean log10(tol / width): wasted precision"),
    "cf_core.evaluate.calls_per_request": ("count", "lower", "evaluate calls per request (refinement rounds)"),
    "cf_core.evaluate.self_ms": ("ms", "lower", "mode routing"),
    "bounds.theorem_bound.calls": ("count", "lower", "quadratic-bound enclosures"),
    "bounds.theorem_bound.self_ms": ("ms", "lower", "quadratic-bound bisection"),
    "bounds.check.self_ms": ("ms", "lower", "the four check_* functions, own code only"),
    "alpha_root.classify_vs_one.calls": ("count", "lower", "side-of-one classifications"),
    "alpha_root.classify_vs_one.self_ms": ("ms", "lower", "classification and its tightening loop"),
    "alpha_root.find_alpha.iterations_sum": ("count", "higher", "accepted bisection steps"),
    "alpha_root.find_alpha.flagged": ("count", "lower", "results returned with a flag"),
    "lambda_scan.scan.points": ("count", "higher", "grid points scanned"),
    "lambda_scan.scan.self_ms": ("ms", "lower", "scan's own code"),
    "lambda_scan.limit_check.points": ("count", "higher", "descending grid points"),
    "lambda_scan.limit_check.self_ms": ("ms", "lower", "limit_check's own code"),
    "lambda_scan.find_witness.evaluate_calls": ("count", "lower", "evaluate calls inside find_witness"),
    "bessel_oracle.series_ratio.calls": ("count", "lower", "series enclosures"),
    "bessel_oracle.series_ratio.terms_sum": ("count", "lower", "series terms summed"),
    "bessel_oracle.series_ratio.self_ms": ("ms", "lower", "series summation"),
    "cli.process.wall_ms": ("ms", "lower", "mean wall of one python -m cfcert subprocess"),
    "cli.import_ms": ("ms", "lower", "mean import of cfcert and cfcert.cli inside those subprocesses"),
    "setup.import_ms": ("ms", "lower", "median import of cfcert and cfcert.cli in a fresh interpreter"),
    "cli.main.self_ms": ("ms", "lower", "argparse and command handlers, in-process"),
    "cli.emit.self_ms": ("ms", "lower", "record formatting"),
    "cli.parse_records.self_ms": ("ms", "lower", "record parsing"),
    "cli.reverify_records.self_ms": ("ms", "lower", "record re-verification, own code only"),
    "cli.reverify_records.failures": ("count", "lower", "records the CLI's own re-verifier rejects"),
    "request.self_ms": ("ms", "lower", "time in no traced layer (bench glue, untraced helpers)"),
    "request.total_ms": ("ms", "lower", "traced wall of all requests in a pass"),
    "requests.per_pass": ("count", "higher", "requests in one pass"),
    "requests.inconclusive_ratio": ("ratio", "lower", "inconclusive, not converged or flagged"),
    "requests.error_ratio": ("ratio", "lower", "unexpected raise or failed re-verification"),
    "trace.untraced_rps": ("1/s", "higher", "throughput of the untraced half of the run"),
    "trace.traced_rps": ("1/s", "higher", "throughput of the traced half of the run"),
    "trace.overhead_pct": ("%", "lower", "100 * (untraced - traced) / untraced throughput"),
}

PREDICTIONS = [
    ("cf_core.eval_enclosure.{calls,self_ms,depth_sum,result_bits_max}",
     "latency_p50_ms, throughput_rps on exact-deep", "no change on small-lam-sweep"),
    ("cf_core.eval_directed.{calls,self_ms,depth_sum,excess_digits}",
     "throughput_rps on small-lam-sweep", "no change on exact-deep or certify-mix"),
    ("cf_core.evaluate.calls_per_request",
     "latency_p95_ms, conclusive_ratio on certify-mix and small-lam-sweep", ""),
    ("bounds.theorem_bound.{calls,self_ms}, bounds.check.self_ms",
     "latency_p50_ms on certify-mix", "no change on exact-deep"),
    ("alpha_root.classify_vs_one.{calls,self_ms}, alpha_root.find_alpha.{iterations_sum,flagged}",
     "conclusive_ratio on small-lam-sweep, latency_p95_ms on certify-mix", ""),
    ("lambda_scan.scan.{points,self_ms}, lambda_scan.find_witness.evaluate_calls",
     "throughput_rps on small-lam-sweep", ""),
    ("bessel_oracle.series_ratio.{calls,terms_sum,self_ms}",
     "latency_p95_ms on certify-mix", ""),
    ("cli.process.wall_ms, cli.import_ms, cli.emit.self_ms, cli.parse_records.self_ms, "
     "cli.reverify_records.{self_ms,failures}",
     "latency_p50_ms, setup_s, ok_ratio on cli-roundtrip", ""),
]

#: median time of ``calibration_ns``'s work on the reference machine (2 vCPUs, Python 3.11.7)
CAL_NOMINAL_NS = 6_000_000

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cfcert, cfcert.cli; "
    "print(time.perf_counter() - t)"
)


def import_cfcert():
    """Import the package from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cfcert
        import cfcert.cli
    except ImportError as exc:
        print(f"error: cannot import cfcert from {SRC}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    if Path(cfcert.__file__).resolve().parent.parent != SRC:
        print(f"error: cfcert resolved to {cfcert.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    return cfcert, cfcert.cli


def calibration_ns() -> float:
    """Time of fixed work like cfcert's, run next to each pass to gauge machine speed.

    The machine is shared, and its speed swings by tens of percent from one
    second to the next and drifts over minutes.  Each pass's time is
    multiplied by CAL_NOMINAL_NS over the calibration taken around it, so
    end-to-end times read as times on the reference machine and stay
    comparable between runs made at different moments.  The work is a
    big-integer recurrence, Fraction arithmetic and a plain loop, and uses no
    cfcert code.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        p, q = 1, 0
        for j in range(1, 1500):
            p, q = (2 * j + 1) * p + 4096 * q, p
        x = Fraction(1)
        for j in range(1, 300):
            x = x / 3 + Fraction(1, j)
        s = 0
        for i in range(60000):
            s += i % 7
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def fresh_import_s() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(str(ROOT)),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def warm_requests(reqs: list[Request]) -> list[Request]:
    """Per kind of call, the one with the loosest tolerance (its last
    argument); for the CLI, the eval call."""
    if reqs[0].kind == "cli":
        return [req for req in reqs if req.args[0] == "eval"]
    loosest: dict[str, Request] = {}
    for req in (call for r in reqs for call in (r.args if r.kind == "batch" else (r,))):
        if req.kind not in loosest or req.args[-1] > loosest[req.kind].args[-1]:
            loosest[req.kind] = req
    return list(loosest.values())


def setup(workload: str, seed: int, execute) -> tuple[list[Request], float, float]:
    """Set up SETUP_REPS times; return the requests, the median set-up time
    (calibrated) and the median import time (raw)."""
    totals, imports, cals = [], [], []
    for _ in range(SETUP_REPS):
        cals.append(calibration_ns())
        imp = fresh_import_s()
        t0 = time.perf_counter()
        reqs = generate(workload, seed)
        for req in warm_requests(reqs):
            execute(req)
        totals.append(imp + time.perf_counter() - t0)
        imports.append(imp)
    scale = CAL_NOMINAL_NS / statistics.median(cals)
    return reqs, statistics.median(totals) * scale, statistics.median(imports)


class Measurement:
    """Closed-loop repetition of a pass, with outputs kept for the correctness gate.

    Every pass repeats identical work, so a pass's wall time measures how fast
    the shared machine ran during it.  Latencies are scaled to the median
    pass, and throughput is taken at the median pass, so a burst of load from
    outside the process does not read as tail latency or lost throughput.
    Each pass is first calibrated (``calibration_ns``) to the reference machine.
    """

    def __init__(self, reqs: list[Request]):
        self.reqs = reqs
        self.pass_latencies_ns: list[list[int]] = []
        self.pass_walls_ns: list[int] = []
        self.status = Counter()
        self.first = None
        self.to_verify: list = []
        self.cal_ns: list[float] = []

    def run(self, executor: Executor, seconds: float, tracer: Tracer | None = None,
            after_pass=None) -> "Measurement":
        call = executor if tracer is None else lambda req: tracer.span(REQUEST, executor, req)
        deadline = time.perf_counter() + seconds
        while True:
            self.cal_ns.append(calibration_ns())
            start = time.perf_counter_ns()
            outs, latencies = [], []
            for req in self.reqs:
                s = time.perf_counter_ns()
                out = call(req)
                latencies.append(time.perf_counter_ns() - s)
                outs.append(executor.settle(req, out))
            self.pass_walls_ns.append(time.perf_counter_ns() - start)
            self.pass_latencies_ns.append(latencies)
            if after_pass is not None:
                after_pass()
            self.note(outs)
            if time.perf_counter() >= deadline:
                break
        self.cal_ns.append(calibration_ns())
        return self

    def note(self, outs) -> None:
        for out in outs:
            self.status[out.status] += 1
        if self.first is None:
            self.first = outs
            self.to_verify.extend(zip(self.reqs, outs))
            return
        for req, out, ref in zip(self.reqs, outs, self.first):
            if out.key() != ref.key():  # not expected; check it on its own
                self.to_verify.append((req, out))

    @property
    def passes(self) -> int:
        return len(self.pass_walls_ns)

    @property
    def attempted(self) -> int:
        return self.passes * len(self.reqs)

    def _typical_pass_ns(self) -> float:
        """Median pass wall, each pass calibrated by the calibrations on either side."""
        return statistics.median(
            wall * 2 * CAL_NOMINAL_NS / (before + after)
            for wall, before, after in zip(self.pass_walls_ns, self.cal_ns, self.cal_ns[1:]))

    @property
    def scale(self) -> float:
        """Factor from the median pass's raw wall to its calibrated wall."""
        return self._typical_pass_ns() / statistics.median(self.pass_walls_ns)

    def latencies_ns(self) -> list[float]:
        typical = self._typical_pass_ns()
        return [x * typical / wall
                for wall, pass_ in zip(self.pass_walls_ns, self.pass_latencies_ns)
                for x in pass_]

    @property
    def rps(self) -> float:
        return len(self.reqs) / (self._typical_pass_ns() / 1e9)


def tail_latency_ms(samples_ns: list[int]) -> tuple[float, float]:
    """(percentile, value): p95, or the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples_ns)
    n = len(xs)
    if n >= 200:
        index = -(-95 * n // 100) - 1
    else:
        index = max(0, n - 11)
    return 100 * (index + 1) / n, xs[index] / 1e6


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def series_oracle(api):
    def series(m, lam, terms):
        try:
            enc = api.series_ratio(m, lam, terms)
        except api.TailNotBoundedError:
            return None
        return enc.lo, enc.hi
    return series


def check_outputs(api, cli, pairs) -> None:
    refs = References(series_oracle(api))
    for req, out in pairs:
        verify(req, out, refs, cli)


def run_end_to_end(args, api, cli) -> dict:
    execute = Executor(api, cli, str(ROOT))
    reqs, setup_s, _ = setup(args.workload, args.seed, execute)
    meas = Measurement(reqs).run(execute, args.seconds)
    rss = peak_rss_mb(with_children=args.workload == "cli-roundtrip")
    check_outputs(api, cli, meas.to_verify)
    latencies = meas.latencies_ns()
    pct, p95 = tail_latency_ms(latencies)
    n = meas.attempted
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p95_ms": p95,
        "throughput_rps": meas.rps,
        "conclusive_ratio": 1 - meas.status["inconclusive"] / n,
        "ok_ratio": 1 - meas.status["error"] / n,
        "peak_rss_mb": rss,
    }
    print(f"{args.workload} seed={args.seed}: {n} requests in {sum(meas.pass_walls_ns) / 1e9:.2f} s "
          f"({meas.passes} passes of {len(reqs)}); tail percentile p{pct:.1f} of {n} samples; "
          f"outcomes {dict(meas.status)}; times x{meas.scale:.3f} to the reference machine")
    for name, value in metrics.items():
        unit = END_TO_END[name][0]
        print(f"  {name:<18} {value:>14.6g} {unit}")
    return {"attempted": n, "failed": meas.status["error"],
            "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}}


def run_traced(args, api, cli) -> dict:
    """Half the time untraced, half traced with spans; per-layer metrics per pass.

    On cli-roundtrip both halves run subprocesses; one more in-process pass
    through ``cli.main(argv)`` then gives the spans inside the CLI.
    """
    execute = Executor(api, cli, str(ROOT))
    reqs, _, import_s = setup(args.workload, args.seed, execute)
    half = args.seconds / 2
    untraced = Measurement(reqs).run(execute, half)

    tracer = Tracer()
    traced_execute = Executor(api, cli, str(ROOT), tracer=tracer)
    passes: list[tuple[dict, dict, float]] = []

    def after_pass():
        passes.append((dict(tracer.counts), tracer.self_ms(), tracer.total_ms(REQUEST)))
        tracer.reset()

    with tracer.installed():
        traced = Measurement(reqs).run(traced_execute, half, tracer, after_pass)
    pairs = untraced.to_verify + traced.to_verify
    counts = passes[0][0]
    self_ms = {k: statistics.mean(p[1].get(k, 0.0) for p in passes)
               for k in set().union(*(p[1] for p in passes))}
    report_layers(f"{args.workload} traced", self_ms, counts,
                  statistics.mean(p[2] for p in passes))
    if args.workload == "cli-roundtrip":
        in_process_tracer = Tracer()
        in_process = Executor(api, cli, str(ROOT), in_process=True)
        with in_process_tracer.installed():
            sample = Measurement(reqs).run(in_process, 0, in_process_tracer)
        pairs += sample.to_verify
        in_self = in_process_tracer.self_ms()
        report_layers("cli-roundtrip in-process cli.main pass", in_self,
                      in_process_tracer.counts, in_process_tracer.total_ms(REQUEST))
        self_ms["cli.main"] = in_self.get("cli.main", 0.0)
        self_ms["cli.emit"] = in_self.get("cli.emit", 0.0)
    check_outputs(api, cli, pairs)

    per_pass = len(reqs)
    directed_calls = counts.get("cf_core.eval_directed.calls", 0)
    processes = counts.get("cli.process.calls", 0)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = self_ms.get(name[: -len(".self_ms")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics.update({
        "cf_core.eval_directed.excess_digits":
            counts.get("cf_core.eval_directed.excess_digits_sum", 0) / directed_calls
            if directed_calls else 0,
        "cf_core.evaluate.calls_per_request":
            counts.get("cf_core.evaluate.calls", 0) / per_pass,
        "bounds.check.self_ms": sum(v for k, v in self_ms.items() if k.startswith("bounds.check_")),
        "cli.process.wall_ms": statistics.mean(
            p[1].get("cli.process", 0.0) + p[1].get("cli.import", 0.0) for p in passes
        ) / processes if processes else 0,
        "cli.import_ms": statistics.mean(p[1].get("cli.import", 0.0) for p in passes) / processes
            if processes else 0,
        "setup.import_ms": import_s * 1e3,
        "request.total_ms": statistics.mean(p[2] for p in passes),
        "requests.per_pass": per_pass,
        "requests.inconclusive_ratio": traced.status["inconclusive"] / traced.attempted,
        "requests.error_ratio": traced.status["error"] / traced.attempted,
        "trace.untraced_rps": untraced.rps,
        "trace.traced_rps": traced.rps,
        "trace.overhead_pct": 100 * (untraced.rps - traced.rps) / untraced.rps,
    })
    print(f"{args.workload} seed={args.seed}: {traced.passes} traced passes of {per_pass} "
          f"requests; throughput untraced {untraced.rps:.6g}/s, traced {traced.rps:.6g}/s")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {PER_LAYER[name][0]}")
    return {"attempted": untraced.attempted + traced.attempted,
            "failed": untraced.status["error"] + traced.status["error"],
            "metrics": {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in metrics.items()}}


def report_layers(title: str, self_ms: dict, counts: dict, total_ms: float) -> None:
    """Self time per layer, its share of the traced request time, and calls, per pass."""
    print(f"{title}: {total_ms:.3f} ms of requests per pass")
    print(f"  {'layer':<42} {'self ms':>12} {'share':>7} {'calls':>8}")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        calls = counts.get(layer + ".calls", 0)
        print(f"  {layer:<42} {ms:>12.3f} {100 * ms / total_ms:>6.1f}% {calls:>8g}")


def describe(api) -> dict:
    """The manifest: definitions plus the machine and code-size figures of this baseline."""
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for line in path.read_text().splitlines() if line.strip())
    return {
        "command": "python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1",
        "load": "one process, one closed-loop client; CLI subprocesses one at a time",
        "timing": f"each pass's wall is multiplied by {CAL_NOMINAL_NS} ns over the "
                  "calibration-loop time around it; latencies are scaled to the median "
                  "calibrated pass, so end-to-end times read as times on the reference "
                  "machine; per-layer self times are raw",
        "end_to_end": {k: {"unit": u, "better": b, "bound": bd, "meaning": m}
                       for k, (u, b, bd, m) in END_TO_END.items()},
        "per_layer": {k: {"unit": u, "better": b, "meaning": m}
                      for k, (u, b, m) in PER_LAYER.items()},
        "workloads": WORKLOADS,
        "predictions": [{"layer_metrics": a, "moves": b, "predicted_no_change": c}
                        for a, b, c in PREDICTIONS],
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "bare_interpreter_start_ms": round(statistics.median(starts) * 1e3, 1),
        },
        "size": {"src_nonblank_lines": src_lines, "cfcert_all": len(api.__all__)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="write bench/manifest.json and exit")
    args = ap.parse_args(argv)
    os.environ.pop("MAX_DEPTH", None)  # the CLI reads it; inputs come from the seed only
    api, cli = import_cfcert()
    if args.describe:
        manifest = describe(api)
        (BENCH_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        print(json.dumps(manifest["environment"] | manifest["size"]))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = (run_traced if args.trace else run_end_to_end)(args, api, cli)
    except WrongCertificate as exc:
        print(f"WRONG CERTIFICATE: {exc}", file=sys.stderr)
        return EXIT_WRONG_CERTIFICATE
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
