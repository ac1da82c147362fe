"""Command-line front end and the machine-readable record format.

Subcommands: eval, check, alpha, scan, witness, oracle.  Records go to
stdout as CSV (fixed header ``command,m,lambda,lo,hi,depth,certified,mode``)
or newline-delimited JSON; both formats carry identical values.  Rational
inputs are parsed exactly ("p/q" or decimal strings, so 0.1 means 1/10),
and decimal output is printed at 15 significant digits with lo rounded
toward -inf and hi toward +inf, keeping every printed interval a valid
enclosure.

Exit codes are a total function of the outcome:
0 ok, 1 usage error, 2 not converged, 3 inconclusive, 4 no witness found.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from typing import Iterable

from .alpha_root import FLAG_BUDGET, FLAG_INCONCLUSIVE, classify_vs_one, find_alpha
from .bessel_oracle import MAX_TERMS, cross_check, series_ratio
from .bounds import (
    CheckReport,
    Claim,
    check_functional_equation,
    check_g_above_one,
    check_reciprocal,
    check_sandwich,
)
from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    _exact_at,
    as_fraction,
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
)
from .lambda_scan import find_witness, scan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_WITNESS = 4

DIGITS = 15
CSV_HEADER = ("command", "m", "lambda", "lo", "hi", "depth", "certified", "mode")
_GRID_SCALE = 10**9


@dataclass(frozen=True)
class OutputRecord:
    """One emitted row; identical content in CSV and JSON form."""

    command: str
    inputs: dict[str, str]
    lo: str
    hi: str
    depth: int
    certified: bool | None
    mode: str

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "lo": self.lo,
                "hi": self.hi,
                "depth": self.depth,
                "certified": self.certified,
                "mode": self.mode,
            }
        )

    def to_csv_row(self) -> list[str]:
        cert = "" if self.certified is None else ("true" if self.certified else "false")
        return [
            self.command,
            self.inputs.get("m", ""),
            self.inputs.get("lambda", ""),
            self.lo,
            self.hi,
            str(self.depth),
            cert,
            self.mode,
        ]


def fraction_str(value: Fraction) -> str:
    """Canonical ``p/q`` form, lowest terms, q > 0 (Fraction keeps both)."""
    return f"{value.numerator}/{value.denominator}"


def _decimal_str(value: Fraction, rounding: str) -> str:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ctx.rounding = rounding
        ctx.Emax = 10**6
        ctx.Emin = -(10**6)
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def decimal_down(value: Fraction) -> str:
    return _decimal_str(value, ROUND_FLOOR)


def decimal_up(value: Fraction) -> str:
    return _decimal_str(value, ROUND_CEILING)


def record_from_enclosure(
    command: str,
    inputs: dict[str, Fraction],
    enc: Enclosure,
    certified: bool | None = None,
) -> OutputRecord:
    return OutputRecord(
        command=command,
        inputs={k: fraction_str(as_fraction(v)) for k, v in inputs.items()},
        lo=decimal_down(enc.lo),
        hi=decimal_up(enc.hi),
        depth=enc.depth,
        certified=certified,
        mode=enc.mode.value,
    )


def emit(records: Iterable[OutputRecord], fmt: str) -> str:
    records = list(records)
    if fmt == "json":
        return "".join(rec.to_json_line() + "\n" for rec in records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.to_csv_row())
    return buf.getvalue()


def parse_records(text: str, fmt: str) -> list[OutputRecord]:
    """Inverse of emit, used by the round-trip checks."""
    records = []
    if fmt == "json":
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            records.append(
                OutputRecord(
                    command=obj["command"],
                    inputs=dict(obj["inputs"]),
                    lo=obj["lo"],
                    hi=obj["hi"],
                    depth=int(obj["depth"]),
                    certified=obj["certified"],
                    mode=obj["mode"],
                )
            )
        return records
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    for row in rows[1:]:
        command, m, lam, lo, hi, depth, cert, mode = row
        inputs = {}
        if m:
            inputs["m"] = m
        if lam:
            inputs["lambda"] = lam
        records.append(
            OutputRecord(
                command=command,
                inputs=inputs,
                lo=lo,
                hi=hi,
                depth=int(depth),
                certified=None if cert == "" else cert == "true",
                mode=mode,
            )
        )
    return records


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def _iroot(n: int, k: int) -> int:
    """Floor integer k-th root by Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if n == 0 or k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def geometric_grid(lo, hi, count: int) -> list[Fraction]:
    """``count`` geometrically spaced rationals from lo to hi, endpoints exact.

    Interior points are rounded down to multiples of 1e-9 via integer root
    extraction, so the grid is reproducible without any floating point.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo <= 0 or hi < lo:
        raise DomainError("need 0 < lo <= hi for a geometric grid")
    if count < 1:
        raise DomainError("grid count must be >= 1")
    if count == 1 or lo == hi:
        return [lo]
    e = count - 1
    points = [lo]
    for k in range(1, e):
        num = lo.numerator ** (e - k) * hi.numerator**k * _GRID_SCALE**e
        den = lo.denominator ** (e - k) * hi.denominator**k
        points.append(Fraction(_iroot(num // den, e), _GRID_SCALE))
    points.append(hi)
    ascending = [points[0]]
    for p in points[1:]:
        if p > ascending[-1]:
            ascending.append(p)
    return ascending


def _parse_grid(args) -> list[Fraction] | None:
    if getattr(args, "grid_geom", None):
        parts = args.grid_geom.split(":")
        if len(parts) != 3:
            raise DomainError("--grid-geom expects lo:hi:count")
        try:
            lo, hi, count = Fraction(parts[0]), Fraction(parts[1]), int(parts[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad grid value: {exc}") from exc
        return geometric_grid(lo, hi, count)
    if getattr(args, "grid_list", None):
        try:
            return [Fraction(p) for p in args.grid_list.split(",") if p.strip()]
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad grid value: {exc}") from exc
    return None


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _cap_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer >= 0: {text!r}")
    return int(text)


def _tol(args) -> Fraction:
    return DEFAULT_TOL if args.tol is None else args.tol


def _cmd_eval(args):
    point = CFPoint(args.m, args.lam)
    try:
        enc = evaluate(point, _tol(args), mode=args.mode, max_depth=args.max_depth)
        code = EXIT_OK
    except (NotConvergedError, BudgetExceededError) as exc:
        enc = exc.best
        code = EXIT_NOT_CONVERGED
        print(f"not converged: {exc}", file=sys.stderr)
    rec = record_from_enclosure("eval", {"m": point.m, "lambda": point.lam}, enc)
    return code, [rec]


def _require_m(args):
    if args.m is None:
        raise DomainError("this claim needs --m")
    return args.m


def _cmd_check(args):
    max_depth = args.max_depth
    tol = _tol(args)
    claim = args.claim
    if claim == "reciprocal":
        try:
            report = check_reciprocal(
                args.lam, tol, max_depth=max_depth, tighten_limit=args.max_tighten
            )
        except InconclusiveError as exc:
            rec = record_from_enclosure(
                "check-reciprocal", {"lambda": args.lam}, exc.left, certified=False
            )
            return EXIT_INCONCLUSIVE, [rec]
        rec = record_from_enclosure(
            "check-reciprocal", {"lambda": args.lam}, report.left, certified=True
        )
        return EXIT_OK, [rec]

    point = CFPoint(_require_m(args), args.lam)
    inputs = {"m": point.m, "lambda": point.lam}
    if claim == "sandwich":
        try:
            upper, lower = check_sandwich(
                point, tol, max_depth=max_depth, tighten_limit=args.max_tighten
            )
        except InconclusiveError as exc:  # the row of the half that fails
            lower = exc.claim is Claim.SANDWICH_LOWER
            half, enc = ("lower", exc.right) if lower else ("upper", exc.left)
            rec = record_from_enclosure(f"check-sandwich-{half}", inputs, enc, certified=False)
            return EXIT_INCONCLUSIVE, [rec]
        return EXIT_OK, [
            record_from_enclosure("check-sandwich-upper", inputs, upper.left, certified=True),
            record_from_enclosure("check-sandwich-lower", inputs, lower.right, certified=True),
        ]
    if claim == "functional":
        report = check_functional_equation(point, tol, max_depth=max_depth)
        rec = record_from_enclosure("check-functional", inputs, report.left, certified=True)
        return EXIT_OK, [rec]
    if claim == "above-one":
        try:
            report = check_g_above_one(
                point, tol, max_depth=max_depth, tighten_limit=args.max_tighten
            )
        except InconclusiveError as exc:
            rec = record_from_enclosure(
                "check-above-one", inputs, exc.left, certified=False
            )
            return EXIT_INCONCLUSIVE, [rec]
        rec = record_from_enclosure("check-above-one", inputs, report.left, certified=True)
        return EXIT_OK, [rec]
    raise DomainError(f"unknown claim {claim!r}")


def _cmd_alpha(args):
    result = find_alpha(args.lam, args.bracket_tol, args.g_tol, max_depth=args.max_depth)
    # find_alpha returns only ends it certified, with the enclosures that did
    records = [
        record_from_enclosure(
            "alpha-lo", {"m": result.m_lo, "lambda": result.lam}, result.g_at_lo,
            certified=True,
        ),
        record_from_enclosure(
            "alpha-hi", {"m": result.m_hi, "lambda": result.lam}, result.g_at_hi,
            certified=True,
        ),
        record_from_enclosure(
            "alpha-mid", {"m": result.midpoint, "lambda": result.lam}, result.g_at_mid
        ),
    ]
    if result.flag == FLAG_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE, records
    if result.flag == FLAG_BUDGET:
        return EXIT_NOT_CONVERGED, records
    return EXIT_OK, records


def _cmd_scan(args):
    grid = _parse_grid(args)
    if grid is None:
        raise DomainError("scan needs --grid-geom or --grid-list")
    entries = scan(args.m, grid, _tol(args), max_depth=args.max_depth)
    code = EXIT_OK
    records = []
    for entry in entries:
        if entry.error is not None:
            code = EXIT_NOT_CONVERGED
            print(f"not converged at lambda={entry.lam}: {entry.error}", file=sys.stderr)
        if entry.enclosure is not None:
            records.append(
                record_from_enclosure(
                    "scan", {"m": as_fraction(args.m), "lambda": entry.lam}, entry.enclosure
                )
            )
    return code, records


def _cmd_witness(args):
    grid = _parse_grid(args)
    try:
        w = find_witness(args.m, grid, _tol(args), max_depth=args.max_depth)
    except NoWitnessFoundError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return EXIT_NO_WITNESS, []
    return EXIT_OK, [
        record_from_enclosure(
            "witness-g1", {"m": w.m, "lambda": w.lambda1}, w.g1, certified=True
        ),
        record_from_enclosure(
            "witness-g2", {"m": w.m, "lambda": w.lambda2}, w.g2, certified=True
        ),
    ]


def _cmd_oracle(args):
    m = as_fraction(args.m)
    if m.denominator != 1 or m < 0:
        raise DomainError(f"oracle needs integer m >= 0, got {m}")
    report = cross_check(int(m), args.lam, _tol(args), max_depth=args.max_depth)
    inputs = {"m": m, "lambda": as_fraction(args.lam)}
    return EXIT_OK, [
        record_from_enclosure("oracle-cf", inputs, report.left, certified=True),
        record_from_enclosure("oracle-series", inputs, report.right, certified=True),
    ]


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--tol", type=_fraction_arg, default=None,
                        help="enclosure width target (rational or decimal string)")
    common.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH,
                        help=f"depth budget, at least 1 (default {DEFAULT_MAX_DEPTH})")

    parser = argparse.ArgumentParser(
        prog="cfcert",
        description="Certified enclosures for the continued fraction G(m, lam) "
        "with terms (m + j) * lam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="enclose G(m, lam)")
    p.add_argument("--m", type=_fraction_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction_arg, required=True)
    p.add_argument("--mode", choices=("auto", "exact", "directed"), default="auto")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", parents=[common], help="certify an inequality or identity")
    p.add_argument("claim", choices=("sandwich", "functional", "above-one", "reciprocal"))
    p.add_argument("--m", type=_fraction_arg, default=None)
    p.add_argument("--lambda", dest="lam", type=_fraction_arg, required=True)
    p.add_argument("--max-tighten", type=_cap_arg, default=None,
                   help="cap the tolerance-tightening rounds (default: until the depth budget)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("alpha", parents=[common], help="bracket the m where G crosses 1")
    p.add_argument("--lambda", dest="lam", type=_fraction_arg, required=True)
    p.add_argument("--bracket-tol", type=_fraction_arg, default=Fraction(1, 10**6))
    p.add_argument("--g-tol", type=_fraction_arg, default=Fraction(1, 10**9))
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("scan", parents=[common], help="enclose G over a lambda grid")
    p.add_argument("--m", type=_fraction_arg, required=True)
    p.add_argument("--grid-geom", default=None, metavar="LO:HI:COUNT")
    p.add_argument("--grid-list", default=None, metavar="L1,L2,...")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("witness", parents=[common],
                       help="search a grid for a certified decrease in lambda")
    p.add_argument("--m", type=_fraction_arg, required=True)
    p.add_argument("--grid-geom", default=None, metavar="LO:HI:COUNT")
    p.add_argument("--grid-list", default=None, metavar="L1,L2,...")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("oracle", parents=[common],
                       help="cross-check the convergent engine against the series oracle")
    p.add_argument("--m", type=_fraction_arg, required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction_arg, required=True)
    p.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code, records = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotConvergedError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CFCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(emit(records, args.format))
    return code


# ---------------------------------------------------------------------------
# round-trip verification
# ---------------------------------------------------------------------------


def _parsed_interval(rec: OutputRecord) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(rec.lo), Fraction(rec.hi)
    if lo > hi:
        raise ValueError(f"record interval inverted: {rec}")
    return lo, hi


def _rec_point(rec: OutputRecord) -> CFPoint:
    return CFPoint(Fraction(rec.inputs["m"]), Fraction(rec.inputs["lambda"]))


def _printed_point(rec: OutputRecord) -> CFPoint:
    """The point whose G a check row printed: (m + 1, lam) for the upper
    sandwich half, (0, lam) for the reciprocal claim, (m, lam) otherwise."""
    if rec.command == "check-reciprocal":
        return CFPoint(0, Fraction(rec.inputs["lambda"]))
    point = _rec_point(rec)
    return point.shifted() if rec.command == "check-sandwich-upper" else point


def _regenerate_exact(rec: OutputRecord, point: CFPoint) -> Enclosure:
    """Exact-mode rows are a pure function of (point, depth): rebuild and compare."""
    enc = _exact_at(point, rec.depth)
    if decimal_down(enc.lo) != rec.lo or decimal_up(enc.hi) != rec.hi:
        raise ValueError(f"exact row does not regenerate: {rec}")
    return enc


_ENCLOSURE_ROWS = ("eval", "scan", "alpha-mid", "witness-g1", "witness-g2", "oracle-cf")

_CLAIMS = {
    "check-sandwich-upper": "sandwich",
    "check-sandwich-lower": "sandwich",
    "check-functional": "functional",
    "check-above-one": "above-one",
    "check-reciprocal": "reciprocal",
}


def _check_depth(rec: OutputRecord, max_depth: int) -> None:
    """Reject a depth that no evaluation returns, before any work runs on it.

    The depth drives a recurrence for exact enclosure rows and uncertified
    exact check rows (rebuilt at it), for alpha endpoint rows of either mode
    (a directed one is decided at depth + 1) and for series rows (re-summed
    to it); other rows ignore it.
    """
    enclosure_row = rec.command in _ENCLOSURE_ROWS or (
        rec.command in _CLAIMS and not rec.certified
    )
    if rec.command == "oracle-series":
        limit = MAX_TERMS
    elif rec.command in ("alpha-lo", "alpha-hi") or (
        enclosure_row and rec.mode == EvalMode.EXACT.value
    ):
        limit = max_depth
    else:
        return
    if not 1 <= rec.depth <= limit:
        raise ValueError(f"{rec.command} depth outside [1, {limit}]: {rec}")


def _endpoint_side(rec: OutputRecord, max_depth: int) -> int:
    """Side of G relative to 1 at an alpha endpoint row, from the row's own depth.

    An exact row rebuilds, from its depth, the very enclosure it printed.  A
    directed pass at depth n encloses the exact tail pair (n, n+1), so the
    exact enclosure at depth n + 1 decides whatever the row decided.  At small
    lam those exact numerators are large, so a directed re-evaluation at the
    default tolerance is tried first; any side it certifies is rigorous too.
    """
    point = _rec_point(rec)
    if rec.mode == EvalMode.EXACT.value:
        enc = _regenerate_exact(rec, point)
    else:
        side, _ = classify_vs_one(point, DEFAULT_TOL, max_depth=max_depth)
        if side != 0:
            return side
        enc = _exact_at(point, rec.depth + 1)
    return -1 if enc.hi < 1 else 1 if enc.lo > 1 else 0


def _recheck_enclosure(rec: OutputRecord, max_depth: int, point: CFPoint) -> None:
    """The printed interval must meet a fresh enclosure of G(point).

    A row printed not converged re-evaluates out of budget too; the best
    enclosure then reached is still rigorous, so the check runs against it.
    """
    lo, hi = _parsed_interval(rec)
    mode = "exact" if rec.mode == EvalMode.EXACT.value else "directed"
    try:
        enc = evaluate(point, DEFAULT_TOL, mode=mode, max_depth=max_depth)
    except (NotConvergedError, BudgetExceededError) as exc:
        enc = exc.best
    if max(lo, enc.lo) > min(hi, enc.hi):
        raise ValueError(f"re-evaluation disjoint from printed interval: {rec}")
    if mode == "exact":
        _regenerate_exact(rec, point)


def _claim_holds(
    rec: OutputRecord,
    max_depth: int,
    sandwiches: dict[CFPoint, tuple[CheckReport, CheckReport]],
) -> bool:
    """Whether a check row's verdict reproduces; a certificate that fails raises.

    A row printed uncertified (inconclusive) is not re-run: like an
    enclosure row, its printed interval must meet a fresh enclosure of the
    value it printed (_printed_point), and an exact one must rebuild from
    its depth; a functional row never prints so.  Otherwise the claim is
    certified afresh and the printed interval must meet the enclosure that
    row printed: ``right`` of the lower sandwich report for a sandwich-lower
    row, ``left`` of the report for every other row.  A sandwich pair is
    certified once per point.
    """
    cmd = rec.command
    if not rec.certified:
        if cmd == "check-functional":
            return False
        _recheck_enclosure(rec, max_depth, _printed_point(rec))
        return True
    if cmd == "check-reciprocal":
        lam = Fraction(rec.inputs["lambda"])
        enc = check_reciprocal(lam, DEFAULT_TOL, max_depth=max_depth).left
    elif cmd == "check-functional":
        enc = check_functional_equation(_rec_point(rec), DEFAULT_TOL, max_depth=max_depth).left
    elif cmd == "check-above-one":
        enc = check_g_above_one(_rec_point(rec), DEFAULT_TOL, max_depth=max_depth).left
    else:
        point = _rec_point(rec)
        if point not in sandwiches:
            sandwiches[point] = check_sandwich(point, DEFAULT_TOL, max_depth=max_depth)
        upper, lower = sandwiches[point]
        enc = lower.right if cmd == "check-sandwich-lower" else upper.left
    lo, hi = _parsed_interval(rec)
    return max(lo, enc.lo) <= min(hi, enc.hi)


def reverify_records(
    records: list[OutputRecord], *, max_depth: int = DEFAULT_MAX_DEPTH
) -> bool:
    """Re-parse and re-certify emitted records; raises ValueError on any mismatch.

    Certified verdicts are monotone in tolerance, so a True record must
    re-certify; pair claims (witness, oracle, sandwich) are checked jointly.
    Every depth is range-checked before any record is re-evaluated.  A check
    row whose certificate comes back inconclusive or out of budget is a
    mismatch too, and so is a row whose printed interval misses the fresh
    enclosure of the value it printed.
    """
    for rec in records:
        _check_depth(rec, max_depth)
    by_command = {rec.command: rec for rec in records}
    sandwiches = {}  # the sandwich pair re-certified at each point
    for rec in records:
        cmd = rec.command
        if cmd in _ENCLOSURE_ROWS:
            _recheck_enclosure(rec, max_depth, _rec_point(rec))
        elif cmd == "oracle-series":
            _parsed_interval(rec)
            point = _rec_point(rec)
            if point.m.denominator != 1:
                raise ValueError(f"series row needs an integer m: {rec}")
            try:
                se = series_ratio(int(point.m), point.lam, rec.depth)
            except TailNotBoundedError as exc:
                raise ValueError(f"series row has no tail bound at its depth: {rec}") from exc
            if decimal_down(se.lo) != rec.lo or decimal_up(se.hi) != rec.hi:
                raise ValueError(f"series row does not regenerate: {rec}")
        elif cmd in _CLAIMS:
            try:
                held = _claim_holds(rec, max_depth, sandwiches)
            except (InconclusiveError, NotConvergedError, BudgetExceededError) as exc:
                raise ValueError(f"{_CLAIMS[cmd]} verdict did not reproduce: {rec}") from exc
            if not held:
                raise ValueError(f"{_CLAIMS[cmd]} verdict did not reproduce: {rec}")
        elif cmd in ("alpha-lo", "alpha-hi"):
            want = -1 if cmd == "alpha-lo" else 1
            if _endpoint_side(rec, max_depth) != want:
                raise ValueError(f"alpha endpoint verdict did not reproduce: {rec}")
        else:
            raise ValueError(f"unknown record command: {cmd}")

    g1, g2 = by_command.get("witness-g1"), by_command.get("witness-g2")
    if g1 is not None and g2 is not None:
        if not Fraction(g1.lo) > Fraction(g2.hi):
            raise ValueError("printed witness intervals do not certify a decrease")
    cf, se = by_command.get("oracle-cf"), by_command.get("oracle-series")
    if cf is not None and se is not None:
        lo1, hi1 = _parsed_interval(cf)
        lo2, hi2 = _parsed_interval(se)
        if max(lo1, lo2) > min(hi1, hi2):
            raise ValueError("printed oracle intervals are disjoint")
    return True


if __name__ == "__main__":
    sys.exit(main())
