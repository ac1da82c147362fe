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
from collections import namedtuple
from collections.abc import Iterable
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

from .alpha_root import _side, find_alpha
from .bessel_oracle import MAX_TERMS, cross_check, series_ratio
from .bounds import (
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
    _best,
    _Checked,
    _exact_at,
    as_fraction,
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
_CERTIFIED = {"true": True, "false": False, "": None}  # CSV text of OutputRecord.certified
_MODES = tuple(mode.value for mode in EvalMode)


class OutputRecord(
    _Checked, namedtuple("OutputRecord", "command inputs lo hi depth certified mode")
):
    """One emitted row; identical content in CSV and JSON form.

    An immutable named tuple.  Construction, _replace included, rejects a
    field that emit never writes.
    """

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        inputs: dict[str, str],
        lo: str,
        hi: str,
        depth: int,
        certified: bool | None,
        mode: str,
    ) -> OutputRecord:
        self = tuple.__new__(cls, (command, inputs, lo, hi, depth, certified, mode))
        if (
            type(inputs) is not dict
            or any(type(v) is not str for v in (lo, hi, *inputs.values()))
            or type(depth) is not int
            or type(certified) not in (bool, type(None))
            or mode not in _MODES
        ):
            raise ValueError(f"record field emit never writes: {self}")
        return self

    def to_json_line(self) -> str:
        return json.dumps(self._asdict())

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
    """Inverse of emit, used by the round-trip checks; rejects what emit never writes."""
    records = []
    if fmt == "json":
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            records.append(OutputRecord._make(obj[field] for field in OutputRecord._fields))
        return records
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    for row in rows[1:]:
        command, m, lam, lo, hi, depth, cert, mode = row
        if str(int(depth)) != depth or cert not in _CERTIFIED:
            raise ValueError(f"record field emit never writes: {row}")
        inputs = {}
        if m:
            inputs["m"] = m
        if lam:
            inputs["lambda"] = lam
        records.append(
            OutputRecord(command, inputs, lo, hi, int(depth), _CERTIFIED[cert], mode)
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


def _tol(args) -> Fraction:
    return DEFAULT_TOL if args.tol is None else args.tol


def _cmd_eval(args):
    point = CFPoint(args.m, args.lam)
    enc, exc = _best(point, _tol(args), args.max_depth, args.mode)
    if exc is not None:
        print(f"not converged: {exc}", file=sys.stderr)
    rec = record_from_enclosure("eval", {"m": point.m, "lambda": point.lam}, enc)
    return (EXIT_OK if exc is None else EXIT_NOT_CONVERGED), [rec]


def _require_m(args):
    if args.m is None:
        raise DomainError("this claim needs --m")
    return args.m


def _check_rows(claim: str, point: CFPoint, tol, max_depth: int):
    """Whether ``claim`` certifies at ``point``, and the (command, enclosure)
    rows a check of it prints.

    A certified sandwich prints G(m+1, lam) of the upper half and G(m, lam)
    of the lower one; an inconclusive one prints only the half that fails.
    The reciprocal claim is about ``point`` = (0, lam) and prints G(0, lam);
    every other claim prints G(m, lam).
    """
    try:
        if claim == "sandwich":
            upper, lower = check_sandwich(point, tol, max_depth=max_depth)
            return True, [
                ("check-sandwich-upper", upper.left),
                ("check-sandwich-lower", lower.right),
            ]
        if claim == "functional":
            report = check_functional_equation(point, tol, max_depth=max_depth)
        elif claim == "above-one":
            report = check_g_above_one(point, tol, max_depth=max_depth)
        else:
            report = check_reciprocal(point.lam, tol, max_depth=max_depth)
    except InconclusiveError as exc:
        if exc.claim is Claim.SANDWICH_LOWER:
            return False, [("check-sandwich-lower", exc.right)]
        half = "-upper" if claim == "sandwich" else ""
        return False, [(f"check-{claim}{half}", exc.left)]
    return True, [(f"check-{claim}", report.left)]


def _cmd_check(args):
    reciprocal = args.claim == "reciprocal"
    point = CFPoint(0 if reciprocal else _require_m(args), args.lam)
    certified, rows = _check_rows(args.claim, point, _tol(args), args.max_depth)
    inputs = {"lambda": point.lam} if reciprocal else {"m": point.m, "lambda": point.lam}
    records = [record_from_enclosure(cmd, inputs, enc, certified=certified) for cmd, enc in rows]
    return (EXIT_OK if certified else EXIT_INCONCLUSIVE), records


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
    # find_alpha flags only a midpoint it could not decide
    return (EXIT_OK if result.flag is None else EXIT_INCONCLUSIVE), records


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
        inputs = {"m": as_fraction(args.m), "lambda": entry.lam}
        records.append(record_from_enclosure("scan", inputs, entry.enclosure))
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


_CLAIMS = {
    "check-sandwich-upper": "sandwich",
    "check-sandwich-lower": "sandwich",
    "check-functional": "functional",
    "check-above-one": "above-one",
    "check-reciprocal": "reciprocal",
}
_ROWS = (
    "eval", "scan", "alpha-lo", "alpha-hi", "alpha-mid",
    "witness-g1", "witness-g2", "oracle-cf", "oracle-series", *_CLAIMS,
)
# the CLI prints each pair's first row directly before its partner
_PAIRS = {"witness-g1": "witness-g2", "oracle-cf": "oracle-series"}


def _parsed_interval(rec: OutputRecord) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(rec.lo), Fraction(rec.hi)
    if lo > hi:
        raise ValueError(f"record interval inverted: {rec}")
    return lo, hi


def _rec_point(rec: OutputRecord) -> CFPoint:
    """The point a row is about; a reciprocal row prints no m and is about (0, lam)."""
    m = 0 if rec.command == "check-reciprocal" else rec.inputs["m"]
    return CFPoint(Fraction(m), Fraction(rec.inputs["lambda"]))


def _validate(records: list[OutputRecord], max_depth: int) -> None:
    """Reject an unknown command or a depth that no evaluation returns.

    A depth is range-checked where re-verification uses it: series rows are
    re-summed to it, other exact rows are rebuilt at it, and a directed alpha
    endpoint may be decided at depth + 1.
    """
    for rec in records:
        if rec.command not in _ROWS:
            raise ValueError(f"unknown record command: {rec.command}")
        if rec.command == "oracle-series":
            limit = MAX_TERMS
        elif rec.command in ("alpha-lo", "alpha-hi") or rec.mode == EvalMode.EXACT.value:
            limit = max_depth
        else:
            continue
        if not 1 <= rec.depth <= limit:
            raise ValueError(f"{rec.command} depth outside [1, {limit}]: {rec}")


def _check_pairs(records: list[OutputRecord]) -> None:
    """A witness-g1 row must be directly followed by its witness-g2 row at the
    same m, their printed intervals certifying a decrease in lambda; an
    oracle-cf row must be directly followed by its oracle-series row at the
    same point, their printed intervals meeting."""
    for first, second in zip([None, *records], [*records, None]):
        opens = first is not None and first.command in _PAIRS
        closes = second is not None and second.command in _PAIRS.values()
        if not (opens or closes):
            continue
        if not (opens and closes and second.command == _PAIRS[first.command]):
            raise ValueError(f"pair row without its partner: {first if opens else second}")
        p1, p2 = _rec_point(first), _rec_point(second)
        (lo1, hi1), (lo2, hi2) = _parsed_interval(first), _parsed_interval(second)
        if first.command == "witness-g1":
            if p1.m != p2.m or not (p1.lam < p2.lam and lo1 > hi2):
                raise ValueError(f"printed witness rows do not certify a decrease: {first}")
        elif p1 != p2 or max(lo1, lo2) > min(hi1, hi2):
            raise ValueError(f"printed oracle rows do not meet at one point: {first}")


def _fresh_enclosure(rec: OutputRecord, max_depth: int) -> Enclosure:
    """One fresh enclosure of the value a row printed.

    The value is G(m+1, lam) for check-sandwich-upper, G(0, lam) for
    check-reciprocal, the series quotient for oracle-series and G(m, lam)
    for every other row.  Series rows are re-summed to their depth and exact
    rows rebuilt at it, so they must also print the same digits.  A directed
    row is evaluated again at DEFAULT_TOL; out of budget, its best enclosure,
    still rigorous, stands in.
    """
    point = _rec_point(rec)
    if rec.command == "check-sandwich-upper":
        point = point.shifted()
    if rec.command == "oracle-series":
        if point.m.denominator != 1:
            raise ValueError(f"series row needs an integer m: {rec}")
        try:
            enc = series_ratio(int(point.m), point.lam, rec.depth)
        except TailNotBoundedError as exc:
            raise ValueError(f"series row has no tail bound at its depth: {rec}") from exc
    elif rec.mode == EvalMode.EXACT.value:
        enc = _exact_at(point, rec.depth)
    else:
        enc, _ = _best(point, DEFAULT_TOL, max_depth, "directed")
    lo, hi = _parsed_interval(rec)
    if max(lo, enc.lo) > min(hi, enc.hi):
        raise ValueError(f"re-evaluation disjoint from printed interval: {rec}")
    if (rec.command == "oracle-series" or rec.mode == EvalMode.EXACT.value) and (
        decimal_down(enc.lo) != rec.lo or decimal_up(enc.hi) != rec.hi
    ):
        raise ValueError(f"row does not regenerate: {rec}")
    return enc


def reverify_records(
    records: list[OutputRecord], *, max_depth: int = DEFAULT_MAX_DEPTH
) -> bool:
    """Re-check emitted records; raises ValueError on any mismatch.

    One rule covers every row: it gets one fresh enclosure of the value it
    printed, and its printed interval must meet it (_fresh_enclosure); exact
    and series rows must also regenerate their digits.  Verdicts are checked
    on top of that:

    - a certified check row has its claim certified afresh at DEFAULT_TOL,
      once per claim and point, before its fresh enclosure; a claim that
      comes back inconclusive is a mismatch, and so is an uncertified
      check-functional row;
    - alpha-lo must lie below 1 and alpha-hi above it; a directed endpoint
      that its fresh DEFAULT_TOL enclosure leaves undecided gets one directed
      evaluation at half the distance of its printed interval from 1, when
      that is positive, which must meet the interval, then the exact
      enclosure at depth + 1, which a directed pass at depth n encloses;
    - witness and oracle rows come in pairs (_check_pairs).

    Commands and depths are checked before any row is evaluated.
    """
    _validate(records, max_depth)
    certifies = {}  # (claim, point) -> whether it certifies at DEFAULT_TOL
    for rec in records:
        cmd = rec.command
        if cmd in _CLAIMS and rec.certified:
            claim, point = _CLAIMS[cmd], _rec_point(rec)
            if (claim, point) not in certifies:
                certifies[claim, point] = _check_rows(claim, point, DEFAULT_TOL, max_depth)[0]
            if not certifies[claim, point]:
                raise ValueError(f"{claim} verdict did not reproduce: {rec}")
        elif cmd == "check-functional":
            raise ValueError(f"functional verdict did not reproduce: {rec}")
        enc = _fresh_enclosure(rec, max_depth)
        if cmd not in ("alpha-lo", "alpha-hi"):
            continue
        side = _side(enc)
        if side == 0 and rec.mode != EvalMode.EXACT.value:
            point, (lo, hi) = _rec_point(rec), _parsed_interval(rec)
            gap = max(lo - 1, 1 - hi)
            if gap > 0:  # an enclosure gap/2 wide that meets [lo, hi] excludes 1
                enc, _ = _best(point, gap / 2, max_depth, "directed")
                if max(lo, enc.lo) > min(hi, enc.hi):
                    raise ValueError(f"re-evaluation disjoint from printed interval: {rec}")
                side = _side(enc)
            if side == 0:
                side = _side(_exact_at(point, rec.depth + 1))
        if side != (-1 if cmd == "alpha-lo" else 1):
            raise ValueError(f"alpha endpoint verdict did not reproduce: {rec}")
    _check_pairs(records)
    return True


if __name__ == "__main__":
    sys.exit(main())
