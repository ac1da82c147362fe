"""Command-line front end and the machine-readable record format.

Subcommands: eval, check, alpha, scan, witness, oracle.  Records go to
stdout as CSV (fixed header ``command,m,lambda,lo,hi,depth,certified,mode,tol``)
or newline-delimited JSON; both formats carry identical values.  Rational
inputs are parsed exactly ("p/q" or decimal strings, so 0.1 means 1/10),
and decimal output is printed at 15 significant digits with lo rounded
toward -inf and hi toward +inf, keeping every printed interval a valid
enclosure.  A directed row also prints the tol its evaluation ran at, as
``p/q``; every other row leaves tol empty.  So each row carries what
rebuilds it (reverify_records).

Exit codes are a total function of the outcome:
0 ok, 1 usage error, 2 not converged, 3 inconclusive, 4 no witness found.
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import namedtuple
from collections.abc import Iterable
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

# each submodule runs on its first attribute access, so a subcommand runs
# only the modules it calls into
from . import alpha_root, bessel_oracle, bounds, lambda_scan
from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    EvalMode,
    _best,
    _Checked,
    _exact_at,
    _mapped,
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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_INCONCLUSIVE = 3
EXIT_NO_WITNESS = 4

DIGITS = 15
CSV_HEADER = ("command", "m", "lambda", "lo", "hi", "depth", "certified", "mode", "tol")
_GRID_SCALE = 10**9
_CERTIFIED = {"true": True, "false": False, "": None}  # CSV text of OutputRecord.certified
_MODES = tuple(mode.value for mode in EvalMode)


class OutputRecord(
    _Checked, namedtuple("OutputRecord", "command inputs lo hi depth certified mode tol")
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
        tol: str,
    ) -> OutputRecord:
        self = tuple.__new__(cls, (command, inputs, lo, hi, depth, certified, mode, tol))
        if (
            type(inputs) is not dict
            or any(type(v) is not str for v in (lo, hi, tol, *inputs.values()))
            or type(depth) is not int
            or type(certified) not in (bool, type(None))
            or mode not in _MODES
        ):
            raise ValueError(f"record field emit never writes: {self}")
        return self

    def to_json_line(self) -> str:
        import json

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
            self.tol,
        ]


def fraction_str(value: Fraction) -> str:
    """Canonical ``p/q`` form, lowest terms, q > 0 (Fraction keeps both)."""
    return f"{value.numerator}/{value.denominator}"


def _decimal_str(value: Fraction, rounding: str) -> str:
    """``value`` at DIGITS significant digits, rounded by ``rounding``
    (ROUND_FLOOR or ROUND_CEILING).

    Converting a long numerator and denominator to Decimal is quadratic in
    their length, so only a short quotient is divided.  k > 0.31 * (51 +
    bits(den) - bits(num)) and 10**k > 2**(k / 0.31), which makes
    |num| * 10**k / den > 2**50 > 10**15.  With q, r = divmod(num *
    10**k, den), the value scaled by 10**k is q when r = 0, and otherwise
    lies strictly between the integers q and q + 1, as does q + 1/2.  At
    that size the DIGITS-digit grid is made of integers, so the value and
    q + 1/2 round to the same digits in either direction.  An exact quotient
    keeps integer operands, so its exponent is the one the full division
    gives too.
    """
    num, den = value.numerator, value.denominator
    k = max(0, (51 + den.bit_length() - num.bit_length()) * 31 // 100 + 1)
    q, r = divmod(num * 10**k, den)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ctx.rounding = rounding
        ctx.Emax = 10**6
        ctx.Emin = -(10**6)
        if r == 0:
            return str(Decimal(q) / Decimal(10**k))
        return str(Decimal(2 * q + 1) / Decimal(2 * 10**k))


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
        tol="" if enc.tol is None else fraction_str(enc.tol),
    )


def emit(records: Iterable[OutputRecord], fmt: str) -> str:
    records = list(records)
    if fmt == "json":
        return "".join(rec.to_json_line() + "\n" for rec in records)
    import csv

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
        import json

        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            if type(obj) is not dict or obj.keys() != set(OutputRecord._fields):
                raise ValueError(f"record field emit never writes: {line}")
            records.append(OutputRecord._make(obj[field] for field in OutputRecord._fields))
        return records
    import csv

    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    for row in rows[1:]:
        command, m, lam, lo, hi, depth, cert, mode, tol = row
        if str(int(depth)) != depth or cert not in _CERTIFIED:
            raise ValueError(f"record field emit never writes: {row}")
        inputs = {}
        if m:
            inputs["m"] = m
        if lam:
            inputs["lambda"] = lam
        records.append(
            OutputRecord(command, inputs, lo, hi, int(depth), _CERTIFIED[cert], mode, tol)
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


def _add_grid(p: argparse.ArgumentParser) -> None:
    """--grid-geom or --grid-list: giving both is a usage error."""
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--grid-geom", default=None, metavar="LO:HI:COUNT")
    grid.add_argument("--grid-list", default=None, metavar="L1,L2,...")


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

    A sandwich prints G(m+1, lam) as its upper row and G(m, lam), mapped
    from it, as its lower row, whether or not it certifies.  The reciprocal
    claim is about ``point`` = (0, lam) and prints G(0, lam), mapped from
    G(1, lam); every other claim prints G(m, lam).
    """
    try:
        if claim == "sandwich":
            upper, lower = bounds.check_sandwich(point, tol, max_depth=max_depth)
            certified, left, right = True, upper.left, lower.right
        else:
            if claim == "functional":
                report = bounds.check_functional_equation(point, tol, max_depth=max_depth)
            elif claim == "above-one":
                report = bounds.check_g_above_one(point, tol, max_depth=max_depth)
            else:
                report = bounds.check_reciprocal(point.lam, tol, max_depth=max_depth)
            certified, left, right = True, report.left, report.right
    except InconclusiveError as exc:
        certified, left, right = False, exc.left, exc.right
    if claim == "sandwich":
        return certified, [("check-sandwich-upper", left), ("check-sandwich-lower", right)]
    return certified, [(f"check-{claim}", left)]


def _cmd_check(args):
    reciprocal = args.claim == "reciprocal"
    point = CFPoint(0 if reciprocal else _require_m(args), args.lam)
    certified, rows = _check_rows(args.claim, point, _tol(args), args.max_depth)
    inputs = {"lambda": point.lam} if reciprocal else {"m": point.m, "lambda": point.lam}
    records = [record_from_enclosure(cmd, inputs, enc, certified=certified) for cmd, enc in rows]
    return (EXIT_OK if certified else EXIT_INCONCLUSIVE), records


def _cmd_alpha(args):
    result = alpha_root.find_alpha(args.lam, args.bracket_tol, args.g_tol, max_depth=args.max_depth)
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
    # find_alpha flags a bracket only where it could not certify a cell end
    return (EXIT_OK if result.flag is None else EXIT_INCONCLUSIVE), records


def _cmd_scan(args):
    grid = _parse_grid(args)
    if grid is None:
        raise DomainError("scan needs --grid-geom or --grid-list")
    entries = lambda_scan.scan(args.m, grid, _tol(args), max_depth=args.max_depth)
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
        w = lambda_scan.find_witness(args.m, grid, _tol(args), max_depth=args.max_depth)
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
    report = bessel_oracle.cross_check(int(m), args.lam, _tol(args), max_depth=args.max_depth)
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
    _add_grid(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("witness", parents=[common],
                       help="search a grid for a certified decrease in lambda")
    p.add_argument("--m", type=_fraction_arg, required=True)
    _add_grid(p)
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


#: the verdict a row states, as an exact predicate on its rebuilt enclosure,
#: with c = m*lam at the row's point.  B(m, lam), the positive root of
#: y**2 - c*y - 1, is never formed: y > 0 lies above it exactly when
#: y*(y - c) > 1.  A check-functional row holds by construction.
_VERDICTS = {
    "check-above-one": lambda enc, c: enc.lo > 1,
    "alpha-hi": lambda enc, c: enc.lo > 1,
    "check-reciprocal": lambda enc, c: enc.hi < 1,
    "alpha-lo": lambda enc, c: enc.hi < 1,
    # the row holds G(m+1, lam)
    "check-sandwich-upper": lambda enc, c: enc.lo > 0 and enc.lo * (enc.lo - c) > 1,
    "check-sandwich-lower": lambda enc, c: enc.hi * (enc.hi - c) < 1,
}
_ROWS = (
    "eval", "scan", "alpha-mid", "check-functional", "witness-g1", "witness-g2",
    "oracle-cf", "oracle-series", *_VERDICTS,
)
# the CLI prints each pair's first row directly before its partner
_PAIRS = {"witness-g1": "witness-g2", "oracle-cf": "oracle-series"}


def _rec_point(rec: OutputRecord) -> CFPoint:
    """The point a row is about; a reciprocal row prints no m and is about (0, lam)."""
    m = 0 if rec.command == "check-reciprocal" else rec.inputs["m"]
    return CFPoint(Fraction(m), Fraction(rec.inputs["lambda"]))


def _validate(records: list[OutputRecord], max_depth: int) -> None:
    """Reject, before any row is evaluated, an unknown command, inputs that
    name no point, a depth that no evaluation returns, a tol that does not
    fit the mode, and an uncertified check-functional row.

    Series rows are re-summed to their depth, at most MAX_TERMS terms, and
    every other row is rebuilt with its depth as the budget, at most
    max_depth.  A directed row needs a positive tol, and no other row has
    one.
    """
    for rec in records:
        if rec.command not in _ROWS:
            raise ValueError(f"unknown record command: {rec.command}")
        keys = {"lambda"} if rec.command == "check-reciprocal" else {"m", "lambda"}
        if rec.inputs.keys() != keys:
            raise ValueError(f"{rec.command} inputs are not {sorted(keys)}: {rec}")
        limit = bessel_oracle.MAX_TERMS if rec.command == "oracle-series" else max_depth
        if not 1 <= rec.depth <= limit:
            raise ValueError(f"{rec.command} depth outside [1, {limit}]: {rec}")
        try:
            _rec_point(rec)
            tol = Fraction(rec.tol) if rec.tol else None
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"inputs or tol are not rationals in range: {rec}") from exc
        directed = rec.mode == EvalMode.DIRECTED.value
        if (tol is not None) != directed or directed and tol <= 0:
            raise ValueError(f"a directed row needs a positive tol, any other none: {rec}")
        if rec.command == "check-functional" and not rec.certified:
            raise ValueError(f"functional verdict did not reproduce: {rec}")


def _reverified(rec: OutputRecord) -> Enclosure:
    """The enclosure a row printed, rebuilt from the row alone.

    The value is G(m+1, lam) for check-sandwich-upper, G(0, lam) for
    check-reciprocal, the series quotient for oracle-series and G(m, lam)
    for every other row.  A series row is re-summed to its depth and an
    exact row rebuilt at it.  A directed row is evaluated again at its own
    tol with its depth as the budget, which repeats the passes that printed
    it (cf_core.eval_directed).  A check-sandwich-lower or check-reciprocal
    row prints G(m, lam) mapped from G(m+1, lam) at its depth and tol: that
    tail is rebuilt, then mapped (cf_core._mapped).  The row printed from
    the rebuilt enclosure must be the row itself, and the row's verdict,
    unless it prints certified=false, must hold on it (_VERDICTS).
    """
    point = _rec_point(rec)
    mapped = rec.command in ("check-sandwich-lower", "check-reciprocal")
    value_at = point.shifted() if mapped or rec.command == "check-sandwich-upper" else point
    if rec.command == "oracle-series":
        if point.m.denominator != 1:
            raise ValueError(f"series row needs an integer m: {rec}")
        try:
            enc = bessel_oracle._summed(int(point.m), point.lam, rec.depth)
        except TailNotBoundedError as exc:
            raise ValueError(f"series row has no tail bound at its depth: {rec}") from exc
    elif rec.mode == EvalMode.EXACT.value:
        enc = _exact_at(value_at, rec.depth)
    else:
        enc, _ = _best(value_at, Fraction(rec.tol), rec.depth, "directed")
    if mapped:
        enc = _mapped(point, enc)
    inputs = {key: Fraction(value) for key, value in rec.inputs.items()}
    if record_from_enclosure(rec.command, inputs, enc, rec.certified) != rec:
        raise ValueError(f"row does not regenerate: {rec}")
    holds = _VERDICTS.get(rec.command)
    if holds and rec.certified is not False and not holds(enc, point.m * point.lam):
        raise ValueError(f"{rec.command} verdict does not hold: {rec}")
    return enc


def _check_pairs(records: list[OutputRecord], encs: list[Enclosure]) -> None:
    """A witness-g1 row must be directly followed by its witness-g2 row at the
    same m and a larger lam, their rebuilt enclosures certifying a decrease;
    an oracle-cf row must be directly followed by its oracle-series row at
    the same point, their rebuilt enclosures meeting."""
    rows = list(zip(records, encs))
    for (first, e1), (second, e2) in zip([(None, None), *rows], [*rows, (None, None)]):
        opens = first is not None and first.command in _PAIRS
        closes = second is not None and second.command in _PAIRS.values()
        if not (opens or closes):
            continue
        if not (opens and closes and second.command == _PAIRS[first.command]):
            raise ValueError(f"pair row without its partner: {first if opens else second}")
        p1, p2 = _rec_point(first), _rec_point(second)
        if first.command == "witness-g1":
            if p1.m != p2.m or not (p1.lam < p2.lam and e1.lo > e2.hi):
                raise ValueError(f"witness rows do not certify a decrease: {first}")
        elif p1 != p2 or max(e1.lo, e2.lo) > min(e1.hi, e2.hi):
            raise ValueError(f"oracle rows do not meet at one point: {first}")


def reverify_records(
    records: list[OutputRecord], *, max_depth: int = DEFAULT_MAX_DEPTH
) -> bool:
    """Re-check emitted records; raises ValueError on any mismatch.

    One rule covers every row: it is rebuilt from its own inputs, depth and
    tol, must print the same row again, and its verdict must hold on the
    rebuilt enclosure (_reverified).  Witness and oracle rows come in pairs,
    judged on their rebuilt enclosures (_check_pairs).  Nothing is
    certified afresh, and no row is evaluated at a tol it does not print.

    Commands, depths and tols are checked before any row is evaluated
    (_validate); max_depth bounds the depths a row may print.
    """
    _validate(records, max_depth)
    _check_pairs(records, [_reverified(rec) for rec in records])
    return True


if __name__ == "__main__":
    sys.exit(main())
