from __future__ import annotations

import contextlib
import functools
import io
import json
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfcert import DEFAULT_MAX_DEPTH, DEFAULT_TOL, CFPoint, check_g_above_one, evaluate
from cfcert.cli import (
    DIGITS,
    EXIT_INCONCLUSIVE,
    EXIT_NO_WITNESS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    OutputRecord,
    _check_pairs,
    _decimal_str,
    decimal_down,
    decimal_up,
    emit,
    fraction_str,
    geometric_grid,
    main,
    parse_fraction,
    parse_records,
    record_from_enclosure,
    reverify_records,
)


#: per claim, a check whose depth budget leaves its rows undecided
UNDECIDED = {
    "above-one": ("check", "above-one", "--m", "1", "--lambda", "1e-10"),
    "reciprocal": ("check", "reciprocal", "--lambda", "1/4", "--max-depth", "1"),
    "sandwich": ("check", "sandwich", "--m", "0", "--lambda", "1/4", "--max-depth", "1"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEval:
    def test_json_record(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--lambda", "1",
                        "--tol", "1e-9", "--format", "json")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "json")
        assert rec.command == "eval"
        assert rec.inputs == {"m": "1/1", "lambda": "1/1"}
        assert Fraction(rec.lo) <= Fraction("1.433127426722311758") <= Fraction(rec.hi)
        assert rec.mode == "exact"

    def test_m0_below_one(self, capsys):
        code, out = run(capsys, "eval", "--m", "0", "--lambda", "1")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "csv")
        assert Fraction(rec.hi) < 1

    def test_domain_error_exit(self, capsys):
        code, _ = run(capsys, "eval", "--m", "-2", "--lambda", "1")
        assert code == EXIT_USAGE

    def test_decimal_inputs_parsed_exactly(self, capsys):
        code, out = run(capsys, "eval", "--m", "0.1", "--lambda", "0.5")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "csv")
        assert rec.inputs["m"] == "1/10"
        assert rec.inputs["lambda"] == "1/2"

    def test_not_converged_exit_with_best_record(self, capsys):
        code, out = run(capsys, "eval", "--m", "1", "--lambda", "0.001",
                        "--mode", "directed", "--max-depth", "50", "--tol", "1e-9")
        assert code == EXIT_NOT_CONVERGED
        (rec,) = parse_records(out, "csv")
        assert Fraction(rec.lo) <= Fraction(rec.hi)

    @pytest.mark.parametrize("max_depth", ["0", "-5"])
    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_budget_below_one_usage_error(self, capsys, mode, max_depth):
        code = main(["eval", "--m", "1", "--lambda", "1/100", "--mode", mode,
                     f"--max-depth={max_depth}"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error:") and "max_depth" in captured.err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestCheck:
    def test_sandwich_certified(self, capsys):
        code, out = run(capsys, "check", "sandwich", "--m", "0", "--lambda", "1")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert [r.command for r in recs] == ["check-sandwich-upper", "check-sandwich-lower"]
        assert all(r.certified for r in recs)

    def test_reciprocal_certified(self, capsys):
        code, out = run(capsys, "check", "reciprocal", "--lambda", "10")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "csv")
        assert rec.certified and Fraction(rec.hi) < 1

    def test_above_one_hypothesis_gate(self, capsys):
        code, _ = run(capsys, "check", "above-one", "--m", "0.5", "--lambda", "1")
        assert code == EXIT_USAGE

    def test_functional_negative_m(self, capsys):
        # negative rationals need the --m=value form (argparse dash handling)
        code, out = run(capsys, "check", "functional", "--m=-1/2", "--lambda", "1")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "csv")
        assert rec.certified

    @pytest.mark.parametrize(
        "argv, want_code, want_certified",
        [
            (("above-one", "--m", "1", "--lambda", "1", "--max-depth", "3"), EXIT_OK, [True]),
            (("reciprocal", "--lambda", "1", "--max-depth", "3"), EXIT_OK, [True]),
            (("sandwich", "--m", "1", "--lambda", "1", "--max-depth", "3"),
             EXIT_OK, [True, True]),
            # G(1, 1/4) in [35/44, 9/4] at depth 1 still straddles 1, so
            # G(0, 1/4), mapped from it, does too
            (("reciprocal", "--lambda", "1/4", "--max-depth", "1"), EXIT_INCONCLUSIVE, [False]),
            (("functional", "--m", "1", "--lambda", "1", "--max-depth", "3"), EXIT_OK, [True]),
            # ... and 1 = B(0, 1/4): both sandwich rows are printed, uncertified
            (("sandwich", "--m", "0", "--lambda", "1/4", "--max-depth", "1"),
             EXIT_INCONCLUSIVE, [False, False]),
            # G(1, 1) in [10/7, 3/2] at depth 1 lies above 1 = B(0, 1), and
            # G(0, 1), mapped from it, below
            (("reciprocal", "--lambda", "1", "--max-depth", "1"), EXIT_OK, [True]),
            (("sandwich", "--m", "0", "--lambda", "1", "--max-depth", "1"),
             EXIT_OK, [True, True]),
        ],
    )
    def test_out_of_budget_check_judges_best_enclosures(self, capsys, argv, want_code,
                                                       want_certified):
        code, out = run(capsys, "check", *argv)
        assert code == want_code
        recs = parse_records(out, "csv")
        max_depth = int(argv[-1])
        assert [r.certified for r in recs] == want_certified
        assert all(r.depth == max_depth for r in recs)
        assert reverify_records(recs)
        assert reverify_records(recs, max_depth=max_depth)

    def test_negative_tighten_cap_usage_error(self, capsys):
        # max_depth is the one budget: there is no cap on the tightening rounds
        for cap in ("-1", "0", "3"):
            code = main(["check", "sandwich", "--m", "1", "--lambda", "1", "--max-tighten", cap])
            captured = capsys.readouterr()
            assert code == EXIT_USAGE
            assert captured.out == ""
            assert "unrecognized arguments: --max-tighten" in captured.err

    def test_sandwich_inconclusive_prints_both_rows(self, capsys):
        code, out = run(capsys, "check", "sandwich", "--m", "0", "--lambda", "1/4",
                        "--max-depth", "1")
        assert code == EXIT_INCONCLUSIVE
        upper, lower = parse_records(out, "csv")
        # G(1, 1/4) in [35/44, 9/4] straddles B(0, 1/4) = 1, and so does
        # G(0, 1/4), mapped from it to [4/9, 44/35]
        assert [(r.command, r.lo, r.hi, r.depth, r.certified) for r in (upper, lower)] == [
            ("check-sandwich-upper", "0.795454545454545", "2.25", 1, False),
            ("check-sandwich-lower", "0.444444444444444", "1.25714285714286", 1, False),
        ]
        assert reverify_records([upper, lower])

    def test_sandwich_gap_below_former_floor(self, capsys):
        # B - G(m) is about 7e-37 here, below the 1e-30 where tightening
        # used to stop; the depth-1 enclosures separate once tol is below it
        code, out = run(capsys, "check", "sandwich", "--m", "1000000000000",
                        "--lambda", "1000000000000")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert [(r.certified, r.depth) for r in recs] == [(True, 1), (True, 1)]
        assert reverify_records(recs)

    def test_missing_m_usage_error(self, capsys):
        code, _ = run(capsys, "check", "sandwich", "--lambda", "1")
        assert code == EXIT_USAGE


class TestAlphaScanWitnessOracle:
    def test_alpha_bracket_interior(self, capsys):
        code, out = run(capsys, "alpha", "--lambda", "1", "--bracket-tol", "1e-6")
        assert code == EXIT_OK
        recs = {r.command: r for r in parse_records(out, "csv")}
        m_lo = Fraction(recs["alpha-lo"].inputs["m"])
        m_hi = Fraction(recs["alpha-hi"].inputs["m"])
        assert 0 < m_lo < m_hi < 1
        assert m_hi - m_lo <= Fraction(1, 10**6)
        assert Fraction(recs["alpha-lo"].hi) < 1
        assert Fraction(recs["alpha-hi"].lo) > 1

    def test_scan_rows(self, capsys):
        code, out = run(capsys, "scan", "--m", "0.1", "--grid-list", "1/4,1,2")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert [Fraction(r.inputs["lambda"]) for r in recs] == [Fraction(1, 4), 1, 2]

    def test_witness_found(self, capsys):
        code, out = run(capsys, "witness", "--m", "0.1",
                        "--grid-geom", "0.0625:4:9", "--format", "json")
        assert code == EXIT_OK
        recs = parse_records(out, "json")
        assert [r.command for r in recs] == ["witness-g1", "witness-g2"]
        lam1 = Fraction(recs[0].inputs["lambda"])
        lam2 = Fraction(recs[1].inputs["lambda"])
        assert lam1 < lam2
        assert Fraction(recs[0].lo) > Fraction(recs[1].hi)

    def test_witness_not_found(self, capsys):
        code, out = run(capsys, "witness", "--m", "0.9", "--grid-list", "1,2")
        assert code == EXIT_NO_WITNESS
        assert parse_records(out, "csv") == []

    def test_oracle_rows_intersect(self, capsys):
        code, out = run(capsys, "oracle", "--m", "2", "--lambda", "1")
        assert code == EXIT_OK
        cf, series = parse_records(out, "csv")
        assert max(Fraction(cf.lo), Fraction(series.lo)) <= min(
            Fraction(cf.hi), Fraction(series.hi)
        )

    def test_oracle_series_budget_exhausted(self, capsys):
        # the tail bound needs about sqrt(2)/lam = 141421 terms, over the budget
        code, out = run(capsys, "oracle", "--m", "1", "--lambda", "0.00001")
        assert code == EXIT_NOT_CONVERGED
        assert out == ""

    def test_oracle_budget_is_max_depth(self, capsys):
        # the series floor at lam = 1/8000 is 11313 terms: over the default
        # budget, within a raised one, and its rows re-verify under it
        argv = ("oracle", "--m", "1", "--lambda", "1/8000", "--tol", "1e-6")
        assert run(capsys, *argv) == (EXIT_NOT_CONVERGED, "")
        code, out = run(capsys, *argv, "--max-depth", "12000")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert recs[1].depth == 11313
        assert reverify_records(recs, max_depth=12000)
        with pytest.raises(ValueError, match="depth outside"):
            reverify_records(recs)

    def test_oracle_rejects_fractional_m(self, capsys):
        code, _ = run(capsys, "oracle", "--m", "1/2", "--lambda", "1")
        assert code == EXIT_USAGE

    def test_alpha_certifies_the_cell_in_flat_region(self, capsys):
        # G(1/2, lam) sits exponentially close to 1 at tiny lam, so the
        # estimate 1/2 cannot be classified; the cell centred on it certifies,
        # each end by one evaluation at tol = lam * 2**-26, one pass each
        code, out = run(capsys, "alpha", "--lambda", "0.000001")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert [(r.command, r.inputs["m"], r.certified, r.depth) for r in recs] == [
            ("alpha-lo", "4194303/8388608", True, 8154),
            ("alpha-hi", "4194305/8388608", True, 8154),
            ("alpha-mid", "1/2", None, 6648),
        ]
        assert Fraction(recs[0].hi) < 1 < Fraction(recs[1].lo)
        assert reverify_records(recs)
        # alpha-lo with alpha-hi's digits: rebuilt at its own point and tol,
        # it prints its own
        moved = recs[0]._replace(lo=recs[1].lo, hi=recs[1].hi)
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([moved, *recs[1:]])

    @pytest.mark.parametrize("mode", ["directed", "exact"])
    def test_eval_out_of_budget_beyond_the_float_range(self, capsys, mode):
        # the best enclosure is about 1e316 wide: its width is no float.  D
        # has 1065 bits, so the directed pass runs at bits = 1, where its
        # outward rounding shows in a width this far from converged
        code = main(["eval", "--m", "1/3", "--lambda", "1e-320", "--tol", "0.1",
                     "--max-depth", "200", "--mode", mode])
        captured = capsys.readouterr()
        assert code == EXIT_NOT_CONVERGED
        width = {"directed": "9.787e+315", "exact": "9.771e+315"}[mode]
        assert f"width {width} > tol 1.000e-01 at max_depth=200" in captured.err
        (rec,) = parse_records(captured.out, "csv")
        assert rec.command == "eval" and rec.depth == 200 and Fraction(rec.hi) > 10**315

    def test_alpha_out_of_budget_midpoint(self, capsys):
        # depth-3 walks leave the cell's ends undecided; moved out by
        # doubling steps, both certify (the lower one already at depth 2),
        # and the bracket's midpoint keeps its depth-3 enclosure
        code, out = run(capsys, "alpha", "--lambda", "1", "--max-depth", "3")
        assert code == EXIT_INCONCLUSIVE
        recs = parse_records(out, "csv")
        assert [(r.command, r.inputs["m"], r.certified, r.depth) for r in recs] == [
            ("alpha-lo", "470473/1048576", True, 2),
            ("alpha-hi", "1890085/4194304", True, 3),
            ("alpha-mid", "3771977/8388608", None, 3),
        ]
        assert reverify_records(recs)
        assert reverify_records(recs, max_depth=3)

    def test_alpha_at_cutoff_walks_to_the_budget(self, capsys):
        # G(1/2, 1/64) - 1 is about 1e-111: the walk decides it at depth 191,
        # far below a give-up width of g_tol / 10**8
        code, out = run(capsys, "alpha", "--lambda", "1/64")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert [(r.command, r.inputs["m"], r.certified) for r in recs] == [
            ("alpha-lo", "2097151/4194304", True),
            ("alpha-hi", "1/2", True),
            ("alpha-mid", "4194303/8388608", None),
        ]
        assert reverify_records(recs)

    def test_alpha_endpoints_never_at_depth_zero(self, capsys):
        # G(1296111/4194304, 2) < 0.9999999 is decided by the depth-0
        # convergent, but rows start at depth 1
        code, out = run(capsys, "alpha", "--lambda", "2", "--max-depth", "1")
        assert code == EXIT_INCONCLUSIVE
        recs = parse_records(out, "csv")
        assert [(r.command, r.inputs["m"], r.certified, r.depth) for r in recs] == [
            ("alpha-lo", "1296111/4194304", True, 1),
            ("alpha-hi", "89199/262144", True, 1),
            ("alpha-mid", "2723295/8388608", None, 1),
        ]
        assert reverify_records(recs)
        assert reverify_records(recs, max_depth=1)

    def test_bad_grid_values_are_usage_errors(self, capsys):
        assert run(capsys, "scan", "--m", "1", "--grid-list", "a,b")[0] == EXIT_USAGE
        assert run(capsys, "scan", "--m", "1", "--grid-geom", "1:2")[0] == EXIT_USAGE
        assert run(capsys, "scan", "--m", "1", "--grid-geom", "1:2:x")[0] == EXIT_USAGE

    @pytest.mark.parametrize("command", ["scan", "witness"])
    def test_both_grids_are_a_usage_error(self, capsys, command):
        # one grid or the other: before, --grid-list was dropped silently
        code = main([command, "--m", "1/3", "--grid-geom", "1/4:1:3", "--grid-list", "2,3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_USAGE, "")
        assert "not allowed with argument --grid-geom" in captured.err


class TestRecordFormat:
    def test_csv_and_json_identical_values(self, capsys):
        _, csv_out = run(capsys, "check", "sandwich", "--m", "1", "--lambda", "1")
        _, json_out = run(capsys, "check", "sandwich", "--m", "1", "--lambda", "1",
                          "--format", "json")
        assert parse_records(csv_out, "csv") == parse_records(json_out, "json")

    def test_emit_parse_round_trip(self, capsys):
        _, out = run(capsys, "eval", "--m", "1", "--lambda", "1")
        recs = parse_records(out, "csv")
        assert emit(recs, "csv") == out
        assert parse_records(emit(recs, "json"), "json") == recs

    @pytest.mark.parametrize(
        "argv",
        # a tol, a lam and an exact row's tol of 4401 digits, past the
        # 4300 that int and str convert
        [("eval", "--m", "1/3", "--lambda", "4", "--tol", "1e-4400", "--mode", "directed"),
         ("eval", "--m", "1", "--lambda", "1e4400"),
         ("eval", "--m", "1/3", "--lambda", "1/100", "--tol", "1e-4400", "--mode", "exact")],
    )
    def test_integers_of_any_length_round_trip(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert emit(recs, "csv") == out
        assert parse_records(emit(recs, "json"), "json") == recs
        assert reverify_records(recs)

    def test_fraction_text_of_any_length(self):
        assert fraction_str(Fraction(-1, 3)) == "-1/3"
        assert fraction_str(Fraction(10**4400)) == "1" + "0" * 4400 + "/1"
        for value in (Fraction(-(10**5000) - 1, 3**9000), Fraction(7, 10**4301),
                      Fraction(10**4400), Fraction(-1, 3)):
            assert parse_fraction(fraction_str(value)) == value
        assert parse_fraction(" +" + "9" * 5000 + "\n") == 10**5000 - 1
        for bad in ("1" * 5000 + "x", "--" + "1" * 5000, "1" * 5000 + "/", "1_" * 3000,
                    "1" * 5000 + "/-3", "1" * 5000 + ".5", "1" * 5000 + "/0"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                parse_fraction(bad)

    def test_reverify(self, capsys):
        _, out = run(capsys, "witness", "--m", "0.1", "--format", "json")
        assert reverify_records(parse_records(out, "json"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "lam, g_tol, bracket_tol",
        # exact-mode endpoints, then directed ones: both sit far closer to 1
        # than the default tolerance resolves, and each is rebuilt from its
        # own depth, and tol where it prints one
        [("1", "1e-25", "1e-20"), ("1/100", "1e-200", "1e-1")],
    )
    def test_reverify_alpha_endpoints_at_tight_g_tol(self, capsys, fmt, lam, g_tol, bracket_tol):
        code, out = run(capsys, "alpha", "--lambda", lam, "--g-tol", g_tol,
                        "--bracket-tol", bracket_tol, "--format", fmt)
        assert code == EXIT_OK
        recs = parse_records(out, fmt)
        assert reverify_records(recs)
        by_command = {r.command: r for r in recs}
        swapped = [by_command["alpha-hi"]._replace(command="alpha-lo")]
        with pytest.raises(ValueError, match="alpha-lo verdict does not hold"):
            reverify_records(swapped)
        for depth in (-1, 0, 10**9):
            with pytest.raises(ValueError, match="depth outside"):
                reverify_records([by_command["alpha-hi"]._replace(depth=depth)])

    def test_reverify_rejects_out_of_range_depths(self, capsys):
        rows = []
        for argv in (("eval", "--m", "1", "--lambda", "1"),
                     ("scan", "--m", "1", "--grid-list", "1/2,1"),
                     ("alpha", "--lambda", "1"),
                     ("witness", "--m", "0.1"),
                     ("oracle", "--m", "0", "--lambda", "1/4")):
            code, out = run(capsys, *argv)
            assert code == EXIT_OK
            rows += parse_records(out, "csv")
        kinds = {r.command for r in rows}
        assert kinds == {"eval", "scan", "alpha-lo", "alpha-hi", "alpha-mid",
                         "witness-g1", "witness-g2", "oracle-cf", "oracle-series"}
        assert all(r.mode == "exact" for r in rows)
        assert reverify_records(rows)
        for rec in rows:
            for depth in (-1, 0, 10**9):
                with pytest.raises(ValueError, match="depth outside"):
                    reverify_records([rec._replace(depth=depth)])
        # order-1 term ratio 16 / (3 * 4) at k = 2: no tail bound, a ValueError
        series = next(r for r in rows if r.command == "oracle-series")
        with pytest.raises(ValueError, match="no tail bound"):
            reverify_records([series._replace(depth=2)])
        # G(0, 1/4)'s digits under m = 1/2 used to regenerate through int(m) = 0
        with pytest.raises(ValueError, match="integer m"):
            reverify_records([series._replace(inputs={**series.inputs, "m": "1/2"})])

    @pytest.mark.parametrize(
        "argv, claim",
        [
            (("check", "above-one", "--m", "1", "--lambda", "1"), "above-one"),
            (("check", "reciprocal", "--lambda", "1"), "reciprocal"),
            (("check", "functional", "--m", "1", "--lambda", "1"), "functional"),
            (("check", "sandwich", "--m", "1", "--lambda", "1"), "sandwich"),
        ],
    )
    def test_reverify_claim_failures_are_value_errors(self, capsys, monkeypatch, argv, claim):
        import cfcert.cli as cli

        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        if claim in UNDECIDED:  # rows their depth budget left undecided
            undecided = parse_records(run(capsys, *UNDECIDED[claim])[1], "csv")

        def recertify(*args, **kwargs):
            raise AssertionError("a claim was certified afresh")

        # no claim is certified afresh: each row is rebuilt from its own depth
        # and its verdict judged on the rebuilt enclosure
        monkeypatch.setattr(cli, "_check_rows", recertify)
        assert reverify_records(recs)
        # directed evaluation at lam = 1e-10 is still about 400 wide at any
        # depth a row prints, and G(m, 2) is far from every row's interval
        for lam in ("1/10000000000", "2/1"):
            moved = [r._replace(inputs={**r.inputs, "lambda": lam}) for r in recs]
            with pytest.raises(ValueError, match="does not regenerate"):
                reverify_records(moved)
        # the exact rows are rebuilt at their depth, which a budget of 2 does
        # not reach; best enclosures out of budget are judged in
        # test_out_of_budget_check_judges_best_enclosures
        with pytest.raises(ValueError, match="depth outside"):
            reverify_records(recs, max_depth=2)
        if claim == "functional":
            # it holds by construction, so an uncertified row is rejected
            # before any row is evaluated
            monkeypatch.setattr(cli, "_reverified", recertify)
            with pytest.raises(ValueError, match="functional verdict did not reproduce"):
                reverify_records([r._replace(certified=False) for r in recs])
            return
        # each undecided row, printed as certified
        assert reverify_records(undecided)
        for rec in undecided:
            with pytest.raises(ValueError, match=f"{rec.command} verdict does not hold"):
                reverify_records([rec._replace(certified=True)])

    @pytest.mark.parametrize(
        "argv",
        [("check", "above-one", "--m", "1", "--lambda", "1"),
         ("check", "functional", "--m", "1", "--lambda", "1"),
         ("check", "reciprocal", "--lambda", "1"),
         ("check", "sandwich", "--m", "1", "--lambda", "1")],
    )
    def test_reverify_check_rows_meet_their_interval(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert reverify_records(recs)
        for i, rec in enumerate(recs):
            tampered = [*recs[:i], rec._replace(lo="500", hi="600"), *recs[i + 1:]]
            # the row rebuilt from its depth prints its own digits
            with pytest.raises(ValueError, match="does not regenerate"):
                reverify_records(tampered)

    def test_reverify_rejects_certified_row_that_excludes_its_value(self, capsys):
        # hi moved to the ceiling of the re-certified enclosure's lower end: the
        # interval still meets that enclosure, but lies below G(1, 1) = 1.4331274267223...
        code, out = run(capsys, "check", "above-one", "--m", "1", "--lambda", "1")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "csv")
        enc = check_g_above_one(CFPoint(1, 1)).left
        tampered = rec._replace(hi=decimal_up(enc.lo))
        assert Fraction(tampered.hi) < Fraction("1.4331274267223")
        with pytest.raises(ValueError, match="row does not regenerate"):
            reverify_records([tampered])

    @pytest.mark.parametrize(
        "argv, command, mode",
        [
            # G(0, 1/4), mapped from G(1, 1/4) at depth 1, straddles B(0, 1/4) = 1
            (("sandwich", "--m", "0", "--lambda", "1/4", "--max-depth", "1"),
             "check-sandwich-lower", "exact"),
            # G(2, 1/100) at depth 5 still overlaps B(1, 1/100)
            (("sandwich", "--m", "1", "--lambda", "1/100", "--max-depth", "5"),
             "check-sandwich-upper", "directed-fixed-precision"),
            (("reciprocal", "--lambda", "1/4", "--max-depth", "1"), "check-reciprocal", "exact"),
            (("above-one", "--m", "1", "--lambda", "1e-10"),
             "check-above-one", "directed-fixed-precision"),
        ],
    )
    def test_reverify_uncertified_rows_meet_their_interval(self, capsys, argv, command, mode):
        code, out = run(capsys, "check", *argv)
        assert code == EXIT_INCONCLUSIVE
        # a sandwich prints both its rows
        (rec,) = [r for r in parse_records(out, "csv") if r.command == command]
        assert (rec.certified, rec.mode) == (False, mode)
        assert reverify_records([rec])
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([rec._replace(lo="500", hi="600")])
        # the row is rebuilt from its depth, so another depth does not regenerate it
        other = rec.depth + 1 if rec.depth < DEFAULT_MAX_DEPTH else rec.depth - 1
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([rec._replace(depth=other)])
        # the rebuilt enclosure does not decide the claim, so it may not say it does
        with pytest.raises(ValueError, match=f"{command} verdict does not hold"):
            reverify_records([rec._replace(certified=True)])

    @pytest.mark.parametrize(
        "argv",
        [("eval", "--m", "1", "--lambda", "1e-10"),
         ("scan", "--m", "1", "--grid-list", "1e-10,1")],
    )
    def test_reverify_not_converged_rows(self, capsys, argv):
        # directed evaluation at lam = 1e-10 is still about 400 wide at max_depth;
        # rebuilt to that depth, it is out of budget again, with the same best
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_NOT_CONVERGED
        recs = parse_records(out, "csv")
        assert recs[0].mode == "directed-fixed-precision"
        assert reverify_records(recs)
        moved = recs[0]._replace(lo="500", hi="600")
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([moved])

    @pytest.mark.parametrize(
        "argv, want",
        [(("alpha", "--lambda", "1/100"), EXIT_OK),
         (("alpha", "--lambda", "1/100", "--g-tol", "1e-200", "--bracket-tol", "1e-1"), EXIT_OK)],
    )
    def test_reverify_directed_alpha_rows_meet_their_interval(self, capsys, argv, want):
        code, out = run(capsys, *argv)
        assert code == want
        recs = parse_records(out, "csv")
        assert {r.mode for r in recs} == {"directed-fixed-precision"}
        assert reverify_records(recs)
        for i, rec in enumerate(recs):
            tampered = [*recs[:i], rec._replace(lo="500", hi="600"), *recs[i + 1:]]
            with pytest.raises(ValueError, match="does not regenerate"):
                reverify_records(tampered)

    def test_reverify_rejects_a_cell_end_moved_past_the_crossing(self, capsys):
        code, out = run(capsys, "alpha", "--lambda", "1/100")
        assert code == EXIT_OK
        recs = parse_records(out, "csv")
        assert reverify_records(recs)
        # alpha-lo moved to the upper cell end: rebuilt there, it prints the
        # upper end's digits, not its own
        moved = recs[0]._replace(inputs={**recs[0].inputs, "m": "4194305/8388608"})
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([moved, *recs[1:]])
        # moved with the upper end's digits, it regenerates but lies above 1
        moved = recs[1]._replace(command="alpha-lo")
        with pytest.raises(ValueError, match="alpha-lo verdict does not hold"):
            reverify_records([moved, *recs[1:]])

    def test_reverify_rejects_a_crafted_hard_point_row_quickly(self):
        import time

        # G(1/2, 1/1000) is within about 1e-1737 of 1.  A crafted row touching 1
        # does not regenerate; the row its own depth and tol do rebuild still
        # touches 1, so it fails its verdict, with one pass and no deeper one
        point = CFPoint(Fraction(1, 2), Fraction(1, 1000))
        enc = evaluate(point, Fraction(1, 10**12), mode="directed")
        genuine = record_from_enclosure("alpha-lo", {"m": point.m, "lambda": point.lam}, enc,
                                        certified=True)
        crafted = OutputRecord("alpha-lo", {"m": "1/2", "lambda": "1/1000"}, "0.999999999999",
                               "1.000000000001", enc.depth, True, "directed-fixed-precision",
                               "1/1000000000000")
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([crafted])
        with pytest.raises(ValueError, match="alpha-lo verdict does not hold"):
            reverify_records([genuine])
        assert time.perf_counter() - start < 0.5

    def test_reverify_evaluates_each_directed_point_once_per_tol(self, capsys, monkeypatch):
        import cfcert.cf_core as cf_core

        _, out = run(capsys, "alpha", "--lambda", "1/100", "--g-tol", "1e-200",
                     "--bracket-tol", "1e-1")
        recs = parse_records(out, "csv")
        original, calls = cf_core.eval_directed, []

        def counting(point, tol, **kwargs):
            calls.append((point.m, Fraction(tol), kwargs["max_depth"]))
            return original(point, tol, **kwargs)

        monkeypatch.setattr(cf_core, "eval_directed", counting)
        assert reverify_records(recs)
        # alpha-hi at m = 1/2 lies about 1e-174 above 1: no evaluation at a
        # tol the row does not print, and no exact walk, decides it
        assert calls == [
            (Fraction(r.inputs["m"]), Fraction(r.tol), r.depth) for r in recs
        ]

    def test_reverify_checks_every_pair_where_it_is_printed(self, capsys):
        _, out = run(capsys, "witness", "--m", "0.1", "--grid-geom", "1/100000:1/65:12")
        g1, g2 = parse_records(out, "csv")
        assert g1.mode == g2.mode == "directed-fixed-precision"
        _, out = run(capsys, "witness", "--m", "0.1")
        witness = parse_records(out, "csv")
        _, out = run(capsys, "oracle", "--m", "1", "--lambda", "1")
        oracle = parse_records(out, "csv")
        assert reverify_records([g1, g2, *witness, *oracle])
        overlapping = [g1._replace(lo=g2.lo), g2]
        for recs in (overlapping, [*overlapping, *witness]):
            with pytest.raises(ValueError, match="does not regenerate"):
                reverify_records(recs)
        # genuine (m, lam) rows relabelled as witnesses: G(1, lam) rises from
        # lam = 1 to lam = 2, and the other pair sits at two values of m
        for points in ((("1", "2"), ("1", "1")), (("3", "1"), ("1", "2"))):
            rows = []
            for m, lam in points:
                _, out = run(capsys, "eval", "--m", m, "--lambda", lam)
                rows += parse_records(out, "csv")
            assert reverify_records(rows)
            rows = [r._replace(command=c) for r, c in zip(rows, ("witness-g1", "witness-g2"))]
            with pytest.raises(ValueError, match="do not certify a decrease"):
                reverify_records(rows)
        for recs in ([g1], [g2], [g2, g1], [g1, *oracle, g2], oracle[:1], oracle[1:],
                     oracle[::-1]):
            with pytest.raises(ValueError, match="without its partner"):
                reverify_records(recs)

    def test_oracle_pair_meets_on_closed_intervals(self, capsys):
        _, out = run(capsys, "oracle", "--m", "1", "--lambda", "1")
        oracle = parse_records(out, "csv")
        enc = evaluate(CFPoint(1, 1))
        touching = [enc._replace(lo=enc.lo - 1, hi=enc.lo), enc._replace(hi=enc.lo + 1)]
        _check_pairs(oracle, touching)  # one shared end is a meeting
        with pytest.raises(ValueError, match="do not meet"):
            _check_pairs(oracle, [touching[0]._replace(hi=enc.lo - Fraction(1, 10**30)),
                                  touching[1]])

    @pytest.mark.parametrize(
        "fmt, old, new",
        [("json", '"depth": 7', '"depth": 7.9'),
         ("json", '"depth": 7', '"depth": "7"'),
         ("json", '"depth": 7', '"depth": true'),
         ("json", '"certified": null', '"certified": "no"'),
         ("json", '"certified": null', '"certified": 0'),
         ("json", '"mode": "exact"', '"mode": "fast"'),
         ("csv", ",7,,exact", ",+7,,exact"),
         ("csv", ",7,,exact", ",7_0,,exact"),
         ("csv", ",7,,exact", ", 7,,exact"),
         ("csv", ",7,,exact", ",7,no,exact"),
         ("csv", ",7,,exact", ",7,,fast")],
    )
    def test_parse_rejects_fields_emit_never_writes(self, capsys, fmt, old, new):
        _, out = run(capsys, "eval", "--m", "1", "--lambda", "1", "--tol", "1e-9",
                     "--format", fmt)
        assert old in out
        assert reverify_records(parse_records(out, fmt))
        with pytest.raises(ValueError):
            parse_records(out.replace(old, new), fmt)

    @pytest.mark.parametrize(
        "edits",
        [{"lo": 1.0, "hi": 2.0, "lambda": 0.01},
         {"lo": 1.0},
         {"hi": None},
         {"m": 1},
         {"lambda": ["1/100"]},
         {"inputs": [["m", "1/1"], ["lambda", "1/100"]]},
         {"inputs": "m=1/1"}],
    )
    def test_parse_rejects_json_values_emit_writes_as_strings(self, capsys, edits):
        # a number such as 0.01 would be checked at its binary value, not 1/100
        _, out = run(capsys, "eval", "--m", "1", "--lambda", "1/100", "--format", "json")
        assert reverify_records(parse_records(out, "json"))
        obj = json.loads(out)
        for key, value in edits.items():
            (obj if key in obj else obj["inputs"])[key] = value
        with pytest.raises(ValueError, match="record field emit never writes"):
            parse_records(json.dumps(obj), "json")

    def test_exact_rows_reverify_without_evaluating(self, capsys, monkeypatch):
        import cfcert.cf_core as cf_core

        rows = []
        for argv in (("eval", "--m", "1/3", "--lambda", "7/5", "--tol", "1e-20"),
                     ("scan", "--m=-1/2", "--grid-geom", "1/8:4:6"),
                     ("alpha", "--lambda", "1/2"),
                     ("witness", "--m", "0.1"),
                     ("oracle", "--m", "2", "--lambda", "1/3", "--tol", "1e-15")):
            code, out = run(capsys, *argv)
            assert code == EXIT_OK
            rows += parse_records(out, "csv")
        assert {r.mode for r in rows} == {"exact"}
        _, out = run(capsys, "eval", "--m", "1", "--lambda", "1/100")
        (directed,) = parse_records(out, "csv")
        assert directed.mode == "directed-fixed-precision"
        original, calls = cf_core.evaluate, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cf_core, "evaluate", counting)
        assert reverify_records(rows)
        assert calls == []
        assert reverify_records([directed])
        assert len(calls) == 1
        # commands are checked before any row is evaluated
        with pytest.raises(ValueError, match="unknown record command"):
            reverify_records([directed, directed._replace(command="evaluate")])
        assert len(calls) == 1

    def test_directed_rounding_of_decimals(self):
        third = Fraction(1, 3)
        lo, hi = decimal_down(third), decimal_up(third)
        assert Fraction(lo) < third < Fraction(hi)
        assert decimal_down(Fraction(1)) == decimal_up(Fraction(1)) == "1"
        neg = Fraction(-1, 3)
        assert Fraction(decimal_down(neg)) < neg < Fraction(decimal_up(neg))

    @settings(max_examples=400, deadline=None)
    @given(
        value=st.one_of(
            st.builds(Fraction, st.integers(-(2**700), 2**700), st.integers(1, 2**700)),
            # exact quotients: decimals and dyadic or 5-adic denominators
            st.builds(
                lambda n, e: n * Fraction(10) ** e,
                st.integers(-(10**20), 10**20), st.integers(-30, 40),
            ),
            st.builds(
                lambda n, i, j: Fraction(n, 2**i * 5**j),
                st.integers(-(10**30), 10**30), st.integers(0, 90), st.integers(0, 90),
            ),
        ),
        rounding=st.sampled_from((ROUND_FLOOR, ROUND_CEILING)),
    )
    def test_short_quotient_prints_the_digits_of_the_full_division(self, value, rounding):
        # the reference: both ends converted whole, which is quadratic in their length
        with localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin = DIGITS, rounding, 10**6, -(10**6)
            full = str(Decimal(value.numerator) / Decimal(value.denominator))
        assert _decimal_str(value, rounding) == full


#: every row kind in both modes (a series row is always exact), at a tol
#: where each printed interval is many digits wide, so that a row rebuilt at
#: another depth or point prints other digits
SAMPLE_ARGVS = (
    ("eval", "--m", "1/3", "--lambda", "7/5", "--tol", "1e-6"),
    ("scan", "--m", "1/10", "--grid-list", "1/4,1", "--tol", "1e-6"),
    ("alpha", "--lambda", "1"),
    ("witness", "--m", "0.1", "--tol", "1e-6"),
    ("oracle", "--m", "2", "--lambda", "1/3", "--tol", "1e-6"),
    ("check", "sandwich", "--m", "1", "--lambda", "1", "--tol", "1e-6"),
    ("check", "functional", "--m", "1", "--lambda", "1", "--tol", "1e-6"),
    ("check", "above-one", "--m", "1", "--lambda", "1", "--tol", "1e-6"),
    ("check", "reciprocal", "--lambda", "1", "--tol", "1e-6"),
    ("check", "sandwich", "--m", "0", "--lambda", "1/4", "--max-depth", "1"),
    ("eval", "--m", "1/3", "--lambda", "1/100", "--tol", "1e-6"),
    ("scan", "--m", "1", "--grid-list", "1/1000,1/100", "--tol", "1e-6"),
    ("alpha", "--lambda", "1/100", "--g-tol", "1e-6"),
    ("witness", "--m", "0.1", "--grid-geom", "1/100000:1/65:12", "--tol", "1e-6"),
    ("oracle", "--m", "1", "--lambda", "1/100", "--tol", "1e-6"),
    ("check", "sandwich", "--m", "1", "--lambda", "1/100", "--tol", "1e-6"),
    ("check", "functional", "--m", "1", "--lambda", "1/100", "--tol", "1e-6"),
    ("check", "above-one", "--m", "1", "--lambda", "1/100", "--tol", "1e-6"),
    ("check", "reciprocal", "--lambda", "1/100", "--tol", "1e-6"),
    ("check", "sandwich", "--m", "1", "--lambda", "1/100", "--max-depth", "5"),
)


@functools.lru_cache(maxsize=None)
def _sample_outputs() -> tuple[tuple[OutputRecord, ...], ...]:
    outputs = []
    for argv in SAMPLE_ARGVS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
        outputs.append(tuple(parse_records(out.getvalue(), "csv")))
    return tuple(outputs)


def _with_partner(recs, i, rec):
    """``rec`` in place of recs[i], with the pair row printed next to it, if any."""
    if recs[i].command in ("witness-g1", "oracle-cf"):
        return [rec, recs[i + 1]]
    if recs[i].command in ("witness-g2", "oracle-series"):
        return [recs[i - 1], rec]
    return [rec]


@st.composite
def perturbed_rows(draw):
    """One sample row with one of lo, hi, depth, tol or an input changed."""
    recs = draw(st.sampled_from(_sample_outputs()))
    i = draw(st.integers(0, len(recs) - 1))
    rec = recs[i]
    field = draw(st.sampled_from(["lo", "hi", "depth", "tol", *rec.inputs]))
    if field in ("lo", "hi"):
        step = Fraction(draw(st.integers(1, 9)), 10 ** draw(st.integers(0, 30)))
        value = Fraction(getattr(rec, field)) + draw(st.sampled_from([-1, 1])) * step
        new = (decimal_down if field == "lo" else decimal_up)(value)
        assume(new != getattr(rec, field))
        rec = rec._replace(**{field: new})
    elif field == "depth":
        # a nearby depth keeps each exact rebuild cheap; 10**5 is out of range
        step = draw(st.one_of(st.integers(-rec.depth, 64).filter(bool), st.just(10**5)))
        rec = rec._replace(depth=rec.depth + step)
    elif field == "tol":
        # no tol, a tol <= 0, or one on a row that is not directed
        new = draw(st.sampled_from(["", "0", "0/3", f"-{rec.tol}"])) if rec.tol else "1/1000"
        rec = rec._replace(tol=new)
    else:
        old = Fraction(rec.inputs[field])
        new = fraction_str(draw(st.one_of(
            st.integers(-7, 7).filter(bool).map(lambda k: old + Fraction(k, 8)),
            st.integers(-6, 6).filter(bool).map(lambda k: old * Fraction(2) ** k),
        )))
        assume(new != rec.inputs[field])
        rec = rec._replace(inputs={**rec.inputs, field: new})
    return _with_partner(recs, i, rec)


def _ceiling(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_CEILING
        return str(Decimal(value.numerator) / Decimal(value.denominator))


class TestReverifyRebuildsRows:
    def test_sample_outputs_cover_every_row_kind_in_both_modes(self):
        kinds = set()
        for recs in _sample_outputs():
            assert reverify_records(list(recs))
            kinds |= {(r.command, r.mode) for r in recs}
        commands = {c for c, _ in kinds}
        assert len(commands) == 14
        assert {c for c, mode in kinds if mode == "exact"} == commands
        assert {c for c, mode in kinds if mode != "exact"} == commands - {"oracle-series"}

    @given(rows=perturbed_rows())
    @settings(max_examples=150, deadline=None)
    def test_reverify_rejects_a_perturbed_row(self, rows):
        with pytest.raises(ValueError):
            reverify_records(rows)

    def test_reverify_rejects_a_directed_row_that_excludes_g(self, capsys):
        code, out = run(capsys, "eval", "--m", "1/3", "--lambda", "1/100", "--format", "json")
        assert code == EXIT_OK
        (rec,) = parse_records(out, "json")
        assert (rec.mode, rec.depth, rec.tol) == ("directed-fixed-precision", 75,
                                                  fraction_str(DEFAULT_TOL))
        point = CFPoint(Fraction(1, 3), Fraction(1, 100))
        fresh = evaluate(point, DEFAULT_TOL, mode="directed")
        # hi at the 60-digit ceiling of the fresh lower end: the interval still
        # meets that enclosure, but lies below G
        hi = _ceiling(fresh.lo, 60)
        assert Fraction(rec.lo) <= fresh.lo <= Fraction(hi)
        assert Fraction(hi) < evaluate(point, Fraction(1, 10**40), mode="exact").lo
        with pytest.raises(ValueError, match="does not regenerate"):
            reverify_records([rec._replace(hi=hi)])

    def test_reverify_judges_a_witness_on_its_rebuilt_enclosures(self, capsys):
        # the search certified G(1/3, 1/16) > G(1/3, 1/16 + 1e-17) on exact
        # enclosures whose 15-digit forms are identical
        code, out = run(capsys, "witness", "--m", "1/3", "--grid-list",
                        "1/16,10000000000000001/160000000000000000", "--tol", "1e-12")
        assert code == EXIT_OK
        g1, g2 = parse_records(out, "csv")
        assert (g1.lo, g1.hi) == (g2.lo, g2.hi) == ("0.994721621841257", "0.994721621841258")
        assert reverify_records([g1, g2])
        swapped = [g2._replace(command="witness-g1"), g1._replace(command="witness-g2")]
        with pytest.raises(ValueError, match="do not certify a decrease"):
            reverify_records(swapped)

    def test_validate_rejects_a_tol_that_does_not_fit_the_mode(self, capsys, monkeypatch):
        import cfcert.cli as cli

        _, out = run(capsys, "eval", "--m", "1/3", "--lambda", "1/100")
        (directed,) = parse_records(out, "csv")
        _, out = run(capsys, "eval", "--m", "1/3", "--lambda", "1")
        (exact,) = parse_records(out, "csv")
        assert (directed.tol, exact.tol) == (fraction_str(DEFAULT_TOL), "")

        def evaluated(rec):
            raise AssertionError(f"evaluated {rec}")

        monkeypatch.setattr(cli, "_reverified", evaluated)
        bad = [directed._replace(tol=""), exact._replace(tol=directed.tol),
               *(directed._replace(tol=t) for t in ("0", "0/7", "-1/1000000000000"))]
        for rec in bad:
            with pytest.raises(ValueError, match="a directed row needs a positive tol"):
                cli._validate([rec], DEFAULT_MAX_DEPTH)
            with pytest.raises(ValueError, match="a directed row needs a positive tol"):
                reverify_records([exact, rec])
        for tol in ("1/0", "tenth"):
            with pytest.raises(ValueError, match="tol are not rationals"):
                reverify_records([directed._replace(tol=tol)])

    def test_validate_rejects_inputs_that_name_no_point(self, capsys, monkeypatch):
        import cfcert.cli as cli

        _, out = run(capsys, "eval", "--m", "1/3", "--lambda", "1", "--format", "json")
        (rec,) = parse_records(out, "json")
        monkeypatch.setattr(cli, "_reverified", None)  # nothing is evaluated
        for inputs in ({"lambda": "1/1"}, {**rec.inputs, "x": "1"}):
            with pytest.raises(ValueError, match="inputs are not"):
                reverify_records([rec._replace(inputs=inputs)])
        for m in ("1/0", "third", "-1/1"):
            with pytest.raises(ValueError, match="not rationals in range"):
                reverify_records([rec._replace(inputs={**rec.inputs, "m": m})])
        # a record written before rows carried their tol
        obj = json.loads(out)
        del obj["tol"]
        with pytest.raises(ValueError, match="record field emit never writes"):
            parse_records(json.dumps(obj), "json")


class TestGeometricGrid:
    def test_exact_power_of_two_grid(self):
        grid = geometric_grid(Fraction(1, 16), 4, 7)
        assert grid == [Fraction(2) ** k for k in range(-4, 3)]

    def test_endpoints_exact_for_irrational_ratio(self):
        grid = geometric_grid(Fraction(1, 16), 4, 9)
        assert len(grid) == 9
        assert grid[0] == Fraction(1, 16)
        assert grid[-1] == 4
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_singleton(self):
        assert geometric_grid(2, 2, 5) == [Fraction(2)]
