"""The value types: immutable named tuples whose constructor checks always run."""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from cfcert import (
    AlphaResult,
    CFPoint,
    CheckReport,
    Claim,
    DomainError,
    Enclosure,
    EvalMode,
    ScanPoint,
    Witness,
)
from cfcert.cli import OutputRecord

LOW = Enclosure(lo=Fraction(1, 2), hi=Fraction(3, 4), depth=5, mode=EvalMode.EXACT)
HIGH = Enclosure(lo=Fraction(4, 5), hi=Fraction(1), depth=6, mode=EvalMode.DIRECTED,
                 tol=Fraction(1, 5))
POINT = CFPoint(Fraction(1, 3), 1)

SAMPLES = {
    "CFPoint": POINT,
    "Enclosure": LOW,
    "CheckReport": CheckReport(POINT, Claim.ABOVE_ONE, LOW, HIGH),
    "AlphaResult": AlphaResult(Fraction(1), Fraction(1, 4), Fraction(1, 2), LOW, 2),
    "Witness": Witness(Fraction(1, 3), Fraction(1, 16), Fraction(1, 8), HIGH, LOW),
    "ScanPoint": ScanPoint(Fraction(1, 8), LOW),
    "OutputRecord": OutputRecord("eval", {"m": "1/3", "lambda": "1/1"}, "0.5", "0.75", 5,
                                 None, "exact", ""),
}

#: the reprs the same values had as frozen dataclasses, plus the tol field
#: an enclosure and a record carry
REPRS = {
    "CFPoint": "CFPoint(m=Fraction(1, 3), lam=Fraction(1, 1))",
    "Enclosure": "Enclosure(lo=Fraction(1, 2), hi=Fraction(3, 4), depth=5, "
    "mode=<EvalMode.EXACT: 'exact'>, tol=None)",
    "ScanPoint": "ScanPoint(lam=Fraction(1, 8), enclosure=Enclosure(lo=Fraction(1, 2), "
    "hi=Fraction(3, 4), depth=5, mode=<EvalMode.EXACT: 'exact'>, tol=None), error=None)",
    "OutputRecord": "OutputRecord(command='eval', inputs={'m': '1/3', 'lambda': '1/1'}, "
    "lo='0.5', hi='0.75', depth=5, certified=None, mode='exact', tol='')",
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_contract(name):
    value = SAMPLES[name]
    assert type(value).__name__ == name
    fields = type(value)._fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict
    # as a frozen dataclass: equal exactly when the fields are, hashed as their tuple
    same = type(value)(*(getattr(value, field) for field in fields))
    assert same == value and same is not value
    assert value != value._replace(**{fields[0]: Fraction(1, 5)})
    if name == "OutputRecord":  # ``inputs`` is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(tuple(getattr(value, field) for field in fields))
    if name in REPRS:
        assert repr(value) == REPRS[name]


@pytest.mark.parametrize(
    "name, change, error, match",
    [
        ("Enclosure", {"lo": Fraction(1)}, ValueError, "malformed enclosure"),
        ("CFPoint", {"m": -1}, DomainError, "m must exceed -1"),
        ("CFPoint", {"lam": 0}, DomainError, "lam must be positive"),
        ("Witness", {"g2": HIGH}, ValueError, "do not certify a decrease"),
        ("OutputRecord", {"depth": "5"}, ValueError, "emit never writes"),
        ("OutputRecord", {"tol": None}, ValueError, "emit never writes"),
    ],
)
def test_replace_runs_the_constructor_checks(name, change, error, match):
    value = SAMPLES[name]
    with pytest.raises(error, match=match):
        type(value)(**{**value._asdict(), **change})
    with pytest.raises(error, match=match):
        value._replace(**change)
    if hasattr(copy, "replace"):  # Python 3.13 on
        with pytest.raises(error, match=match):
            copy.replace(value, **change)


def test_check_report_gap_is_computed_not_stored():
    report = SAMPLES["CheckReport"]
    assert report._fields == ("point", "claim", "left", "right")
    assert report.gap == LOW.lo - 1  # above-one: the left end's distance above 1
    with pytest.raises(AttributeError):
        report.gap = Fraction(1, 20)


def test_replace_coerces_like_the_constructor():
    assert POINT._replace(lam="1/2") == CFPoint(Fraction(1, 3), Fraction(1, 2))
    assert type(POINT._replace(lam="1/2").lam) is Fraction


def test_records_are_tuples():
    # the one change from frozen dataclasses: a record equals the tuple of its fields
    assert POINT == (Fraction(1, 3), Fraction(1))
    lo, hi, depth, mode, tol = LOW
    assert (lo, hi, depth, mode, tol) == (Fraction(1, 2), Fraction(3, 4), 5, EvalMode.EXACT, None)


def test_enclosure_membership_is_the_interval():
    # tuple membership would test the fields: 1/2 is none of (0, 2, 1, mode)
    enc = Enclosure(0, 2, 1, EvalMode.EXACT)
    assert Fraction(1, 2) in enc and "3/2" in enc and 2 in enc
    assert 3 not in enc and Fraction(-1, 2) not in enc
