from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import reference_find_witness

import cfcert.cf_core as cf_core
from cfcert import (
    DEFAULT_WITNESS_GRID,
    DEFAULT_MAX_DEPTH,
    DomainError,
    NoWitnessFoundError,
    Witness,
    evaluate,
    CFPoint,
    CFCertError,
    find_witness,
    limit_check,
    scan,
)

# frozen from depth-60 exact runs
G_TENTH_TENTH = Fraction("0.9796836899066367273117498490487621")
G_TENTH_TWO = Fraction("0.6116155017067619816792473624182127")


class TestLimitCheck:
    def test_m1_small_lambda(self):
        (enc,) = limit_check(1, [Fraction(1, 1000)], Fraction(1, 10**4))
        assert abs(enc.midpoint - 1) < Fraction(1, 100)

    def test_m0_small_lambda_below_one(self):
        (enc,) = limit_check(0, [Fraction(1, 1000)], Fraction(1, 10**4))
        assert enc.hi < 1
        assert abs(enc.midpoint - 1) < Fraction(1, 100)

    def test_m_minus_half(self):
        (enc,) = limit_check(Fraction(-1, 2), [Fraction(1, 1000)], Fraction(1, 10**4))
        assert abs(enc.midpoint - 1) < Fraction(1, 20)

    @pytest.mark.parametrize("m", [0, 1])
    def test_distance_to_one_decreases_on_default_grid(self, m):
        grid = [Fraction(1, 10**k) for k in range(1, 5)]
        encs = limit_check(m, grid, Fraction(1, 10**4), max_depth=60_000)
        dists = [abs(e.midpoint - 1) for e in encs]
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestScan:
    def test_singleton(self):
        entries = scan(1, [1], Fraction(1, 10**9))
        assert len(entries) == 1
        assert entries[0].error is None

    def test_decreasing_pair(self):
        entries = scan(Fraction(1, 10), [Fraction(1, 10), 2], Fraction(1, 10**9))
        first, second = entries
        assert first.enclosure.lo > second.enclosure.hi
        assert first.enclosure.lo <= G_TENTH_TENTH <= first.enclosure.hi
        assert second.enclosure.lo <= G_TENTH_TWO <= second.enclosure.hi

    def test_empty(self):
        assert scan(1, [], Fraction(1, 10**9)) == []

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            scan(1, [2, 1], Fraction(1, 10**9))

    def test_deterministic(self):
        a = scan(Fraction(1, 10), [Fraction(1, 4), 1], Fraction(1, 10**12))
        b = scan(Fraction(1, 10), [Fraction(1, 4), 1], Fraction(1, 10**12))
        assert a == b


class TestFindWitness:
    def test_default_grid_m_tenth(self):
        w = find_witness(Fraction(1, 10))
        assert 0 < w.lambda1 < w.lambda2
        assert w.g1.lo > w.g2.hi

    def test_explicit_grid_with_known_decrease(self):
        w = find_witness(Fraction(1, 10), [Fraction(1, 10), 2], Fraction(1, 10**12))
        assert (w.lambda1, w.lambda2) == (Fraction(1, 10), 2)
        assert w.g1.lo <= G_TENTH_TENTH <= w.g1.hi
        assert w.g2.lo <= G_TENTH_TWO <= w.g2.hi

    def test_sparse_grid_may_fail(self):
        with pytest.raises(NoWitnessFoundError):
            find_witness(Fraction(9, 10), [1, 2])

    def test_witness_recertifies_from_scratch(self):
        w = find_witness(Fraction(1, 10))
        e1 = evaluate(CFPoint(w.m, w.lambda1), Fraction(1, 10**12))
        e2 = evaluate(CFPoint(w.m, w.lambda2), Fraction(1, 10**12))
        assert e1.lo > e2.hi

    def test_bit_identical_rerun(self):
        assert find_witness(Fraction(1, 10)) == find_witness(Fraction(1, 10))

    def test_m_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            find_witness(Fraction(3, 2))
        with pytest.raises(DomainError):
            find_witness(0)

    def test_invalid_witness_cannot_exist(self):
        w = find_witness(Fraction(1, 10))
        with pytest.raises(ValueError):
            Witness(m=w.m, lambda1=w.lambda2, lambda2=w.lambda1, g1=w.g1, g2=w.g2)
        with pytest.raises(ValueError):
            Witness(m=w.m, lambda1=w.lambda1, lambda2=w.lambda2, g1=w.g2, g2=w.g1)


def test_default_grid_shape():
    assert DEFAULT_WITNESS_GRID[0] == Fraction(1, 16)
    assert DEFAULT_WITNESS_GRID[-1] == Fraction(4)
    assert all(b == 2 * a for a, b in zip(DEFAULT_WITNESS_GRID, DEFAULT_WITNESS_GRID[1:]))


def counted_outcome(fn, *args, **kwargs):
    """(result or error details, number of evaluate calls made through
    cf_core (lambda_scan's included) and by the conftest references)."""
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return evaluate(*a, **k)

    with mock.patch.object(cf_core, "evaluate", counting), \
            mock.patch.object(conftest, "evaluate", counting):
        try:
            got = fn(*args, **kwargs)
        except CFCertError as exc:
            got = type(exc), str(exc), getattr(exc, "grid", None)
    return got, len(calls)


WITNESS_LAMS = [Fraction(1, 2**130), Fraction(1, 100), Fraction(1, 16), Fraction(1, 10),
                Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(3, 10),
                Fraction(1, 2), 1, 2, 4]


@given(
    m=st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10),
                       Fraction(999999999988, 999999999989)]),
    lams=st.lists(st.sampled_from(WITNESS_LAMS), max_size=5),
    ascending=st.sampled_from([True, True, True, False]),
    tol=st.sampled_from([Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**12)]),
    max_depth=st.sampled_from([DEFAULT_MAX_DEPTH, 3]),
)
# near misses that certify after tightening, and one out of budget at once
@example(m=Fraction(1, 10), lams=[Fraction(1, 5), Fraction(3, 10)], ascending=True,
         tol=Fraction(1, 10), max_depth=DEFAULT_MAX_DEPTH)
@example(m=Fraction(1, 10), lams=[Fraction(1, 5), Fraction(3, 10)], ascending=True,
         tol=Fraction(1, 10), max_depth=3)
# (1/8, 3/10) certifies, but the earlier pair (1/16, 1/2) is the witness
@example(m=Fraction(1, 10), lams=[Fraction(1, 16), Fraction(1, 8), Fraction(3, 10), Fraction(1, 2)],
         ascending=True, tol=Fraction(1, 10), max_depth=DEFAULT_MAX_DEPTH)
# the smallest lam's first tail term needs more than the default 128 bits
@example(m=Fraction(1, 2), lams=[Fraction(1, 2**130), Fraction(1, 16), Fraction(1, 8)],
         ascending=True, tol=Fraction(1, 10**12), max_depth=DEFAULT_MAX_DEPTH)
@example(m=Fraction(1, 2), lams=[Fraction(1, 2), Fraction(1, 4)], ascending=False,
         tol=Fraction(1, 10**12), max_depth=DEFAULT_MAX_DEPTH)
@settings(max_examples=150, deadline=None)
def test_find_witness_matches_scan_first_reference(m, lams, ascending, tol, max_depth):
    grid = sorted(set(lams)) if ascending else lams
    kwargs = dict(max_depth=max_depth)
    got, calls = counted_outcome(find_witness, m, grid, tol, **kwargs)
    want, ref_calls = counted_outcome(reference_find_witness, m, grid, tol, **kwargs)
    assert got == want
    assert calls <= ref_calls
    if not isinstance(got, Witness) and got[0] is DomainError:
        assert calls == 0


def test_find_witness_evaluates_only_reached_points():
    # the first pair of the default grid, (1/16, 1/8), is already a witness
    got, calls = counted_outcome(find_witness, Fraction(1, 3))
    assert (got.lambda1, got.lambda2) == (Fraction(1, 16), Fraction(1, 8))
    assert calls == 2
