from __future__ import annotations

from fractions import Fraction

import pytest

from cfcert import CFPoint, ConvergentPair, PrecisionError, advance, term


def reference_convergents(point: CFPoint, depth: int) -> list[Fraction]:
    """Plain-Fraction recurrence chain, independent of the scaled-integer path."""
    state = ConvergentPair.seed()
    values = []
    for j in range(depth + 1):
        state = advance(state, term(point, j))
        values.append(state.value())
    return values


def reference_enclosure(point: CFPoint, depth: int) -> tuple[Fraction, Fraction]:
    """Reference enclosure of G(point) from the shifted tail at the given depth."""
    vals = reference_convergents(point.shifted(), depth)
    last, prev = vals[-1], vals[-2]
    t_lo, t_hi = (last, prev) if depth % 2 == 0 else (prev, last)
    x0 = point.m * point.lam
    return x0 + 1 / t_hi, x0 + 1 / t_lo


def reference_directed_tail(
    a: int, b: int, c: int, big_d: int, depth: int, bits: int
) -> tuple[int, int]:
    """Backward directed pass that divides by D afresh for every rounded term.

    Reference for the stepped rounding in cf_core._directed_tail: the two
    must return the same scaled (lo, hi) for the same arguments.
    """
    sq = 1 << (2 * bits)

    def down(u: int) -> int:
        return (u << bits) // big_d

    def up(u: int) -> int:
        return -((-u << bits) // big_d)

    du = b * c
    u = (a + depth * b) * c
    x_next = down(u + du)
    lo = down(u)
    if lo <= 0 or x_next <= 0:
        raise PrecisionError("tail term rounds to zero")
    hi = up(u) + (-(-sq // x_next))
    for _ in range(depth):
        u -= du
        xl = down(u)
        if xl <= 0:
            raise PrecisionError("tail term rounds to zero")
        lo, hi = xl + sq // hi, up(u) + (-(-sq // lo))
    return lo, hi


@pytest.fixture
def oracle():
    return reference_enclosure


@pytest.fixture
def oracle_convergents():
    return reference_convergents
