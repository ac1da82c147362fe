"""Behavior of lam -> G(m, lam) at fixed m: small-lam limit and non-monotonicity.

limit_check tabulates enclosures along a descending lam list so the
approach of G(m, lam) to 1 can be observed with certified error bars.
find_witness searches an ascending grid for a certified decrease
G(m, lam1) > G(m, lam2) with lam1 < lam2, which is a rigorous witness that
the map is not monotonically increasing.  A near miss (midpoints ordered
as a decrease, enclosures overlapping) is retried at tol/10, tol/100, ...
until the enclosures separate, either way, or an evaluation runs out of
depth budget; it is then judged once at its best enclosures.  Absence of a
witness on a grid is reported as exactly that, never as a refutation.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    CFPoint,
    Enclosure,
    RationalLike,
    _best,
    _Checked,
    _tightened,
    as_fraction,
)
from .errors import DomainError, NoWitnessFoundError

#: geometric default grid 2**-4 .. 2**2 for the witness search
DEFAULT_WITNESS_GRID: tuple[Fraction, ...] = tuple(
    Fraction(2) ** k for k in range(-4, 3)
)


class Witness(_Checked, namedtuple("Witness", "m lambda1 lambda2 g1 g2")):
    """Certified decrease: lam1 < lam2 with disjoint enclosures g1 above g2.

    An immutable named tuple.  Construction, _replace included, re-checks
    the certificate, so a Witness object cannot exist unless the decrease
    really is certified.
    """

    __slots__ = ()

    def __new__(
        cls, m: Fraction, lambda1: Fraction, lambda2: Fraction, g1: Enclosure, g2: Enclosure
    ) -> Witness:
        if not (0 < lambda1 < lambda2):
            raise ValueError("witness needs 0 < lambda1 < lambda2")
        if not (0 < m < 1):
            raise ValueError("witness m must lie in (0, 1)")
        if not g1.lo > g2.hi:
            raise ValueError("enclosures do not certify a decrease")
        return tuple.__new__(cls, (m, lambda1, lambda2, g1, g2))


class ScanPoint(namedtuple("ScanPoint", "lam enclosure error", defaults=(None,))):
    """One grid entry: the enclosure, or the best rigorous one plus an error note.

    An immutable named tuple: Fraction ``lam``, ``enclosure`` an Enclosure,
    and ``error`` a str, or None when tol was met.
    """

    __slots__ = ()


def limit_check(
    m: RationalLike,
    lambdas: list[RationalLike],
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Enclosure]:
    """Enclosures of G(m, lam) along ``lambdas`` (intended descending toward 0).

    A point that fails to reach tol within budget contributes its best
    rigorous enclosure instead of aborting the sweep.
    """
    m = as_fraction(m)
    return [_best(CFPoint(m, as_fraction(lam)), tol, max_depth)[0] for lam in lambdas]


def _grid_points(
    m: Fraction,
    lambda_grid: list[RationalLike],
    tol: RationalLike,
    max_depth: int,
) -> Iterator[ScanPoint]:
    """Evaluate a strictly ascending positive grid lazily, in grid order.

    The grid is checked when the first point is requested, before any
    evaluation.
    """
    grid = [as_fraction(lam) for lam in lambda_grid]
    for a, b in zip(grid, grid[1:]):
        if a >= b:
            raise DomainError("lambda grid must be strictly ascending")
    if grid and grid[0] <= 0:
        raise DomainError("lambda grid must be positive")
    for lam in grid:
        enc, exc = _best(CFPoint(m, lam), tol, max_depth)
        yield ScanPoint(lam=lam, enclosure=enc, error=None if exc is None else str(exc))


def scan(
    m: RationalLike,
    lambda_grid: list[RationalLike],
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[ScanPoint]:
    """Pointwise enclosures over a strictly ascending positive grid, order preserved."""
    return list(_grid_points(as_fraction(m), lambda_grid, tol, max_depth))


def find_witness(
    m: RationalLike,
    lambda_grid: list[RationalLike] | None = None,
    tol: RationalLike = DEFAULT_TOL,
    *,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Witness:
    """First grid pair (lam_i < lam_j) whose enclosures certify G(m, lam_i) > G(m, lam_j).

    Pairs are tried in grid order for determinism.  A grid point is
    evaluated when the search first reaches it: the pairs (lam_0, lam_j)
    come first, so a witness there leaves the rest of the grid unevaluated.
    Near misses (midpoints ordered as a decrease but enclosures overlapping)
    are retried from tol/10 until they separate; a pair that runs out of
    budget first is judged once at its best enclosures.  Raises
    NoWitnessFoundError when the grid shows no certified decrease.
    """
    m = as_fraction(m)
    if not (0 < m < 1):
        raise DomainError(f"witness search needs 0 < m < 1, got {m}")
    tol = as_fraction(tol)
    grid = list(DEFAULT_WITNESS_GRID) if lambda_grid is None else lambda_grid
    reached: list[tuple[Fraction, Enclosure]] = []
    for e in _grid_points(m, grid, tol, max_depth):
        if reached and reached[0][1].lo > e.enclosure.hi:
            lam1, g1 = reached[0]
            return Witness(m=m, lambda1=lam1, lambda2=e.lam, g1=g1, g2=e.enclosure)
        reached.append((e.lam, e.enclosure))

    # the pairs (lam_0, lam_j) are done and every point is evaluated
    for i in range(1, len(reached)):
        lam1, g1 = reached[i]
        for lam2, g2 in reached[i + 1 :]:
            if g1.lo > g2.hi:
                return Witness(m=m, lambda1=lam1, lambda2=lam2, g1=g1, g2=g2)

    # near misses: decreasing midpoints but overlapping enclosures
    for i in range(len(reached)):
        lam1, g1 = reached[i]
        for lam2, g2 in reached[i + 1 :]:
            if g1.midpoint <= g2.midpoint:
                continue
            pair = [CFPoint(m, lam1), CFPoint(m, lam2)]
            for _, (e1, e2) in _tightened(pair, tol / 10, max_depth):
                if e1.lo > e2.hi:
                    return Witness(m=m, lambda1=lam1, lambda2=lam2, g1=e1, g2=e2)
                if e1.hi < e2.lo:
                    break
    raise NoWitnessFoundError(
        f"no certified decrease for m={m} on the scanned grid "
        "(absence on a grid is not a refutation)",
        m=m,
        grid=[lam for lam, _ in reached],
    )
