"""Exception types shared across the package.  Directed precision is worked
out from the tolerance and the point, so it has no error of its own."""

from __future__ import annotations


class CFCertError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CFCertError, ValueError):
    """Input outside the supported domain (m <= -1, lam <= 0, max_depth < 1...)."""


class BudgetExceededError(CFCertError):
    """An exact computation hit its budget max_depth before reaching the
    tolerance: exact evaluation at that depth, or the series oracle
    (cross_check) at that many terms.

    ``best`` holds the rigorous enclosure reached at the budget limit, or
    None where the series tail is not bounded within it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class NotConvergedError(CFCertError):
    """Directed evaluation stopped above the tolerance; ``best`` is still rigorous."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class InconclusiveError(CFCertError):
    """No verdict either way: the enclosures still overlap where the retries stop.

    Retries stop only where an evaluation reaches the depth budget
    max_depth.  ``claim`` names what failed, and ``left`` and ``right``
    carry the last enclosures reached.
    """

    def __init__(self, message: str, claim=None, left=None, right=None):
        super().__init__(message)
        self.claim = claim
        self.left = left
        self.right = right


class ViolationError(CFCertError):
    """An identity that must hold failed; signals an arithmetic bug, not new math."""


class TailNotBoundedError(CFCertError):
    """Series truncated too early for the geometric tail majorant to apply."""


class NoWitnessFoundError(CFCertError):
    """No certified decrease pair on the scanned grid (not a refutation)."""

    def __init__(self, message: str, m=None, grid=None):
        super().__init__(message)
        self.m = m
        self.grid = tuple(grid) if grid is not None else None
