"""Certified enclosures and inequality certificates for the continued
fraction G(m, lam) whose j-th partial quotient is (m + j) * lam.

Everything user-facing works over exact rationals.  Enclosures are closed
intervals guaranteed to contain the limit value; a strict inequality is
"certified" exactly when the enclosures of its two sides are disjoint in
the claimed direction.

The names below are what the CLI, the scripts and the benchmark use.  The
layers under them (eval_enclosure, eval_directed, theorem_bound,
classify_vs_one, ...) are imported from their own modules.  Every
evaluating function takes one setting, the depth budget ``max_depth``
(default DEFAULT_MAX_DEPTH), as a keyword.
"""

from .alpha_root import AlphaResult, find_alpha
from .bessel_oracle import SeriesEnclosure, cross_check, series_ratio
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
    ViolationError,
)
from .lambda_scan import (
    DEFAULT_WITNESS_GRID,
    ScanPoint,
    Witness,
    find_witness,
    limit_check,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult",
    "BudgetExceededError",
    "CFCertError",
    "CFPoint",
    "CheckReport",
    "Claim",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_TOL",
    "DEFAULT_WITNESS_GRID",
    "DomainError",
    "Enclosure",
    "EvalMode",
    "InconclusiveError",
    "NoWitnessFoundError",
    "NotConvergedError",
    "ScanPoint",
    "SeriesEnclosure",
    "TailNotBoundedError",
    "ViolationError",
    "Witness",
    "check_functional_equation",
    "check_g_above_one",
    "check_reciprocal",
    "check_sandwich",
    "cross_check",
    "evaluate",
    "find_alpha",
    "find_witness",
    "limit_check",
    "scan",
    "series_ratio",
]
