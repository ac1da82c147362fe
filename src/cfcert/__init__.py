"""Certified enclosures and inequality certificates for the continued
fraction G(m, lam) whose j-th partial quotient is (m + j) * lam.

Everything user-facing works over exact rationals.  Enclosures are closed
intervals guaranteed to contain the limit value; a strict inequality is
"certified" exactly when the enclosures of its two sides are disjoint in
the claimed direction.
"""

from .alpha_root import AlphaResult, alpha_curve, classify_vs_one, find_alpha
from .bessel_oracle import SeriesEnclosure, cross_check, series_ratio
from .bounds import (
    CheckReport,
    Claim,
    check_functional_equation,
    check_g_above_one,
    check_reciprocal,
    check_sandwich,
    theorem_bound,
)
from .cf_core import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_PRECISION_BITS,
    DEFAULT_SETTINGS,
    DEFAULT_TOL,
    DIRECTED_LAMBDA_CUTOFF,
    CFPoint,
    Enclosure,
    EvalMode,
    EvalSettings,
    as_fraction,
    eval_directed,
    eval_enclosure,
    evaluate,
    tail_enclosure,
)
from .errors import (
    BudgetExceededError,
    CFCertError,
    DepthTooSmallError,
    DomainError,
    InconclusiveError,
    NotConvergedError,
    NoWitnessFoundError,
    PrecisionError,
    TailNotBoundedError,
    ViolationError,
)
from .lambda_scan import (
    DEFAULT_WITNESS_GRID,
    DEFAULT_WITNESS_MS,
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
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_SETTINGS",
    "DEFAULT_TOL",
    "DEFAULT_WITNESS_GRID",
    "DEFAULT_WITNESS_MS",
    "DIRECTED_LAMBDA_CUTOFF",
    "DepthTooSmallError",
    "DomainError",
    "Enclosure",
    "EvalMode",
    "EvalSettings",
    "InconclusiveError",
    "NoWitnessFoundError",
    "NotConvergedError",
    "PrecisionError",
    "ScanPoint",
    "SeriesEnclosure",
    "TailNotBoundedError",
    "ViolationError",
    "Witness",
    "alpha_curve",
    "as_fraction",
    "check_functional_equation",
    "check_g_above_one",
    "check_reciprocal",
    "check_sandwich",
    "classify_vs_one",
    "cross_check",
    "eval_directed",
    "eval_enclosure",
    "evaluate",
    "find_alpha",
    "find_witness",
    "limit_check",
    "scan",
    "series_ratio",
    "tail_enclosure",
    "theorem_bound",
]
