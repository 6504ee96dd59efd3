"""Amoeba dimension from tropical data, with witnesses and a numerical check.

The names below are the library's entry points, the types they take and
return, and the exceptions they raise.  Everything else stays importable
from its module.
"""

from .estimator import (
    CrossCheckResult,
    EstimatorError,
    ImplicitHypersurface,
    Parametrization,
    RankEstimate,
    VarietyFormatError,
    cross_check,
    estimate_rank,
    estimate_rank_implicit,
    parse_implicit,
    parse_parametrization,
)
from .families import curve_fan, orbit_subspace, torus_invariant, \
    tropical_hyperplane
from .polyhedral import (
    ComplexFormatError,
    PurityError,
    SpanComplex,
    format_complex,
    parse_complex,
    product,
)
from .rational_linalg import Subspace
from .subspace_search import (
    NearActionReport,
    ResourceLimitError,
    SearchResult,
    amoeba_dim,
    detect_near_action,
    reduce_torus,
)

__all__ = [
    "ComplexFormatError",
    "CrossCheckResult",
    "EstimatorError",
    "ImplicitHypersurface",
    "NearActionReport",
    "Parametrization",
    "PurityError",
    "RankEstimate",
    "ResourceLimitError",
    "SearchResult",
    "SpanComplex",
    "Subspace",
    "VarietyFormatError",
    "amoeba_dim",
    "cross_check",
    "curve_fan",
    "detect_near_action",
    "estimate_rank",
    "estimate_rank_implicit",
    "format_complex",
    "orbit_subspace",
    "parse_complex",
    "parse_implicit",
    "parse_parametrization",
    "product",
    "reduce_torus",
    "torus_invariant",
    "tropical_hyperplane",
]

__version__ = "0.1.0"
