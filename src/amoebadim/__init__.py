"""Amoeba dimension from tropical data, with witnesses and a numerical check.

The names below are the library's entry points, the types they take and
return, and the exceptions they raise.  Everything else stays importable
from its module.  Each name is imported from its module the first time it
is used, so `import amoebadim` loads no submodule: a program that only
searches never compiles the estimator, and one that only estimates never
compiles the exact search.
"""

import importlib

_EXPORTS = {
    "ComplexFormatError": "polyhedral",
    "CrossCheckResult": "estimator",
    "EstimatorError": "estimator",
    "ImplicitHypersurface": "estimator",
    "NearActionReport": "subspace_search",
    "Parametrization": "estimator",
    "PurityError": "polyhedral",
    "RankEstimate": "estimator",
    "ResourceLimitError": "subspace_search",
    "SearchResult": "subspace_search",
    "SpanComplex": "polyhedral",
    "Subspace": "rational_linalg",
    "VarietyFormatError": "estimator",
    "amoeba_dim": "subspace_search",
    "cross_check": "estimator",
    "curve_fan": "families",
    "detect_near_action": "subspace_search",
    "estimate_rank": "estimator",
    "estimate_rank_implicit": "estimator",
    "format_complex": "polyhedral",
    "orbit_subspace": "families",
    "parse_complex": "polyhedral",
    "parse_implicit": "estimator",
    "parse_parametrization": "estimator",
    "product": "polyhedral",
    "reduce_torus": "subspace_search",
    "torus_invariant": "families",
    "tropical_hyperplane": "families",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
