"""Stabilizability analysis and feedback synthesis for smooth control systems."""

from .expr import EvalError, ParseError, parse_expr, unparse
from .hautus import spectral_profile
from .openness import empirical_covering_modulus, openness_report
from .sim import estimate_decay, integrate_closed_loop, iterate_closed_loop, verify_local_stability
from .synthesis import PlacementError, UncontrollableError, synthesize
from .system import (
    SystemFormatError,
    SystemSpec,
    SystemValidationError,
    jacobian,
    load_system,
    parse_system,
)
from .verdict import AnalysisConfig, analyze

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "EvalError",
    "ParseError",
    "PlacementError",
    "SystemFormatError",
    "SystemSpec",
    "SystemValidationError",
    "UncontrollableError",
    "__version__",
    "analyze",
    "empirical_covering_modulus",
    "estimate_decay",
    "integrate_closed_loop",
    "iterate_closed_loop",
    "jacobian",
    "load_system",
    "openness_report",
    "parse_expr",
    "parse_system",
    "spectral_profile",
    "synthesize",
    "unparse",
    "verify_local_stability",
]
