"""Exact arithmetic for greedy and weak greedy unit-fraction approximation.

The package namespace holds the names the README and the demos use; every
other public name is imported from its own module.
"""

from .rational import format_rational
from .greedy import (
    ReplayOverrunError,
    WgaaPolicy,
    bracket_misses,
    greedy_expand,
    recover_shadow,
    wgaa_expand,
)
from .families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    theta_partial,
    verify_bracket,
)
from .construct import TargetSequence, construct
from .uniqueness import (
    necessary_uniqueness,
    pair_necessary_closed,
    pair_uniqueness,
    sufficient_uniqueness,
    sweep,
)
from .diagnostics import (
    DEFAULT_T_GRID,
    classify,
    scaled_run_ratio_checks,
    shadow_bound_from_gap,
)


__all__ = [
    "format_rational",
    "ReplayOverrunError",
    "WgaaPolicy",
    "bracket_misses",
    "greedy_expand",
    "recover_shadow",
    "wgaa_expand",
    "ArithmeticFamily",
    "FibonacciFamily",
    "GeometricFamily",
    "theta_partial",
    "verify_bracket",
    "TargetSequence",
    "construct",
    "necessary_uniqueness",
    "pair_necessary_closed",
    "pair_uniqueness",
    "sufficient_uniqueness",
    "sweep",
    "DEFAULT_T_GRID",
    "classify",
    "scaled_run_ratio_checks",
    "shadow_bound_from_gap",
]

__version__ = "0.1.0"
