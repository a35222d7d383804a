"""Exact arithmetic for greedy and weak greedy unit-fraction approximation.

The package namespace holds the names the README and the demos use; every
other public name, the function ``construct`` too, is imported from its
own module. Each name is resolved on first use (PEP 562), so importing the
package, as every command does, loads none of its modules.
"""

from importlib import import_module

# the public names, by the module that defines each, in the order of
# __all__
_HOMES = {
    "rational": ("format_rational",),
    "greedy": ("ReplayOverrunError", "WgaaPolicy", "bracket_misses",
               "greedy_expand", "recover_shadow", "wgaa_expand"),
    "families": ("ArithmeticFamily", "FibonacciFamily", "GeometricFamily",
                 "theta_partial"),
    "construct": ("TargetSequence",),
    "uniqueness": ("necessary_uniqueness", "pair_necessary_closed",
                   "pair_uniqueness", "sufficient_uniqueness", "sweep"),
    "diagnostics": ("DEFAULT_T_GRID", "classify", "scaled_run_ratio_checks",
                    "shadow_bound_from_gap"),
}


def __getattr__(name):
    for module, names in _HOMES.items():
        if name in names:
            value = getattr(import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for names in _HOMES.values() for name in names]

__version__ = "0.1.0"
