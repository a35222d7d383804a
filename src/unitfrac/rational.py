"""Exact rational scalars, open enclosures, and the integer window kernel.

Scalars are stdlib ``fractions.Fraction`` values, which already guarantee
reduced form and a positive denominator. This module adds the pieces the
rest of the package needs on top of that type: strict "P/Q" serialization,
the greedy denominator map, the open bounded ``RationalInterval`` that
every emitted enclosure takes, and the integer window kernel
``integer_bounds``, which finds the integers between two integer ratios
by floor division alone.

No floating point is used anywhere here; every comparison is exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "P/Q" or a bare decimal integer into an exact rational.

    Raises ValueError for anything else, including a zero denominator.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def exact(x) -> Fraction:
    """x as a Fraction. Floats and bools are refused: Fraction(0.1) is the
    binary value of the float, not 1/10, and Fraction(True) is 1."""
    if isinstance(x, (float, bool)):
        raise ValueError(f"need an exact rational, got {x!r}")
    return Fraction(x)


def format_rational(x: Fraction) -> str:
    """Serialize as "P/Q", reduced, with Q >= 1. Integers render as "P/1"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def greedy_denominator(theta: Fraction) -> int:
    """Smallest admissible unit-fraction denominator for theta in (0, 1].

    Returns the unique integer a >= 2 with 1/a < theta <= 1/(a - 1). Because
    Fraction is always reduced with positive denominator, floor(1/theta) is
    one exact integer division.
    """
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"target must lie in (0, 1], got {theta}")
    return theta.denominator // theta.numerator + 1


@dataclass(frozen=True)
class RationalInterval:
    """Open bounded interval (lo, hi) of rationals, with lo < hi.

    This is the shape of every enclosure the package emits; both ends are
    excluded.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"empty interval: lo={self.lo} >= hi={self.hi}")

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def to_json_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "lo_open": True,
            "hi_open": True,
        }


def integer_bounds(lo_n: int, lo_d: int, hi_n: int, hi_d: int,
                   lo_open: bool, hi_open: bool) -> tuple[int, int]:
    """First and last integer between lo_n/lo_d and hi_n/hi_d.

    Both denominators must be positive. Each flag says whether its side
    is open. There is no integer between the ends when first > last.
    """
    first = lo_n // lo_d + 1 if lo_open else -(-lo_n // lo_d)
    last = -(-hi_n // hi_d) - 1 if hi_open else hi_n // hi_d
    return first, last
