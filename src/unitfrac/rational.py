"""Exact rational scalars, open enclosures, and the integer window kernel.

Scalars are stdlib ``fractions.Fraction`` values, which already guarantee
reduced form and a positive denominator. This module adds the pieces the
rest of the package needs on top of that type: strict "P/Q" serialization,
the greedy denominator map, the open bounded ``RationalInterval`` that
every emitted enclosure takes, and the integer window kernel
``integer_bounds``, which finds the integers between two integer ratios
by floor division alone.

It also holds the input contract of every entry point. ``positive_int``
and, for lists, ``positive_ints`` refuse a bool, a non-``int`` or a value
below the least one allowed, with a ValueError naming the argument and
the 1-based list index. ``parse_int`` reads integer text as ASCII digits
after an optional minus, surrounding whitespace stripped, and
``parse_rational`` reads its numerator and denominator the same way.

No floating point is used anywhere here; every comparison is exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_INT = "-?[0-9]+"  # ASCII digits only: int() also takes "1_0", "+5", "٣"
_INT_RE = re.compile(_INT)
_RATIONAL_RE = re.compile(f"({_INT})(?:/({_INT}))?")


def positive_int(x, what: str, least: int = 1) -> int:
    """x if it is an int >= least, else a ValueError naming ``what``.
    A bool is refused too: True would run as 1."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def positive_ints(values, what: str, least: int = 1) -> tuple:
    """The values as a tuple, each checked by ``positive_int``; the error
    ends with the 1-based index of the first bad value."""
    values = tuple(values)
    for n, x in enumerate(values, start=1):
        try:
            positive_int(x, what, least)
        except ValueError as exc:
            raise ValueError(f"{exc} at {n}") from None
    return values


def parse_int(text: str) -> int:
    """ASCII digits after an optional minus, surrounding whitespace cut."""
    digits = text.strip()
    if not _INT_RE.fullmatch(digits):
        raise ValueError(f"not an integer: {text!r}")
    return int(digits)


def parse_rational(text: str) -> Fraction:
    """Parse "P/Q" or a bare decimal integer into an exact rational.

    Raises ValueError for anything else, including a zero denominator.
    """
    m = _RATIONAL_RE.fullmatch(text.strip())
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
    theta = exact(theta)
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
        object.__setattr__(self, "lo", exact(self.lo))
        object.__setattr__(self, "hi", exact(self.hi))
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
