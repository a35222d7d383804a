"""Exact rational scalars, intervals with endpoint flags, and integer counting.

Scalars are stdlib ``fractions.Fraction`` values, which already guarantee
reduced form and a positive denominator. This module adds the pieces the
rest of the package needs on top of that type: strict "P/Q" serialization,
the greedy denominator map, and rational intervals that can be open or
closed on each side and unbounded above.

No floating point is used anywhere here; every comparison is exact.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    """Interval of rationals; ``hi=None`` is the sentinel for unbounded above.

    Each endpoint carries its own open/closed flag. An unbounded interval is
    necessarily open on the high side.
    """

    lo: Fraction
    hi: Optional[Fraction]
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        if self.hi is None:
            if not self.hi_open:
                raise ValueError("unbounded interval must be open above")
            return
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both sides")

    @classmethod
    def open(cls, lo: Fraction, hi: Fraction) -> "RationalInterval":
        return cls(lo, hi, lo_open=True, hi_open=True)

    @classmethod
    def closed(cls, lo: Fraction, hi: Fraction) -> "RationalInterval":
        return cls(lo, hi, lo_open=False, hi_open=False)

    def contains(self, x: Fraction) -> bool:
        x = Fraction(x)
        if x < self.lo or (self.lo_open and x == self.lo):
            return False
        if self.hi is None:
            return True
        return x < self.hi or (not self.hi_open and x == self.hi)

    def width(self) -> Optional[Fraction]:
        return None if self.hi is None else self.hi - self.lo

    def midpoint(self) -> Fraction:
        if self.hi is None:
            raise ValueError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def to_json_dict(self) -> dict:
        return {
            "lo": format_rational(self.lo),
            "hi": None if self.hi is None else format_rational(self.hi),
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
        }


def _first_integer_at_or_above(x: Fraction, strict: bool) -> int:
    # smallest integer k with k > x (strict) or k >= x
    q = x.numerator // x.denominator  # floor
    if strict:
        return q + 1
    return q if q == x else q + 1


def _last_integer_at_or_below(x: Fraction, strict: bool) -> int:
    # largest integer k with k < x (strict) or k <= x
    q = x.numerator // x.denominator  # floor
    if strict:
        return q - 1 if q == x else q
    return q


def count_integers_in(interval: RationalInterval) -> Optional[int]:
    """Number of integers in the interval; None means infinitely many."""
    if interval.hi is None:
        return None
    first = _first_integer_at_or_above(interval.lo, interval.lo_open)
    last = _last_integer_at_or_below(interval.hi, interval.hi_open)
    return max(0, last - first + 1)


def largest_integer_in(interval: RationalInterval) -> Optional[int]:
    """Largest integer inside the interval, or None if there is none.

    Unbounded intervals have no largest member, so they also return None.
    """
    if interval.hi is None:
        return None
    first = _first_integer_at_or_above(interval.lo, interval.lo_open)
    last = _last_integer_at_or_below(interval.hi, interval.hi_open)
    return last if last >= first else None
