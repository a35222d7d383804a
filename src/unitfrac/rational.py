"""Exact rational scalars, open enclosures, and the integer window kernel.

Scalars are stdlib ``fractions.Fraction`` values, which already guarantee
reduced form and a positive denominator. This module adds the pieces the
rest of the package needs on top of that type: strict "P/Q" serialization,
the greedy denominator map, the open bounded ``RationalInterval`` that
every emitted enclosure takes, and the integer window kernel
``integer_bounds``, which finds the integers between two integer ratios
by floor division alone. ``_square`` is the long square under every
expansion step and the greedy growth check: exact, and by Toom-3 once its
operand passes ``_TOOM_BITS``.

It also holds the input contract of every entry point. ``positive_int``
and, for lists, ``positive_ints`` refuse a bool, a non-``int`` or a value
below the least one allowed, with a ValueError naming the argument and
the 1-based list index; ``checked_int`` only the first two. ``parse_int``
reads ASCII digits after an optional minus, whitespace around stripped,
and ``parse_rational`` reads its numerator and denominator the same way.

No floating point is used anywhere here; every comparison is exact.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

_INT = "-?[0-9]+"  # ASCII digits only: int() also takes "1_0", "+5", "٣"
_INT_RE = re.compile(_INT)
_RATIONAL_RE = re.compile(f"({_INT})(?:/({_INT}))?")


def positive_int(x, what: str, least: int = 1) -> int:
    """x if it is an int >= least, else a ValueError naming ``what``.
    A bool is refused too: True would run as 1."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def checked_int(x, what: str) -> int:
    """x if it is an int of any sign, and not a bool, else a ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def positive_ints(values, what: str, least: int = 1) -> tuple:
    """The values as a tuple, each checked by ``positive_int``; the error
    ends with the 1-based index of the first bad value."""
    values = tuple(values)
    # plain ints at or above least pass in one C pass; anything else (a
    # bool, another int subclass, a bad value) is judged by the loop
    if set(map(type, values)) == {int} and min(values) >= least:
        return values
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


class RationalInterval(NamedTuple("RationalInterval", [("lo", Fraction),
                                                       ("hi", Fraction)])):
    """Open bounded interval (lo, hi) of rationals, with lo < hi.

    This is the shape of every enclosure the package emits; both ends are
    excluded. It is an immutable named tuple whose constructor checks its
    ends, and ``_make``, so also ``_replace``, goes through that check.
    """

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "RationalInterval":
        lo, hi = exact(lo), exact(hi)
        if lo >= hi:
            raise ValueError(f"empty interval: lo={lo} >= hi={hi}")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> "RationalInterval":
        return cls(*iterable)

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


_TOOM_BITS = 40_000
"""Operand length from which ``_square`` splits its operand by Toom-3.

CPython multiplies long integers by Karatsuba, whose square of n bits
costs about n**1.58; one Toom-3 level costs five squares of n/3 bits and
linear work, about n**1.46. On CPython 3.11 (x86-64) one level is within
a few percent of x*x from 12 to 50 kbit and about 1.2x faster at 60
kbit, so below this length ``_square`` returns x*x.
"""


def _square(x: int) -> int:
    """x*x, by Toom-3 with Bodrato's evaluation and interpolation.

    x = x2*B**2 + x1*B + x0 with B = 2**k, 0 <= x0, x1 < B, and x2 of
    x's sign: the identity needs no sign split. The square is the degree-4
    polynomial with values r(0) = x0**2, r(1), r(-1), r(-2) and
    r(inf) = x2**2, each a recursive square; Bodrato's sequence recovers
    its coefficients with shifts, additions and one exact division by 3.
    Each piece, point value and coefficient is dropped once it has been
    read for the last time; so its traced peak memory at 1 and 2 Mbit is
    below that of x*x (0.89 against 1.06 MB at 1 Mbit, CPython 3.11).
    """
    n = x.bit_length()
    if n < _TOOM_BITS:
        return x * x
    k = (n + 2) // 3
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, (x >> k) & mask, x >> 2 * k
    s = x0 + x2
    r1 = _square(s + x1)
    s -= x1
    rm2 = _square(((s + x2) << 1) - x0)
    rm1 = _square(s)
    del s
    r0 = _square(x0)
    r4 = _square(x2)
    del x0, x1, x2
    c3 = (rm2 - r1) // 3
    del rm2
    c1 = (r1 - rm1) >> 1
    del r1
    c2 = rm1 - r0
    del rm1
    c3 = ((c2 - c3) >> 1) + (r4 << 1)
    c2 += c1 - r4
    c1 -= c3
    out = (r4 << k) + c3  # Horner in B, from the B**4 coefficient down
    del r4, c3
    out = (out << k) + c2
    del c2
    out = (out << k) + c1
    del c1
    return (out << k) + r0


def integer_bounds(lo_n: int, lo_d: int, hi_n: int, hi_d: int,
                   lo_open: bool, hi_open: bool) -> tuple[int, int]:
    """First and last integer between lo_n/lo_d and hi_n/hi_d.

    Both denominators must be positive. Each flag says whether its side
    is open. There is no integer between the ends when first > last.
    """
    first = lo_n // lo_d + 1 if lo_open else -(-lo_n // lo_d)
    last = -(-hi_n // hi_d) - 1 if hi_open else hi_n // hi_d
    return first, last
