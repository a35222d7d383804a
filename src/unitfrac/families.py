"""Sequence families with closed-form expansions.

Each family fixes a target sequence a_n and the canonical companion b_n,
the largest integer whose reciprocal fits strictly between the telescoping
differences 1/a_n - 1/a_{n+1} and 1/(a_n - 1) - 1/(a_{n+1} - 1).  For the
built-in families that choice has a closed form, and the resulting series
sum(1/b_n) can be enclosed in an exact rational interval.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .greedy import bracket_misses
from .rational import RationalInterval

# fixed-point scale for certified partial sums; error per term is 2**-96
_SCALE = 2**96


def fibonacci_number(k: int) -> int:
    """F_k with F_0 = 0, F_1 = F_2 = 1, by fast doubling.

    Reading k's bits from the top, (F_m, F_{m+1}) becomes
    (F_{2m}, F_{2m+1}) by F_{2m} = F_m (2 F_{m+1} - F_m) and
    F_{2m+1} = F_m^2 + F_{m+1}^2, then steps once more on a 1 bit:
    O(log k) multiplications.
    """
    if k < 0:
        raise ValueError("negative index")
    f, g = 0, 1
    for bit in format(k, "b"):
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f


class SequenceFamily:
    """Base for indexed families; indices are 1-based throughout."""

    def a(self, n: int) -> int:
        raise NotImplementedError

    def b(self, n: int) -> int:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def tail_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        """Strict rational bounds on sum(1/b(n) for n > n_terms)."""
        raise NotImplementedError

    def ratio_limit(self) -> Fraction | None:
        """Rational limit of a(n+1)/a(n) when one exists, else None."""
        return None

    def ratio_exceeds_one(self) -> bool | None:
        """Whether lim a(n+1)/a(n) > 1; None when unknown."""
        limit = self.ratio_limit()
        return None if limit is None else limit > 1


@dataclass(frozen=True)
class GeometricFamily(SequenceFamily):
    """a_n = a0 * r^(n-1) for integers a0 >= 2, r >= 2.

    b_n is a0 r^n / (r-1) - 1 when r-1 divides a0, else the floor of
    a0 r^n / (r-1).  With a0 = 2: r = 3 gives b_n = 3^n - 1 (OEIS A024023
    shifted) and r = 4 gives b_n = 2(4^n - 1)/3 (A020988).
    """

    a0: int
    r: int

    def __post_init__(self):
        if self.a0 < 2:
            raise ValueError("a0 must be at least 2")
        if self.r < 2:
            raise ValueError("ratio must be at least 2")

    def a(self, n: int) -> int:
        return self.a0 * self.r ** (n - 1)

    def b(self, n: int) -> int:
        power = self.a0 * self.r**n
        if self.a0 % (self.r - 1) == 0:
            return power // (self.r - 1) - 1
        return power // (self.r - 1)

    def spec_string(self) -> str:
        return f"geometric:a={self.a0},r={self.r}"

    def tail_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        # 1/b_n lies in ((r-1)/(a0 r^n), (r-1)/(a0 r^n - (r-1))]; the lower
        # series telescopes exactly and the upper is inflated by the n_terms+1
        # correction factor, largest among the remaining terms
        base = self.a0 * self.r**n_terms
        lo = Fraction(1, base)
        head = base * self.r
        kappa = Fraction(head, head - (self.r - 1))
        return lo, kappa * lo

    def ratio_limit(self) -> Fraction | None:
        return Fraction(self.r)


@dataclass(frozen=True)
class ArithmeticFamily(SequenceFamily):
    """a_n = a0 + (n-1) d for integers a0 >= 2, d >= 1.

    b_n is a_n a_{n+1} / d - 1 when d divides a0^2, else the floor of
    a_n a_{n+1} / d.  With a0 = 2, d = 1 this is n^2 + 3n + 1 (OEIS
    A028387); with a0 = 3, d = 2 it is 2n^2 + 4n + 1 (A056220 shifted).
    """

    a0: int
    d: int

    def __post_init__(self):
        if self.a0 < 2:
            raise ValueError("a0 must be at least 2")
        if self.d < 1:
            raise ValueError("step must be positive")

    def a(self, n: int) -> int:
        return self.a0 + (n - 1) * self.d

    def b(self, n: int) -> int:
        prod = self.a(n) * self.a(n + 1)
        if (self.a0 * self.a0) % self.d == 0:
            return prod // self.d - 1
        return prod // self.d

    def spec_string(self) -> str:
        return f"arithmetic:a={self.a0},d={self.d}"

    def tail_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        first = self.a(n_terms + 1)
        lo = Fraction(1, first)
        prod = first * self.a(n_terms + 2)
        kappa = Fraction(prod, prod - self.d)
        return lo, kappa * lo

    def ratio_limit(self) -> Fraction | None:
        return Fraction(1)


@dataclass(frozen=True)
class FibonacciFamily(SequenceFamily):
    """a_n = F_{n+1}, so 1, 2, 3, 5, 8, 13, ...

    The floor of a_n a_{n+1} / (a_{n+1} - a_n) = F_{n+1} F_{n+2} / F_n
    equals F_{n+3} + (-1)^n / F_n up to the fractional part, which by the
    Cassini identity collapses to F_{n+3} for even n and F_{n+3} - 1 for
    odd n >= 3.  At n = 2 the raw floor (6) overshoots the bracket and the
    parity form (5) is the right choice; b_1 is pinned to 3 by hand since
    a_1 = 1 has no bracket of its own.
    """

    def a(self, n: int) -> int:
        return fibonacci_number(n + 1)

    def b(self, n: int) -> int:
        if n == 1:
            return 3
        base = fibonacci_number(n + 3)
        return base - 1 if n % 2 == 1 else base

    def spec_string(self) -> str:
        return "fibonacci"

    def tail_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        # b(n+1)/b(n) >= 3/2 holds from n = 3 on, so past n_terms >= 2 the
        # tail is squeezed between its first term and the geometric series
        # with ratio 2/3; smaller n_terms peel off exact terms first
        if n_terms < 2:
            shift = Fraction(1, self.b(n_terms + 1))
            lo, hi = self.tail_bracket(n_terms + 1)
            return shift + lo, shift + hi
        first = Fraction(1, self.b(n_terms + 1))
        return first, 3 * first

    def ratio_exceeds_one(self) -> bool | None:
        # a(n+1)/a(n) tends to the golden ratio, which is not rational,
        # so there is no exact limit to report
        return True


def bracket_failures(family: SequenceFamily, horizon: int) -> list[int]:
    """Indices n <= horizon where 1/b(n) leaves its telescoping bracket.

    Indices with a(n) < 2, such as the Fibonacci a_1 = 1, have no bracket
    and are skipped.
    """
    a = [family.a(n) for n in range(1, horizon + 2)]
    b = [family.b(n) for n in range(1, horizon + 1)]
    return bracket_misses(a, b)


def theta_partial(family: SequenceFamily, n_terms: int) -> RationalInterval:
    """Open rational enclosure of sum(1/b(n) for all n >= 1).

    The first n_terms reciprocals are accumulated in fixed point at scale
    2**96 with outward rounding, then the family tail bracket covers the
    rest.  The result is exact arithmetic end to end: the true series sum
    lies strictly inside the returned interval.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    lo_acc = 0
    hi_acc = 0
    for n in range(1, n_terms + 1):
        den = family.b(n)
        lo_acc += _SCALE // den
        hi_acc += -(-_SCALE // den)
    tail_lo, tail_hi = family.tail_bracket(n_terms)
    lo = Fraction(lo_acc, _SCALE) + tail_lo
    hi = Fraction(hi_acc, _SCALE) + tail_hi
    return RationalInterval(lo, hi)


_GEOMETRIC_RE = re.compile(r"^geometric:a=(\d+),r=(\d+)$")
_ARITHMETIC_RE = re.compile(r"^arithmetic:a=(\d+),d=(\d+)$")


def parse_family_spec(text: str) -> SequenceFamily:
    """Parse 'geometric:a=2,r=3', 'arithmetic:a=2,d=1', or 'fibonacci'."""
    if text == "fibonacci":
        return FibonacciFamily()
    m = _GEOMETRIC_RE.match(text)
    if m:
        return GeometricFamily(int(m.group(1)), int(m.group(2)))
    m = _ARITHMETIC_RE.match(text)
    if m:
        return ArithmeticFamily(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unrecognized family spec: {text!r}")
