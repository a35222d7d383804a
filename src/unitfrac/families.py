"""Sequence families of targets and their companion denominators.

Each family fixes a closed-form target sequence a_n, rising from
a_1 >= 2. Its b_n is the largest integer whose reciprocal fits strictly
between the telescoping differences 1/a_n - 1/a_{n+1} and
1/(a_n - 1) - 1/(a_{n+1} - 1), by the one companion rule
``greedy._companion``; the class docstrings give its closed forms. So
every index has a bracket, and a_n is the greedy shadow of the family's
own theta = sum(1/b_n). ``_targets()`` yields a_1 < a_2 < ... without
end, by the family's own rule, to ``construct`` and to ``terms(n)``,
which maps the companion rule over a_1..a_{n+1}. The series is enclosed
by its prefix sums plus the one tail bracket that the companion rule
gives every family, with both ends on the 2**-96 grid.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

from .greedy import _companion
from .rational import (_INT, RationalInterval, _unit_sums, parse_int,
                       positive_int)

# grid of every enclosure end: terms and tail are rounded outward to it
_SCALE = 2**96


def fibonacci_number(k: int) -> int:
    """F_k with F_0 = 0, F_1 = F_2 = 1, by fast doubling.

    Reading k's bits from the top, (F_m, F_{m+1}) becomes
    (F_{2m}, F_{2m+1}) by F_{2m} = F_m (2 F_{m+1} - F_m) and
    F_{2m+1} = F_m^2 + F_{m+1}^2, then steps once more on a 1 bit:
    O(log k) multiplications.
    """
    positive_int(k, "k", 0)
    f, g = 0, 1
    for bit in format(k, "b"):
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f


class SequenceFamily:
    """Base for indexed families; indices are 1-based throughout.

    A subclass gives ``a(n)``, the target a_n; ``_targets()``, an
    endless iterator over a_1 < a_2 < ..., by the family's own rule
    rather than index by index; and ``spec_string()``. A family is
    immutable. It equals, hashes and prints as its spec string, and is
    copied and pickled as one.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, SequenceFamily):
            return NotImplemented
        return self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"

    def __reduce__(self):
        return parse_family_spec, (self.spec_string(),)

    def b(self, n: int) -> int:
        """The companion of a_n < a_{n+1} (see ``greedy._companion``)."""
        return _companion(self.a(n), self.a(n + 1))

    def terms(self, n: int) -> tuple[list[int], list[int]]:
        """a_1..a_{n+1}, each evaluated once, and b_1..b_n, the companion
        rule mapped over them."""
        a = [*itertools.islice(self._targets(), positive_int(n, "n") + 1)]
        return a, list(map(_companion, a, a[1:]))

    def tail_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        """Strict rational bounds on sum(1/b(k) for k > n_terms).

        With a = a_{n+1} and a' = a_{n+2}, n = n_terms, they are 1/a and
        a'/(a a' - (a' - a)).  Write P_k = a_k a_{k+1} and
        g_k = a_{k+1} - a_k.  The companion b_k = (P_k - 1) // g_k is the
        largest integer below P_k / g_k, so P_k / g_k - 1 <= b_k, that is
        1/a_k - 1/a_{k+1} < 1/b_k <= kappa_k (1/a_k - 1/a_{k+1}) with
        kappa_k = P_k / (P_k - g_k).  The lower ends telescope to 1/a,
        since a_k grows without bound.  P_k / g_k strictly increases in
        every family here (the tests check it), so kappa_k strictly
        decreases and the upper ends sum to less than kappa_{n+1} / a,
        the upper bound.
        """
        k = positive_int(n_terms, "n_terms", 0) + 1
        a, a_next = self.a(k), self.a(k + 1)
        return Fraction(1, a), Fraction(a_next, a * a_next - (a_next - a))

    def ratio_limit(self) -> Fraction | None:
        """Rational limit of a(n+1)/a(n) when one exists, else None."""
        return None

    def ratio_exceeds_one(self) -> bool | None:
        """Whether lim a(n+1)/a(n) > 1; None when unknown."""
        limit = self.ratio_limit()
        return None if limit is None else limit > 1


class GeometricFamily(SequenceFamily):
    """a_n = a0 * r^(n-1) for integers a0 >= 2, r >= 2.

    Its b_n is a0 r^n / (r-1) - 1 when r-1 divides a0, else the floor of
    a0 r^n / (r-1).  With a0 = 2: r = 3 gives b_n = 3^n - 1 (OEIS A024023
    shifted) and r = 4 gives b_n = 2(4^n - 1)/3 (A020988).
    """

    __slots__ = ("a0", "r")

    def __init__(self, a0: int, r: int):
        object.__setattr__(self, "a0", positive_int(a0, "a0", 2))
        object.__setattr__(self, "r", positive_int(r, "r", 2))

    def a(self, n: int) -> int:
        return self.a0 * self.r ** (positive_int(n, "n") - 1)

    def _targets(self):
        return itertools.accumulate(itertools.repeat(self.r), operator.mul,
                                    initial=self.a0)

    def spec_string(self) -> str:
        return f"geometric:a={self.a0},r={self.r}"

    def ratio_limit(self) -> Fraction | None:
        return Fraction(self.r)


class ArithmeticFamily(SequenceFamily):
    """a_n = a0 + (n-1) d for integers a0 >= 2, d >= 1.

    Its b_n is a_n a_{n+1} / d - 1 when d divides a0^2, else the floor of
    a_n a_{n+1} / d.  With a0 = 2, d = 1 this is n^2 + 3n + 1 (OEIS
    A028387); with a0 = 3, d = 2 it is 2n^2 + 4n + 1 (A056220 shifted).
    """

    __slots__ = ("a0", "d")

    def __init__(self, a0: int, d: int):
        object.__setattr__(self, "a0", positive_int(a0, "a0", 2))
        object.__setattr__(self, "d", positive_int(d, "d"))

    def a(self, n: int) -> int:
        return self.a0 + (positive_int(n, "n") - 1) * self.d

    def _targets(self):
        return itertools.count(self.a0, self.d)

    def spec_string(self) -> str:
        return f"arithmetic:a={self.a0},d={self.d}"

    def ratio_limit(self) -> Fraction | None:
        return Fraction(1)


class FibonacciFamily(SequenceFamily):
    """a_n = F_{n+2}, so 2, 3, 5, 8, 13, ...

    Since F_{n+2} F_{n+3} - F_{n+1} F_{n+4} = (-1)^(n+1) (d'Ocagne),
    a_n a_{n+1} / (a_{n+1} - a_n) = F_{n+2} F_{n+3} / F_{n+1} is
    F_{n+4} + (-1)^(n+1) / F_{n+1}, so b_n, the largest integer below
    it, is F_{n+4} for odd n and F_{n+4} - 1 for even n, from n = 1 on.
    At n = 1 the quotient is the integer 6: the raw floor overshoots the
    bracket (2, 6), and the companion rule gives the parity form (5).
    """

    __slots__ = ()

    def a(self, n: int) -> int:
        return fibonacci_number(positive_int(n, "n") + 2)

    def _targets(self):
        # F_3, F_4, ... by addition: one long addition per term, where
        # fast doubling costs O(log k) multiplications for each
        f, g = 2, 3
        while True:
            yield f
            f, g = g, f + g

    def spec_string(self) -> str:
        return "fibonacci"

    def ratio_exceeds_one(self) -> bool | None:
        # a(n+1)/a(n) tends to the golden ratio, which is not rational,
        # so there is no exact limit to report
        return True


def theta_partial(family: SequenceFamily, n_terms: int) -> RationalInterval:
    """Open rational enclosure of sum(1/b(n) for all n >= 1).

    The first n_terms reciprocals and the tail bracket are each rounded
    outward onto the 2**-96 grid, so each end is an integer over 2**96.
    The result is exact arithmetic end to end: the true series sum lies
    strictly inside the returned interval.
    """
    _, b = family.terms(positive_int(n_terms, "n_terms"))
    return _enclosure(family, b)


def _enclosure(family: SequenceFamily, b: list[int]) -> RationalInterval:
    """``theta_partial`` from the family's own b_1..b_n, n = len(b)."""
    tail_lo, tail_hi = family.tail_bracket(len(b))
    below, above = _unit_sums(_SCALE, b)
    lo = below + math.floor(tail_lo * _SCALE)
    hi = above + math.ceil(tail_hi * _SCALE)
    return RationalInterval(Fraction(lo, _SCALE), Fraction(hi, _SCALE))


_GEOMETRIC_RE = re.compile(f"geometric:a=({_INT}),r=({_INT})")
_ARITHMETIC_RE = re.compile(f"arithmetic:a=({_INT}),d=({_INT})")


def parse_family_spec(text: str) -> SequenceFamily:
    """Parse 'geometric:a=2,r=3', 'arithmetic:a=2,d=1', or 'fibonacci'."""
    if text == "fibonacci":
        return FibonacciFamily()
    m = _GEOMETRIC_RE.fullmatch(text)
    if m:
        return GeometricFamily(*map(parse_int, m.groups()))
    m = _ARITHMETIC_RE.fullmatch(text)
    if m:
        return ArithmeticFamily(*map(parse_int, m.groups()))
    raise ValueError(f"unrecognized family spec: {text!r}")
