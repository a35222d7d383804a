"""Exact scalar helpers, open intervals, and integer counting.

The enumeration oracle here is deliberately naive: it walks candidate
integers one by one and tests membership with cross-multiplied
comparisons, so it shares no code with the counting kernel under test.
"""
from __future__ import annotations

import enum
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac import cli
from unitfrac.rational import (
    _SSA_BITS,
    RationalInterval,
    _coprime,
    _pair_sum,
    _square,
    _ssa_shape,
    _ssa_square,
    format_rational,
    greedy_denominator,
    integer_bounds,
    parse_rational,
    positive_int,
    positive_ints,
)


# ---------------------------------------------------------------- parsing

def test_parse_and_format_round_trip():
    assert parse_rational("19/48") == Fraction(19, 48)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("38/96") == Fraction(19, 48)
    assert format_rational(Fraction(19, 48)) == "19/48"
    assert format_rational(Fraction(7)) == "7/1"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    # normalization: parse never returns a negative denominator
    assert parse_rational("3/-4") == Fraction(-3, 4)


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1//2", "1 / 2", "1.5", "/3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# ------------------------------------------------------ greedy denominator

def test_greedy_denominator_pinned_values():
    assert greedy_denominator(Fraction(19, 48)) == 3
    assert greedy_denominator(Fraction(1)) == 2
    assert greedy_denominator(Fraction(1, 16)) == 17
    assert greedy_denominator(Fraction(1, 2)) == 3
    assert greedy_denominator(Fraction(2, 3)) == 2
    assert greedy_denominator(Fraction(1, 100)) == 101


def test_greedy_denominator_exact_unit_fractions():
    # theta = 1/k sits on the closed end of the defining window
    for k in range(1, 10001):
        assert greedy_denominator(Fraction(1, k)) == k + 1


# Fraction(0.1) is 3602879701896397/2**55, whose greedy denominator is 10,
# and Fraction(True) is 1: inexact targets are refused, not converted
@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(3, 2),
                                 0.1, True])
def test_greedy_denominator_domain(bad):
    with pytest.raises(ValueError):
        greedy_denominator(bad)


@given(st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(1)))
def test_greedy_denominator_sandwich(theta):
    a = greedy_denominator(theta)
    assert a >= 2
    assert Fraction(1, a) < theta <= Fraction(1, a - 1)


# --------------------------------------------------------- exact arithmetic

@given(st.fractions(), st.fractions())
def test_addition_is_exact(x, y):
    assert (x + y) - y == x


@given(st.fractions(), st.fractions().filter(lambda v: v != 0))
def test_multiplication_is_exact(x, y):
    assert (x * y) / y == x


# both denominators share the factor k, so all three reductions are drawn:
# no common factor (k = 1), a common factor that leaves the sum reduced,
# and one that divides the sum's numerator too
@settings(max_examples=400)
@given(st.integers(-60, 60), st.integers(1, 30), st.integers(-60, 60),
       st.integers(1, 30), st.integers(1, 12), st.booleans())
@example(1, 2, 1, 3, 1, False)    # gcd of the denominators 1
@example(1, 2, 1, 5, 3, False)    # 1/6 + 1/15 = 7/30: second gcd 1
@example(1, 2, 1, 2, 3, False)    # 1/6 + 1/6 = 1/3: second gcd 2
@example(1, 4, 1, 2, 3, False)    # 1/12 + 1/6 = 1/4: second gcd 3
@example(5, 3, 0, 1, 2, True)     # 5/6 - 5/6 = 0
@example(0, 1, 0, 1, 1, True)     # 0 + 0
def test_pair_sum_matches_fraction(n1, d1, n2, d2, k, opposite):
    x = Fraction(n1, d1 * k)
    y = -x if opposite else Fraction(n2, d2 * k)
    total = _pair_sum(x.numerator, x.denominator, y.numerator, y.denominator)
    assert total == ((x + y).numerator, (x + y).denominator)


@settings(max_examples=300)
@given(st.integers(-2**80, 2**80), st.integers(1, 2**80),
       st.fractions(), st.integers(0, 12_000))
@example(0, 7, Fraction(1, 3), 0)
@example(-3, 1, Fraction(0), 0)
@example(1, 3**6000, Fraction(-5, 7), 9000)
def test_coprime_is_the_reduced_fraction(n, d, other, shift):
    n <<= shift  # long operands too, where the hash reduces modulo a prime
    g = math.gcd(n, d)
    n, d = n // g, d // g
    x, ref = _coprime(n, d), Fraction(n, d)
    assert type(x) is Fraction
    assert (x.numerator, x.denominator) == (n, d)
    assert x == ref and hash(x) == hash(ref)
    assert x + other == ref + other and x - other == ref - other
    assert x * other == ref * other and (x < other) == (ref < other)
    if other:
        assert x / other == ref / other
    assert format_rational(x) == format_rational(ref) == f"{n}/{d}"


# ----------------------------------------------------------- input checks

class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 5


def _per_element(values, least):
    """What ``positive_ints`` gave as one ``positive_int`` per value: the
    tuple, or the message naming the first bad value and its index."""
    for n, x in enumerate(values, start=1):
        try:
            positive_int(x, "v", least)
        except ValueError as exc:
            return f"{exc} at {n}"
    return tuple(values)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-2, 2**70), st.booleans(),
                          st.sampled_from(_Level), st.floats())),
       st.integers(-1, 3))
@example([], 1)
@example([2, 3, 2], 2)
@example([3, 2, 1, 0], 1)
@example([2, True], 1)
@example([_Level.HIGH, 2], 2)
@example([_Level.LOW, 2], 1)
@example([2, 2.0], 1)
def test_positive_ints_matches_the_per_element_check(values, least):
    try:
        got = positive_ints(values, "v", least)
    except ValueError as exc:
        got = str(exc)
    want = _per_element(values, least)
    assert got == want
    if isinstance(got, tuple):
        assert list(map(type, got)) == list(map(type, values))


# ----------------------------------------------------------------- intervals

def test_interval_validation():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(2))
    # the binary value of 0.1 is not 1/10
    for lo, hi in ((0.1, Fraction(1, 2)), (Fraction(0), 0.2), (False, 2)):
        with pytest.raises(ValueError, match="exact rational"):
            RationalInterval(lo, hi)
    iv = RationalInterval(1, 3)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert (iv.lo, iv.hi) == (Fraction(1), Fraction(3))
    assert cli._interval_doc(iv) == {"lo": "1/1", "hi": "3/1",
                                     "lo_open": True, "hi_open": True}


def test_interval_membership_flags():
    iv = RationalInterval(Fraction(7, 6), Fraction(3))
    assert iv.contains(Fraction(2))
    assert not iv.contains(Fraction(3))
    assert not iv.contains(Fraction(7, 6))
    assert not iv.contains(Fraction(1))
    assert not iv.contains(Fraction(10**12))


def test_interval_midpoint_and_width():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width() == Fraction(1, 6)
    assert iv.midpoint() == Fraction(5, 12)


def _count(lo_n, lo_d, hi_n, hi_d, lo_open, hi_open):
    first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, lo_open, hi_open)
    return max(0, last - first + 1)


def _largest(lo_n, lo_d, hi_n, hi_d, lo_open, hi_open):
    first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, lo_open, hi_open)
    return last if last >= first else None


def test_count_integers_pinned_values():
    assert _count(7, 6, 3, 1, True, True) == 1
    assert _count(7, 6, 3, 1, False, False) == 2
    assert _count(2, 1, 3, 1, True, True) == 0
    assert _count(2, 1, 2, 1, False, False) == 1
    assert _count(5, 2, 8, 3, True, True) == 0


def test_largest_integer_pinned_values():
    assert _largest(2, 1, 6, 1, True, True) == 5
    assert _largest(7, 6, 3, 1, True, True) == 2
    assert _largest(4, 1, 15, 2, True, True) == 7
    assert _largest(2, 1, 6, 1, False, False) == 6
    assert _largest(5, 2, 8, 3, True, True) is None


# ---------------------------------------------------------------- kernel

numerators = st.integers(min_value=-60, max_value=60)
denominators = st.integers(min_value=1, max_value=12)


@settings(max_examples=600)
@given(numerators, denominators, numerators, denominators,
       st.booleans(), st.booleans())
@example(6, 2, 9, 3, False, False)    # lo == hi == 3, closed
@example(6, 2, 9, 3, True, False)     # lo == hi, open below
@example(6, 2, 9, 3, False, True)     # lo == hi, open above
@example(-7, 2, -4, 1, True, True)    # negative ends
@example(-8, 4, 10, 5, True, True)    # integer-valued ends, open
@example(-8, 4, 10, 5, False, False)  # integer-valued ends, closed
def test_integer_bounds_match_enumeration(lo_n, lo_d, hi_n, hi_d,
                                          lo_open, hi_open):
    # membership by cross-multiplication; |n/d| <= |n| bounds both ends
    reach = max(abs(lo_n), abs(hi_n)) + 2
    inside = [k for k in range(-reach, reach + 1)
              if (k * lo_d > lo_n if lo_open else k * lo_d >= lo_n)
              and (k * hi_d < hi_n if hi_open else k * hi_d <= hi_n)]
    first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, lo_open, hi_open)
    if inside:
        assert (first, last) == (inside[0], inside[-1])
    else:
        assert first > last


# ------------------------------------------------------------ long square
#
# The reference is the interpreter's own x * x. Operands sit on both sides
# of the Schönhage–Strassen cutoff and at four times it; each example
# stays in milliseconds.

def _structured(n: int) -> list[int]:
    """n-bit operands: one bit, all ones, the two end bits, alternating
    bits, ten scattered bits, a zero low half and random bits."""
    rng = random.Random(n)
    half = n // 2
    sparse = 1 << n - 1 | 1
    for i in rng.sample(range(1, n - 1), 8):
        sparse |= 1 << i
    return [
        1 << n - 1, (1 << n) - 1, 1 << n - 1 | 1,
        int("10" * half + "1" * (n % 2), 2),
        sparse,
        (rng.getrandbits(n - half) | 1 << n - half - 1) << half,
        rng.getrandbits(n) | 1 << n - 1,
    ]


@pytest.mark.parametrize("n", [_SSA_BITS - 1, _SSA_BITS, 4 * _SSA_BITS])
def test_square_structured_operands(n):
    for x in _structured(n):
        assert x.bit_length() == n
        assert _square(x) == x * x
        assert _square(-x) == x * x


def test_square_small_operands():
    for x in (0, 1, -1, 2, -3, 2**64 - 1, -2**100):
        assert _square(x) == x * x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4 * _SSA_BITS), st.integers(0, 2**32), st.booleans())
@example(_SSA_BITS - 1, 0, False)
@example(_SSA_BITS, 0, True)
@example(4 * _SSA_BITS, 0, False)
def test_square_matches_plain_product(bits, seed, negative):
    x = random.Random(seed).getrandbits(bits) | 1 << bits - 1
    if negative:
        x = -x
    assert _square(x) == x * x


# The Schönhage–Strassen band. Its structured operands have closed-form
# squares, so only the random ones pay for x*x as the oracle.

def _pieces(bits: int) -> tuple[int, int]:
    """K and M of ``_ssa_square``'s split of a ``bits``-bit operand."""
    k, size = _ssa_shape(bits)
    return 1 << k, 8 * size


# where N.bit_length() changes, from the cutoff's length up to 1 Mbit;
# k steps at 2**17 and 2**19 bits
_SSA_STEPS = (2**17 - 1, 2**17, 2**18 - 1, 2**18, 2**19 - 1, 2**19,
              2**20 - 1, 2**20)


def test_ssa_square_cutoff():
    rng = random.Random(_SSA_BITS)
    for n in (_SSA_BITS - 1, _SSA_BITS, _SSA_BITS + 1):
        x = rng.getrandbits(n) | 1 << n - 1
        assert _square(x) == x * x
        assert _square(-x) == x * x


@pytest.mark.parametrize("n", _SSA_STEPS)
def test_ssa_square_all_ones_and_top_bit(n):
    # all ones fills every piece, so the middle coefficient is at its
    # bound K * (2**M - 1)**2
    square = (1 << 2 * n) - (1 << n + 1) + 1
    assert _square((1 << n) - 1) == square
    assert _square(1 - (1 << n)) == square
    assert _square(1 << n - 1) == 1 << 2 * n - 2
    assert _square(-1 << n - 1) == 1 << 2 * n - 2


def test_ssa_square_whole_pieces():
    # an operand of exactly K*M bits fills its top piece; one bit more
    # moves M up a byte and leaves the top pieces empty
    least = -(-_SSA_BITS // 2048) * 2048  # 8K divides it at k = 7
    K, M = _pieces(least)
    assert K * M == least and _pieces(least + 1)[0] == K
    for n in (least, least + 1, 2**18, 2**18 + 1, 2**19, 2**19 + 1):
        K, M = _pieces(n)
        assert K * M >= n > K * (M - 8)
        x = random.Random(n).getrandbits(n) | 1 << n - 1
        assert _square(x) == x * x
        assert _square((1 << n) - 1) == (1 << 2 * n) - (1 << n + 1) + 1


@pytest.mark.parametrize("n", [2**18, 2**18 + 1, 2**19 + 8])
def test_ssa_square_one_nonzero_piece(n):
    # only the top piece can be nonzero alone, since it holds the top bit
    K, M = _pieces(n)
    top = (n - 1) // M
    width = n - top * M
    rng = random.Random(n)
    for p in ((1 << width) - 1, rng.getrandbits(width - 1) | 1 << width - 1):
        x = p << top * M
        assert x.bit_length() == n
        assert _square(x) == p * p << 2 * top * M
        assert _square(-x) == p * p << 2 * top * M


def test_ssa_square_all_ones_short():
    # the transform called directly at every short length, each at the
    # coefficient bound: n = 2M + k - 1 would fail at 16 bits alone
    for bits in range(2, 1025):
        ones = (1 << bits) - 1
        assert _ssa_square(ones) == ones * ones


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 20_000), st.integers(0, 2**32))
@example(2, 0)
def test_ssa_square_small_shapes(bits, seed):
    # the transform called directly: these lengths run k = 0 to 6
    x = random.Random(seed).getrandbits(bits) | 1 << bits - 1
    assert _ssa_square(x) == x * x
    assert _ssa_square(-x) == x * x


@settings(max_examples=12, deadline=None)
@given(st.integers(_SSA_BITS - 64, 4 * _SSA_BITS), st.integers(0, 2**32),
       st.booleans())
@example(4 * _SSA_BITS, 0, True)
def test_ssa_square_matches_plain_product(bits, seed, negative):
    x = random.Random(seed).getrandbits(bits) | 1 << bits - 1
    if negative:
        x = -x
    assert _square(x) == x * x
