"""Exact scalar helpers, open intervals, and the long square."""
from __future__ import annotations

import enum
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac.rational import (
    _SSA_BITS,
    RationalInterval,
    _coprime,
    _pair_sum,
    _square,
    _ssa_shape,
    _ssa_square,
    _unit_sums,
    format_rational,
    greedy_denominator,
    parse_int,
    parse_ints,
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


def test_format_takes_an_int_and_refuses_floats_and_bools():
    assert format_rational(3) == "3/1"
    assert format_rational(-2) == "-2/1"
    # Fraction(0.1) is the float's binary value and Fraction(True) is 1
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(ValueError, match="need an exact rational"):
            format_rational(bad)


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


# what str.strip cuts around a line, and lines parse_int refuses: int()
# takes the first three, and the last passes the digit check but not
# int() past the interpreter's default digit limit
_BLANKS = st.text(" \t\r\x0b\x0c", max_size=2)
_REFUSED = ["+5", "1_0", "\u0663", "3.0", "", "9" * 4301]
_ACCEPTED = st.builds("".join, st.tuples(
    _BLANKS, st.sampled_from(["", "-"]), st.text("0123456789", min_size=1),
    _BLANKS))


@settings(max_examples=300)
@given(st.lists(st.one_of(_ACCEPTED, st.sampled_from(_REFUSED))))
@example(_REFUSED)
@example([])
def test_parse_ints_is_parse_int_per_line(lines):
    """The one-pass check gives parse_int's value for every line, or the
    message of the first line it refuses, led by that line's number."""
    for n, line in enumerate(lines, 1):
        try:
            parse_int(line)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_ints(lines)
            assert str(info.value) == f"{n}: {exc}"
            return
    assert parse_ints(lines) == [parse_int(line) for line in lines]


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
    terms = (x.numerator, x.denominator, y.numerator, y.denominator)
    total = _pair_sum(*terms)
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


@given(st.integers(1, 2**200), st.lists(st.integers(1, 10**6)))
@example(1, [1, 2, 3])  # only d = 1 divides the scale
@example(64, [1, 2, 3, 4, 64, 128])
def test_unit_sums_round_each_term_down_and_up(scale, ds):
    below, above = _unit_sums(scale, ds)
    assert below == sum(math.floor(Fraction(scale, d)) for d in ds)
    assert above == sum(math.ceil(Fraction(scale, d)) for d in ds)


# ----------------------------------------------------------- input checks

class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 5


def _per_element(values):
    """What ``positive_ints`` gave as one ``positive_int`` per value: the
    tuple, or the message naming the first bad value and its index."""
    for n, x in enumerate(values, start=1):
        try:
            positive_int(x, "v")
        except ValueError as exc:
            return f"{exc} at {n}"
    return tuple(values)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-2, 2**70), st.booleans(),
                          st.sampled_from(_Level), st.floats())))
@example([])
@example([1, 3, 1])
@example([3, 2, 1, 0])
@example([2, True])
@example([_Level.HIGH, 2])
@example([_Level.LOW, 2])
@example([2, 2.0])
def test_positive_ints_matches_the_per_element_check(values):
    try:
        got = positive_ints(values, "v")
    except ValueError as exc:
        got = str(exc)
    want = _per_element(values)
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


def test_interval_midpoint_and_width():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width() == Fraction(1, 6)
    assert iv.midpoint() == Fraction(5, 12)


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


@pytest.mark.parametrize("n", [_SSA_BITS - 1, _SSA_BITS, _SSA_BITS + 1,
                               4 * _SSA_BITS])
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


@pytest.mark.parametrize("n", _SSA_STEPS)
def test_ssa_square_all_ones_and_top_bit(n):
    # all ones fills every piece, so the middle coefficient is at its
    # bound K * (2**M - 1)**2
    square = (1 << 2 * n) - (1 << n + 1) + 1
    assert _square((1 << n) - 1) == square
    assert _square(1 - (1 << n)) == square
    assert _square(1 << n - 1) == 1 << 2 * n - 2
    assert _square(-1 << n - 1) == 1 << 2 * n - 2


def _kernel_operands() -> dict[str, int]:
    """Random operands drawn in turn from one seed: on both sides of the
    cutoff and of 2**17 bits, at the lengths the deep benchmark squares
    (63 and 127 kbit, 0.25, 0.5 and 1.01 Mbit) and at 2 Mbit; then 1 Mbit
    of ones."""
    rng = random.Random(19)
    operands = {str(bits): rng.getrandbits(bits) | 1 << bits - 1
                for bits in (_SSA_BITS - 1, _SSA_BITS, 63_000, 127_000,
                             2**17 - 1, 2**17, 250_000, 500_000, 1_010_000,
                             2_000_000)}
    operands["1000000-ones"] = (1 << 1_000_000) - 1
    return operands


_KERNEL_OPERANDS = _kernel_operands()


@pytest.mark.parametrize("label", _KERNEL_OPERANDS)
def test_square_at_long_operands(label):
    x = _KERNEL_OPERANDS[label]
    assert _square(x) == x * x


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
