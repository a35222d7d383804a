"""Exact scalar helpers, open intervals, and integer counting.

The enumeration oracle here is deliberately naive: it walks candidate
integers one by one and tests membership with cross-multiplied
comparisons, so it shares no code with the counting kernel under test.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac.rational import (
    RationalInterval,
    format_rational,
    greedy_denominator,
    integer_bounds,
    parse_rational,
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
    assert iv.to_json_dict() == {"lo": "1/1", "hi": "3/1",
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
