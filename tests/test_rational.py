"""Exact scalar helpers, intervals, and integer counting.

The enumeration oracle here is deliberately naive: it walks candidate
integers one by one and tests membership with raw comparisons, so it
shares no code with the counting logic under test.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac.rational import (
    RationalInterval,
    count_integers_in,
    format_rational,
    greedy_denominator,
    integer_bounds,
    largest_integer_in,
    parse_rational,
)


def enumerate_count(lo, hi, lo_open, hi_open):
    """Count integers in the interval by brute force. hi=None means unbounded."""
    if hi is None:
        return None
    if lo > hi:
        return 0
    total = 0
    k = int(lo) - 2
    stop = int(hi) + 2
    while k <= stop:
        above = k > lo if lo_open else k >= lo
        below = k < hi if hi_open else k <= hi
        if above and below:
            total += 1
        k += 1
    return total


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


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
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
        RationalInterval(Fraction(2), Fraction(2), lo_open=True)
    # degenerate closed point is fine
    point = RationalInterval(Fraction(2), Fraction(2))
    assert point.contains(Fraction(2))
    # unbounded above must be open on that side
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), None, hi_open=False)


def test_interval_membership_flags():
    iv = RationalInterval.open(Fraction(7, 6), Fraction(3))
    assert iv.contains(Fraction(2))
    assert not iv.contains(Fraction(3))
    assert not iv.contains(Fraction(7, 6))
    cv = RationalInterval.closed(Fraction(7, 6), Fraction(3))
    assert cv.contains(Fraction(3))
    assert cv.contains(Fraction(7, 6))
    ub = RationalInterval(Fraction(5), None, lo_open=True, hi_open=True)
    assert ub.contains(Fraction(10**12))
    assert not ub.contains(Fraction(5))
    assert ub.width() is None


def test_interval_midpoint_and_width():
    iv = RationalInterval.open(Fraction(1, 3), Fraction(1, 2))
    assert iv.width() == Fraction(1, 6)
    assert iv.midpoint() == Fraction(5, 12)
    ub = RationalInterval(Fraction(0), None, lo_open=True, hi_open=True)
    with pytest.raises(ValueError):
        ub.midpoint()


def test_count_integers_pinned_values():
    assert count_integers_in(RationalInterval.open(Fraction(7, 6), Fraction(3))) == 1
    assert count_integers_in(RationalInterval.closed(Fraction(7, 6), Fraction(3))) == 2
    assert count_integers_in(RationalInterval.open(Fraction(2), Fraction(3))) == 0
    assert count_integers_in(RationalInterval.closed(Fraction(2), Fraction(2))) == 1
    assert count_integers_in(RationalInterval.open(Fraction(5, 2), Fraction(8, 3))) == 0
    assert count_integers_in(
        RationalInterval(Fraction(5), None, lo_open=True, hi_open=True)
    ) is None


small_fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000
)


@settings(max_examples=400)
@given(small_fractions, small_fractions, st.booleans(), st.booleans())
def test_count_integers_matches_enumeration(p, q, lo_open, hi_open):
    lo, hi = min(p, q), max(p, q)
    if lo == hi and (lo_open or hi_open):
        return
    iv = RationalInterval(lo, hi, lo_open=lo_open, hi_open=hi_open)
    assert count_integers_in(iv) == enumerate_count(lo, hi, lo_open, hi_open)


def test_largest_integer_pinned_values():
    assert largest_integer_in(RationalInterval.open(Fraction(2), Fraction(6))) == 5
    assert largest_integer_in(RationalInterval.open(Fraction(7, 6), Fraction(3))) == 2
    assert largest_integer_in(RationalInterval.open(Fraction(4), Fraction(15, 2))) == 7
    assert largest_integer_in(RationalInterval.closed(Fraction(2), Fraction(6))) == 6
    assert largest_integer_in(RationalInterval.open(Fraction(5, 2), Fraction(8, 3))) is None
    assert largest_integer_in(
        RationalInterval(Fraction(5), None, lo_open=True, hi_open=True)
    ) is None


@settings(max_examples=300)
@given(small_fractions, small_fractions, st.booleans(), st.booleans())
def test_largest_integer_matches_enumeration(p, q, lo_open, hi_open):
    lo, hi = min(p, q), max(p, q)
    if lo == hi and (lo_open or hi_open):
        return
    iv = RationalInterval(lo, hi, lo_open=lo_open, hi_open=hi_open)
    got = largest_integer_in(iv)
    want = None
    k = int(hi) + 2
    while k >= int(lo) - 2:
        above = k > lo if lo_open else k >= lo
        below = k < hi if hi_open else k <= hi
        if above and below:
            want = k
            break
        k -= 1
    assert got == want


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
