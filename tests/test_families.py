"""Closed-form sequence families and their certified partial sums.

Bracket membership is cross-checked here with raw reciprocal comparisons
written out inline, independent of the interval helpers.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitfrac import families
from unitfrac.families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    fibonacci_number,
    parse_family_spec,
    theta_partial,
)
from unitfrac.greedy import _companion, bracket_misses, recover_shadow
from unitfrac.rational import format_rational

from test_cli_golden import run_main


def bracket_holds(a, a_next, b):
    """Inline oracle: 1/a - 1/a_next < 1/b < 1/(a-1) - 1/(a_next-1)."""
    inv_b = Fraction(1, b)
    lower = Fraction(1, a) - Fraction(1, a_next)
    upper = Fraction(1, a - 1) - Fraction(1, a_next - 1)
    return lower < inv_b < upper


# ------------------------------------------------------------ closed forms

def test_geometric_2_4_values():
    f = GeometricFamily(2, 4)
    # 3 does not divide 2, so the floor form applies: 2(4^n - 1)/3
    assert [f.b(n) for n in range(1, 5)] == [2, 10, 42, 170]


def test_arithmetic_2_1_values():
    f = ArithmeticFamily(2, 1)
    assert [f.a(n) for n in range(1, 5)] == [2, 3, 4, 5]
    # d divides a^2: b_n = (n+1)(n+2) - 1 = n^2 + 3n + 1
    assert [f.b(n) for n in range(1, 5)] == [5, 11, 19, 29]


def test_fibonacci_number_matches_recurrence():
    prev, cur = 0, 1
    for k in range(501):
        assert fibonacci_number(k) == prev
        prev, cur = cur, prev + cur
    with pytest.raises(ValueError):
        fibonacci_number(-1)


def test_family_validation():
    with pytest.raises(ValueError):
        GeometricFamily(2, 1)
    with pytest.raises(ValueError):
        GeometricFamily(1, 3)
    with pytest.raises(ValueError):
        ArithmeticFamily(2, 0)
    with pytest.raises(ValueError):
        ArithmeticFamily(1, 1)


def test_dichotomy_identities():
    for a0 in range(2, 8):
        for r in range(2, 7):
            f = GeometricFamily(a0, r)
            for n in range(1, 15):
                power = a0 * r**n
                if a0 % (r - 1) == 0:
                    assert (f.b(n) + 1) * (r - 1) == power
                else:
                    assert f.b(n) == power // (r - 1)
                    assert power % (r - 1) != 0
    for a0 in range(2, 8):
        for d in range(1, 7):
            f = ArithmeticFamily(a0, d)
            for n in range(1, 15):
                prod = f.a(n) * f.a(n + 1)
                if (a0 * a0) % d == 0:
                    assert (f.b(n) + 1) * d == prod
                else:
                    assert f.b(n) == prod // d
                    assert prod % d != 0


# ------------------------------------------------------------- the bracket

def test_fibonacci_bracket_starts_at_two():
    # Fibonacci's a_1 = 2, so index 1 is checked; an a_1 = 1 would sit
    # below the greedy range, with no bracket, and be skipped
    assert bracket_misses(*FibonacciFamily().terms(1)) == []
    assert bracket_misses([1, 2], [99]) == []
    assert bracket_misses([2, 6], [99]) == [1]


def test_fibonacci_floor_discrepancy_at_two():
    # the raw floor of F_{n+2} F_{n+3} / F_{n+1} overshoots b_n at
    # a_n = 2, n = 1, alone (acceptance criterion 5 pins 6 against 5);
    # from n = 2 on it agrees with the parity closed form
    f = FibonacciFamily()
    for n in range(1, 50):
        floor_val = (fibonacci_number(n + 2) * fibonacci_number(n + 3)) \
            // fibonacci_number(n + 1)
        assert (f.b(n) == floor_val) is (n != 1), n


GRID = [FibonacciFamily(),
        *(GeometricFamily(a0, r) for a0 in (2, 3, 4, 6, 9) for r in (2, 3, 5)),
        GeometricFamily(2, 4),
        *(ArithmeticFamily(a0, d) for a0 in (2, 3, 5, 7) for d in (1, 2, 4, 9))]


@pytest.mark.parametrize("family", GRID, ids=lambda f: f.spec_string())
def test_b_is_largest_admissible(family):
    # b_n is the construction's jump choice at every index; for Fibonacci
    # that is the parity form
    for n in range(1, 51):
        a, a_next, b = family.a(n), family.a(n + 1), family.b(n)
        assert b == _companion(a, a_next)
        assert bracket_holds(a, a_next, b)
        assert not bracket_holds(a, a_next, b + 1)


@pytest.mark.parametrize("family", GRID, ids=lambda f: f.spec_string())
def test_terms_match_the_indexed_terms(family):
    for n in (1, 2, 3, 17, 90):
        assert family.terms(n) == ([family.a(k) for k in range(1, n + 2)],
                                   [family.b(k) for k in range(1, n + 1)])


# -------------------------------------------------------- the tail bracket

def geometric_tail_oracle(a0, r, n):
    """The geometric closed form: 1/b_k lies in ((r-1)/(a0 r^k),
    (r-1)/(a0 r^k - (r-1))], so the tail is inflated by its first factor."""
    base = a0 * r**n
    head = base * r
    return Fraction(1, base), Fraction(head, head - (r - 1)) / base


def arithmetic_tail_oracle(a0, d, n):
    """The arithmetic closed form, inflated by kappa = P/(P - d)."""
    first = a0 + n * d
    prod = first * (first + d)
    return Fraction(1, first), Fraction(prod, prod - d) / first


def fibonacci_ratio_oracle(n):
    """The ratio bound: past index 1 the tail lies between its first term
    and a geometric series of ratio 2/3; term 1 is exact."""
    fam = FibonacciFamily()
    exact = sum(Fraction(1, fam.b(k)) for k in range(n + 1, 2))
    first = Fraction(1, fam.b(max(n, 1) + 1))
    return exact + first, exact + 3 * first


@pytest.mark.parametrize("a0,r", [(2, 3), (5, 7), (2, 2), (3, 4), (9, 5)])
def test_tail_bracket_is_the_geometric_closed_form(a0, r):
    family = GeometricFamily(a0, r)
    for n in range(300):
        assert family.tail_bracket(n) == geometric_tail_oracle(a0, r, n)


@pytest.mark.parametrize("a0,d", [(2, 1), (3, 2), (9, 4), (2, 7), (5, 5)])
def test_tail_bracket_is_the_arithmetic_closed_form(a0, d):
    family = ArithmeticFamily(a0, d)
    for n in range(300):
        assert family.tail_bracket(n) == arithmetic_tail_oracle(a0, d, n)


def test_tail_bracket_lies_inside_the_fibonacci_ratio_bound():
    family = FibonacciFamily()
    for n in range(301):
        old_lo, old_hi = fibonacci_ratio_oracle(n)
        lo, hi = family.tail_bracket(n)
        assert old_lo <= lo < hi <= old_hi


@pytest.mark.parametrize("family", GRID, ids=lambda f: f.spec_string())
def test_companion_lemma_hypothesis(family):
    # tail_bracket needs a_k a_{k+1} / (a_{k+1} - a_k) strictly increasing
    a, _ = family.terms(2000)
    ratios = [(x * y, y - x) for x, y in zip(a, a[1:])]
    for (p, g), (p_next, g_next) in zip(ratios, ratios[1:]):
        assert p * g_next < p_next * g


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRID), st.integers(0, 300), st.integers(1, 300))
@example(FibonacciFamily(), 0, 1)
@example(FibonacciFamily(), 0, 2)
def test_tail_brackets_nest(family, n, extra):
    # the exact terms n < k <= m plus the bracket at m lie strictly inside
    # the bracket at n
    m = n + extra
    _, b = family.terms(m)
    head = sum(Fraction(1, den) for den in b[n:])
    lo, hi = family.tail_bracket(n)
    inner = family.tail_bracket(m)
    assert lo < head + inner[0] < head + inner[1] < hi


@pytest.mark.parametrize("family,n_terms", [
    (GeometricFamily(2, 3), 40), (GeometricFamily(5, 2), 7),
    (ArithmeticFamily(2, 1), 200), (ArithmeticFamily(3, 2), 1),
    (FibonacciFamily(), 1), (FibonacciFamily(), 60), (FibonacciFamily(), 300),
])
def test_enclosure_rounds_the_tail_outward_onto_the_grid(family, n_terms):
    scale = 2**96
    _, b = family.terms(n_terms)
    tail_lo, tail_hi = family.tail_bracket(n_terms)
    exact_lo = Fraction(sum(scale // den for den in b), scale) + tail_lo
    exact_hi = Fraction(sum(-(-scale // den) for den in b), scale) + tail_hi
    iv = theta_partial(family, n_terms)
    assert exact_lo - Fraction(1, scale) < iv.lo <= exact_lo
    assert exact_hi <= iv.hi < exact_hi + Fraction(1, scale)
    assert scale % iv.lo.denominator == 0
    assert scale % iv.hi.denominator == 0


def test_long_enclosure_prints_under_the_digit_limit():
    # the exact tail's ends have about 2 * 7.9 kbit denominators here,
    # past the default 4300-digit limit on int-to-str conversion
    iv = theta_partial(GeometricFamily(2, 3), 5000)
    for end in (iv.lo, iv.hi):
        assert len(format_rational(end)) < 80


# ------------------------------------------------------- certified sums

def float_sum(family, n_terms):
    return sum(1.0 / family.b(n) for n in range(1, n_terms + 1))


def test_theta_enclosure_geometric():
    iv = theta_partial(GeometricFamily(2, 3), 40)
    assert iv.width() < Fraction(1, 10**5)
    est = float_sum(GeometricFamily(2, 3), 60)
    assert abs(float(iv.midpoint()) - est) < 1e-10
    # deeper partial sums stay inside shallower enclosures
    outer = theta_partial(GeometricFamily(2, 3), 10)
    assert outer.lo <= iv.lo and iv.hi <= outer.hi


def test_theta_enclosure_arithmetic():
    iv = theta_partial(ArithmeticFamily(2, 1), 200)
    est = float_sum(ArithmeticFamily(2, 1), 200000) + 1.0 / 200002
    assert abs(float(iv.midpoint()) - est) < 1e-6
    assert iv.width() < Fraction(1, 10**6)


def test_family_command_evaluates_each_fibonacci_term_once(monkeypatch):
    # 1321 targets close 1320 brackets and come from the recurrence; only
    # the tail bracket reads a(1321) and a(1322), by index; the listing
    # and the enclosure share the one term list
    calls = []

    def counting(k):
        calls.append(k)
        return fibonacci_number(k)

    monkeypatch.setattr(families, "fibonacci_number", counting)
    code = run_main(["family", "--spec", "fibonacci", "--terms", "1320",
                     "--theta-enclosure", "--format", "json"]).returncode
    assert code == 0
    assert len(calls) <= 2


@pytest.mark.parametrize("spec", ["geometric:a=2,r=3", "arithmetic:a=2,d=1",
                                  "fibonacci"])
def test_targets_are_the_shadow_of_theta(spec):
    # b_1..b_20 replayed against either end of the 60-term enclosure give
    # back a_1..a_20 with no weak violation.  Twenty terms, since the
    # 2**-96 grid resolves geometric shadows only to about index 28
    family = parse_family_spec(spec)
    a, b = family.terms(20)
    iv = theta_partial(family, 60)
    for end in (iv.lo, iv.hi):
        replay = recover_shadow(b, end)
        assert list(replay.a) == a[:-1]
        assert replay.first_weak_violation is None


def test_theta_enclosure_fibonacci():
    iv = theta_partial(FibonacciFamily(), 30)
    est = float_sum(FibonacciFamily(), 60)
    assert abs(float(iv.midpoint()) - est) < 1e-6
    small = theta_partial(FibonacciFamily(), 1)
    assert small.contains(iv.midpoint())


# ----------------------------------------------------------------- parsing

def test_family_spec_round_trip():
    for text in ("geometric:a=2,r=3", "arithmetic:a=3,d=2", "fibonacci"):
        fam = parse_family_spec(text)
        assert fam.spec_string() == text
        assert parse_family_spec(fam.spec_string()) == fam


@pytest.mark.parametrize("bad", [
    "geometric(2,3)", "geometric:a=2", "geometric:a=2,r=1",
    "arithmetic:d=1", "nope", "fibonacci:x=1",
])
def test_family_spec_malformed(bad):
    with pytest.raises(ValueError):
        parse_family_spec(bad)


def test_ratio_limit_hooks():
    assert GeometricFamily(2, 3).ratio_limit() == Fraction(3)
    assert ArithmeticFamily(2, 1).ratio_limit() == Fraction(1)
    assert FibonacciFamily().ratio_limit() is None
    assert GeometricFamily(2, 3).ratio_exceeds_one() is True
    assert ArithmeticFamily(2, 1).ratio_exceeds_one() is False
    assert FibonacciFamily().ratio_exceeds_one() is True
