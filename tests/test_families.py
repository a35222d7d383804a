"""Closed-form sequence families and their certified partial sums.

Bracket membership is cross-checked here with raw reciprocal comparisons
written out inline, independent of the interval helpers.
"""
from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import pytest

from unitfrac import cli, families
from unitfrac.construct import choose_b_jump
from unitfrac.families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    bracket_failures,
    fibonacci_number,
    parse_family_spec,
    theta_partial,
)
from unitfrac.greedy import bracket_misses


def bracket_holds(a, a_next, b):
    """Inline oracle: 1/a - 1/a_next < 1/b < 1/(a-1) - 1/(a_next-1)."""
    inv_b = Fraction(1, b)
    lower = Fraction(1, a) - Fraction(1, a_next)
    upper = Fraction(1, a - 1) - Fraction(1, a_next - 1)
    return lower < inv_b < upper


# ------------------------------------------------------------ closed forms

def test_geometric_2_3_values():
    f = GeometricFamily(2, 3)
    assert [f.a(n) for n in range(1, 5)] == [2, 6, 18, 54]
    # (r - 1) divides a, so b_n = a r^n / (r-1) - 1 = 3^n - 1
    assert [f.b(n) for n in range(1, 5)] == [2, 8, 26, 80]


def test_geometric_2_4_values():
    f = GeometricFamily(2, 4)
    # 3 does not divide 2, so the floor form applies: 2(4^n - 1)/3
    assert [f.b(n) for n in range(1, 5)] == [2, 10, 42, 170]


def test_arithmetic_2_1_values():
    f = ArithmeticFamily(2, 1)
    assert [f.a(n) for n in range(1, 5)] == [2, 3, 4, 5]
    # d divides a^2: b_n = (n+1)(n+2) - 1 = n^2 + 3n + 1
    assert [f.b(n) for n in range(1, 5)] == [5, 11, 19, 29]


def test_arithmetic_3_2_values():
    f = ArithmeticFamily(3, 2)
    assert [f.a(n) for n in range(1, 5)] == [3, 5, 7, 9]
    # 2 does not divide 9: b_n = floor((2n+1)(2n+3)/2) = 2n^2 + 4n + 1
    assert [f.b(n) for n in range(1, 5)] == [7, 17, 31, 49]


def test_fibonacci_values():
    f = FibonacciFamily()
    assert [f.a(n) for n in range(1, 7)] == [1, 2, 3, 5, 8, 13]
    assert f.a(4) == fibonacci_number(5) == 5
    assert [f.b(n) for n in range(1, 7)] == [3, 5, 7, 13, 20, 34]


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

@pytest.mark.parametrize("family,horizon", [
    (GeometricFamily(2, 3), 30),
    (GeometricFamily(2, 4), 30),
    (ArithmeticFamily(2, 1), 50),
    (ArithmeticFamily(3, 2), 50),
    (FibonacciFamily(), 50),
])
def test_bracket_verification(family, horizon):
    assert bracket_failures(family, horizon) == []
    for n in range(1, horizon + 1):
        if family.a(n) >= 2:
            assert bracket_holds(family.a(n), family.a(n + 1), family.b(n))


def test_fibonacci_bracket_starts_at_two():
    # a_1 = 1 sits below the greedy range, so index 1 has no bracket and
    # is skipped; from a_1 = 2 on, index 1 is checked
    assert bracket_failures(FibonacciFamily(), 1) == []
    assert bracket_misses([1, 2], [99]) == []
    assert bracket_misses([2, 6], [99]) == [1]


def test_fibonacci_floor_discrepancy_at_two():
    f = FibonacciFamily()
    # raw floor of F_{n+1} F_{n+2} / F_n gives 6 at n = 2
    raw = (fibonacci_number(3) * fibonacci_number(4)) // fibonacci_number(2)
    assert raw == 6
    assert f.b(2) == 5
    assert not bracket_holds(f.a(2), f.a(3), 6)
    assert bracket_holds(f.a(2), f.a(3), 5)
    # from n = 3 on the raw floor agrees with the parity closed form
    for n in range(3, 51):
        floor_val = (fibonacci_number(n + 1) * fibonacci_number(n + 2)) \
            // fibonacci_number(n)
        assert f.b(n) == floor_val


GRID = [FibonacciFamily(),
        *(GeometricFamily(a0, r) for a0 in (2, 3, 4, 6, 9) for r in (2, 3, 5)),
        *(ArithmeticFamily(a0, d) for a0 in (2, 3, 5, 7) for d in (1, 2, 4, 9))]


@pytest.mark.parametrize("family", GRID, ids=lambda f: f.spec_string())
def test_b_is_largest_admissible(family):
    # b_n is the construction's jump choice wherever a_n has a bracket;
    # for Fibonacci that is the parity form from n = 2 on
    for n in range(1, 51):
        if family.a(n) >= 2:
            assert family.b(n) == choose_b_jump(family.a(n), family.a(n + 1))


@pytest.mark.parametrize("family", GRID, ids=lambda f: f.spec_string())
def test_terms_match_the_indexed_terms(family):
    for n in (1, 2, 3, 17, 90):
        assert family.terms(n) == ([family.a(k) for k in range(1, n + 2)],
                                   [family.b(k) for k in range(1, n + 1)])


def test_cassini_identity():
    for n in range(1, 81):
        lhs = fibonacci_number(n - 1) * fibonacci_number(n + 1) \
            - fibonacci_number(n) ** 2
        assert lhs == (-1) ** n


def test_explicit_family_bracket_failure():
    f = FibonacciFamily()
    a_vals = [f.a(n) for n in range(1, 8)]
    b_vals = [f.b(n) for n in range(1, 8)]
    b_vals[1] = 6
    assert bracket_misses(a_vals, b_vals) == [2]


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
    # the tail bracket reads one b, so two targets, by index; the listing
    # and the enclosure share the one term list
    calls = []

    def counting(k):
        calls.append(k)
        return fibonacci_number(k)

    monkeypatch.setattr(families, "fibonacci_number", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["family", "--spec", "fibonacci", "--terms", "1320",
                         "--theta-enclosure", "--format", "json"])
    assert code == 0
    assert len(calls) <= 2


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
