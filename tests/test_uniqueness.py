"""Forced-choice criteria for consecutive greedy values.

The oracles below count admissible denominators straight from the
reciprocal inequalities: the candidates run from 1/upper to 1/lower, and
each is tested against the two window ends by integer cross
multiplication, so they share no algebra with the factored window
endpoints or the integer-arithmetic criteria under test.  The acceptance
tests import them too.
"""
from __future__ import annotations

import enum
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac.uniqueness import (
    CensusRow,
    UniquenessVerdict,
    _closed_criterion,
    _open_criterion,
    _pairwise,
    _row,
    necessary_uniqueness,
    pair_necessary_closed,
    pair_uniqueness,
    sample_pairs,
    sufficient_uniqueness,
    sweep,
    uniqueness_consequences,
)

from test_cli_golden import run_main


def open_window_count(a, a_next):
    """Count b with 1/a - 1/(a_next - 1) < 1/b < 1/(a-1) - 1/a_next.

    Returns None when the window admits infinitely many b.  lower < 1/b
    is lower.num * b < lower.den, and 1/b < upper is
    upper.den < upper.num * b.
    """
    lower = F(1, a) - F(1, a_next - 1)
    upper = F(1, a - 1) - F(1, a_next)
    if lower <= 0:
        return None
    ln, ld = lower.numerator, lower.denominator
    un, ud = upper.numerator, upper.denominator
    return sum(ln * b < ld and ud < un * b
               for b in range(max(1, math.floor(1 / upper)),
                              math.ceil(1 / lower) + 1))


def closed_window_count(a, a_next):
    """Count b with 1/a - 1/a_next <= 1/b <= 1/(a-1) - 1/(a_next-1)."""
    lower = F(1, a) - F(1, a_next)
    upper = F(1, a - 1) - F(1, a_next - 1)
    ln, ld = lower.numerator, lower.denominator
    un, ud = upper.numerator, upper.denominator
    return sum(ln * b <= ld and ud <= un * b
               for b in range(max(1, math.ceil(1 / upper) - 1),
                              math.floor(1 / lower) + 2))


# ------------------------------------------------------------- open window

def test_pair_uniqueness_pinned():
    v = pair_uniqueness(2, 7)
    assert v.unique and v.k == 2 and v.case == "open-divisible"
    v = pair_uniqueness(2, 4)
    assert not v.unique and v.k == 5 and v.case == "open-divisible"
    v = pair_uniqueness(3, 17)
    assert v.unique and v.k == 3 and v.case == "open-nondivisible"
    v = pair_uniqueness(7, 43)
    assert not v.unique and v.k == 8 and v.case == "open-nondivisible"
    v = pair_uniqueness(7, 57)
    assert v.unique and v.k == 7 and v.case == "open-divisible"


def test_pair_uniqueness_unbounded():
    v = pair_uniqueness(4, 5)
    assert not v.unique and v.case == "unbounded"
    # smallest admissible value above 15/2
    assert v.k == 8
    assert open_window_count(4, 5) is None


def test_pair_validation():
    with pytest.raises(ValueError):
        pair_uniqueness(4, 4)
    with pytest.raises(ValueError):
        pair_uniqueness(1, 5)
    with pytest.raises(ValueError):
        pair_necessary_closed(5, 3)


# ----------------------------------------------------------- closed window

def test_pair_necessary_closed_pinned():
    v = pair_necessary_closed(2, 7)
    assert v.unique and v.k == 2 and v.case == "closed-nondivisible"
    v = pair_necessary_closed(3, 5)
    assert not v.unique and v.case == "closed-nondivisible"
    assert closed_window_count(3, 5) == 4
    v = pair_necessary_closed(2, 3)
    assert not v.unique and v.case == "closed-divisible"
    v = pair_necessary_closed(2, 4)
    assert not v.unique and v.case == "closed-divisible"
    v = pair_necessary_closed(7, 57)
    assert v.unique and v.k == 7


# ------------------------------------------------------- sequence wrappers

def test_sufficient_uniqueness_sequences():
    ok, verdicts = sufficient_uniqueness((2, 7, 57))
    assert ok
    assert [v.index for v in verdicts] == [1, 2]
    assert all(v.unique for v in verdicts)
    ok, verdicts = sufficient_uniqueness((2, 7, 43))
    assert not ok
    assert verdicts[1].unique is False
    # two terms are the shortest sequence: one pair, one verdict
    ok, verdicts = sufficient_uniqueness([2, 3])
    assert not ok and len(verdicts) == 1


def test_necessary_uniqueness_sequences():
    ok, verdicts = necessary_uniqueness((2, 7, 57))
    assert ok
    ok, verdicts = necessary_uniqueness((2, 4, 20))
    assert not ok
    assert verdicts[0].index == 1 and not verdicts[0].unique


def rising(start, gaps):
    """A rising list: ``start``, then each gap added in turn."""
    return st.builds(
        lambda a, steps: list(itertools.accumulate(steps, initial=a)),
        start, st.lists(gaps, min_size=1, max_size=24))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    rising(st.integers(2, 60), st.integers(1, 400)),
    # 1.4 kbit and more, as the a-file census at long operands
    rising(st.integers(2**1400, 2**1500), st.integers(1, 2**1450))))
def test_pairwise_is_the_pair_verdicts_with_their_index(seq):
    # the one-pass check and the mapped criteria give what the per-pair
    # entry points give, pair by pair, with each pair's place from 1
    pairs = list(zip(seq, seq[1:]))
    both = _pairwise(seq, _open_criterion, _closed_criterion)
    for (ok, verdicts), pair_verdict in zip(
            both, (pair_uniqueness, pair_necessary_closed)):
        expected = tuple(pair_verdict(a, a_next)._replace(index=n)
                         for n, (a, a_next) in enumerate(pairs, 1))
        assert verdicts == expected
        assert all(type(v) is UniquenessVerdict for v in verdicts)
        assert ok == all(v.unique for v in expected)
    assert sufficient_uniqueness(seq) == both[0]
    assert necessary_uniqueness(seq) == both[1]


class Target(enum.IntEnum):
    A1 = 2
    A2 = 7
    A3 = 57


def test_pairwise_takes_valid_int_subclasses():
    # an int subclass is left to the per-pair loop, which accepts it
    ok, verdicts = sufficient_uniqueness(list(Target))
    assert ok and verdicts == sufficient_uniqueness((2, 7, 57))[1]
    assert verdicts[0].a is Target.A1


@pytest.mark.parametrize("seq, message", [
    ([2, 5, True], "pair 2 (a=5, a_next=True): a_next must be an integer "
                   ">= 6, got True"),
    ([True, 3], "pair 1 (a=True, a_next=3): a must be an integer >= 2, "
                "got True"),
    ([2, 7.5, 9], "pair 1 (a=2, a_next=7.5): a_next must be an integer "
                  ">= 3, got 7.5"),
    ([2, 9, 9], "pair 2 (a=9, a_next=9): a_next must be an integer >= 10, "
                "got 9"),
    ([2, 9, 4, 5], "pair 2 (a=9, a_next=4): a_next must be an integer "
                   ">= 10, got 4"),
    ([1, 3], "pair 1 (a=1, a_next=3): a must be an integer >= 2, got 1"),
    ([2], "need at least two terms, got 1"),
    ([], "need at least two terms, got 0"),
])
def test_pairwise_names_the_first_refused_pair(seq, message):
    for check in (sufficient_uniqueness, necessary_uniqueness):
        with pytest.raises(ValueError) as refused:
            check(seq)
        assert str(refused.value) == message


# ------------------------------------------------------------ consequences

def test_consequences_pinned():
    cons = uniqueness_consequences(2, 7)
    assert cons == {
        "ratio_above_3": True,
        "pred_square_indivisible": True,
        "square_indivisible": True,
        "product_indivisible": True,
    }
    cons = uniqueness_consequences(3, 5)
    assert cons["pred_square_indivisible"] is False
    # the ratio must be strictly above 3
    assert uniqueness_consequences(3, 9)["ratio_above_3"] is False
    assert uniqueness_consequences(3, 10)["ratio_above_3"] is True


# ------------------------------------------------------------------- sweep

def test_a_file_census_at_long_operands(tmp_path):
    # every verdict over a 2000-term Fibonacci prefix from 2, up to about
    # 1.4 kbit, says whether the oracles count exactly one integer in its
    # window, and so do the two sequence verdicts
    fib = [2, 3]
    while len(fib) < 2000:
        fib.append(fib[-2] + fib[-1])
    path = tmp_path / "fibonacci.txt"
    path.write_text("".join(f"{v}\n" for v in fib))
    code, stdout, _ = run_main(["unique", "--a-file", str(path),
                                "--format", "json"])
    doc = json.loads(stdout)
    pairs = list(zip(fib, fib[1:]))
    assert code == 0
    for key, count in (("open-verdicts", open_window_count),
                       ("closed-verdicts", closed_window_count)):
        verdicts = doc[key]
        assert [(v["a"], v["a-next"]) for v in verdicts] == pairs
        assert [v["unique"] for v in verdicts] == [
            count(a, a_next) == 1 for a, a_next in pairs]
    assert doc["sufficient"] == all(v["unique"] for v in doc["open-verdicts"])
    assert doc["necessary"] == all(
        v["unique"] for v in doc["closed-verdicts"])


def test_sample_pairs_deterministic():
    rows1 = list(sample_pairs(25, seed=7))
    rows2 = list(sample_pairs(25, seed=7))
    assert rows1 == rows2
    assert len(rows1) == 25
    for row in rows1:
        assert row.open_agrees and row.closed_agrees


def test_census_arguments_checked_at_the_call():
    # the rows are made lazily, but a bad argument fails before any is read
    with pytest.raises(ValueError, match="limit must be an integer >= 3"):
        sweep(2)
    with pytest.raises(ValueError, match="count must be an integer >= 1"):
        sample_pairs(0, seed=7)
    # True ran as seed 1, and a float seeded from its hash
    for seed in (True, 2.5):
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            sample_pairs(2, seed)


def test_sample_pairs_takes_negative_seeds():
    rows = list(sample_pairs(5, -5))
    assert rows == list(sample_pairs(5, -5)) and len(rows) == 5
    # random.seed takes |seed|
    assert rows == list(sample_pairs(5, 5))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(), st.integers(min_value=2**64)),
       st.integers(min_value=1, max_value=500))
def test_sample_pairs_draws_as_randint(seed, count):
    # fails on an interpreter whose randint draws otherwise than the
    # rejection from getrandbits that sample_pairs copies
    rng = random.Random(seed)
    expected = []
    for _ in range(count):
        a = rng.randint(2, 50)
        expected.append((a, a + rng.randint(1, 400)))
    assert [(r.a, r.a_next) for r in sample_pairs(count, seed)] == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=1600))
def test_formulas_match_enumeration(a, gap):
    a_next = a + gap
    v_open = pair_uniqueness(a, a_next)
    oc = open_window_count(a, a_next)
    assert v_open.unique == (oc == 1)
    v_closed = pair_necessary_closed(a, a_next)
    cc = closed_window_count(a, a_next)
    assert v_closed.unique == (cc == 1)
    # the census counts, past acceptance criterion 6's limit of 300
    row = _row(a, a_next)
    assert (row.open_count, row.closed_count) == (oc, cc)
    if v_closed.unique:
        assert all(uniqueness_consequences(a, a_next).values())


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=1000),
       st.integers(min_value=1, max_value=10**4))
def test_census_row_matches_the_verdicts(a, gap):
    # the row reads the criteria without building verdicts; it must say
    # what the public verdicts say
    a_next = a + gap
    row = _row(a, a_next)
    assert isinstance(row, CensusRow) and (row.a, row.a_next) == (a, a_next)
    v_open = pair_uniqueness(a, a_next)
    assert (row.open_unique, row.open_k, row.open_case) == (
        v_open.unique, v_open.k, v_open.case)
    v_closed = pair_necessary_closed(a, a_next)
    assert (row.closed_unique, row.closed_k, row.closed_case) == (
        v_closed.unique, v_closed.k, v_closed.case)
    assert row.consequences_ok == (
        not v_closed.unique
        or all(uniqueness_consequences(a, a_next).values()))


# ------------------------------------------- criteria against the long form

def long_open_criterion(a, a_next):
    """The open criterion as first written: six to eight long operations."""
    if a_next - a <= 1:
        return False, (a - 1) * a_next // (a_next - a + 1) + 1, "unbounded"
    d = a_next - a - 1
    if (a * a) % d == 0:
        k = a * (a_next - 1) // d - 1
        unique = (a_next * a_next - (4 * a - 1) * a_next
                  + (a * a + a - 2)) >= 0
        return unique, k, "open-divisible"
    floor_part = (a * a) // d
    unique = floor_part * (a_next - a + 1) <= (a - 1) * (a - 1)
    return unique, a + floor_part, "open-nondivisible"


def long_closed_criterion(a, a_next):
    """The closed criterion as first written."""
    delta = a_next - a
    floor_part = (a * a) // delta
    if (a * a_next) % delta == 0:
        return False, a + floor_part, "closed-divisible"
    unique = floor_part * delta < (a - 1) * (a - 1)
    return unique, a + floor_part, "closed-nondivisible"


def assert_long_form(a, a_next):
    assert pair_uniqueness(a, a_next)[3:] == long_open_criterion(a, a_next)
    assert pair_necessary_closed(a, a_next)[3:] == long_closed_criterion(
        a, a_next)


def divisible_quadratic_pairs(e, bits):
    """Pairs whose open gap d divides a^2 with d + 3 - 2(q + a) = e, where
    q = a^2 / d, for e in (-1, 0, 1), up to ``bits`` bits of a.

    Such a d solves d^2 + (3 - e - 2a) d - 2a^2 = 0.  Its a satisfy
    a_{n+1} = 14 a_n - a_{n-1} - 6 + 2e from the two smallest; every fact
    the criteria rely on is checked here, not assumed.
    """
    pairs = []
    a, after = {-1: (4, 48), 0: (10, 133), 1: (2, 24)}[e]
    while a.bit_length() <= bits:
        b = 2 * a + e - 3
        d = (b + math.isqrt(b * b + 8 * a * a)) // 2
        assert d * d - b * d == 2 * a * a and (a * a) % d == 0
        assert d + 3 - 2 * (a * a // d + a) == e
        pairs.append((a, a + d + 1))
        a, after = after, 14 * after - a - 6 + 2 * e
    return pairs


@pytest.mark.parametrize("e", [-1, 0, 1])
def test_open_divisible_quadratic_at_its_root(e):
    # the quadratic is d (d + 3 - 2(q + a)): at e = 0 the pair is unique
    # with the quadratic exactly zero, at e = -1 it is not
    pairs = divisible_quadratic_pairs(e, 4096)
    assert len(pairs) > 1000
    for a, a_next in pairs:
        v = pair_uniqueness(a, a_next)
        assert v.case == "open-divisible" and v.unique == (e >= 0)
        assert_long_form(a, a_next)
    assert pairs[:2] == {-1: [(4, 13), (48, 177)], 0: [(10, 36), (133, 495)],
                         1: [(2, 7), (24, 89)]}[e]


_LONG = st.integers(min_value=2, max_value=2**4096)


@settings(max_examples=300, deadline=None)
@given(_LONG, _LONG)
def test_criteria_match_the_long_form(a, gap):
    assert_long_form(a, a + gap)


@settings(max_examples=150, deadline=None)
@given(_LONG, st.integers(min_value=1, max_value=2**2048))
def test_criteria_match_the_long_form_at_divisible_gaps(x, y):
    # x^2 and x divide (x y)^2: as the closed gap, and as the open d
    a = x * y
    for gap in (x, x * x, x * y):
        assert_long_form(a, a + gap)
        assert_long_form(a, a + gap + 1)
    assert pair_necessary_closed(a, a + x * x).case == "closed-divisible"
    assert pair_uniqueness(a, a + x * x + 1).case == "open-divisible"


@settings(max_examples=150, deadline=None)
@given(_LONG, st.integers(min_value=1, max_value=8))
def test_criteria_match_the_long_form_at_remainder_boundaries(a, m):
    # a gap of (a^2 - r) / m has quotient m and remainder r when it
    # exceeds r: the closed rule turns at r = 2a, the open one at
    # r + 1 = 2(m + a)
    seen = 0
    for r, shift in ((2 * a - 1, 0), (2 * a, 0),
                     (2 * (m + a) - 2, 1), (2 * (m + a) - 1, 1)):
        gap, rest = divmod(a * a - r, m)
        if rest or gap <= r:
            continue
        assert divmod(a * a, gap) == (m, r)
        assert_long_form(a, a + gap + shift)
        seen += 1
    if m == 1 and a >= 5:
        assert seen == 4
        assert not pair_necessary_closed(a, a + (a - 1) ** 2).unique
        assert pair_necessary_closed(a, a + a * a - 2 * a).unique
        # open gaps d = a^2 - 2a and a^2 - 2a - 1, remainders 2a and 2a + 1
        assert not pair_uniqueness(a, a + a * a - 2 * a + 1).unique
        assert pair_uniqueness(a, a + a * a - 2 * a).unique
