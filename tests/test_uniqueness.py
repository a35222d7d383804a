"""Forced-choice criteria for consecutive greedy values.

The oracle below counts admissible denominators by raw reciprocal
comparisons, deriving candidate ranges from 1/(upper) and 1/(lower)
directly, so it shares no algebra with the factored window endpoints or
the integer-arithmetic criteria under test.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import cli
from unitfrac.uniqueness import (
    CensusRow,
    UniquenessVerdict,
    _row,
    necessary_uniqueness,
    pair_necessary_closed,
    pair_uniqueness,
    sample_pairs,
    sufficient_uniqueness,
    sweep,
    uniqueness_consequences,
)


def F(p, q=1):
    return Fraction(p, q)


def open_window_count(a, a_next):
    """Count b with 1/a - 1/(a_next - 1) < 1/b < 1/(a-1) - 1/a_next.

    Returns None when the window admits infinitely many b.
    """
    lower = F(1, a) - F(1, a_next - 1)
    upper = F(1, a - 1) - F(1, a_next)
    if lower <= 0:
        return None
    first = max(1, int(1 / upper) - 2)
    last = int(1 / lower) + 2
    return sum(1 for b in range(first, last + 1)
               if lower < F(1, b) < upper)


def closed_window_count(a, a_next):
    """Count b with 1/a - 1/a_next <= 1/b <= 1/(a-1) - 1/(a_next-1)."""
    lower = F(1, a) - F(1, a_next)
    upper = F(1, a - 1) - F(1, a_next - 1)
    first = max(1, int(1 / upper) - 2)
    last = int(1 / lower) + 2
    return sum(1 for b in range(first, last + 1)
               if lower <= F(1, b) <= upper)


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


def test_necessary_uniqueness_sequences():
    ok, verdicts = necessary_uniqueness((2, 7, 57))
    assert ok
    ok, verdicts = necessary_uniqueness((2, 4, 20))
    assert not ok
    assert verdicts[0].index == 1 and not verdicts[0].unique


def test_verdict_json():
    doc = cli._verdict_doc(pair_uniqueness(2, 7, index=3))
    assert doc == {"index": 3, "a": 2, "a-next": 7, "unique": True,
                   "k": 2, "case": "open-divisible"}
    assert isinstance(pair_uniqueness(2, 7), UniquenessVerdict)


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


# ------------------------------------------------------------------- sweep

def test_sweep_against_oracle():
    rows = sweep(120)
    cases_seen = set()
    for row in rows:
        a, a_next = row.a, row.a_next
        cases_seen.add(row.open_case)
        cases_seen.add(row.closed_case)
        oc = open_window_count(a, a_next)
        assert row.open_unique == (oc == 1)
        assert row.open_count == oc
        cc = closed_window_count(a, a_next)
        assert row.closed_unique == (cc == 1)
        assert row.closed_count == cc
        assert row.open_agrees and row.closed_agrees
        if row.closed_unique:
            assert all(uniqueness_consequences(a, a_next).values())
    assert cases_seen == {"unbounded", "open-divisible", "open-nondivisible",
                          "closed-divisible", "closed-nondivisible"}


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=1600))
def test_formulas_match_enumeration(a, gap):
    a_next = a + gap
    v_open = pair_uniqueness(a, a_next)
    oc = open_window_count(a, a_next)
    assert v_open.unique == (oc == 1)
    v_closed = pair_necessary_closed(a, a_next)
    assert v_closed.unique == (closed_window_count(a, a_next) == 1)
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
