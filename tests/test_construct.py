"""Constructive inverse: build b so the greedy shadow hits given targets.

The plateau example is worked by hand below; the strictly increasing and
geometric reproductions are cross-checked against the closed-form family
companions, and replay through recover_shadow acts as an independent
oracle for the whole pipeline.
"""
from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac.construct import (
    DepthExhausted,
    InvalidSequence,
    TargetSequence,
    construct,
)
from unitfrac.families import ArithmeticFamily, GeometricFamily
from unitfrac.greedy import _companion, recover_shadow


# ----------------------------------------------------------- small pieces

def test_companion_pinned():
    # the jump choice: the largest b with (a-1)(a'-1) < b (a'-a) < a a'
    assert _companion(2, 3) == 5
    assert _companion(3, 5) == 7
    assert _companion(2, 7) == 2
    assert _companion(2, 6) == 2
    assert _companion(3, 4) == 11


# ------------------------------------------------------- full construction

def test_strictly_increasing_reproduces_arithmetic_companion():
    seq = TargetSequence(lambda n: n + 1)
    res = construct(seq, depth=25)
    family = ArithmeticFamily(2, 1)
    assert res.a_prefix == tuple(n + 1 for n in range(1, 26))
    assert res.b_prefix == tuple(family.b(n) for n in range(1, 26))
    assert res.jump_indices == tuple(range(1, 26))
    assert res.next_jump_index == 26
    assert res.next_jump_value == 27
    assert all(v is None for v in res.filler_values)


def test_geometric_targets_reproduce_family():
    family = GeometricFamily(2, 3)
    res = construct(TargetSequence.from_family(family), depth=20)
    assert res.b_prefix == tuple(3**n - 1 for n in range(1, 21))
    assert res.b_prefix == tuple(family.b(n) for n in range(1, 21))


def test_plateau_construction_pinned():
    seq = TargetSequence(lambda n: 2 + (n - 1) // 2)
    res = construct(seq, depth=2)
    assert res.a_prefix == (2, 2, 3, 3)
    assert res.jump_indices == (2, 4)
    assert res.next_jump_index == 6
    assert res.next_jump_value == 4
    assert res.theta_choices == (F(3, 20), F(5, 132))
    assert res.filler_values == (14, 53)
    assert res.b_prefix == (14, 5, 53, 11)
    assert res.future_filler_bound == F(5, 264)
    # enclosure endpoints recomputed from scratch
    total = F(1, 14) + F(1, 5) + F(1, 53) + F(1, 11)
    assert res.theta_enclosure.lo == total + F(1, 4)
    assert res.theta_enclosure.hi == total + F(1, 3) + F(5, 264)
    width = res.theta_enclosure.width()
    assert width == F(1, 12) + res.future_filler_bound


# plateaus of 1 to 4 indices, each followed by a step of 1 to 3
plateau_runs = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                        min_size=2, max_size=13)


def assert_lowest_terms(res):
    """Every Fraction of the result is reduced with a positive denominator:
    one that is not compares unequal to its own value."""
    iv = res.theta_enclosure
    values = [*res.theta_choices, res.future_filler_bound, iv.lo, iv.hi]
    for c in res.certificates:
        values += [c.lower_margin, c.upper_margin]
    for x in values:
        assert type(x) is F
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def assert_recomputed_by_fractions(res):
    """Slacks, fillers, budget, margins and enclosure of the result,
    recomputed from its a, b and jumps with stdlib Fraction arithmetic."""
    jumps = res.jump_indices
    shadows = [res.a_prefix[n - 1] for n in jumps] + [res.next_jump_value]
    thetas, fillers = [], []
    for j, n in enumerate(jumps):
        a, a_next, b = shadows[j], shadows[j + 1], res.b_prefix[n - 1]
        # b is the largest integer strictly inside the telescoping bracket
        assert (a - 1) * (a_next - 1) < b * (a_next - a) < a * a_next
        assert (b + 1) * (a_next - a) >= a * a_next
        theta = (F(1, a - 1) - F(1, b) - F(1, a_next - 1)) / 2
        assert theta > 0
        thetas.append(theta)
        budget = min(thetas[k] / 2 ** (j + 1 - k) for k in range(j + 1))
        start_of_plateau = jumps[j - 1] if j else 0
        gap = n - start_of_plateau - 1
        filler = max(math.floor(gap / budget) + 1, a) if gap else None
        fillers.append(filler)
        assert res.b_prefix[start_of_plateau:n - 1] == (filler,) * gap
    assert res.theta_choices == tuple(thetas)
    assert res.filler_values == tuple(fillers)
    assert res.future_filler_bound == budget

    # every margin from the suffix sum of 1/b_i, built from the end, with
    # the tail ends 1/a' below and 1/(a' - 1) + B above
    a_tail = res.next_jump_value
    suffix, margins = F(0), []
    for n in range(len(res.b_prefix), 0, -1):
        a = res.a_prefix[n - 1]
        suffix += F(1, res.b_prefix[n - 1])
        margins.append((n, suffix + F(1, a_tail) - F(1, a),
                        F(1, a - 1) - (suffix + F(1, a_tail - 1) + budget)))
    assert [tuple(c) for c in res.certificates] == margins[::-1]
    assert res.theta_enclosure.lo == suffix + F(1, a_tail)
    assert res.theta_enclosure.hi == suffix + F(1, a_tail - 1) + budget
    # the identity construct relies on: the index-1 window narrowed by its
    # margins
    first = res.certificates[0]
    a = res.a_prefix[0]
    assert res.theta_enclosure.lo == first.lower_margin + F(1, a)
    assert res.theta_enclosure.hi == F(1, a - 1) - first.upper_margin
    assert_lowest_terms(res)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=9), plateau_runs)
def test_slacks_and_fillers_recomputed_from_the_result(start, runs):
    values, a = [], start
    for length, step in runs:
        values += [a] * length
        a += step
    values.append(a)
    depth = len(runs) - 1
    res = construct(TargetSequence.from_explicit(values), depth)
    assert_recomputed_by_fractions(res)

    replay = recover_shadow(list(res.b_prefix), res.theta_enclosure.midpoint())
    assert tuple(replay.a) == res.a_prefix
    assert replay.first_weak_violation is None


def _plateau_targets(jumps):
    """2, 3, 3, 5, 5, 5, 8, ...: plateau lengths cycle through 1..4 and
    steps through 1..3."""
    values, value = [], 2
    for j in range(jumps):
        values.extend([value] * (1 + j % 4))
        value += 1 + j % 3
    values.append(value)
    return values


@pytest.mark.parametrize("seq, depth, bits", [
    (lambda: TargetSequence.from_family(GeometricFamily(2, 3)), 160, 12_000),
    (lambda: TargetSequence.from_explicit(_plateau_targets(155),
                                          "repeat-last-delta"), 150, 9_000),
], ids=["geometric", "plateau"])
def test_long_operands_recomputed_by_fractions(seq, depth, bits):
    # margins of thousands of bits, far past what the drawn targets reach
    res = construct(seq(), depth)
    assert res.certificates[0].lower_margin.denominator.bit_length() > bits
    assert_recomputed_by_fractions(res)


def test_certificates_positive():
    seq = TargetSequence(lambda n: 2 + (n - 1) // 2)
    res = construct(seq, depth=2)
    assert len(res.certificates) == 4
    for cert in res.certificates:
        assert cert.lower_margin > 0
        assert cert.upper_margin > 0


def test_enclosure_replay_recovers_targets():
    seq = TargetSequence(lambda n: 2 + (n - 1) // 2)
    res = construct(seq, depth=4)
    iv = res.theta_enclosure
    width = iv.width()
    for theta in (iv.midpoint(), iv.lo + width / 10, iv.hi - width / 10):
        replay = recover_shadow(list(res.b_prefix), theta)
        assert tuple(replay.a) == res.a_prefix
        assert replay.first_weak_violation is None


def test_monotone_deepening():
    seq = TargetSequence(lambda n: 2 + (n - 1) // 2)
    shallow = construct(seq, depth=2)
    deep = construct(seq, depth=5)
    k = len(shallow.b_prefix)
    assert deep.b_prefix[:k] == shallow.b_prefix
    assert deep.theta_choices[:2] == shallow.theta_choices
    assert deep.jump_indices[:2] == shallow.jump_indices
    assert shallow.theta_enclosure.lo < deep.theta_enclosure.lo
    assert deep.theta_enclosure.hi < shallow.theta_enclosure.hi
    assert shallow.theta_enclosure.contains(deep.theta_enclosure.midpoint())


def test_repeat_last_delta_extension():
    seq = TargetSequence.from_explicit((2, 3, 5), "repeat-last-delta")
    res = construct(seq, depth=5)
    assert (res.a_prefix, res.next_jump_value) == ((2, 3, 5, 7, 9), 11)
    assert res.b_prefix == (5, 7, 17, 31, 49)
    # two terms are enough to give the difference; one is not
    seq = TargetSequence.from_explicit((2, 4), "repeat-last-delta")
    res = construct(seq, depth=3)
    assert (res.a_prefix, res.next_jump_value) == ((2, 4, 6), 8)
    assert res.jump_indices == (1, 2, 3)
    with pytest.raises(InvalidSequence, match="need two terms"):
        TargetSequence.from_explicit((2,), "repeat-last-delta")


def test_construct_reads_targets_only_through_the_last_jump():
    # depth 3 needs jumps 1..4, so only targets 1..5 may be evaluated,
    # each of them once and in order
    calls = []

    def targets(n):
        if n > 5:
            raise RuntimeError(f"target {n} evaluated")
        calls.append(n)
        return n + 1
    res = construct(TargetSequence(targets), depth=3)
    assert res.jump_indices == (1, 2, 3)
    assert res.next_jump_index == 4
    assert calls == [1, 2, 3, 4, 5]


def test_sequence_validation():
    with pytest.raises(InvalidSequence):
        construct(TargetSequence.from_explicit((1, 2, 3)), depth=1)
    with pytest.raises(InvalidSequence):
        construct(TargetSequence.from_explicit((3, 2, 4)), depth=1)
    with pytest.raises(InvalidSequence):
        construct(TargetSequence(lambda n: n / 2), depth=1)


def test_depth_exhaustion():
    # an eventually constant sequence never yields enough jumps
    with pytest.raises(DepthExhausted):
        construct(TargetSequence(lambda n: 2), depth=1)
    # finite explicit list without a continuation rule runs out
    with pytest.raises(DepthExhausted):
        construct(TargetSequence.from_explicit((2, 3)), depth=2)
    # delta zero extension plateaus forever
    seq = TargetSequence.from_explicit((2, 3, 3), "repeat-last-delta")
    with pytest.raises(DepthExhausted):
        construct(seq, depth=2)
    # exactly depth jumps, then a plateau: the tail's jump is missing
    with pytest.raises(DepthExhausted, match="only 2 jumps"):
        construct(TargetSequence(lambda n: min(n + 1, 4)), depth=2)


def test_long_given_plateau_is_scanned_whole():
    # 1200 given 2s outrun the 64*(depth+1) + 1024 indices an endless
    # plateau may take; a plateau inside given terms is scanned to its end
    seq = TargetSequence.from_explicit([2] * 1200 + [3, 4])
    assert construct(seq, 1).jump_indices == (1200,)
