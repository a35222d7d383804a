"""Constructive inverse: build b so the greedy shadow hits given targets.

The plateau example is worked by hand below; the strictly increasing and
geometric reproductions are cross-checked against the closed-form family
companions. The exact margins, summed here in Fractions, are the oracle
of the lemma's certificates and the dyadic enclosure, and replay through
recover_shadow acts as an independent oracle for the whole pipeline.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitfrac.construct as construct_module
from unitfrac.construct import (
    ConstructionError,
    DepthExhausted,
    InvalidSequence,
    JumpCertificate,
    TargetSequence,
    construct,
)
from unitfrac.families import (ArithmeticFamily, FibonacciFamily,
                               GeometricFamily)
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

def jumps_of(res):
    """The indices of the result's jump records, in order."""
    return [c.index for c in res.certificates]


# 2, 2, 3, 3, 4, 4, ...: a_n = 2 + (n - 1) // 2, plateaus of two indices
TWO_STEPS = tuple(2 + (n - 1) // 2 for n in range(1, 41))


def test_strictly_increasing_reproduces_arithmetic_companion():
    family = ArithmeticFamily(2, 1)
    res = construct(TargetSequence.from_family(family), depth=25)
    assert res.a_prefix == tuple(n + 1 for n in range(1, 26))
    assert res.b_prefix == tuple(family.b(n) for n in range(1, 26))
    assert jumps_of(res) == list(range(1, 26))
    assert res.next_jump_index == 26
    assert res.next_jump_value == 27
    assert all(c.filler is None for c in res.certificates)


def test_geometric_targets_reproduce_family():
    family = GeometricFamily(2, 3)
    res = construct(TargetSequence.from_family(family), depth=20)
    assert res.b_prefix == tuple(3**n - 1 for n in range(1, 21))
    assert res.b_prefix == tuple(family.b(n) for n in range(1, 21))


def test_plateau_construction_pinned():
    seq = TargetSequence.from_explicit(TWO_STEPS)
    res = construct(seq, depth=2)
    assert res.a_prefix == (2, 2, 3, 3)
    assert res.next_jump_index == 6
    assert res.next_jump_value == 4
    # jump 2 from 2 to 3 with b = 5, jump 4 from 3 to 4 with b = 11
    assert res.certificates == (
        JumpCertificate(2, 14, F(1, 5 * 2 * 3), F(3, 20)),
        JumpCertificate(4, 53, F(1, 11 * 3 * 4), F(5, 132)))
    assert res.b_prefix == (14, 5, 53, 11)
    assert res.future_filler_bound == F(5, 264)
    # the exact theta-set, rounded inward onto the grid 2**-23: a* = 4
    # and N = 4 give k = 4*3 + 3 + 8
    total = F(1, 14) + F(1, 5) + F(1, 53) + F(1, 11)
    assert res.theta_enclosure == (F(2647469, 2**22), F(6152859, 2**23))
    assert total + F(1, 4) < res.theta_enclosure.lo
    assert res.theta_enclosure.hi < total + F(1, 3) + F(5, 264)
    assert_recomputed_by_fractions(res)


# plateaus of 1 to 4 indices, each followed by a rise of 1 to 3 or a gap
# of thousands to billions
rises = st.one_of(st.integers(1, 3), st.integers(10**3, 10**9))
plateau_runs = st.lists(st.tuples(st.integers(1, 4), rises),
                        min_size=2, max_size=13)


def plateau_values(start, runs):
    """The targets of ``plateau_runs`` from ``start``, with the value
    after the last rise, which anchors the tail."""
    values, a = [], start
    for length, step in runs:
        values += [a] * length
        a += step
    values.append(a)
    return values


def assert_lowest_terms(res):
    """Every Fraction of the result is reduced with a positive denominator:
    one that is not compares unequal to its own value."""
    iv = res.theta_enclosure
    values = [res.future_filler_bound, iv.lo, iv.hi]
    for c in res.certificates:
        values += [c.lower_margin, c.upper_margin]
    for x in values:
        assert type(x) is F
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def exact_theta_set(res):
    """(lo, hi): the open set of thetas the result certifies, the sum of
    its 1/b_n plus the tail (1/a*, 1/(a* - 1) + B)."""
    total = sum(map(F, [1] * len(res.b_prefix), res.b_prefix), F(0))
    a_tail = res.next_jump_value
    return (total + F(1, a_tail),
            total + F(1, a_tail - 1) + res.future_filler_bound)


def assert_recomputed_by_fractions(res):
    """Slacks, fillers, budget, certificates and enclosure of the result,
    recomputed from its a and b with stdlib Fraction arithmetic.

    There is one record per jump, at exactly the built n with
    a_n < a_{n+1} (a_{N+1} being the tail's a*), and the last built index
    is a jump. The exact margins are the oracle of the certificates: each
    index n lies on the plateau of the first jump J >= n, whose record
    holds the lemma's pair (1/(b_J a_J a_{J+1}), theta_J) with
    0 < lower <= L_n and 0 < upper < U_n, and the enclosure is the exact
    theta-set rounded inward onto the grid 2**-k. Returns the exact
    margins, from index 1 on.
    """
    a_tail, count = res.next_jump_value, len(res.b_prefix)
    targets = (*res.a_prefix, a_tail)
    assert len(res.a_prefix) == count
    jumps = [n for n in range(1, count + 1) if targets[n - 1] < targets[n]]
    assert jumps_of(res) == jumps and jumps[-1] == count
    thetas, records, plateau_of = [], [], []
    for j, n in enumerate(jumps):
        a, a_next, b = targets[n - 1], targets[n], res.b_prefix[n - 1]
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
        assert res.b_prefix[start_of_plateau:n - 1] == (filler,) * gap
        records.append(JumpCertificate(n, filler, F(1, b * a * a_next), theta))
        plateau_of += [records[-1]] * (gap + 1)
    assert res.certificates == tuple(records)
    assert all(type(c) is JumpCertificate for c in res.certificates)
    assert res.future_filler_bound == budget

    # every margin from the suffix sum of 1/b_i, built from the end, with
    # the tail ends 1/a' below and 1/(a' - 1) + B above
    unit = F(1, 2 ** (4 * a_tail.bit_length() + count.bit_length() + 8))
    suffix, margins = F(0), []
    for n in range(count, 0, -1):
        a = res.a_prefix[n - 1]
        suffix += F(1, res.b_prefix[n - 1])
        margins.append((n, suffix + F(1, a_tail) - F(1, a),
                        F(1, a - 1) - (suffix + F(1, a_tail - 1) + budget)))
    margins.reverse()
    assert len(plateau_of) == len(margins) == count
    for (_, lower, upper), cert in zip(margins, plateau_of):
        assert 0 < cert.lower_margin <= lower
        assert 0 < cert.upper_margin < upper
    lo, hi = exact_theta_set(res)
    assert lo == suffix + F(1, a_tail)
    iv = res.theta_enclosure
    assert 0 <= iv.lo - lo < (count + 1) * unit
    assert 0 <= hi - iv.hi < (count + 2) * unit
    assert (iv.lo / unit).denominator == (iv.hi / unit).denominator == 1
    assert_lowest_terms(res)
    return margins


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=9), plateau_runs)
def test_slacks_and_fillers_recomputed_from_the_result(start, runs):
    depth = len(runs) - 1
    seq = TargetSequence.from_explicit(plateau_values(start, runs))
    res = construct(seq, depth)
    assert_recomputed_by_fractions(res)
    if depth > 1:
        lo, hi = exact_theta_set(construct(seq, depth - 1))
        assert lo < res.theta_enclosure.lo < res.theta_enclosure.hi < hi

    replay = recover_shadow(list(res.b_prefix), res.theta_enclosure.midpoint())
    assert tuple(replay.a) == res.a_prefix
    assert replay.first_weak_violation is None


def test_printed_enclosures_need_not_nest():
    # the depth-2 enclosure's lo falls 1.9e-7 below depth 1's, which is
    # rounded up on the coarser grid, and stays inside depth 1's exact set
    seq = TargetSequence.from_explicit([3, 3, 3, 4, 221147491, 221147492])
    shallow, deep = construct(seq, 1), construct(seq, 2)
    assert deep.theta_enclosure.lo < shallow.theta_enclosure.lo
    lo, _ = exact_theta_set(shallow)
    assert lo < deep.theta_enclosure.lo


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
    # exact margins of thousands of bits, far past what the drawn targets
    # reach, against certificates of the lemma's size: b < a a' <= a*^2,
    # so b a a' and 2 (a - 1) b (a' - 1) are below 2 a*^4
    res = construct(seq(), depth)
    margins = assert_recomputed_by_fractions(res)
    assert margins[0][1].denominator.bit_length() > bits
    size = 4 * res.next_jump_value.bit_length() + 1
    for cert in res.certificates:
        assert cert.lower_margin.denominator.bit_length() <= size
        assert cert.upper_margin.denominator.bit_length() <= size


def test_certificates_positive():
    # two plateaus of two indices each: one record per jump covers all four
    seq = TargetSequence.from_explicit(TWO_STEPS)
    res = construct(seq, depth=2)
    assert jumps_of(res) == [2, 4] == [2, len(res.a_prefix)]
    for cert in res.certificates:
        assert cert.lower_margin > 0
        assert cert.upper_margin > 0
        assert cert.filler >= res.a_prefix[cert.index - 1]


def test_enclosure_replay_recovers_targets():
    seq = TargetSequence.from_explicit(TWO_STEPS)
    res = construct(seq, depth=4)
    iv = res.theta_enclosure
    width = iv.width()
    for theta in (iv.midpoint(), iv.lo + width / 10, iv.hi - width / 10):
        replay = recover_shadow(list(res.b_prefix), theta)
        assert tuple(replay.a) == res.a_prefix
        assert replay.first_weak_violation is None


def test_monotone_deepening():
    seq = TargetSequence.from_explicit(TWO_STEPS)
    shallow = construct(seq, depth=2)
    deep = construct(seq, depth=5)
    k = len(shallow.b_prefix)
    assert deep.b_prefix[:k] == shallow.b_prefix
    assert deep.certificates[:2] == shallow.certificates
    lo, hi = exact_theta_set(shallow)
    assert lo < deep.theta_enclosure.lo < deep.theta_enclosure.hi < hi
    mid = deep.theta_enclosure.midpoint()
    assert shallow.theta_enclosure.lo < mid < shallow.theta_enclosure.hi


def test_repeat_last_delta_extension():
    seq = TargetSequence.from_explicit((2, 3, 5), "repeat-last-delta")
    res = construct(seq, depth=5)
    assert (res.a_prefix, res.next_jump_value) == ((2, 3, 5, 7, 9), 11)
    assert res.b_prefix == (5, 7, 17, 31, 49)
    # two terms are enough to give the difference; one is not
    seq = TargetSequence.from_explicit((2, 4), "repeat-last-delta")
    res = construct(seq, depth=3)
    assert (res.a_prefix, res.next_jump_value) == ((2, 4, 6), 8)
    assert jumps_of(res) == [1, 2, 3]
    with pytest.raises(InvalidSequence, match="need two terms"):
        TargetSequence.from_explicit((2,), "repeat-last-delta")
    # the continuation is the arithmetic family on from the last term, or
    # nothing when the last difference is 0
    assert TargetSequence.from_explicit((2, 3, 5), "repeat-last-delta") == (
        (2, 3, 5), ArithmeticFamily(7, 2))
    assert TargetSequence.from_explicit((2, 3, 3), "repeat-last-delta") == (
        (2, 3, 3), None)
    assert TargetSequence.from_explicit([2, 3]) == ((2, 3), None)
    assert TargetSequence.from_family(FibonacciFamily()) == (
        (), FibonacciFamily())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 3), st.integers(10**3, 10**9)),
                min_size=1, max_size=12),
       st.booleans(), st.integers(1, 10))
def test_targets_follow_the_per_index_rule(steps, rule, depth):
    # non-decreasing data from 2, and the rule it replaced: a_n is v[n-1]
    # on the data and v[-1] + delta (n - len(v)) past it, with delta the
    # last difference under repeat-last-delta; without it the data end
    values = list(itertools.accumulate(steps, initial=2))
    delta = values[-1] - values[-2]

    def target(n):
        if n <= len(values):
            return values[n - 1]
        return values[-1] + delta * (n - len(values))
    known = len(values) + (depth + 2 if rule else 0)
    rises = [n for n in range(1, known) if target(n) < target(n + 1)]
    seq = TargetSequence.from_explicit(
        values, "repeat-last-delta" if rule else None)
    if len(rises) <= depth:
        with pytest.raises(DepthExhausted, match=(
                f"^only {len(rises)} of {depth + 1} jumps in {len(values)} "
                "given terms$")):
            construct(seq, depth)
        return
    res = construct(seq, depth)
    assert res.a_prefix == tuple(map(target, range(1, rises[depth - 1] + 1)))
    assert res.next_jump_index == rises[depth]
    assert res.next_jump_value == target(rises[depth])


def test_from_explicit_refuses_no_terms():
    # the command refuses an empty file before it gets here
    with pytest.raises(InvalidSequence, match="^no terms given$"):
        TargetSequence.from_explicit([])


def test_from_explicit_refuses_an_unknown_continuation_rule():
    with pytest.raises(ValueError,
                       match="^unknown continuation rule 'bogus'$"):
        TargetSequence.from_explicit([2, 3], "bogus")


def test_construct_reads_targets_only_through_the_last_jump():
    # depth 3 needs jumps 1..4, so only targets 1..5 may be read, each of
    # them once and in order: three given and two from the tail
    calls = []

    class Counted(ArithmeticFamily):
        __slots__ = ()

        def _targets(self):
            for n, value in enumerate(super()._targets(), 4):
                if n > 5:
                    raise RuntimeError(f"target {n} read")
                calls.append(n)
                yield value
    res = construct(TargetSequence((2, 3, 4), Counted(5, 1)), depth=3)
    assert jumps_of(res) == [1, 2, 3]
    assert res.next_jump_index == 4
    assert res.a_prefix == (2, 3, 4) and res.next_jump_value == 5
    assert calls == [4, 5]


def test_internal_checks_catch_a_wrong_companion(monkeypatch):
    # both sides of the bracket check, each failing by 1 and not by 0:
    # one below the bracket's lower integer end leaves slack -1, and two
    # above the companion, one past its upper end, leaves b (a' - a)
    # above a a'
    seq = TargetSequence.from_explicit(TWO_STEPS)
    monkeypatch.setattr(construct_module, "_companion",
                        lambda a, a2: (a - 1) * (a2 - 1) // (a2 - a) - 1)
    with pytest.raises(ConstructionError,
                       match=r"^companion outside the bracket at jump 2$"):
        construct(seq, depth=3)
    monkeypatch.setattr(construct_module, "_companion",
                        lambda a, a2: _companion(a, a2) + 2)
    with pytest.raises(ConstructionError,
                       match=r"^companion outside the bracket at jump 2$"):
        construct(seq, depth=3)


class Halved(ArithmeticFamily):
    """a0/2, (a0 + d)/2, ...: a stream of floats."""

    __slots__ = ()

    def _targets(self):
        return (value / 2 for value in super()._targets())


class Stalling(ArithmeticFamily):
    """a0, a0 + d, ..., held at 5 from there on: it stops rising."""

    __slots__ = ()

    def _targets(self):
        return (min(value, 5) for value in super()._targets())


def test_sequence_validation():
    with pytest.raises(InvalidSequence,
                       match="^target must be an integer >= 2, got 1 at 1$"):
        construct(TargetSequence.from_explicit((1, 2, 3)), depth=1)
    with pytest.raises(InvalidSequence,
                       match="^target must be an integer >= 3, got 2 at 2$"):
        construct(TargetSequence.from_explicit((3, 2, 4)), depth=1)
    # a non-integer target, read from a tail
    with pytest.raises(InvalidSequence,
                       match=r"^target must be an integer >= 4, got 4\.0 at 3$"):
        construct(TargetSequence((2, 3), Halved(8, 1)), depth=3)


def test_a_tail_that_stops_rising_is_refused():
    # a tail target must exceed the one before it, from the first on: the
    # given terms may end on a plateau, the tail may not hold one
    with pytest.raises(InvalidSequence,
                       match="^target must be an integer >= 6, got 5 at 5$"):
        construct(TargetSequence.from_family(Stalling(2, 1)), depth=10)
    with pytest.raises(InvalidSequence,
                       match="^target must be an integer >= 6, got 5 at 4$"):
        construct(TargetSequence((2, 4, 5), Stalling(5, 1)), depth=10)
    res = construct(TargetSequence((2, 4, 4), Stalling(5, 1)), depth=1)
    assert res.a_prefix == (2,)
    assert (res.next_jump_index, res.next_jump_value) == (3, 4)


def test_depth_exhaustion():
    # a constant sequence never yields enough jumps
    with pytest.raises(DepthExhausted,
                       match="^only 0 of 2 jumps in 5 given terms$"):
        construct(TargetSequence.from_explicit([2] * 5), depth=1)
    # finite explicit list without a continuation rule runs out
    with pytest.raises(DepthExhausted,
                       match="^only 1 of 3 jumps in 2 given terms$"):
        construct(TargetSequence.from_explicit((2, 3)), depth=2)
    # a last difference of zero continues by nothing: the data end on a
    # plateau, whatever the depth
    seq = TargetSequence.from_explicit((2, 3, 3), "repeat-last-delta")
    with pytest.raises(DepthExhausted,
                       match="^only 1 of 3 jumps in 3 given terms$"):
        construct(seq, depth=2)
    with pytest.raises(DepthExhausted, match="^only 1 of 1000000001 jumps"):
        construct(seq, depth=10**9)
    # exactly depth jumps, then a plateau: the tail's jump is missing
    with pytest.raises(DepthExhausted,
                       match="^only 2 of 3 jumps in 5 given terms$"):
        construct(TargetSequence.from_explicit((2, 3, 4, 4, 4)), depth=2)


def test_long_given_plateau_is_scanned_whole():
    # only a tail must rise at every index: a plateau of 1200 given terms
    # is scanned to its end, however far that is
    seq = TargetSequence.from_explicit([2] * 1200 + [3, 4])
    assert jumps_of(construct(seq, 1)) == [1200]
