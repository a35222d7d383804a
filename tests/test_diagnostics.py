"""Growth checks and producibility classification.

The ratio-form restatements in the oracles below are derived separately
from the product forms used by the implementation, so agreement is a
real check rather than an echo.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac.diagnostics import (
    _K,
    _product_bounds,
    _product_gap_below,
    classify,
    greedy_ratio_checks,
    scaled_run_ratio_checks,
    shadow_bound_from_gap,
)
from unitfrac.families import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
)
from unitfrac.greedy import (
    _MEMO_BITS,
    WeakGreedyRun,
    WgaaPolicy,
    recover_shadow,
    wgaa_expand,
)
from unitfrac.rational import _SSA_BITS


def fake_run(a, b, t=F(1)):
    policy = WgaaPolicy.scaled(t) if t != 1 else WgaaPolicy.greedy()
    residuals = tuple(F(1, x * x) for x in b)
    return WeakGreedyRun(theta=F(1, 2), policy=policy,
                         a=tuple(a), b=tuple(b), residuals=residuals)


# ----------------------------------------------------------- ratio checks

def lower_ratio_form(a_cur, a_next, t):
    # a_{n+1}/a_n must exceed (t + 1/a)(1 - 1/a) / (t - 1 + 2/a)
    bound = (t + F(1, a_cur)) * (1 - F(1, a_cur)) / (t - 1 + F(2, a_cur))
    return F(a_next, a_cur) > bound


def upper_ratio_form(a_cur, a_next, t):
    return F(a_next, a_cur) < t / (t - 1) + F(1, a_cur)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
       st.sampled_from([F(4, 3), F(3, 2), F(2)]))
def test_scaled_runs_satisfy_growth_bounds(theta, t):
    run = wgaa_expand(theta, WgaaPolicy.scaled(t), 12)
    checks = scaled_run_ratio_checks(run)
    assert len(checks) == len(run.a) - 1
    for chk, (a_cur, a_next) in zip(checks, zip(run.a, run.a[1:])):
        assert chk.lower_holds and chk.upper_holds
        assert chk.lower_holds == lower_ratio_form(a_cur, a_next, t)
        assert chk.upper_holds == upper_ratio_form(a_cur, a_next, t)


# t with td > 1 keeps a stray td factor from cancelling; t = 1 has no upper
RATIO_TS = (F(1), F(3, 2), F(7, 5), F(10, 3), F(2))


def assert_checks_match_forms(a_cur, a_next, t):
    chk, = scaled_run_ratio_checks(fake_run((a_cur, a_next), (a_cur, a_next), t))
    assert chk.lower_holds is lower_ratio_form(a_cur, a_next, t)
    if t == 1:
        assert chk.upper_holds is None
    else:
        assert chk.upper_holds is upper_ratio_form(a_cur, a_next, t)
    return chk


def test_ratio_checks_match_forms_on_a_grid():
    # every pair 2 <= a <= a' on a grid that crosses both bounds
    seen = set()
    for t in RATIO_TS:
        for a_cur in range(2, 26):
            for a_next in range(a_cur, 4 * a_cur + 6):
                chk = assert_checks_match_forms(a_cur, a_next, t)
                seen.add(("lower", chk.lower_holds))
                seen.add(("upper", chk.upper_holds))
    assert seen == {("lower", True), ("lower", False), ("upper", True),
                    ("upper", False), ("upper", None)}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2**300), st.integers(0, 2**300),
       st.sampled_from(RATIO_TS))
def test_ratio_checks_match_forms(a_cur, gap, t):
    assert_checks_match_forms(a_cur, a_cur + gap, t)


# ------------------------------------------------ products decided by size

def bounds_straddle(u1, v1, u2, v2, c):
    """True when the top-bit bounds leave u1*v1 - u2*v2 < c open."""
    lo1, hi1, e1 = _product_bounds(u1, v1)
    lo2, hi2, e2 = _product_bounds(u2, v2)
    return (lo1 << e1) - (hi2 << e2) < c <= (hi1 << e1) - (lo2 << e2)


def test_product_bounds_enclose_the_product():
    for u, v in ((1, 1), (2**64 - 1, 2**64 - 1), (2**64, 3),
                 (2**64 + 1, 2**64 + 1), (3**200, 5**150), (2**500 - 1, 7)):
        lo, hi, e = _product_bounds(u, v)
        assert lo << e <= u * v <= hi << e
        if max(u, v).bit_length() <= _K:
            assert (lo, hi, e) == (u * v, u * v, 0)


def test_product_gap_near_ties_fall_back_to_exact():
    # m*m - (m-1)(m+1) = 1 and its scaled forms: the difference is tiny
    # beside products of 400 bits and more, so only the exact products
    # can tell 1 < c from 1 >= c
    for m in (2**200, 3**130 + 1, 2**256 - 1):
        for k in (1, 7, 2**70 + 1):
            u1, v1, u2, v2 = k * m, m, k * (m - 1), m + 1
            diff = u1 * v1 - u2 * v2
            assert diff == k
            for c, below in ((k, False), (k + 1, True)):
                assert bounds_straddle(u1, v1, u2, v2, c)
                assert _product_gap_below(u1, v1, u2, v2, c) is below
                assert _product_gap_below(v1, u1, v2, u2, c) is below


def test_lower_ratio_check_at_its_edge_on_long_operands():
    # the least a' with the lower bound holding, and the one below it,
    # for a >= 2**200: both reach the exact products
    for a_cur in (2**200 + 3, 3**150, 2**300 - 1):
        for t in RATIO_TS:
            tn, td = t.numerator, t.denominator
            left = tn * a_cur * a_cur + (td - tn) * a_cur - td
            right = (tn - td) * a_cur + 2 * td
            edge = left // right + 1
            for a_next, holds in ((edge, True), (edge - 1, False)):
                assert bounds_straddle(a_cur, tn * a_cur + td - tn,
                                       a_next, right, td)
                chk = assert_checks_match_forms(a_cur, a_next, t)
                assert chk.lower_holds is holds


def test_product_gap_far_apart_shifts():
    big, small = 2**5000 + 12345, 3**40
    # one product dwarfs the other, whichever side holds the long factor
    assert _product_gap_below(3, big, small, 5, 1) is False
    assert _product_gap_below(small, 5, big, 3, 1) is True
    assert _product_gap_below(big, big, 2**70 + 1, 1, 2**64) is False
    assert _product_gap_below(1, 1, big, 7 * big, 1) is True
    # a c as long as the products themselves
    p = big * 3
    assert _product_gap_below(big, 3, small, 5, p) is True
    assert _product_gap_below(big, 3, 1, 1, p - 1) is False
    assert _product_gap_below(big, 3, 1, 1, p) is True


def test_product_gap_exact_on_small_operands():
    # factors of at most _K bits are kept whole: the verdict never needs
    # the fallback, and it is exact at every offset around the tie
    for u1, v1, u2, v2 in ((1, 1, 1, 1), (2**64 - 1, 2**64 - 1, 2**64 - 2, 2**64),
                           (12345, 678, 910, 1112), (2**63 + 5, 3, 2**62, 6)):
        diff = u1 * v1 - u2 * v2
        for c in range(max(1, diff - 3), max(1, diff + 4)):
            assert _product_gap_below(u1, v1, u2, v2, c) is (diff < c)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2**400), st.integers(1, 2**20), st.integers(1, 2**20),
       st.integers(0, 8), st.integers(0, 8), st.integers(-3, 3),
       st.booleans())
def test_product_gap_matches_plain_near_ties(s, i, j, r1, r2, offset, swap):
    # u1*v1 - u2*v2 = i*r2 - j*r1 + i*j, a few dozen bits beside products
    # of up to 840 bits, and c is drawn within 3 of it
    u1, v1 = i * s + r1, j * s + r2
    u2, v2 = u1 - i, v1 + j
    if swap:
        u1, v1, u2, v2 = v2, u2, v1, u1
    c = max(1, u1 * v1 - u2 * v2 + offset)
    assert _product_gap_below(u1, v1, u2, v2, c) is (u1 * v1 - u2 * v2 < c)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**300), st.integers(-2**10, 2**10))
def test_greedy_growth_check_at_its_edge(b, offset):
    # around the edge b' = b(b - 1) + 1, on both sides
    b_next = max(1, b * (b - 1) + 1 + offset)
    check, = greedy_ratio_checks(fake_run((b, b_next), (b, b_next)))
    assert check.holds is (b_next >= b * (b - 1) + 1)


@pytest.mark.parametrize("bits", [_MEMO_BITS + 1, 40_001, _SSA_BITS + 3,
                                  160_002, 250_003])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_greedy_growth_check_past_the_square_cutoff(bits, offset):
    # b past the memo's threshold, at and between the edges of the two
    # bands of ``rational._square``: x*x below the Schönhage–Strassen
    # cutoff, the transform from it on, with K doubled at 2**17 bits; the edge
    # b' = b(b - 1) + 1 is formed here by the plain product. With
    # a = b + 1 - d the check writes it around (a - 1)**2 for
    # 0 <= d < 2**64 and squares b itself otherwise
    b = 3 ** (bits * 631 // 1000)  # 3**k has about 1.585 k bits
    assert b.bit_length() >= bits
    b_next = b * (b - 1) + 1 + offset
    for d in (1, 2, 0, -3, 2**64 - 1, 2**64):
        check, = greedy_ratio_checks(fake_run((b + 1 - d, b_next),
                                              (b, b_next)))
        assert check.holds is (offset >= 0)


# b_n - (a_n - 1) on both sides of 0 and of the word bound 2**64
gaps = st.one_of(st.integers(-2**8, 2**8), st.integers(2**64 - 2, 2**64 + 2),
                 st.integers(-2**300, 2**300))


@st.composite
def hand_built_runs(draw):
    """(a, b) of any lengths: each b_{n+1} either near the edge
    b_n(b_n - 1) + 1 or arbitrary, each a_n = b_n + 1 - d_n for a gap d_n,
    then a cut short or lengthened."""
    b = [draw(st.integers(1, 2**100))]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            b.append(max(1, b[-1] * (b[-1] - 1) + 1
                         + draw(st.integers(-2, 2))))
        else:
            b.append(draw(st.integers(1, 2**100)))
    a = [x + 1 - draw(gaps) for x in b]
    a = a[:draw(st.integers(0, len(a)))]
    a += draw(st.lists(st.integers(-2**70, 2**70), max_size=2))
    return a, b


@settings(max_examples=300, deadline=None)
@given(hand_built_runs())
def test_greedy_growth_check_matches_the_plain_bound(run):
    a, b = run
    checks = greedy_ratio_checks(fake_run(a, b))
    assert [(c.index, c.holds) for c in checks] == [
        (n, b_next >= b_n * b_n - b_n + 1)
        for n, (b_n, b_next) in enumerate(zip(b, b[1:]), start=1)]


def test_scaled_checks_pinned_failure():
    run = fake_run((5, 5), (5, 5), t=F(3, 2))
    checks = scaled_run_ratio_checks(run)
    assert checks[0].lower_holds is False
    run = fake_run((2, 6), (2, 6), t=F(2))
    checks = scaled_run_ratio_checks(run)
    assert checks[0].upper_holds is False


def test_greedy_upper_is_open_ended():
    run = wgaa_expand(F(2, 3), WgaaPolicy.scaled(F(1)), 6)
    checks = scaled_run_ratio_checks(run)
    assert all(c.upper_holds is None for c in checks)
    assert all(c.lower_holds for c in checks)


def test_greedy_ratio_checks():
    run = wgaa_expand(F(19, 48), WgaaPolicy.greedy(), 2)
    assert run.b == (3, 17)
    checks = greedy_ratio_checks(run)
    assert len(checks) == 1 and checks[0].holds
    # 5 < 3*2 + 1 fails the squared-growth bound
    bad = fake_run((3, 5), (3, 5))
    assert greedy_ratio_checks(bad)[0].holds is False
    for theta in (F(19, 48), F(1), F(7, 13)):
        run = wgaa_expand(theta, WgaaPolicy.greedy(), 10)
        assert all(c.holds for c in greedy_ratio_checks(run))


# ---------------------------------------------------------- classification

def quadratic_pair(n_terms):
    a = tuple(n + 1 for n in range(1, n_terms + 1))
    b = tuple(n * (n + 2) for n in range(1, n_terms + 1))
    return a, b


def test_classify_quadratic_not_producible():
    a, b = quadratic_pair(200)
    report = classify(a, b)
    assert report.verdict == "not-producible-evidence"
    counts = dict(report.witness_counts)
    assert counts[F(1)] == 0
    assert counts[F(3, 2)] == 1
    assert counts[F(10)] == 9
    assert dict(report.second_half_witness_counts)[F(10)] == 0


def test_classify_geometric_producible():
    a = tuple(2 * 3 ** (n - 1) for n in range(1, 21))
    b = tuple(3**n - 1 for n in range(1, 21))
    report = classify(a, b, family=GeometricFamily(2, 3))
    assert report.verdict == "producible-evidence"
    assert dict(report.witness_counts)[F(3, 2)] == 20
    assert report.closed_form_limit == F(3)
    # without any declared growth the data alone cannot settle it
    assert classify(a, b).verdict == "inconclusive"
    # a family whose ratio tends to an irrational limit above one
    a, b = FibonacciFamily().terms(20)
    flagged = classify(a[:-1], b, family=FibonacciFamily())
    assert flagged.verdict == "producible-evidence"


def test_classify_declared_limit_one():
    a = tuple(range(2, 22))
    report = classify(a, a, family=ArithmeticFamily(2, 1))
    assert report.verdict == "not-producible-evidence"
    assert dict(report.second_half_witness_counts)[F(1)] == 10


def test_classify_short_input_inconclusive():
    assert classify((2, 3), (2, 3)).verdict == "inconclusive"
    a, b = GeometricFamily(2, 2).terms(7)
    assert classify(a[:-1], b, family=GeometricFamily(2, 2)).verdict \
        == "inconclusive"
    # eight terms are no longer short: their missing witnesses decide
    a = tuple(range(2, 10))
    b = tuple(100 * x for x in a)
    assert classify(a[:7], b[:7]).verdict == "inconclusive"
    assert classify(a, b).verdict == "not-producible-evidence"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify((2, 3), (2, 3, 4))
    with pytest.raises(ValueError):
        classify((), ())
    with pytest.raises(ValueError):
        classify((2, 0, 3), (2, 1, 3))
    # data no WGAA run gives: a below 2, a falling, b below a
    with pytest.raises(ValueError, match="^a falls below 2 at index 1$"):
        classify((1, 2, 3), (2, 3, 4))
    with pytest.raises(ValueError, match="^a falls below 5 at index 2$"):
        classify((5, 3, 3), (5, 3, 4))
    with pytest.raises(ValueError, match="^b falls below a at index 3$"):
        classify((2, 3, 4, 5), (2, 3, 3, 5))
    assert classify((2, 2, 3), (2, 2, 3)).n_terms == 3  # equality holds
    with pytest.raises(ValueError, match="at least 1"):
        classify((2, 3), (2, 3), t_grid=(F(1, 2),))
    for inexact in (1.5, True):
        with pytest.raises(ValueError, match="exact rational"):
            classify((2, 3), (2, 3), t_grid=(inexact,))
    # no level checked is no evidence, even for data a family produces
    a, b = GeometricFamily(2, 3).terms(12)
    for family in (None, GeometricFamily(2, 3)):
        with pytest.raises(ValueError, match="weakness level"):
            classify(a[:-1], b, t_grid=(), family=family)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 400)),
                min_size=1, max_size=16),
       st.lists(st.fractions(min_value=1, max_value=10, max_denominator=12),
                min_size=1, max_size=4))
def test_classify_counts_match_fraction_ceiling(steps, grid):
    """Small terms and levels put t*a_n on an integer often, where the
    integer witness test and b_n <= ceil(t*a_n) must still agree. a rises
    from 2 by steps of 0 to 5, and b_n exceeds a_n by 0 to 400."""
    a = itertools.accumulate((rise for rise, _ in steps), initial=2)
    pairs = [(x, x + over) for x, (_, over) in zip(a, steps)]
    a, b = zip(*pairs)
    report = classify(a, b, grid)
    assert [t for t, _ in report.witness_counts] == grid
    assert [t for t, _ in report.second_half_witness_counts] == grid
    for t, (_, full), (_, second) in zip(
            grid, report.witness_counts, report.second_half_witness_counts):
        hits = [y <= math.ceil(t * x) for x, y in pairs]
        assert full == sum(hits)
        assert second == sum(hits[len(pairs) // 2:])



# ------------------------------------------------------------ shadow bound

def test_shadow_bound_powers_of_two():
    depth = 20
    b = [2 ** (n + 1) for n in range(1, depth + 1)]
    tail_upper = F(1, 2 ** (depth + 1))
    gap, bound = shadow_bound_from_gap(b, F(3, 4), tail_upper)
    assert gap == F(1, 4)
    assert bound == 5
    replay = recover_shadow(b, F(3, 4))
    assert max(replay.a) <= 5
    assert max(replay.a) == 4


def test_shadow_bound_quadratic():
    depth = 60
    b = [n * (n + 2) for n in range(1, depth + 1)]
    tail_upper = (F(1, depth + 1) + F(1, depth + 2)) / 2
    gap, bound = shadow_bound_from_gap(b, F(7, 8), tail_upper)
    assert gap == F(1, 8)
    assert bound == 9
    replay = recover_shadow(b, F(7, 8))
    assert max(replay.a) <= 9


def test_shadow_bound_requires_gap():
    with pytest.raises(ValueError):
        shadow_bound_from_gap([2], F(1, 2), F(1, 2))
    # a gap of exactly 0 is refused, a tail bound of exactly 0 is not
    with pytest.raises(ValueError, match="no gap to exploit$"):
        shadow_bound_from_gap([2], F(3, 4), F(1, 4))
    assert shadow_bound_from_gap([2], F(3, 4), F(0)) == (F(1, 4), 5)
    # each would leave a gap of 1/8 or more if it were converted
    for theta, tail in ((0.75, F(1, 8)), (True, F(1, 8)),
                        (F(3, 4), 0.125), (F(3, 4), False)):
        with pytest.raises(ValueError, match="exact rational"):
            shadow_bound_from_gap([2], theta, tail)


def test_shadow_bound_refuses_a_negative_tail_bound():
    # a tail bound of -1/8 would widen the gap 1/4 to 3/8
    with pytest.raises(ValueError, match="^tail bound must be nonnegative$"):
        shadow_bound_from_gap([2], F(3, 4), F(-1, 8))


@pytest.mark.parametrize("b_prefix, theta, tail", [
    pytest.param([1], F(2), F(1, 2), id="two"),
    pytest.param([2], F(5, 4), F(1, 2), id="five-quarters"),
    pytest.param([2], F(2), F(0), id="two-gap-three-halves"),
    pytest.param([2], F(1) + F(1, 10**30), F(0), id="just-above-1"),
    pytest.param([2], F(0), F(0), id="zero"),
    pytest.param([2], F(-1, 2), F(0), id="minus-half")])
def test_shadow_bound_refuses_targets_outside_the_unit_interval(b_prefix,
                                                               theta, tail):
    # the first two once returned a bound, (1/2, 3) and (1/4, 5), and the
    # third failed naming its gap 3/2 instead of the target
    with pytest.raises(ValueError,
                       match=rf"^target must lie in \(0, 1\], got {theta}$"):
        shadow_bound_from_gap(b_prefix, theta, tail)


@pytest.mark.parametrize("b_prefix, index", [([0], 1), ([2.5], 1),
                                             ([True, 4], 1), ([4, 8, 0], 3)])
def test_shadow_bound_rejects_non_denominators(b_prefix, index):
    # [0] used to divide by zero, [2.5] to raise TypeError and [True, 4]
    # to be summed as [1, 4]
    with pytest.raises(ValueError, match=f"integer >= 1, got .* at {index}$"):
        shadow_bound_from_gap(b_prefix, F(3, 4), F(1, 8))
