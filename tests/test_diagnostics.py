"""Growth checks and producibility classification.

The ratio-form restatements in the oracles below are derived separately
from the product forms used by the implementation, so agreement is a
real check rather than an echo.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac.diagnostics import (
    DEFAULT_T_GRID,
    ClassificationReport,
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
    WeakGreedyRun,
    WgaaPolicy,
    recover_shadow,
    wgaa_expand,
)


def F(p, q=1):
    return Fraction(p, q)


def fake_run(a, b, t=F(1)):
    policy = WgaaPolicy.scaled(t) if t != 1 else WgaaPolicy.greedy()
    residuals = tuple(F(1, x * x) for x in b)
    return WeakGreedyRun(theta=F(1, 2), policy=policy,
                         a=tuple(a), b=tuple(b), residuals=residuals)


def test_default_grid():
    assert DEFAULT_T_GRID == (F(1), F(3, 2), F(2), F(3), F(5), F(10))


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**300), st.integers(-2**10, 2**10))
def test_greedy_growth_check_at_its_edge(b, offset):
    # around the edge b' = b(b - 1) + 1, on both sides
    b_next = max(1, b * (b - 1) + 1 + offset)
    check, = greedy_ratio_checks(fake_run((b, b_next), (b, b_next)))
    assert check.holds is (b_next >= b * (b - 1) + 1)


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
    flagged = classify(a, b, family=FibonacciFamily())
    assert flagged.verdict == "producible-evidence"


def test_classify_declared_limit_one():
    a = tuple(range(2, 22))
    report = classify(a, a, family=ArithmeticFamily(2, 1))
    assert report.verdict == "not-producible-evidence"
    assert dict(report.second_half_witness_counts)[F(1)] == 10


def test_classify_short_input_inconclusive():
    assert classify((2, 3), (2, 3)).verdict == "inconclusive"
    assert classify((2,) * 7, (2,) * 7, family=GeometricFamily(2, 2)).verdict \
        == "inconclusive"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify((2, 3), (2, 3, 4))
    with pytest.raises(ValueError):
        classify((), ())
    with pytest.raises(ValueError):
        classify((2, 0, 3), (2, 1, 3))
    with pytest.raises(ValueError, match="at least 1"):
        classify((2, 3), (2, 3), t_grid=(F(1, 2),))
    for inexact in (1.5, True):
        with pytest.raises(ValueError, match="exact rational"):
            classify((2, 3), (2, 3), t_grid=(inexact,))


def test_report_json():
    a, b = quadratic_pair(12)
    doc = classify(a, b).to_json_dict()
    assert doc["verdict"] == "not-producible-evidence"
    assert doc["n-terms"] == 12
    assert doc["witness-counts"][0] == {"t": "1/1", "count": 0}
    assert doc["closed-form-limit"] is None
    assert len(doc["ratio-samples"]) == 8
    assert isinstance(classify(a, b), ClassificationReport)


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
    # each would leave a gap of 1/8 or more if it were converted
    for theta, tail in ((0.75, F(1, 8)), (True, F(1, 8)),
                        (F(3, 4), 0.125), (F(3, 4), False)):
        with pytest.raises(ValueError, match="exact rational"):
            shadow_bound_from_gap([2], theta, tail)
