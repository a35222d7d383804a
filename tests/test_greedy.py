"""Greedy and weak greedy expansion engine.

The replay oracle below recomputes every shadow value from scratch with
raw Fraction arithmetic and asserts the defining window on each step, so
expected sequences frozen here were derived independently of the engine.
"""
from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import cli, rational
from unitfrac.construct import choose_b_jump
from unitfrac.diagnostics import greedy_ratio_checks
from unitfrac.greedy import (
    _WORD_BOUND,
    IndexSet,
    ReplayOverrunError,
    WeakGreedyRun,
    WgaaPolicy,
    _unit_step,
    admissible_endpoints,
    bracket_misses,
    greedy_expand,
    recover_shadow,
    telescoping_endpoints,
    wgaa_expand,
)
from unitfrac.rational import _SSA_BITS, _TOOM_BITS, integer_bounds
from unitfrac.uniqueness import pair_uniqueness


def oracle_shadow(theta, b_list):
    """Replay b against theta step by step, checking the greedy window."""
    r = Fraction(theta)
    shadows = []
    for b in b_list:
        assert r > 0, "partial sums reached the target inside the oracle"
        a = r.denominator // r.numerator + 1
        assert Fraction(1, a) < r <= Fraction(1, a - 1)
        shadows.append(a)
        r -= Fraction(1, b)
    return shadows


# ------------------------------------------------------------ pinned runs

def test_greedy_two_terms_19_48():
    run = greedy_expand(Fraction(19, 48), 2)
    assert list(run.a) == [3, 17]
    assert list(run.b) == [3, 17]
    assert list(run.residuals) == [Fraction(1, 16), Fraction(1, 272)]
    assert oracle_shadow(Fraction(19, 48), run.b) == [3, 17]


def test_greedy_from_one_gives_sylvester_prefix():
    run = greedy_expand(Fraction(1), 4)
    assert list(run.a) == [2, 3, 7, 43]
    assert oracle_shadow(Fraction(1), run.b) == [2, 3, 7, 43]


def test_greedy_single_term_one_half():
    assert list(greedy_expand(Fraction(1, 2), 1).a) == [3]


def test_scaled_policy_two_terms_last_greedy():
    run = wgaa_expand(Fraction(19, 48), WgaaPolicy.scaled(Fraction(4, 3)), 2,
                      last_greedy=True)
    assert list(run.b) == [4, 7]
    assert list(run.a) == [3, 7]
    # weak two-term sum lands closer to theta than the greedy two-term sum
    greedy_sum = Fraction(1, 3) + Fraction(1, 17)
    weak_sum = Fraction(1, 4) + Fraction(1, 7)
    assert greedy_sum < weak_sum < Fraction(19, 48)


def test_scaled_policy_without_last_greedy():
    run = wgaa_expand(Fraction(19, 48), WgaaPolicy.scaled(Fraction(4, 3)), 2)
    assert list(run.b) == [4, 10]


def test_explicit_replay_frozen():
    # derived by the oracle: residuals 3/4 -> 5/12 -> 7/24
    want = oracle_shadow(Fraction(3, 4), [3, 8, 120])
    assert want == [2, 3, 4]
    rec = recover_shadow([3, 8, 120], Fraction(3, 4))
    assert list(rec.a) == want
    assert rec.first_weak_violation is None


def test_min_admissible_is_smallest_strictly_weak_choice():
    run = wgaa_expand(Fraction(2, 3), WgaaPolicy(t=Fraction(2), lam=IndexSet.all(),
                                                 selection="min-admissible"), 3)
    assert list(run.a) == oracle_shadow(Fraction(2, 3), run.b)
    assert list(run.b) == [a + 1 for a in run.a]
    # with t = 1 the cap pins the choice back to greedy
    flat = wgaa_expand(Fraction(2, 3), WgaaPolicy(t=Fraction(1), lam=IndexSet.all(),
                                                  selection="min-admissible"), 3)
    assert list(flat.b) == list(flat.a)
    # capped on index 1 only, the cap pins index 1 and leaves the rest weak
    part = wgaa_expand(Fraction(2, 3), WgaaPolicy(t=Fraction(1), lam=IndexSet.finite({1}),
                                                  selection="min-admissible"), 3)
    assert list(part.b) == [part.a[0]] + [a + 1 for a in part.a[1:]]
    # any t above 1 leaves room for a_n + 1 under ceil(t * a_n), however close
    near_one = WgaaPolicy(t=1 + Fraction(1, 10**30), lam=IndexSet.finite({1}),
                          selection="min-admissible")
    near = wgaa_expand(Fraction(2, 3), near_one, 3)
    assert near.b[0] == near.a[0] + 1


# ------------------------------------------------------------- validation

def test_theta_domain_errors():
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(5, 4)):
        with pytest.raises(ValueError):
            greedy_expand(bad, 2)
    # 0.1 would expand as 3602879701896397/2**55 and True as 1
    for inexact in (0.1, 0.5, True):
        with pytest.raises(ValueError, match="exact rational"):
            greedy_expand(inexact, 2)
        with pytest.raises(ValueError, match="exact rational"):
            recover_shadow([3], inexact)


def test_explicit_below_shadow_is_policy_violation():
    # shadow of 1/2 is 3, so b = 2 is not a weak choice
    assert recover_shadow([2], Fraction(1, 2)).first_weak_violation == 1


def test_recover_shadow_weakness_report_and_overrun():
    theta = Fraction(1, 2) + Fraction(1, 100)
    rec = recover_shadow([2], theta)
    assert list(rec.a) == [2]
    assert rec.first_weak_violation is None
    # b_2 = 3 sits below the shadow 101; it is the final index so replay returns
    rec2 = recover_shadow([2, 3], theta)
    assert list(rec2.a) == [2, 101]
    assert rec2.first_weak_violation == 2
    with pytest.raises(ReplayOverrunError) as err:
        recover_shadow([2, 3, 10], theta)
    assert err.value.index == 3


@pytest.mark.parametrize("b, index", [
    ([2.9, 7.5], 1), ([2, True], 2), ([2, 7, Fraction(50)], 3), (["3"], 1),
    ([2, 2, 7, 0], 4)])
def test_recover_shadow_rejects_non_integers(b, index):
    # int() would truncate 2.9 to 2 and replay a list that was not given;
    # the whole list is checked first, so [2, 2, 7, 0] fails at the 0
    # before its partial sums pass 2/3 at index 3
    with pytest.raises(ValueError, match=f"at {index}$"):
        recover_shadow(b, Fraction(2, 3))


def test_term_cap():
    with pytest.raises(ValueError, match="10000"):
        greedy_expand(Fraction(2, 3), 10**4 + 1)
    run = greedy_expand(Fraction(355, 452), 4)
    assert len(run.b) == 4


# ---------------------------------------------------------------- intervals

def test_admissible_interval_pinned():
    lo_n, lo_d, hi_n, hi_d = admissible_endpoints(2, 7)
    assert (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)) == (Fraction(7, 6),
                                                           Fraction(3))
    assert integer_bounds(lo_n, lo_d, hi_n, hi_d, True, True) == (2, 2)
    lo_n, lo_d, hi_n, hi_d = admissible_endpoints(3, 17)
    assert (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)) == (Fraction(34, 15),
                                                           Fraction(48, 13))
    # small or zero gap leaves the window unbounded above: hi_d < 1
    lo_n, lo_d, _, hi_d = admissible_endpoints(4, 4)
    assert Fraction(lo_n, lo_d) == Fraction(12) and hi_d < 1
    lo_n, lo_d, _, hi_d = admissible_endpoints(4, 5)
    assert Fraction(lo_n, lo_d) == Fraction(15, 2) and hi_d < 1


def test_integer_routes_match_reciprocal_oracle():
    # bracket_misses, choose_b_jump and the unbounded k read integer window
    # ends; the reference is the reciprocal definition, cross-multiplied
    for a in range(2, 150):
        for a_next in range(a + 1, 151):
            # bracket: lower < 1/b < upper
            lower = Fraction(1, a) - Fraction(1, a_next)
            upper = Fraction(1, a - 1) - Fraction(1, a_next - 1)
            ln, ld = lower.numerator, lower.denominator
            un, ud = upper.numerator, upper.denominator

            def inside(b):
                return b > 0 and ln * b < ld and ud < un * b

            lo, hi = math.floor(1 / upper), math.floor(1 / lower)
            for b in {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}:
                if b < 1:  # no denominator, so not a miss but bad input
                    with pytest.raises(ValueError, match="at 1$"):
                        bracket_misses([a, a_next], [b])
                    continue
                missed = bracket_misses([a, a_next], [b]) == [1]
                assert missed == (not inside(b)), (a, a_next, b)
            best = hi + 1
            while not inside(best):
                best -= 1
            assert choose_b_jump(a, a_next) == best
            # the admissible window is unbounded above exactly when its
            # lower reciprocal bound 1/a - 1/(a_next - 1) is not positive
            if Fraction(1, a) <= Fraction(1, a_next - 1):
                top = Fraction(1, a - 1) - Fraction(1, a_next)
                tn, td = top.numerator, top.denominator
                k = pair_uniqueness(a, a_next).k
                assert td < tn * k and not td < tn * (k - 1), (a, a_next)


def test_telescoping_interval_pinned():
    assert telescoping_endpoints(2, 3) == (2, 1, 6, 1)
    assert telescoping_endpoints(3, 5) == (8, 2, 15, 2)
    with pytest.raises(ValueError):
        telescoping_endpoints(2, 2)


@pytest.mark.parametrize("window", [admissible_endpoints,
                                    telescoping_endpoints, choose_b_jump])
@pytest.mark.parametrize("bad", [2.5, True, 1])
def test_windows_refuse_non_integers(window, bad):
    # a float ran through the formulas as a float, and True as 1
    with pytest.raises(ValueError, match="^a_cur must be an integer >= 2"):
        window(bad, 4)
    with pytest.raises(ValueError, match="^a_next must be an integer >= "):
        window(2, bad)


def test_telescoping_interval_length_identity():
    # window length is 1 + (2a - 1)/(a_next - a), hence always holds an integer
    for a in range(2, 40):
        for nxt in range(a + 1, a + 40):
            lo_n, lo_d, hi_n, hi_d = telescoping_endpoints(a, nxt)
            lo, hi = Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
            assert hi - lo == 1 + Fraction(2 * a - 1, nxt - a)
            # verbose endpoint forms agree with the factored ones
            assert hi == Fraction(a * nxt, nxt - a)
            assert lo == hi - 1 - Fraction(2 * a - 1, nxt - a)


# ---------------------------------------------------------------- policies

def test_index_set_round_trip_and_membership():
    cases = [
        IndexSet.all(),
        IndexSet.finite({1, 3, 9}),
        IndexSet.finite(set()),
        IndexSet.cofinite({2, 4}),
        IndexSet.periodic(3, {0, 2}),
    ]
    for lam in cases:
        assert IndexSet.parse(lam.spec_string()) == lam
    assert IndexSet.all().contains(17)
    assert IndexSet.finite({1, 3}).contains(3)
    assert not IndexSet.finite({1, 3}).contains(2)
    assert IndexSet.cofinite({2, 4}).contains(3)
    assert not IndexSet.cofinite({2, 4}).contains(4)
    per = IndexSet.periodic(3, {0, 2})
    assert per.contains(3) and per.contains(2) and not per.contains(4)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet.periodic(0, {0})
    with pytest.raises(ValueError):
        IndexSet.periodic(3, {3})
    with pytest.raises(ValueError):
        IndexSet.parse("junk:1")


@pytest.mark.parametrize("make", [
    lambda: IndexSet.finite({1.5, True}),
    lambda: IndexSet.finite([3, 2.0]),
    lambda: IndexSet.cofinite([True]),
    lambda: IndexSet.periodic(3, {0, 1.0}),
    lambda: IndexSet.periodic(3, [False]),
    lambda: IndexSet.periodic(2.5, {0}),
    lambda: IndexSet.periodic(True, {0}),
    lambda: IndexSet.finite([0, -1]),  # members are step indices, from 1
])
def test_index_set_rejects_non_integers(make):
    # int() would turn {1.5, True} into {1}, and True == 1 would merge
    with pytest.raises(ValueError, match="integer"):
        make()


def test_policy_validation():
    # replaying a given list is recover_shadow's job, not a selection rule
    with pytest.raises(ValueError):
        WgaaPolicy(t=Fraction(2), selection="explicit")
    with pytest.raises(ValueError):
        WgaaPolicy(t=Fraction(1, 2))
    for inexact in (1.1, True):
        with pytest.raises(ValueError, match="exact rational"):
            WgaaPolicy(t=inexact)
    # a spec string is not an index set: min-admissible would fail on it
    with pytest.raises(ValueError, match="IndexSet"):
        WgaaPolicy(lam="all", selection="min-admissible")
    with pytest.raises(ValueError):
        WgaaPolicy(selection="nope")


def test_run_serialization_round_trip():
    run = wgaa_expand(Fraction(19, 48), WgaaPolicy.scaled(Fraction(4, 3)), 3)
    blob = cli._expand_doc(run)
    assert blob["theta"] == "19/48"
    assert blob["t"] == "4/3"
    assert blob["lambda"] == "all"
    assert blob["a"] == list(run.a)
    assert blob["residuals"][0] == "7/48"


# -------------------------------------------------------------- properties

thetas = st.fractions(min_value=Fraction(1, 500), max_value=Fraction(1),
                      max_denominator=10**6)


@settings(max_examples=120, deadline=None)
@given(thetas, st.integers(min_value=1, max_value=6))
def test_greedy_run_invariants(theta, n):
    run = greedy_expand(theta, n)
    r_prev = theta
    for k in range(n):
        a = run.a[k]
        assert run.b[k] == a
        assert Fraction(1, a) < r_prev <= Fraction(1, a - 1)
        assert run.residuals[k] == r_prev - Fraction(1, run.b[k])
        assert run.residuals[k] > 0
        r_prev = run.residuals[k]
    for k in range(n - 1):
        assert run.a[k + 1] >= run.a[k] ** 2 - run.a[k] + 1


@settings(max_examples=120, deadline=None)
@given(thetas,
       st.fractions(min_value=Fraction(1), max_value=Fraction(4), max_denominator=12),
       st.integers(min_value=2, max_value=10),
       st.sampled_from(["greedy", "ceil-t-a", "min-admissible"]))
def test_wgaa_run_invariants(theta, t, n, selection):
    policy = WgaaPolicy(t=t, lam=IndexSet.all(), selection=selection)
    run = wgaa_expand(theta, policy, n)
    r_prev = theta
    for k in range(n):
        a, b = run.a[k], run.b[k]
        assert b >= a
        assert b <= math.ceil(t * a)  # cap applies everywhere, Lambda is all indices
        assert Fraction(1, a) < r_prev <= Fraction(1, a - 1)
        r_prev = run.residuals[k]
        assert r_prev > 0
    # each choice meets the open admissible window of its shadow pair:
    # 1/a - 1/(a_next - 1) < 1/b < 1/(a - 1) - 1/a_next
    for k in range(n - 1):
        a, a_next = run.a[k], run.a[k + 1]
        assert (Fraction(1, a) - Fraction(1, a_next - 1) < Fraction(1, run.b[k])
                < Fraction(1, a - 1) - Fraction(1, a_next))
    # replay is idempotent
    assert list(recover_shadow(run.b, theta).a) == list(run.a)


@settings(max_examples=60, deadline=None)
@given(thetas, st.integers(min_value=2, max_value=5))
def test_residuals_strictly_decreasing(theta, n):
    run = greedy_expand(theta, n)
    seq = [theta] + list(run.residuals)
    assert all(x > y for x, y in zip(seq, seq[1:]))


def test_desk_scale_residual_decay():
    for theta in (Fraction(7, 9), Fraction(355, 452), Fraction(19, 48)):
        run = greedy_expand(theta, 5)
        assert run.residuals[-1] < Fraction(1, 10**6)


# ------------------------------------------------------------ step kernel

W = _WORD_BOUND


def step_case(p, q, d):
    """(r, m, b) with r = p/q reduced, m = q // p and b = m + d, or None."""
    r = Fraction(p, q)
    m = r.denominator // r.numerator
    b = m + d
    return (r, m, b) if b >= 1 else None


# numerators and steps on both sides of the word bound; d <= 0 is a b at
# or below m, so below its shadow m + 1, and its residual overruns when
# p*d - s <= 0
numerators = st.one_of(st.integers(1, 2**16), st.integers(W - 2**8, W + 2**8),
                       st.integers(W, 2**200))
steps = st.one_of(st.integers(1, 3), st.integers(W - 2**8, W + 2**8),
                  st.integers(W, 2**300), st.integers(-2**64, 0))


@settings(max_examples=400, deadline=None)
@given(numerators, st.integers(0, 2**400), steps)
def test_unit_step_matches_fraction_subtraction(p, extra, d):
    case = step_case(p, p + extra, d)
    if case is not None:
        r, m, b = case
        got = _unit_step(r, m, b)
        want = r - Fraction(1, b)
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)


def test_unit_step_at_the_guard():
    q = 2**521 - 1  # prime, so every p below it gives a reduced p/q
    for p in (1, 2, W - 1, W, W + 1):
        for d in (-3, 0, 1, 2, W - 1, W, W + 1):
            r, m, b = step_case(p, q, d)
            want = r - Fraction(1, b)
            assert _unit_step(r, m, b) == want
            if d <= 0:
                assert want <= 0  # b below the shadow overruns r here
    # an exact unit fraction: s = 0 and the step lands on zero
    r = Fraction(1, 7)
    assert _unit_step(r, 7, 7) == 0


@pytest.mark.parametrize("theta, selection", [
    (Fraction(1), "greedy"), (Fraction(5, 121), "greedy"),
    (Fraction(2, 3), "min-admissible"), (Fraction(17, 19), "min-admissible"),
    (Fraction(5, 121), "min-admissible")])
def test_deep_runs_match_fraction_replay(theta, selection):
    # squaring denominators: 14 to 16 steps carry the residual past 10 kbit,
    # and from 5/121 past four Toom-3 cutoffs, so the last steps' squares
    # m*m take one or two levels of ``rational._square``. From 5/121 a
    # 17th step squares an m past the Schönhage–Strassen cutoff, in the
    # expansion and in its replay; its first 16 steps are the 16-term run
    policy = WgaaPolicy(t=Fraction(2), selection=selection)
    deep = theta == Fraction(5, 121)
    run = wgaa_expand(theta, policy, 17 if deep else 16)
    least = 4 * _TOOM_BITS if deep else 10_000
    assert run.residuals[-1].denominator.bit_length() > least
    if deep:
        assert (run.a[-1] - 1).bit_length() >= _SSA_BITS  # the last m
    r = theta
    for a, b, got in zip(run.a, run.b, run.residuals):
        assert a == r.denominator // r.numerator + 1
        r -= Fraction(1, b)
        assert (got.numerator, got.denominator) == (r.numerator, r.denominator)
    replay = recover_shadow(run.b, theta)
    assert replay.a == run.a and replay.residuals == run.residuals


# ------------------------------------------------- long squares of a walk

@pytest.fixture
def kernel_calls(monkeypatch):
    """Operand lengths of every call of the long square ``rational._square``."""
    calls = []
    square = rational._square

    def counted(x):
        calls.append(x.bit_length())
        return square(x)

    monkeypatch.setattr(rational, "_square", counted)
    return calls


@pytest.fixture
def fresh_memo():
    rational._squares.clear()
    return rational._squares


def long_operands(a):
    """The operands m = a_n - 1 a walk with shadows a squares by the long
    kernel."""
    return {x - 1 for x in a if (x - 1).bit_length() >= _TOOM_BITS}


def fraction_walk(theta, n_terms, choose):
    """Shadows, choices and residuals by plain Fraction arithmetic."""
    r, a, b, residuals = theta, [], [], []
    for n in range(1, n_terms + 1):
        a.append(r.denominator // r.numerator + 1)
        b.append(choose(n, a[-1]))
        r -= Fraction(1, b[-1])
        residuals.append(r)
    return tuple(a), tuple(b), tuple(residuals)


def test_replay_and_growth_check_read_every_long_square_back(fresh_memo,
                                                             kernel_calls):
    # from 3/7 the 18th greedy step squares an m past the
    # Schönhage–Strassen cutoff
    theta = Fraction(3, 7)
    run = greedy_expand(theta, 18)
    assert (run.a[-1] - 1).bit_length() >= _SSA_BITS
    assert max(kernel_calls) >= _SSA_BITS
    kernel_calls.clear()
    replay = recover_shadow(run.b, theta)
    checks = greedy_ratio_checks(run)
    assert replay.a == run.a and replay.residuals == run.residuals
    assert replay.first_weak_violation is None
    assert len(checks) == 17 and all(c.holds for c in checks)
    assert kernel_calls == []


def test_a_walk_from_another_target_starts_afresh(fresh_memo):
    first = greedy_expand(Fraction(3, 7), 17)
    assert set(fresh_memo) == long_operands(first.a)
    second = wgaa_expand(Fraction(2, 11),
                         WgaaPolicy(t=Fraction(2), selection="min-admissible"),
                         16)
    assert long_operands(second.a)
    assert set(fresh_memo) == long_operands(second.a)
    assert not set(fresh_memo) & long_operands(first.a)


def test_growth_checks_add_nothing(fresh_memo, kernel_calls):
    run = greedy_expand(Fraction(4, 17), 17)
    held = dict(fresh_memo)
    assert held
    kernel_calls.clear()
    greedy_ratio_checks(run)
    assert kernel_calls == []
    # a run the memo knows nothing of: its squares are formed, not kept
    b = 3 ** (_TOOM_BITS * 631 // 1000)
    for d in (1, 2, 2**64):
        greedy_ratio_checks(WeakGreedyRun(Fraction(1, 2), WgaaPolicy.greedy(),
                                          (b + 1 - d,), (b, b * b), ()))
    assert kernel_calls
    assert fresh_memo == held


def test_the_memo_holds_one_walks_squares_at_most(fresh_memo):
    def bits(operands):
        return sum(x.bit_length() for x in operands)

    theta = Fraction(3, 7)
    min_admissible = WgaaPolicy(t=Fraction(2), selection="min-admissible")
    run = greedy_expand(theta, 17)
    walked = [long_operands(run.a)]
    for walk in (lambda: recover_shadow(run.b, theta),
                 lambda: wgaa_expand(Fraction(4, 17), min_admissible, 16),
                 lambda: greedy_expand(Fraction(1, 2), 8),  # no long square
                 lambda: recover_shadow(run.b[:15] + (run.b[15] + 1,), theta),
                 lambda: greedy_expand(Fraction(2, 11), 16)):
        walked.append(long_operands(walk().a))
        assert any(set(fresh_memo) <= operands for operands in walked)
        assert bits(fresh_memo) <= max(map(bits, walked))


@pytest.mark.parametrize("k", [15, 16])
def test_a_replay_that_leaves_the_run_is_exact(fresh_memo, k):
    # from 2/11 greedy steps 15 to 17 square m of 50, 99 and 198 kbit.
    # The replayed list takes a_k + 1 at step k and greedy choices around
    # it, so it meets the run's long squares up to step k and new ones
    # after it
    theta = Fraction(2, 11)
    run = greedy_expand(theta, 17)
    a, b, residuals = fraction_walk(theta, 17, lambda n, a_n: a_n + (n == k))
    assert a[:k] == run.a[:k]
    replay = recover_shadow(b, theta)
    assert replay.a == a and replay.residuals == residuals
    assert set(fresh_memo) == long_operands(a[k:])


def test_threads_walking_different_targets_get_the_sequential_results():
    # more threads than cores, each switching often, so walks interleave
    # while their long squares are formed and read back
    jobs = [(Fraction(3, 7), 17), (Fraction(2, 11), 16),
            (Fraction(4, 17), 17), (Fraction(7, 13), 17)]

    def work(theta, n_terms):
        run = greedy_expand(theta, n_terms)
        replay = recover_shadow(run.b, theta)
        return run, replay, greedy_ratio_checks(run)

    want = [work(*job) for job in jobs]
    got = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def target(i):
        barrier.wait()
        got[i] = [work(*jobs[i]) for _ in range(3)]

    threads = [threading.Thread(target=target, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for results, expected in zip(got, want):
        assert results == [expected] * 3
