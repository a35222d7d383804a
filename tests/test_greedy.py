"""Greedy and weak greedy expansion engine.

The walk ``fraction_walk`` below recomputes every shadow value from
scratch with raw Fraction arithmetic and asserts the defining window on
each step, so expected sequences frozen here were derived independently
of the engine.
"""
from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitfrac import greedy, rational
from unitfrac.diagnostics import greedy_ratio_checks
from unitfrac.greedy import (
    _MEMO_BITS,
    _WORD_BOUND,
    ReplayOverrunError,
    WeakGreedyRun,
    WgaaPolicy,
    _companion,
    _walk,
    bracket_misses,
    greedy_expand,
    recover_shadow,
    wgaa_expand,
)
from unitfrac.rational import _SSA_BITS
from unitfrac.uniqueness import pair_uniqueness


def fraction_walk(theta, n_terms, choose):
    """Shadows, choices and residuals by plain Fraction arithmetic.

    Each shadow a_n is checked against its window 1/a_n < r <= 1/(a_n - 1),
    and ``choose(n, a_n)`` gives b_n.
    """
    r, a, b, residuals = theta, [], [], []
    for n in range(1, n_terms + 1):
        assert r > 0, "partial sums reached the target inside the walk"
        a.append(r.denominator // r.numerator + 1)
        assert Fraction(1, a[-1]) < r <= Fraction(1, a[-1] - 1)
        b.append(choose(n, a[-1]))
        r -= Fraction(1, b[-1])
        residuals.append(r)
    return tuple(a), tuple(b), tuple(residuals)


# ------------------------------------------------------------ pinned runs

def test_greedy_two_terms_19_48():
    run = greedy_expand(Fraction(19, 48), 2)
    assert list(run.a) == [3, 17]
    assert list(run.b) == [3, 17]
    assert list(run.residuals) == [Fraction(1, 16), Fraction(1, 272)]
    assert fraction_walk(Fraction(19, 48), 2, lambda n, a_n: a_n) == (
        run.a, run.b, run.residuals)


def test_greedy_from_one_gives_sylvester_prefix():
    run = greedy_expand(Fraction(1), 4)
    assert list(run.a) == [2, 3, 7, 43]
    assert fraction_walk(Fraction(1), 4, lambda n, a_n: a_n) == (
        run.a, run.b, run.residuals)


def test_greedy_single_term_one_half():
    assert list(greedy_expand(Fraction(1, 2), 1).a) == [3]


def test_scaled_policy_without_last_greedy():
    run = wgaa_expand(Fraction(19, 48), WgaaPolicy.scaled(Fraction(4, 3)), 2)
    assert list(run.b) == [4, 10]


def test_recover_shadow_frozen():
    # derived by the walk: residuals 3/4 -> 5/12 -> 7/24
    b = [3, 8, 120]
    want, _, _ = fraction_walk(Fraction(3, 4), 3, lambda n, _: b[n - 1])
    assert want == (2, 3, 4)
    rec = recover_shadow(b, Fraction(3, 4))
    assert rec.a == want
    assert rec.first_weak_violation is None


def test_min_admissible_is_smallest_strictly_weak_choice():
    run = wgaa_expand(Fraction(2, 3), WgaaPolicy(t=Fraction(2),
                                                 selection="min-admissible"), 3)
    assert fraction_walk(Fraction(2, 3), 3, lambda n, a_n: a_n + 1) == (
        run.a, run.b, run.residuals)
    assert list(run.b) == [a + 1 for a in run.a]
    # with t = 1 the cap pins the choice back to greedy
    flat = wgaa_expand(Fraction(2, 3), WgaaPolicy(t=Fraction(1),
                                                  selection="min-admissible"), 3)
    assert list(flat.b) == list(flat.a)
    # any t above 1 leaves room for a_n + 1 under ceil(t * a_n), however close
    near_one = WgaaPolicy(t=1 + Fraction(1, 10**30), selection="min-admissible")
    near = wgaa_expand(Fraction(2, 3), near_one, 3)
    assert list(near.b) == [a + 1 for a in near.a]


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


def test_recover_shadow_flags_b_below_the_shadow():
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


def test_recover_shadow_overruns_at_an_exact_zero_residual():
    # 1/2 - 1/2 is exactly 0: the next step has no shadow, and must report
    # the overrun there rather than divide by the zero numerator
    with pytest.raises(ReplayOverrunError) as err:
        recover_shadow([2, 3], Fraction(1, 2))
    assert err.value.index == 2


@pytest.mark.parametrize("b, index", [
    ([2.9, 7.5], 1), ([2, True], 2), ([2, 7, Fraction(50)], 3), (["3"], 1),
    ([2, 2, 7, 0], 4)])
def test_recover_shadow_rejects_non_integers(b, index):
    # int() would truncate 2.9 to 2 and replay a list that was not given;
    # the whole list is checked first, so [2, 2, 7, 0] fails at the 0
    # before its partial sums pass 2/3 at index 3
    with pytest.raises(ValueError, match=f"at {index}$"):
        recover_shadow(b, Fraction(2, 3))


def test_term_cap(monkeypatch):
    with pytest.raises(ValueError, match="10000"):
        greedy_expand(Fraction(2, 3), 10**4 + 1)
    # exactly the cap runs, shown at a cap of 4 rather than by walking 10**4
    # terms
    monkeypatch.setattr(greedy, "_MAX_TERMS", 4)
    run = greedy_expand(Fraction(355, 452), 4)
    assert len(run.b) == 4
    with pytest.raises(ValueError, match="at most 4 terms, got 5$"):
        greedy_expand(Fraction(355, 452), 5)


# ---------------------------------------------------------------- intervals

def test_integer_routes_match_reciprocal_oracle():
    # bracket_misses, _companion and the unbounded k read integer window
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
            assert _companion(a, a_next) == best
            # the admissible window is unbounded above exactly when its
            # lower reciprocal bound 1/a - 1/(a_next - 1) is not positive
            if Fraction(1, a) <= Fraction(1, a_next - 1):
                top = Fraction(1, a - 1) - Fraction(1, a_next)
                tn, td = top.numerator, top.denominator
                k = pair_uniqueness(a, a_next).k
                assert td < tn * k and not td < tn * (k - 1), (a, a_next)


def test_bracket_length_identity():
    # the bracket on b, reciprocal to 1/a - 1/a' < 1/b < 1/(a-1) - 1/(a'-1),
    # is 1 + (2a - 1)/(a' - a) long, hence always holds an integer
    for a in range(2, 40):
        for nxt in range(a + 1, a + 40):
            lo = 1 / (Fraction(1, a - 1) - Fraction(1, nxt - 1))
            hi = 1 / (Fraction(1, a) - Fraction(1, nxt))
            assert hi - lo == 1 + Fraction(2 * a - 1, nxt - a)
            # the integer ends that bracket_misses and _companion read
            assert lo == Fraction((a - 1) * (nxt - 1), nxt - a)
            assert hi == Fraction(a * nxt, nxt - a)
            assert lo < _companion(a, nxt) < hi <= _companion(a, nxt) + 1


def test_bracket_misses_skips_a_plateau():
    # a_1 = a_2 has no bracket: b_1 = 7 is skipped, not reported, though
    # with gap 0 it would miss; b_2 = 5 lies in (2, 6)
    assert bracket_misses([2, 2, 3], [7, 5]) == []
    assert bracket_misses([2, 2, 3], [7, 6]) == [2]


# ---------------------------------------------------------------- policies

def test_policy_validation():
    # replaying a given list is recover_shadow's job, not a selection rule
    with pytest.raises(ValueError):
        WgaaPolicy(t=Fraction(2), selection="explicit")
    with pytest.raises(ValueError):
        WgaaPolicy(t=Fraction(1, 2))
    for inexact in (1.1, True):
        with pytest.raises(ValueError, match="exact rational"):
            WgaaPolicy(t=inexact)
    with pytest.raises(ValueError):
        WgaaPolicy(selection="nope")


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
    policy = WgaaPolicy(t=t, selection=selection)
    run = wgaa_expand(theta, policy, n)
    r_prev = theta
    for k in range(n):
        a, b = run.a[k], run.b[k]
        assert b >= a
        # the cap holds at every index, whatever the rule: this is why a
        # policy carries no index set (the paper's set is all of N)
        assert b <= math.ceil(t * a)
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


def test_desk_scale_residual_decay():
    for theta in (Fraction(7, 9), Fraction(355, 452), Fraction(19, 48)):
        run = greedy_expand(theta, 5)
        assert run.residuals[-1] < Fraction(1, 10**6)


# ------------------------------------------------------------ step kernel

W = _WORD_BOUND


def step_case(p, q, d):
    """(r, b) with r = p/q reduced and b = m + d for m = q // p, or None."""
    r = Fraction(p, q)
    b = r.denominator // r.numerator + d
    return (r, b) if b >= 1 else None


def one_step(r, b):
    """The residual of one walk step from r with the chosen b."""
    _, _, residuals = _walk(r, 1, lambda n, a_n: b)
    return residuals[0]


# numerators and steps on both sides of the word bound; d <= 0 is a b at
# or below m, so below its shadow m + 1, and its residual overruns when
# p*d - s <= 0
numerators = st.one_of(st.integers(1, 2**16), st.integers(W - 2**8, W + 2**8),
                       st.integers(W, 2**200))
steps = st.one_of(st.integers(1, 3), st.integers(W - 2**8, W + 2**8),
                  st.integers(W, 2**300), st.integers(-2**64, 0))


@settings(max_examples=400, deadline=None)
@given(numerators, st.integers(0, 2**400), steps)
def test_walk_step_matches_fraction_subtraction(p, extra, d):
    case = step_case(p, p + extra, d)
    if case is not None:
        r, b = case
        got = one_step(r, b)
        want = r - Fraction(1, b)
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)


def test_walk_step_at_the_guard():
    q = 2**521 - 1  # prime, so every p below it gives a reduced p/q
    for p in (1, 2, W - 1, W, W + 1):
        for d in (-3, 0, 1, 2, W - 1, W, W + 1):
            r, b = step_case(p, q, d)
            got = one_step(r, b)
            want = r - Fraction(1, b)
            assert (got.numerator, got.denominator) == \
                (want.numerator, want.denominator)
            if d <= 0:
                assert want <= 0  # b below the shadow overruns r here
    # an exact unit fraction: s = 0 and the step lands on zero, reduced
    # to 0/1 (an unreduced pair would print as 0/7)
    got = one_step(Fraction(1, 7), 7)
    assert got == Fraction(0)
    assert got.denominator == 1


@pytest.mark.parametrize("theta, selection", [
    (Fraction(1), "greedy"), (Fraction(5, 121), "greedy"),
    (Fraction(2, 3), "min-admissible"), (Fraction(17, 19), "min-admissible"),
    (Fraction(5, 121), "min-admissible")])
def test_deep_runs_match_fraction_replay(theta, selection):
    # squaring denominators: 14 to 16 steps carry the residual past 10 kbit,
    # so the last steps' squares m*m pass the memo's threshold. From 5/121
    # a 17th step squares an m past the Schönhage–Strassen cutoff, in the
    # expansion and in its replay; its first 16 steps are the 16-term run
    policy = WgaaPolicy(t=Fraction(2), selection=selection)
    deep = theta == Fraction(5, 121)
    run = wgaa_expand(theta, policy, 17 if deep else 16)
    least = 2 * _SSA_BITS if deep else 10_000
    assert run.residuals[-1].denominator.bit_length() > least
    if deep:
        assert (run.a[-1] - 1).bit_length() >= _SSA_BITS  # the last m
    a, _, residuals = fraction_walk(theta, len(run.b),
                                    lambda n, _: run.b[n - 1])
    assert a == run.a and residuals == run.residuals
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
    greedy._squares.clear()
    greedy._target = None
    return greedy._squares


def long_operands(a):
    """The operands m = a_n - 1 a walk with shadows a squares by the long
    kernel."""
    return {x - 1 for x in a if (x - 1).bit_length() >= _MEMO_BITS}


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


def test_a_longer_walk_reads_the_shorter_walks_squares_back(fresh_memo,
                                                            kernel_calls):
    # the 20-term walk from 3/7 reads the 18-term walk's squares back and
    # forms those of steps 19 and 20, the last of an m past 1 Mbit; its
    # replay and growth checks then form none, though the longer walk
    # missed on its 19th step
    theta = Fraction(3, 7)
    short = greedy_expand(theta, 18)
    kernel_calls.clear()
    run = greedy_expand(theta, 20)
    assert run.a[:18] == short.a
    assert (run.a[-1] - 1).bit_length() > 1_000_000
    assert kernel_calls
    assert set(fresh_memo) == long_operands(run.a)
    kernel_calls.clear()
    replay = recover_shadow(run.b, theta)
    checks = greedy_ratio_checks(run)
    assert replay.a == run.a and replay.residuals == run.residuals
    assert len(checks) == 19 and all(c.holds for c in checks)
    assert kernel_calls == []


def test_a_walk_that_forms_no_long_square_releases_the_memo(fresh_memo):
    greedy_expand(Fraction(3, 7), 17)
    assert fresh_memo
    run = greedy_expand(Fraction(1, 2), 8)
    assert not long_operands(run.a)
    assert fresh_memo == {}


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
    b = 3 ** (_MEMO_BITS * 631 // 1000)
    for d in (1, 2, 2**64):
        greedy_ratio_checks(WeakGreedyRun(Fraction(1, 2), WgaaPolicy.greedy(),
                                          (b + 1 - d,), (b, b * b), ()))
    assert kernel_calls
    assert fresh_memo == held


def test_the_memo_holds_one_walks_squares_at_most(fresh_memo):
    # at most the walks from one target: each walk from the last walk's
    # target adds its long squares, and any other empties the memo first
    theta = Fraction(3, 7)
    min_admissible = WgaaPolicy(t=Fraction(2), selection="min-admissible")
    run = greedy_expand(theta, 17)
    target, held = theta, long_operands(run.a)
    assert set(fresh_memo) == held
    for start, walk in (
            (theta, lambda: recover_shadow(run.b, theta)),
            (Fraction(4, 17),
             lambda: wgaa_expand(Fraction(4, 17), min_admissible, 16)),
            (Fraction(1, 2), lambda: greedy_expand(Fraction(1, 2), 8)),
            (theta, lambda: recover_shadow(run.b[:15] + (run.b[15] + 1,),
                                           theta)),
            (theta, lambda: wgaa_expand(theta, min_admissible, 16)),
            (Fraction(2, 11), lambda: greedy_expand(Fraction(2, 11), 16))):
        operands = long_operands(walk().a)
        held = held | operands if start == target else operands
        target = start
        assert set(fresh_memo) == held


@pytest.mark.parametrize("k", [15, 16])
def test_a_replay_that_leaves_the_run_is_exact(fresh_memo, k):
    # from 2/11 greedy steps 15 to 17 square m of 50, 99 and 198 kbit.
    # The replayed list takes a_k + 1 at step k and greedy choices around
    # it, so it meets the run's long squares up to step k and new ones
    # after it, which the memo keeps beside the run's
    theta = Fraction(2, 11)
    run = greedy_expand(theta, 17)
    a, b, residuals = fraction_walk(theta, 17, lambda n, a_n: a_n + (n == k))
    assert a[:k] == run.a[:k]
    replay = recover_shadow(b, theta)
    assert replay.a == a and replay.residuals == residuals
    assert set(fresh_memo) == long_operands(run.a) | long_operands(a)


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
