"""End-to-end acceptance checks.

One test per headline capability.  Each prints a single
"criterion N: PASS" line on success (visible under -s); a failed
assertion makes pytest report the matching FAILED line instead.
Timing bounds are asserted where a capability is only useful fast.
"""
import itertools
import math
import random
import time
from fractions import Fraction as F

from unitfrac import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    TargetSequence,
    WgaaPolicy,
    bracket_misses,
    greedy_expand,
    pair_necessary_closed,
    pair_uniqueness,
    recover_shadow,
    scaled_run_ratio_checks,
    shadow_bound_from_gap,
    theta_partial,
    wgaa_expand,
)
from unitfrac.construct import construct
from unitfrac.diagnostics import greedy_ratio_checks
from unitfrac.families import fibonacci_number
from unitfrac.greedy import _companion
from unitfrac.uniqueness import sweep, uniqueness_consequences

from test_uniqueness import closed_window_count, open_window_count


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS  {detail}")


def test_criterion_1_two_term_runs_and_sandwich():
    def runs():
        g = greedy_expand(F(19, 48), 2)
        w = wgaa_expand(F(19, 48), WgaaPolicy.scaled(F(4, 3)), 2,
                        last_greedy=True)
        return g, w

    runs()  # warm import-time caches before timing
    start = time.perf_counter()
    g, w = runs()
    greedy_sum = F(1, 3) + F(1, 17)
    weak_sum = F(1, 4) + F(1, 7)
    ordered = greedy_sum < weak_sum < F(19, 48)
    elapsed = time.perf_counter() - start

    assert list(g.b) == [3, 17]
    assert list(w.b) == [4, 7]
    assert sum(F(1, d) for d in g.b) == greedy_sum
    assert sum(F(1, d) for d in w.b) == weak_sum
    assert ordered
    assert elapsed < 1e-3
    _report(1, f"greedy [3, 17], weak [4, 7], sums ordered, "
               f"{elapsed * 1e6:.0f} us")


def test_criterion_2_shadow_recovery_500_terms():
    b_values = [n * (n + 2) for n in range(1, 501)]
    start = time.perf_counter()
    replay = recover_shadow(b_values, F(3, 4))
    elapsed = time.perf_counter() - start

    assert list(replay.a) == [n + 1 for n in range(1, 501)]
    assert replay.first_weak_violation is None
    assert elapsed < 1.0
    _report(2, f"a_n = n+1 for all 500 indices, {elapsed:.3f} s")


def test_criterion_3_series_constants_certified():
    jobs = [
        (GeometricFamily(2, 3), 40, F("0.68215"), F(1, 10 ** 5)),
        (GeometricFamily(2, 4), 40, F("0.63165"), F(1, 10 ** 5)),
        (ArithmeticFamily(2, 1), 10 ** 5, F("0.54625"), F(1, 10 ** 4)),
        (ArithmeticFamily(3, 2), 10 ** 5, F("0.34551"), F(1, 10 ** 4)),
    ]
    start = time.perf_counter()
    mids = []
    for family, n_terms, constant, tol in jobs:
        enclosure = theta_partial(family, n_terms)
        assert enclosure.width() < tol
        assert abs(enclosure.midpoint() - constant) < tol
        mids.append(enclosure.midpoint())
    elapsed = time.perf_counter() - start

    closed_21 = math.pi * math.tan(math.sqrt(5) * math.pi / 2) / math.sqrt(5)
    closed_32 = (-2 - math.sqrt(2) * math.pi
                 / math.tan(math.pi / math.sqrt(2))) / 4
    assert abs(float(mids[2]) - closed_21) < 1e-4
    assert abs(float(mids[3]) - closed_32) < 1e-4
    assert elapsed < 10.0
    _report(3, f"four series constants enclosed, two closed forms matched, "
               f"{elapsed:.2f} s")


def test_criterion_4_bracket_verification_four_families():
    assert bracket_misses(*GeometricFamily(2, 3).terms(30)) == []
    assert bracket_misses(*GeometricFamily(2, 4).terms(30)) == []
    assert bracket_misses(*ArithmeticFamily(2, 1).terms(50)) == []
    assert bracket_misses(*ArithmeticFamily(3, 2).terms(50)) == []
    _report(4, "strict bracket containment: geometric to 30, "
               "arithmetic to 50")


def test_criterion_5_fibonacci_identities():
    for n in range(2, 81):
        cassini = (fibonacci_number(n - 1) * fibonacci_number(n + 1)
                   - fibonacci_number(n) ** 2)
        assert cassini == (-1) ** n

    family = FibonacciFamily()
    for n in range(1, 50):
        assert family.b(n) == _companion(family.a(n), family.a(n + 1))

    # at n = 1 the window is (2, 6); flooring the open upper endpoint
    # lands on 6, which the window excludes, while 5 is admissible
    a_pair = [family.a(1), family.a(2)]
    a, a_next = a_pair
    gap = a_next - a
    assert ((a - 1) * (a_next - 1), gap, a * a_next) == (2, 1, 6)
    assert a * a_next // gap == 6
    assert bracket_misses(a_pair, [6]) == [1]
    assert bracket_misses(a_pair, [5]) == []
    assert family.b(1) == 5
    _report(5, "Cassini to 80, parity form = bracket maximum on [1, 49], "
               "n = 1 floor overshoot shown")


def test_criterion_6_uniqueness_oracle_equivalence():
    start = time.perf_counter()
    seen = []
    cases = set()
    for row in sweep(300):
        a, a_next = row.a, row.a_next
        seen.append((a, a_next))
        oracle_open = open_window_count(a, a_next)
        open_verdict = pair_uniqueness(a, a_next)
        assert open_verdict.unique == (oracle_open == 1), (a, a_next)
        assert row.open_count == oracle_open

        oracle_closed = closed_window_count(a, a_next)
        closed_verdict = pair_necessary_closed(a, a_next)
        assert closed_verdict.unique == (oracle_closed == 1), (a, a_next)
        assert row.closed_count == oracle_closed

        assert row.open_agrees and row.closed_agrees, (a, a_next)
        if closed_verdict.unique:
            assert all(uniqueness_consequences(a, a_next).values())
        cases.update((open_verdict.case, closed_verdict.case,
                      row.open_case, row.closed_case))
    elapsed = time.perf_counter() - start
    pairs = len(seen)

    # each pair 2 <= a < a_next <= 300 once
    assert sorted(seen) == list(itertools.combinations(range(2, 301), 2))
    assert pairs == 44551
    assert cases == {"unbounded", "open-divisible", "open-nondivisible",
                     "closed-divisible", "closed-nondivisible"}
    assert elapsed < 30.0
    _report(6, f"{pairs} pairs, both criteria match brute counts, "
               f"consequences hold, {elapsed:.1f} s")


def test_criterion_7_per_step_ratio_bounds():
    rng = random.Random(20260821)
    scaled_runs = 0
    for t in (F(4, 3), F(3, 2), F(2)):
        for _ in range(5):
            q = rng.randint(50, 5000)
            theta = F(rng.randint(1, q - 1), q)
            run = wgaa_expand(theta, WgaaPolicy.scaled(t), 25)
            checks = scaled_run_ratio_checks(run)
            assert len(checks) == 24
            assert all(c.lower_holds and c.upper_holds for c in checks)
            scaled_runs += 1

    greedy_thetas = (F(19, 48), F(7, 13), F(355, 452), F(1, 2),
                     F(9999, 10007))
    for theta in greedy_thetas:
        run = greedy_expand(theta, 12)
        checks = greedy_ratio_checks(run)
        assert len(checks) == 11
        assert all(c.holds for c in checks)

    _report(7, f"{scaled_runs} scaled runs x 24 steps bounded both sides, "
               f"{len(greedy_thetas)} greedy runs grow quadratically")


def test_criterion_8_construction_random_targets():
    rng = random.Random(88)
    start = time.perf_counter()
    for trial in range(100):
        values = [rng.randint(2, 10)]
        jumps = 0
        while jumps < 27:
            if rng.random() < 0.5:
                values.append(values[-1])
            else:
                values.append(values[-1] + rng.randint(1, 7))
                jumps += 1
        seq = TargetSequence.from_explicit(values, "repeat-last-delta")
        result = construct(seq, 25)

        # one record per jump, at exactly the built n with a_n < a_{n+1},
        # the last at the last built index
        a = (*result.a_prefix, result.next_jump_value)
        assert [c.index for c in result.certificates] == [
            n for n in range(1, len(a)) if a[n - 1] < a[n]]
        assert len(result.certificates) == 25
        assert result.certificates[-1].index == len(result.a_prefix)
        assert all(c.lower_margin > 0 and c.upper_margin > 0
                   for c in result.certificates)
        assert result.theta_enclosure.hi < F(1, result.a_prefix[0] - 1)
        if trial % 10 == 0:
            replay = recover_shadow(list(result.b_prefix),
                                    result.theta_enclosure.midpoint())
            assert tuple(replay.a) == result.a_prefix
            assert replay.first_weak_violation is None
    elapsed = time.perf_counter() - start

    assert elapsed < 30.0
    _report(8, f"100 random target sequences built to depth 25 with "
               f"positive margins, {elapsed:.1f} s")


def test_criterion_9_bounded_shadow():
    b_values = [2 ** (n + 1) for n in range(1, 41)]
    replay = recover_shadow(b_values, F(3, 4))
    assert max(replay.a) <= 5

    tail_upper = F(1, 2 ** 41)
    gap, bound = shadow_bound_from_gap(b_values, F(3, 4), tail_upper)
    assert gap == F(1, 4)
    assert bound == 5
    _report(9, f"shadow max {max(replay.a)} <= 5 = bound from gap 1/4")
