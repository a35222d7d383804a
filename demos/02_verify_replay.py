"""Replaying a denominator sequence to audit it against a target.

Given claimed denominators b and a target theta, the replay recomputes
the greedy choice a_n at every step from the exact residual.  The claim
is a weak expansion precisely when b_n >= a_n throughout.  The same
replay exposes where a bad sequence first goes wrong.
"""
from fractions import Fraction

from unitfrac import (
    ReplayOverrunError,
    bracket_misses,
    recover_shadow,
)

# a clean case: b_n = n(n+2) sums to 3/4 and shadows a_n = n+1
b_values = [n * (n + 2) for n in range(1, 301)]
replay = recover_shadow(b_values, Fraction(3, 4))
print("b_n = n(n+2) against theta = 3/4:")
print("  first shadow terms:", list(replay.a[:8]))
assert list(replay.a) == [n + 1 for n in range(1, 301)]
assert replay.first_weak_violation is None
print("  all 300 indices recover a_n = n+1, no weak violation")

# each b_n must also sit strictly inside the bracket spanned by the
# shadow pair around it whenever the shadow strictly increases
misses = bracket_misses(replay.a, b_values)
print("  bracket misses:", misses or "none")

# a sequence that overshoots: 1/2 + 1/3 already exceeds 51/100
print("\nb = [2, 3, 10] against theta = 51/100:")
try:
    bad = recover_shadow([2, 3, 10], Fraction(51, 100))
    print("  first weak violation at index", bad.first_weak_violation)
except ReplayOverrunError as exc:
    print(f"  residual exhausted at index {exc.index}: the partial sums")
    print("  pass theta, so no residual is left to expand")

print("\nb = [2] against theta = 1/2:")
weak = recover_shadow([2], Fraction(1, 2))
print("  shadow a =", list(weak.a), "violation at index",
      weak.first_weak_violation)
print("  the greedy choice for 1/2 is 3, so b_1 = 2 is too eager")
