"""Building a weak expansion whose greedy shadow hits chosen targets.

The inverse problem: given a non-decreasing target sequence (a_n),
find denominators (b_n) and a target theta so that replaying b against
theta reproduces exactly those greedy choices.  The construction picks
one denominator per jump of the targets, fills plateaus with large
equal terms sized against geometric budgets, and returns a dyadic
enclosure inside the exact set of thetas; every theta inside it works.
"""
from fractions import Fraction

from unitfrac import format_rational, recover_shadow
from unitfrac.construct import TargetSequence, construct

targets = TargetSequence.from_explicit([2, 2, 3, 3, 4],
                                       continue_rule="repeat-last-delta")
result = construct(targets, depth=3)

print("targets 2, 2, 3, 3, 4, then +1 every step")
print("  jump indices:", [cert.index for cert in result.certificates])
print("  b prefix:    ", list(result.b_prefix))
print("  a prefix:    ", list(result.a_prefix))
iv = result.theta_enclosure
print(f"  theta lies in ({format_rational(iv.lo)}, "
      f"{format_rational(iv.hi)})")
print(f"  enclosure width {float(iv.width()):.3e}, any interior point works")

theta = iv.midpoint()
replay = recover_shadow(list(result.b_prefix), theta)
assert tuple(replay.a) == result.a_prefix
assert replay.first_weak_violation is None
print("  midpoint replay recovers the targets exactly")

print("\none certificate per jump, for every index n of its plateau")
print("(the residual stays inside its greedy slot):")
start = 1
for cert in result.certificates:
    print(f"    jump {cert.index}, n = {start}..{cert.index}, filler "
          f"{cert.filler}: lower margin {float(cert.lower_margin):.3e}, "
          f"upper margin {float(cert.upper_margin):.3e}")
    start = cert.index + 1

print("\ndeepening the same targets narrows the enclosure:")
exact = None
for depth in (2, 4, 6, 8):
    res = construct(targets, depth)
    iv = res.theta_enclosure
    print(f"  depth {depth}: width {float(iv.width()):.3e}")
    if exact is not None:
        assert exact[0] < iv.lo and iv.hi < exact[1]
    # the exact set of thetas, which the printed enclosure rounds inward
    total = sum(Fraction(1, b) for b in res.b_prefix)
    a_tail = res.next_jump_value
    exact = (total + Fraction(1, a_tail),
             total + Fraction(1, a_tail - 1) + res.future_filler_bound)
print("each enclosure lies inside the exact theta set of every shallower")
print("run, so the enclosures converge to a single theta realizing the")
print("full target sequence.")
