"""When does a greedy shadow pair force the denominator?

Between consecutive shadow values a_n < a_{n+1} the denominator b_n is
confined to a rational window.  Two criteria ask whether that window
holds exactly one integer: an open window that is sufficient for the
pair to pin b_n, and a closed one that is necessary.  Both reduce to
divisibility arithmetic on the pair.
"""
from collections import Counter

from unitfrac import (
    necessary_uniqueness,
    pair_necessary_closed,
    pair_uniqueness,
    sufficient_uniqueness,
    sweep,
)

print("selected pairs:")
for a, a_next in ((2, 3), (2, 4), (2, 7), (3, 17), (7, 43), (7, 57)):
    open_v = pair_uniqueness(a, a_next)
    closed_v = pair_necessary_closed(a, a_next)
    print(f"  ({a:2d}, {a_next:2d})  open: unique={str(open_v.unique):5s} "
          f"k={open_v.k:<4d} {open_v.case:18s} "
          f"closed: unique={str(closed_v.unique):5s} k={closed_v.k}")

print("\ncensus of all pairs with 2 <= a < a' <= 120:")
rows = list(sweep(120))
open_unique = sum(r.open_unique for r in rows)
closed_unique = sum(r.closed_unique for r in rows)
disagree = sum(1 for r in rows if not (r.open_agrees and r.closed_agrees))
print(f"  {len(rows)} pairs, {open_unique} open-unique, "
      f"{closed_unique} closed-unique, {disagree} formula/count mismatches")

cases = Counter(r.open_case for r in rows)
print("  open criterion case mix:")
for case, count in sorted(cases.items()):
    print(f"    {case:18s} {count}")

print("\na whole sequence can be forced term by term:")
for seq in ([2, 7, 57], [2, 7, 43], [2, 4, 20]):
    suff, _ = sufficient_uniqueness(seq)
    nec, _ = necessary_uniqueness(seq)
    print(f"  {seq}: sufficient={suff} necessary={nec}")
print("with targets 2, 7, 57 every window holds a single integer, so any")
print("weak expansion shadowing them must use exactly those denominators.")
