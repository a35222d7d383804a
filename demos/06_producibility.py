"""Screening observed (a, b) data: could a capped weak process emit it?

A weakness cap t bounds how far b_n may run above the shadow a_n, and
that cap leaves fingerprints: per-step ratio bounds on consecutive
shadow values, and shadow ratios tending to t/(t-1) > 1.  Data whose
shadow ratios collapse to 1 cannot come from any fixed cap; the
classifier scores witnesses over a grid of t values and reports a
verdict, never a proof.
"""
from fractions import Fraction

from unitfrac import (
    DEFAULT_T_GRID,
    GeometricFamily,
    WgaaPolicy,
    classify,
    format_rational,
    scaled_run_ratio_checks,
    shadow_bound_from_gap,
    wgaa_expand,
)

run = wgaa_expand(Fraction(7, 13), WgaaPolicy.scaled(Fraction(3, 2)), 20)
checks = scaled_run_ratio_checks(run)
print("a capped run (t = 3/2) respects its per-step ratio bounds:")
print(f"  20 terms, {sum(c.lower_holds for c in checks)} lower and "
      f"{sum(c.upper_holds for c in checks)} upper bounds hold "
      f"out of {len(checks)}")

fam = GeometricFamily(2, 3)
n = 200
geo_a = [fam.a(k) for k in range(1, n + 1)]
geo_b = [fam.b(k) for k in range(1, n + 1)]
report = classify(geo_a, geo_b, family=fam)
print("\ngeometric family data, shadow ratio 3 declared:")
print("  witnesses by cap:",
      [(format_rational(t), c) for t, c in report.witness_counts[:4]])
print("  verdict:", report.verdict)

quad_a = [k + 1 for k in range(1, n + 1)]
quad_b = [k * (k + 2) for k in range(1, n + 1)]
report = classify(quad_a, quad_b)
print("\nquadratic data b_n = n(n+2), shadow a_n = n + 1:")
print("  second-half witnesses by cap:",
      [(format_rational(t), c)
       for t, c in report.second_half_witness_counts])
print("  verdict:", report.verdict)
print("  the shadow ratio (n+2)/(n+1) tends to 1, so b_n eventually")
print("  outruns every fixed cap on the grid",
      [format_rational(t) for t in DEFAULT_T_GRID])

print("\nwhen the series leaves a gap under theta, the shadow is bounded:")
b_values = [2 ** (k + 1) for k in range(1, 31)]
gap, bound = shadow_bound_from_gap(b_values, Fraction(3, 4),
                                   Fraction(1, 2 ** 31))
print(f"  b_n = 2^(n+1) toward theta = 3/4 leaves gap "
      f"{format_rational(gap)}; every shadow value is at most {bound}")
