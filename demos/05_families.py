"""Closed-form denominator families and the constants they sum to.

Three families come with closed forms for both the shadow a_n and the
denominator b_n: geometric shadows a0 * r^(n-1), arithmetic shadows
a0 + (n-1)d, and the Fibonacci shadow.  Partial sums plus the one tail
bracket that the companion rule gives every family, rounded outward onto
a 2^-96 grid, give certified rational enclosures for the full series.
"""
import math

from unitfrac import (
    ArithmeticFamily,
    FibonacciFamily,
    GeometricFamily,
    bracket_misses,
    format_rational,
    theta_partial,
)

families = [
    ("geometric a0=2 r=3", GeometricFamily(2, 3), 40),
    ("geometric a0=2 r=4", GeometricFamily(2, 4), 40),
    ("arithmetic a0=2 d=1", ArithmeticFamily(2, 1), 20000),
    ("arithmetic a0=3 d=2", ArithmeticFamily(3, 2), 20000),
    ("fibonacci", FibonacciFamily(), 60),
]

print("first denominators and certified series values:")
for label, family, terms in families:
    b_head = [family.b(n) for n in range(1, 6)]
    assert not bracket_misses(*family.terms(30))
    enclosure = theta_partial(family, terms)
    mid = enclosure.midpoint()
    print(f"  {label:20s} b: {b_head}")
    print(f"  {'':20s} theta = {float(mid):.8f} "
          f"(width {float(enclosure.width()):.1e})")

print("\ntwo of the arithmetic constants have trigonometric closed forms:")
closed_21 = math.pi * math.tan(math.sqrt(5) * math.pi / 2) / math.sqrt(5)
closed_32 = (-2 - math.sqrt(2) * math.pi / math.tan(math.pi / math.sqrt(2))) / 4
mid_21 = theta_partial(ArithmeticFamily(2, 1), 20000).midpoint()
mid_32 = theta_partial(ArithmeticFamily(3, 2), 20000).midpoint()
print(f"  a0=2 d=1: series {float(mid_21):.8f}  "
      f"pi tan(sqrt(5) pi / 2) / sqrt(5) = {closed_21:.8f}")
print(f"  a0=3 d=2: series {float(mid_32):.8f}  "
      f"(-2 - sqrt(2) pi cot(pi / sqrt(2))) / 4 = {closed_32:.8f}")

fib = FibonacciFamily()
print("\nthe fibonacci family has one subtle index:")
print("  a:", [fib.a(n) for n in range(1, 9)])
print("  b:", [fib.b(n) for n in range(1, 9)])
print("  at n = 1 the bracket is (2, 6); its largest interior integer is")
print("  5, one less than the open endpoint 6 that naive flooring picks.")
theta_fib = theta_partial(fib, 60)
print(f"  series value {float(theta_fib.midpoint()):.10f} "
      f"enclosed to width {float(theta_fib.width()):.1e}")
print(f"  as a fraction: midpoint starts "
      f"{format_rational(theta_fib.midpoint())[:40]}...")
