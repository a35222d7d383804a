"""Growth inequalities and producibility screening.

A run with b_n = ceil(t a_n) at every step obeys two-sided ratio bounds
linking consecutive greedy values; a plain greedy run obeys the squared
growth bound.  For arbitrary (a, b) data the classifier counts, per
weakness level t, how many indices satisfy b_n <= ceil(t a_n).  Witnesses
that persist through the second half of the data are evidence the pair
could come from a fixed-t process, but only a declared ratio limit above
one upgrades that to producible: when a_{n+1}/a_n tends to 1 the bracket
forces b_n/a_n to blow up, so any finite window of witnesses is transient.
"""
from fractions import Fraction
from typing import NamedTuple, Optional

from .greedy import _WORD_BOUND, WeakGreedyRun, _walk_square
from .rational import _unit_target, exact, greedy_denominator, positive_ints

DEFAULT_T_GRID = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
                  Fraction(5), Fraction(10))

_SHORT_RUN = 8
_RATIO_SAMPLE_COUNT = 8

_K = 64
"""Leading bits of each factor that ``_product_gap_below`` multiplies."""


class RatioCheck(NamedTuple):
    """Two-sided growth test between steps index and index+1.

    upper_holds is None at t = 1, where no upper bound applies.
    """

    index: int
    lower_holds: bool
    upper_holds: Optional[bool]


class GreedyGrowthCheck(NamedTuple):
    index: int
    holds: bool


def _product_bounds(u: int, v: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo*2**e <= u*v <= hi*2**e, from the top _K bits."""
    eu = max(u.bit_length() - _K, 0)
    ev = max(v.bit_length() - _K, 0)
    mu, mv = u >> eu, v >> ev
    return mu * mv, (mu + (eu > 0)) * (mv + (ev > 0)), eu + ev


def _product_gap_below(u1: int, v1: int, u2: int, v2: int, c: int) -> bool:
    """Decide u1*v1 - u2*v2 < c exactly, for positive u1, v1, u2, v2, c.

    Each factor is cut to its top _K bits (``_product_bounds``): a factor
    of at most _K bits is kept whole, and a longer one x = m*2**e + r, with
    0 <= r < 2**e and 2**(_K-1) <= m < 2**_K, lies in [m*2**e, (m+1)*2**e].
    So each product u*v lies in [lo*2**e, hi*2**e], where lo and hi are the
    products of the cut factors' ends and e is the sum of their shifts, and
    hi/lo <= (1 + 2**(1-_K))**2 < 1 + 2**(3-_K). Those bounds give one
    interval for the difference, less than 2**(3-_K)*(u1*v1 + u2*v2) wide,
    and the verdict comes from it unless c lies inside it; only then are
    the two exact products formed. With every factor of at most _K bits
    the interval is the difference itself. The ends are built at the
    smaller shift, so they cost shifts and subtractions linear in the
    operands' length instead of two long products.
    """
    lo1, hi1, e1 = _product_bounds(u1, v1)
    lo2, hi2, e2 = _product_bounds(u2, v2)
    e = min(e1, e2)
    c_units = -(-c >> e)  # the least integer n with n*2**e >= c
    if (hi1 << e1 - e) - (lo2 << e2 - e) < c_units:
        return True
    if (lo1 << e1 - e) - (hi2 << e2 - e) >= c_units:
        return False
    return u1 * v1 - u2 * v2 < c


def scaled_run_ratio_checks(run: WeakGreedyRun) -> list[RatioCheck]:
    """Evaluate the ceil-t-a growth bounds along a run.

    With t = tn/td the bounds are 1/a' < ((t-1)a + 2) / ((ta + 1)(a - 1))
    and a'/a < t/(t-1) + 1/a, for a = a_n and a' = a_{n+1}. Both are
    checked cleared of denominators, as integer inequalities. The lower
    one, a(tn a + td - tn) - a'((tn - td)a + 2td) < td, goes to
    ``_product_gap_below``, which rarely needs its long products.
    """
    tn, td = run.policy.t.numerator, run.policy.t.denominator
    checks = []
    for i in range(len(run.a) - 1):
        a, a_next = run.a[i], run.a[i + 1]
        lower = _product_gap_below(a, tn * a + td - tn,
                                   a_next, (tn - td) * a + 2 * td, td)
        if tn == td:
            upper: Optional[bool] = None
        else:
            upper = a_next * (tn - td) < tn * a + (tn - td)
        checks.append(RatioCheck(i + 1, lower, upper))
    return checks


def greedy_ratio_checks(run: WeakGreedyRun) -> list[GreedyGrowthCheck]:
    """b_{n+1} >= b_n(b_n - 1) + 1, the greedy squared-growth bound.

    The walk that made the run squared m = a_n - 1 at step n. With
    d = b_n - m the bound is b*b - b + 1 = m*m + (2d - 1)*m + d*d - d + 1,
    an identity for every m, written around m*m, which ``_walk_square``
    reads from the walk's memo, or forms and keeps there (see
    ``greedy``'s module docstring); the rest is linear. Greedy has d = 1
    and min-admissible d = 2. Where d lies outside [0, 2**64), or a_n is
    missing, m = b_n - 1 and d = 1.
    """
    checks = []
    for i, (b, b_next) in enumerate(zip(run.b, run.b[1:])):
        d = b - run.a[i] + 1 if i < len(run.a) else 1
        if not 0 <= d < _WORD_BOUND:
            d = 1
        m = b - d
        bound = _walk_square(m) + (2 * d - 1) * m + d * d - d + 1
        checks.append(GreedyGrowthCheck(i + 1, b_next >= bound))
    return checks


class ClassificationReport(NamedTuple):
    n_terms: int
    witness_counts: tuple[tuple[Fraction, int], ...]
    second_half_witness_counts: tuple[tuple[Fraction, int], ...]
    ratio_samples: tuple[Fraction, ...]
    closed_form_limit: Optional[Fraction]
    limit_exceeds_one: Optional[bool]
    verdict: str


def classify(a, b, t_grid=DEFAULT_T_GRID,
             family=None) -> ClassificationReport:
    """Screen (a, b) data for fixed-weakness producibility evidence.

    Only data a WGAA run can give is screened: a is a greedy shadow, so
    it is non-decreasing from 2, and each b_n is a weak choice, at least
    a_n. A ValueError names the first index where a_n < 2, a_n < a_{n-1}
    or b_n < a_n; a b_n below a_n would count as a witness at every t.
    A declared ``family`` settles persistent witnesses by its ratio limit,
    so a must be its first len(a) targets; a ValueError names the first
    index where they differ.
    """
    a = positive_ints(a, "a")
    b = positive_ints(b, "b")
    if not a or len(a) != len(b):
        raise ValueError("need equal-length nonempty sequences, got "
                         f"{len(a)} a and {len(b)} b terms")
    for n, (least, x, y) in enumerate(zip((2, *a), a, b), 1):
        if x < least:
            raise ValueError(f"a falls below {least} at index {n}")
        if y < x:
            raise ValueError(f"b falls below a at index {n}")
    if family is not None:
        for n, (x, y) in enumerate(zip(a, family._targets()), 1):
            if x != y:
                raise ValueError(
                    f"a differs from {family.spec_string()} at index {n}")
    t_grid = tuple(t_grid)
    if not t_grid:
        raise ValueError("need at least one weakness level")
    n = len(a)
    half_start = n // 2 + 1

    full = []
    second = []
    for t in t_grid:
        t = exact(t)
        if t < 1:
            raise ValueError("weakness levels must be at least 1")
        # for integer y and t = tn/td: y <= ceil(t*x) iff (y - 1)*td < tn*x
        tn, td = t.numerator, t.denominator
        hits = [(y - 1) * td < tn * x for x, y in zip(a, b)]
        full.append((t, sum(hits)))
        second.append((t, sum(hits[half_start - 1:])))

    take = min(_RATIO_SAMPLE_COUNT, n - 1)
    samples = tuple(Fraction(a[i + 1], a[i])
                    for i in range(n - 1 - take, n - 1))

    limit = None if family is None else family.ratio_limit()
    grows = None if family is None else family.ratio_exceeds_one()

    second_len = n - half_start + 1
    witnessed = any(count == second_len for _, count in second)
    if n < _SHORT_RUN:
        verdict = "inconclusive"
    elif not witnessed or grows is False:
        verdict = "not-producible-evidence"
    elif grows is True:
        verdict = "producible-evidence"
    else:
        verdict = "inconclusive"

    return ClassificationReport(
        n_terms=n,
        witness_counts=tuple(full),
        second_half_witness_counts=tuple(second),
        ratio_samples=samples,
        closed_form_limit=limit,
        limit_exceeds_one=grows,
        verdict=verdict,
    )


def shadow_bound_from_gap(b_prefix, theta: Fraction,
                          tail_upper: Fraction) -> tuple[Fraction, int]:
    """Ceiling on every greedy shadow value when the series misses theta.

    If the full series is at most (prefix sum + tail_upper) and that
    still falls short of theta by a gap c > 0, every residual along the
    expansion stays at least c, so no shadow value can exceed the greedy
    denominator of c.  theta must lie in (0, 1], as for every walk, and
    every b_n must be a positive integer.  Returns (c, bound).
    """
    theta = _unit_target(theta)
    b_prefix = positive_ints(b_prefix, "denominator")
    tail_upper = exact(tail_upper)
    if tail_upper < 0:
        raise ValueError("tail bound must be nonnegative")
    partial = sum((Fraction(1, x) for x in b_prefix), Fraction(0))
    gap = theta - partial - tail_upper
    if gap <= 0:
        raise ValueError("series bound reaches theta; no gap to exploit")
    return gap, greedy_denominator(gap)
