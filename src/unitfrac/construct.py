"""Build a unit-fraction sequence whose greedy shadow hits given targets.

Given a non-decreasing target sequence a_1 <= a_2 <= ... with a_1 >= 2 and
infinitely many strict increases, this module produces denominators b_n
such that every theta inside the reported enclosure satisfies: expanding
theta greedily while subtracting the prescribed 1/b_n keeps the running
residual r inside (1/a_n, 1/(a_n - 1)) at every built index.  The shadow
of the b sequence is then exactly the target prefix, for every admissible
theta at once.

The construction makes one pass over the jumps (the last index of each
plateau).  At jump j, from target a to the next jump's target a', b is the
largest integer whose reciprocal fits the telescoping bracket, and half
the leftover slack, theta_j = (1/(a-1) - 1/b - 1/(a'-1))/2, is banked.
Each slack is split dyadically over plateaus j, j+1, ..., so plateau j
may spend the running budget B_j = min(B_{j-1}, theta_j)/2, which equals
min over k <= j of theta_k/2^(j+1-k).  Its interior positions get the
constant filler floor(gap/B_j) + 1 (at least a), so all fillers from
plateau j onward spend less than every banked slack theta_k, k <= j.
Exact suffix sums turn the claim into per-index certificates with
strictly positive margins.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .rational import (RationalInterval, format_rational, integer_bounds,
                       positive_int, positive_ints)
from .greedy import telescoping_endpoints


class InvalidSequence(ValueError):
    """Targets violate the preconditions (start below 2, decrease, ...)."""


class DepthExhausted(ValueError):
    """Not enough strict increases available for the requested depth."""


class ConstructionError(RuntimeError):
    """Internal certificate check failed; indicates a bug, not bad input."""


class TargetSequence:
    """Lazily evaluated non-decreasing integer targets, 1-indexed.

    Terms are cached and validated in order: the first must be at least 2
    and later ones may never decrease.
    """

    def __init__(self, fn: Callable[[int], int]):
        self._fn = fn
        self._cache: list[int] = []

    @classmethod
    def from_explicit(cls, values, continue_rule: Optional[str] = None):
        """Wrap literal terms; continue_rule 'repeat-last-delta' extends
        them arithmetically with the final difference."""
        vals = positive_ints(values, "target")
        if not vals:
            raise InvalidSequence("no terms given")
        delta = None
        if continue_rule == "repeat-last-delta":
            if len(vals) < 2:
                raise InvalidSequence("need two terms to repeat a difference")
            delta = vals[-1] - vals[-2]
        elif continue_rule is not None:
            raise ValueError(f"unknown continuation rule {continue_rule!r}")

        def fn(n):
            if n <= len(vals):
                return vals[n - 1]
            if delta is None:
                raise DepthExhausted(f"only {len(vals)} terms available")
            return vals[-1] + delta * (n - len(vals))
        return cls(fn)

    @classmethod
    def from_family(cls, family):
        return cls(family.a)

    def term(self, n: int) -> int:
        positive_int(n, "n")
        while len(self._cache) < n:
            k = len(self._cache) + 1
            least = self._cache[-1] if self._cache else 2
            value = self._fn(k)  # may raise DepthExhausted, a ValueError
            try:
                self._cache.append(positive_int(value, "target", least))
            except ValueError as exc:
                raise InvalidSequence(f"{exc} at {k}") from None
        return self._cache[n - 1]

    def prefix(self, n: int) -> tuple[int, ...]:
        self.term(n)
        return tuple(self._cache[:n])


def jump_set(seq: TargetSequence, horizon: int) -> Iterator[int]:
    """Indices n <= horizon where the targets strictly increase, in order.

    The scan is lazy: when it yields jump n it has evaluated the targets
    through index n + 1 and no further.
    """
    return (n for n in range(1, horizon + 1)
            if seq.term(n) < seq.term(n + 1))


def choose_b_jump(a_cur: int, a_next: int) -> int:
    """Largest integer strictly inside the telescoping bracket."""
    first, last = integer_bounds(*telescoping_endpoints(a_cur, a_next),
                                 True, True)
    if last < first:
        raise ConstructionError("telescoping bracket held no integer")
    return last


@dataclass(frozen=True)
class StepCertificate:
    """Margins by which the residual window holds at one index.

    lower_margin is (suffix sum lower bound) - 1/a_n, upper_margin is
    1/(a_n - 1) - (suffix sum upper bound); both strictly positive.
    """

    index: int
    lower_margin: Fraction
    upper_margin: Fraction

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "lower-margin": format_rational(self.lower_margin),
            "upper-margin": format_rational(self.upper_margin),
        }


@dataclass(frozen=True)
class ConstructionResult:
    a_prefix: tuple[int, ...]
    b_prefix: tuple[int, ...]
    jump_indices: tuple[int, ...]
    next_jump_index: int
    next_jump_value: int
    theta_enclosure: RationalInterval
    theta_choices: tuple[Fraction, ...]
    filler_values: tuple[Optional[int], ...]
    future_filler_bound: Fraction
    certificates: tuple[StepCertificate, ...]

    def to_json_dict(self) -> dict:
        return {
            "a": list(self.a_prefix),
            "b": list(self.b_prefix),
            "jump-indices": list(self.jump_indices),
            "next-jump-index": self.next_jump_index,
            "next-jump-value": self.next_jump_value,
            "theta-enclosure": self.theta_enclosure.to_json_dict(),
            "theta-choices": [format_rational(t) for t in self.theta_choices],
            "filler-values": list(self.filler_values),
            "future-filler-bound": format_rational(self.future_filler_bound),
            "certificates": [c.to_json_dict() for c in self.certificates],
            "verification-depth": len(self.a_prefix),
        }


def construct(seq: TargetSequence, depth: int) -> ConstructionResult:
    """Run the construction through `depth` jumps.

    The built prefix ends at the depth-th jump; one further jump is
    located to anchor the tail, so depth+1 strict increases must occur
    within the scan horizon of 64*(depth+1) + 1024 indices.
    """
    positive_int(depth, "depth")
    horizon = 64 * (depth + 1) + 1024

    # stop at the (depth+1)-th jump: targets past it are never evaluated
    jumps = list(itertools.islice(jump_set(seq, horizon - 1), depth + 1))
    if len(jumps) <= depth:
        raise DepthExhausted(
            f"only {len(jumps)} jumps within horizon {horizon}")

    values = [seq.term(idx) for idx in jumps]
    b_prefix: list[int] = []
    thetas: list[Fraction] = []
    fillers: list[Optional[int]] = []
    budget: Optional[Fraction] = None
    prev = 0
    for j in range(depth):
        a, a_next = values[j], values[j + 1]
        b = choose_b_jump(a, a_next)
        # half the room left under 1/(a-1) by 1/b and a tail below 1/(a'-1)
        theta = (Fraction(1, a - 1) - Fraction(1, b)
                 - Fraction(1, a_next - 1)) / 2
        if theta <= 0:
            raise ConstructionError(f"no bracket slack at jump {jumps[j]}")
        thetas.append(theta)
        # B_j = min(B_{j-1}, theta_j)/2 = min over k <= j of theta_k/2^(j+1-k)
        budget = (theta if budget is None else min(budget, theta)) / 2
        gap = jumps[j] - prev - 1
        if gap > 0:
            # the budget keeps certificates alive; the plateau value
            # keeps each filler a legal weak choice (b_n >= a_n)
            filler = max(math.floor(gap / budget) + 1, a)
            fillers.append(filler)
            b_prefix.extend([filler] * gap)
        else:
            fillers.append(None)
        b_prefix.append(b)
        prev = jumps[j]

    last_built = jumps[depth - 1]
    next_value = values[depth]
    a_prefix = seq.prefix(last_built)

    certs: list[StepCertificate] = []
    suffix = Fraction(0)
    tail_lo_base = Fraction(1, next_value)
    # every filler past the built prefix spends less than B_depth
    tail_hi_base = Fraction(1, next_value - 1) + budget
    for idx in range(last_built, 0, -1):
        suffix += Fraction(1, b_prefix[idx - 1])
        a_here = a_prefix[idx - 1]
        lower = suffix + tail_lo_base - Fraction(1, a_here)
        upper = Fraction(1, a_here - 1) - (suffix + tail_hi_base)
        if lower <= 0 or upper <= 0:
            raise ConstructionError(f"certificate failed at index {idx}")
        certs.append(StepCertificate(idx, lower, upper))
    certs.reverse()

    return ConstructionResult(
        a_prefix=a_prefix,
        b_prefix=tuple(b_prefix),
        jump_indices=tuple(jumps[:depth]),
        next_jump_index=jumps[depth],
        next_jump_value=next_value,
        theta_enclosure=RationalInterval(suffix + tail_lo_base,
                                         suffix + tail_hi_base),
        theta_choices=tuple(thetas),
        filler_values=tuple(fillers),
        future_filler_bound=budget,
        certificates=tuple(certs),
    )
