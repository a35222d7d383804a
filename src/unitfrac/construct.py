"""Build a unit-fraction sequence whose greedy shadow hits given targets.

Given a non-decreasing target sequence a_1 <= a_2 <= ... with a_1 >= 2 and
infinitely many strict increases, this module produces denominators b_n
such that every theta inside the reported enclosure satisfies: expanding
theta greedily while subtracting the prescribed 1/b_n keeps the running
residual r inside (1/a_n, 1/(a_n - 1)) at every built index.  The shadow
of the b sequence is then exactly the target prefix, for every admissible
theta at once.

The construction works plateau by plateau.  At the last index of each
plateau (a jump), b is the largest integer whose reciprocal fits the
telescoping bracket between consecutive values; half the leftover bracket
slack is banked as theta_j.  Interior plateau positions get a large
constant filler chosen so all fillers from plateau j onward spend less
than the banked slack theta_k for every k <= j, with a dyadic discount
splitting each budget across later plateaus.  Exact suffix sums turn the
claim into per-index certificates with strictly positive margins.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .rational import RationalInterval, format_rational, integer_bounds
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

    def __init__(self, fn: Callable[[int], int], label: str = "callable"):
        self._fn = fn
        self._cache: list[int] = []
        self.label = label

    @classmethod
    def from_explicit(cls, values, continue_rule: Optional[str] = None):
        """Wrap literal terms; continue_rule 'repeat-last-delta' extends
        them arithmetically with the final difference."""
        vals = tuple(values)
        if not vals:
            raise InvalidSequence("no terms given")
        if continue_rule is None:
            def fn(n, _v=vals):
                if n > len(_v):
                    raise DepthExhausted(f"only {len(_v)} terms available")
                return _v[n - 1]
            return cls(fn, label="explicit")
        if continue_rule != "repeat-last-delta":
            raise ValueError(f"unknown continuation rule {continue_rule!r}")
        if len(vals) < 2:
            raise InvalidSequence("need two terms to repeat a difference")
        delta = vals[-1] - vals[-2]

        def fn(n, _v=vals, _d=delta):
            if n <= len(_v):
                return _v[n - 1]
            return _v[-1] + _d * (n - len(_v))
        return cls(fn, label="explicit")

    @classmethod
    def from_family(cls, family):
        return cls(family.a, label=family.kind())

    @classmethod
    def from_callable(cls, fn: Callable[[int], int]):
        return cls(fn)

    def term(self, n: int) -> int:
        if n < 1:
            raise ValueError("indices start at 1")
        while len(self._cache) < n:
            k = len(self._cache) + 1
            value = self._fn(k)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidSequence(f"term {k} is not an integer")
            if k == 1:
                if value < 2:
                    raise InvalidSequence("first target must be at least 2")
            elif value < self._cache[-1]:
                raise InvalidSequence(f"targets decrease at index {k}")
            self._cache.append(value)
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


def jump_tail_enclosure(b_terms, a_after: int) -> RationalInterval:
    """Open enclosure of sum(1/b) + (tail following a jump to a_after)."""
    if a_after < 2:
        raise ValueError("a_after must be at least 2")
    s = sum((Fraction(1, b) for b in b_terms), Fraction(0))
    return RationalInterval(s + Fraction(1, a_after),
                            s + Fraction(1, a_after - 1))


def choose_theta(enclosure: RationalInterval, a_cur: int) -> Fraction:
    """Half the gap between the enclosure top and 1/(a_cur - 1).

    Requires the enclosure to sit inside the window that makes a_cur the
    greedy choice: at or above 1/a_cur, strictly below 1/(a_cur - 1).
    """
    top = Fraction(1, a_cur - 1)
    if enclosure.lo < Fraction(1, a_cur):
        raise ValueError("enclosure dips below 1/a_cur")
    if enclosure.hi >= top:
        raise ValueError("enclosure reaches 1/(a_cur - 1)")
    return (top - enclosure.hi) / 2


def _budget(plateau_index: int, thetas) -> Fraction:
    # slack theta_k is split dyadically over plateaus k, k+1, ...; the
    # spend allowed here is the tightest discounted budget
    return min(thetas[k - 1] / 2 ** (plateau_index + 1 - k)
               for k in range(1, plateau_index + 1))


def choose_filler(plateau_index: int, gap: int, thetas) -> int:
    """Smallest constant filler keeping gap terms under every budget."""
    if plateau_index < 1 or gap < 1:
        raise ValueError("plateau index and gap must be positive")
    if len(thetas) < plateau_index:
        raise ValueError("missing slack values")
    return math.floor(gap / _budget(plateau_index, thetas)) + 1


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
    verification_depth: int

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
            "verification-depth": self.verification_depth,
        }


def construct(seq: TargetSequence, depth: int,
              horizon: Optional[int] = None) -> ConstructionResult:
    """Run the construction through `depth` jumps.

    The built prefix ends at the depth-th jump; one further jump is
    located to anchor the tail, so depth+1 strict increases must occur
    within the scan horizon (default 64*(depth+1) + 1024 indices).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if horizon is None:
        horizon = 64 * (depth + 1) + 1024

    # stop at the (depth+1)-th jump: targets past it are never evaluated
    jumps = list(itertools.islice(jump_set(seq, horizon - 1), depth + 1))
    if len(jumps) <= depth:
        raise DepthExhausted(
            f"only {len(jumps)} jumps within horizon {horizon}")

    values = [seq.term(idx) for idx in jumps]
    b_jumps = [choose_b_jump(values[j], values[j + 1])
               for j in range(depth)]
    thetas = [choose_theta(jump_tail_enclosure((b_jumps[j],), values[j + 1]),
                           values[j])
              for j in range(depth)]

    b_prefix: list[int] = []
    fillers: list[Optional[int]] = []
    prev = 0
    for j in range(depth):
        gap = jumps[j] - prev - 1
        if gap > 0:
            # the budget keeps certificates alive; the plateau value
            # keeps each filler a legal weak choice (b_n >= a_n)
            filler = max(choose_filler(j + 1, gap, thetas), values[j])
            fillers.append(filler)
            b_prefix.extend([filler] * gap)
        else:
            fillers.append(None)
        b_prefix.append(b_jumps[j])
        prev = jumps[j]

    future_bound = _budget(depth, thetas)
    last_built = jumps[depth - 1]
    next_value = values[depth]
    a_prefix = seq.prefix(last_built)

    certs: list[StepCertificate] = []
    suffix = Fraction(0)
    tail_lo_base = Fraction(1, next_value)
    tail_hi_base = Fraction(1, next_value - 1) + future_bound
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
        future_filler_bound=future_bound,
        certificates=tuple(certs),
        verification_depth=last_built,
    )
