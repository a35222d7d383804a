"""Build a unit-fraction sequence whose greedy shadow hits given targets.

Given a non-decreasing target sequence a_1 <= a_2 <= ... with a_1 >= 2 and
infinitely many strict increases, this module produces denominators b_n
such that every theta inside the reported enclosure satisfies: expanding
theta greedily while subtracting the prescribed 1/b_n keeps the running
residual r inside (1/a_n, 1/(a_n - 1)) at every built index.  The shadow
of the b sequence is then exactly the target prefix, for every admissible
theta at once.

Every target sequence ends or rises, and one pass reads it, building
each jump (the last index of a plateau) as it reaches it.  At jump j,
from target a to the next jump's target a', b is the largest integer
whose reciprocal fits the telescoping bracket, and half the leftover
slack, theta_j = (1/(a-1) - 1/b - 1/(a'-1))/2, is banked.
Each slack is split dyadically over plateaus j, j+1, ..., so plateau j
may spend the running budget B_j = min(B_{j-1}, theta_j)/2, which equals
min over k <= j of theta_k/2^(j+1-k).  Its interior positions get the
constant filler floor(gap/B_j) + 1 (at least a), so all fillers from
plateau j onward spend less than every banked slack theta_k, k <= j.

Write N for the number of built indices, a* for ``next_jump_value``, the
target that anchors the tail, S for the sum of 1/b_n over n <= N and B
for the last budget. The exact theta-set is (S + 1/a*, S + 1/(a* - 1) +
B), and the claim holds on it when two margins are positive at every
index n: the lower margin L_n, the suffix sum's lower end minus 1/a_n,
and the upper margin U_n, 1/(a_n - 1) minus the suffix sum's upper end.
Past index N they are L = 0 and U = -B, with a_{N+1} = a*, and each
index n steps them by
L_n - L_{n+1} = 1/b_n + 1/a_{n+1} - 1/a_n and
U_n - U_{n+1} = 1/(a_n - 1) - 1/(a_{n+1} - 1) - 1/b_n.

Lemma. Let J be the first jump at or after n, from a to a'.
- L_n >= 1/(b_J a a'). Each step of L is positive: 1/b inside a plateau,
  and (a a' - b (a' - a))/(b a a') at a jump, whose numerator is a
  positive integer because b (a' - a) < a a'.
- U_n > theta_J. The steps from n to J add up to 2 theta_J less the
  fillers of plateau J from n on, and those of each later plateau i to
  2 theta_i less its fillers. Plateau i's fillers spend
  gap_i/f_i < B_i <= theta_J/2^(i+1-J), and with the tail's B they spend
  less than theta_J, so U_n > 2 theta_J - theta_J.

The certificates are these bounds, one per jump: jump J's pair
(1/(b_J a a'), theta_J) holds at every index of its plateau and is built
as the scan builds jump J. The lemma needs the jump's whole integer
bracket (a - 1)(a' - 1) < b (a' - a) < a a': its left side makes theta_J
positive, and its right side the jump step of L. The scan checks both
sides. The companion meets them on every input, so the
``ConstructionError`` is the proof's own assertion.

The enclosure is the exact theta-set rounded inward onto the grid 2^-k,
k = 4 bits(a*) + bits(N) + 8: 1/a* and each 1/b_n rounded up for lo,
1/(a* - 1), B and each 1/b_n rounded down for hi. Its width loses less
than (2N + 3) 2^-k < 2^-(4 bits(a*) + 6), far below the exact width
1/(a* (a* - 1)) + B, so lo < hi.

The printed enclosures need not nest: a rounded lo at depth d may fall
below the one at depth d - 1. Every enclosure still lies inside the
exact theta-set of every shallower depth, because the exact sets nest.
"""
import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional

from .families import ArithmeticFamily, SequenceFamily
from .rational import (RationalInterval, _coprime, _unit_sums, positive_int,
                       positive_ints)
from .greedy import _companion


class InvalidSequence(ValueError):
    """Targets violate the preconditions (start below 2, decrease, ...)."""


class DepthExhausted(ValueError):
    """Not enough strict increases available for the requested depth."""


class ConstructionError(RuntimeError):
    """A jump's companion missed its bracket; indicates a bug, not bad
    input."""


class TargetSequence(NamedTuple("TargetSequence", [
        ("given", tuple[int, ...]), ("tail", Optional[SequenceFamily])])):
    """Targets, 1-indexed: the terms ``given``, then the family ``tail``'s
    unless it is None. ``construct`` checks each as it reads it: the first
    is at least 2, no term falls below the one before and a tail target
    exceeds it, so every sequence ends or rises. The constructor checks
    both fields, as ``_make`` and ``_replace`` do."""

    __slots__ = ()

    def __new__(cls, given, tail: Optional[SequenceFamily] = None):
        given = positive_ints(given, "target")
        if tail is not None and not isinstance(tail, SequenceFamily):
            raise ValueError(f"tail must be a family or None, got {tail!r}")
        return tuple.__new__(cls, (given, tail))

    @classmethod
    def _make(cls, iterable) -> "TargetSequence":
        return cls(*iterable)

    @classmethod
    def from_explicit(cls, values, continue_rule: Optional[str] = None):
        """Wrap literal terms; 'repeat-last-delta' continues them by their
        last difference when it is positive, and ends them otherwise."""
        given = positive_ints(values, "target")
        if not given:
            raise InvalidSequence("no terms given")
        if continue_rule not in (None, "repeat-last-delta"):
            raise ValueError(f"unknown continuation rule {continue_rule!r}")
        if continue_rule and len(given) < 2:
            raise InvalidSequence("need two terms to repeat a difference")
        delta = given[-1] - given[-2] if continue_rule else 0
        return cls(given, ArithmeticFamily(given[-1] + delta, delta)
                   if delta > 0 else None)

    @classmethod
    def from_family(cls, family):
        return cls((), family)


class JumpCertificate(NamedTuple):
    """One built jump and the lemma's bounds over its plateau (module
    docstring).

    index is the jump J; its plateau runs from the previous jump's index
    + 1, or from 1 for the first jump, through J. filler is the b_n of
    the plateau's indices before J, None when the plateau is J alone.
    With J from a to a', at every index n of the plateau,
    0 < lower_margin = 1/(b_J a a') <= L_n, the suffix sum's lower end
    minus 1/a_n, and 0 < upper_margin = theta_J < U_n, 1/(a_n - 1) minus
    the suffix sum's upper end, the suffix sum being 1/b_k over the built
    k >= n plus a tail in (1/a*, 1/(a* - 1) + B).
    """

    index: int
    filler: Optional[int]
    lower_margin: Fraction
    upper_margin: Fraction


class ConstructionResult(NamedTuple):
    a_prefix: tuple[int, ...]
    b_prefix: tuple[int, ...]
    next_jump_index: int
    next_jump_value: int
    theta_enclosure: RationalInterval
    future_filler_bound: Fraction
    certificates: tuple[JumpCertificate, ...]


def construct(seq: TargetSequence, depth: int) -> ConstructionResult:
    """Run the construction through `depth` jumps.

    The built prefix ends at the depth-th jump and one further rise
    anchors the tail; every sequence ends or rises, so the scan stops.

    The arithmetic runs on plain ints: theta_j and the budget B_j are
    pairs (numerator, denominator) in lowest terms with a positive
    denominator, B_j is halved by the parity of its numerator, the min is
    a cross-product and the filler is gap * B_den // B_num + 1. Each pair,
    and each certificate's 1/(b a a'), becomes a Fraction through
    ``rational._coprime``, which takes it as it is, without a gcd.
    """
    positive_int(depth, "depth")
    given = len(seq.given)
    tail = () if seq.tail is None else seq.tail._targets()

    # one forward pass reads each target once, in order, and checks it;
    # a rise a_{n-1} < a_n marks jump n-1, which is built at once from
    # a = a_{n-1} and a' = a_n. The pass stops at the (depth+1)-th rise,
    # which anchors the tail, so no later target is read
    a_seen: list[int] = []
    b_prefix: list[int] = []
    certificates: list[JumpCertificate] = []
    bn, bd = 1, 0  # the budget B_j as a pair; B_0 = 1/0 is above every slack
    for n, value in enumerate(chain(seq.given, tail), 1):
        try:
            positive_int(value, "target",
                         a_seen[-1] + (n > given) if a_seen else 2)
        except ValueError as exc:
            raise InvalidSequence(f"{exc} at {n}") from None
        if a_seen and a_seen[-1] < value:
            if len(certificates) == depth:
                break
            a, a_next = a_seen[-1], value
            b = _companion(a, a_next)
            # the bracket (a-1)(a'-1) < b*(a'-a) < a*a'; half the room left
            # under 1/(a-1) by 1/b and a tail below 1/(a'-1) is
            # theta_j = (b*(a'-a) - (a-1)*(a'-1))/(2*(a-1)*b*(a'-1))
            mid = b * (a_next - a)
            tn = mid - (a - 1) * (a_next - 1)
            if tn <= 0 or a * a_next <= mid:
                raise ConstructionError(
                    f"companion outside the bracket at jump {n - 1}")
            td = 2 * (a - 1) * b * (a_next - 1)
            g = math.gcd(tn, td)
            tn, td = tn // g, td // g
            theta = _coprime(tn, td)
            # B_j = min(B_{j-1}, theta_j)/2 = min_{k<=j} theta_k/2^(j+1-k)
            if tn * bd < bn * td:
                bn, bd = tn, td
            if bn % 2:
                bd *= 2
            else:
                bn //= 2
            # the plateau's indices before jump n-1 follow the built ones;
            # the budget keeps certificates alive, and the plateau value
            # keeps each filler a legal weak choice (b_n >= a_n)
            gap = n - 2 - len(b_prefix)
            filler = max(gap * bd // bn + 1, a) if gap else None
            b_prefix += [filler] * gap
            b_prefix.append(b)
            certificates.append(JumpCertificate(
                n - 1, filler, _coprime(1, b * a * a_next), theta))
        a_seen.append(value)
    else:
        raise DepthExhausted(f"only {len(certificates)} of {depth + 1} "
                             f"jumps in {given} given terms")

    a_prefix, a_tail = tuple(a_seen[:len(b_prefix)]), a_seen[-1]
    k = 4 * a_tail.bit_length() + len(a_prefix).bit_length() + 8
    # the exact theta-set rounded inward onto the grid
    scale = 1 << k
    below, above = _unit_sums(scale, b_prefix)
    lo = Fraction(above - (-scale // a_tail), scale)
    hi = Fraction(below + scale // (a_tail - 1) + (bn << k) // bd, scale)
    return ConstructionResult(
        a_prefix=a_prefix,
        b_prefix=tuple(b_prefix),
        next_jump_index=n - 1,
        next_jump_value=a_tail,
        theta_enclosure=RationalInterval(lo, hi),
        future_filler_bound=_coprime(bn, bd),
        certificates=tuple(certificates),
    )

