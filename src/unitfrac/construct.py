"""Build a unit-fraction sequence whose greedy shadow hits given targets.

Given a non-decreasing target sequence a_1 <= a_2 <= ... with a_1 >= 2 and
infinitely many strict increases, this module produces denominators b_n
such that every theta inside the reported enclosure satisfies: expanding
theta greedily while subtracting the prescribed 1/b_n keeps the running
residual r inside (1/a_n, 1/(a_n - 1)) at every built index.  The shadow
of the b sequence is then exactly the target prefix, for every admissible
theta at once.

The pass that reads the targets builds each jump (the last index of a
plateau) as it reaches it.  At jump j, from target a to the next jump's
target a', b is the largest integer whose reciprocal fits the
telescoping bracket, and half the leftover slack,
theta_j = (1/(a-1) - 1/b - 1/(a'-1))/2, is banked.
Each slack is split dyadically over plateaus j, j+1, ..., so plateau j
may spend the running budget B_j = min(B_{j-1}, theta_j)/2, which equals
min over k <= j of theta_k/2^(j+1-k).  Its interior positions get the
constant filler floor(gap/B_j) + 1 (at least a), so all fillers from
plateau j onward spend less than every banked slack theta_k, k <= j.
Two exact margins per index, run back from the end of the prefix by
``_margins``, turn the claim into certificates; each margin must be
strictly positive.

``construct`` is the forward scan ``_scan`` and one run of ``_margins``
on int, whose pairs become the result's Fractions. The command line runs
the same scan and one run of ``_margins`` on exact ``decimal.Decimal``
integers instead, whose digits print in linear time; it makes no
Fraction margin. ``_enclosure`` narrows the index-1 window by its margins
on either number type.
"""
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .rational import (RationalInterval, _coprime, _pair_sum, positive_int,
                       positive_ints)
from .greedy import _companion


class InvalidSequence(ValueError):
    """Targets violate the preconditions (start below 2, decrease, ...)."""


class DepthExhausted(ValueError):
    """Not enough strict increases available for the requested depth."""


class ConstructionError(RuntimeError):
    """Internal certificate check failed; indicates a bug, not bad input."""


class TargetSequence:
    """Lazily evaluated non-decreasing integer targets, 1-indexed.

    ``construct`` reads the targets once, in order, and checks each one
    as it reads it: the first must be at least 2 and later ones may never
    decrease.
    """

    def __init__(self, fn: Callable[[int], int], _given: int = 0):
        self._fn = fn
        self._given = _given  # terms given as data, by from_explicit

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
        return cls(fn, len(vals))

    @classmethod
    def from_family(cls, family):
        return cls(family.a)


class StepCertificate(NamedTuple):
    """Margins by which the residual window holds at one index.

    lower_margin is (suffix sum lower bound) - 1/a_n and upper_margin
    1/(a_n - 1) - (suffix sum upper bound), the suffix sum being 1/b_k over
    the built k >= n plus a tail in (1/a', 1/(a' - 1) + B); both are > 0.
    So lower_n - lower_{n+1} = 1/b_n + 1/a_{n+1} - 1/a_n and
    upper_n - upper_{n+1} = 1/(a_n - 1) - 1/(a_{n+1} - 1) - 1/b_n.
    """

    index: int
    lower_margin: Fraction
    upper_margin: Fraction


class ConstructionResult(NamedTuple):
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


class _Prefix(NamedTuple):
    """The built prefix of one ``_scan``, which ``_margins`` certifies."""

    a_prefix: tuple[int, ...]
    b_prefix: tuple[int, ...]
    jump_indices: tuple[int, ...]
    next_jump_index: int
    next_jump_value: int
    theta_choices: tuple[Fraction, ...]
    filler_values: tuple[Optional[int], ...]
    future_filler_bound: Fraction  # B_j of the last jump


def construct(seq: TargetSequence, depth: int) -> ConstructionResult:
    """Run the construction through `depth` jumps.

    The built prefix ends at the depth-th jump; one further jump is
    located to anchor the tail, so depth+1 strict increases must occur
    within the scan horizon of given + 64*(depth+1) + 1024 indices, where
    given counts the terms passed to ``from_explicit`` (0 otherwise).

    The arithmetic runs on plain ints: theta_j, the budget B_j and both
    margins are pairs (numerator, denominator) in lowest terms with a
    positive denominator. B_j is halved by the parity of its numerator,
    the min is a cross-product, the filler is gap * B_den // B_num + 1,
    and sums are reduced by ``rational._pair_sum``. ``_scan`` builds the
    prefix and ``_margins`` certifies it, here on int; the command line
    calls the two itself and runs ``_margins`` on exact decimal integers
    alone, whose text takes linear time. Each Fraction of the
    result is made once, at the end of its value's computation, by
    ``rational._coprime``, which takes the reduced pair as it is.
    ``Fraction(n, d)`` would reduce it again, and a gcd of two coprime
    10 kbit ints costs quadratic time. On the plateau targets 2, 3, 3, 5,
    5, 5, 8, ... at depth 152, the pairs with ``Fraction(n, d)`` took
    157 ms, ``Fraction`` arithmetic 22 ms and the pairs with ``_coprime``
    14 ms (medians of 15 calls, CPython 3.11.7, 2 vCPUs).
    """
    prefix = _scan(seq, depth)
    certs: list[StepCertificate] = []
    for idx, lower, upper in _margins(prefix, int):
        certs.append(StepCertificate(idx, _coprime(*lower), _coprime(*upper)))
    certs.reverse()
    lo, hi = _enclosure(prefix.a_prefix[0], lower, upper)
    return ConstructionResult(
        theta_enclosure=RationalInterval(_coprime(*lo), _coprime(*hi)),
        certificates=tuple(certs), **prefix._asdict())


def _scan(seq: TargetSequence, depth: int) -> _Prefix:
    """The prefix ``construct`` certifies, built in one forward pass."""
    positive_int(depth, "depth")
    horizon = seq._given + 64 * (depth + 1) + 1024

    # one forward pass reads each target once, in order, and checks it;
    # a rise a_{n-1} < a_n marks jump n-1, which is built at once from
    # a = a_{n-1} and a' = a_n. The pass stops at the (depth+1)-th rise,
    # which anchors the tail, so no later target is evaluated
    a_seen: list[int] = []
    jumps: list[int] = []
    b_prefix: list[int] = []
    thetas: list[Fraction] = []
    fillers: list[Optional[int]] = []
    bn, bd = 1, 0  # the budget B_j as a pair; B_0 = 1/0 is above every slack
    for n in range(1, horizon + 1):
        value = seq._fn(n)  # may raise DepthExhausted, a ValueError
        try:
            positive_int(value, "target", a_seen[-1] if a_seen else 2)
        except ValueError as exc:
            raise InvalidSequence(f"{exc} at {n}") from None
        if a_seen and a_seen[-1] < value:
            if len(jumps) == depth:
                break
            a, a_next = a_seen[-1], value
            b = _companion(a, a_next)
            # half the room left under 1/(a-1) by 1/b and a tail below
            # 1/(a'-1), theta_j = (b*(a'-a) - (a-1)*(a'-1))/(2*(a-1)*b*(a'-1))
            tn = b * (a_next - a) - (a - 1) * (a_next - 1)
            if tn <= 0:
                raise ConstructionError(f"no bracket slack at jump {n - 1}")
            td = 2 * (a - 1) * b * (a_next - 1)
            g = math.gcd(tn, td)
            tn, td = tn // g, td // g
            thetas.append(_coprime(tn, td))
            # B_j = min(B_{j-1}, theta_j)/2 = min_{k<=j} theta_k/2^(j+1-k)
            if tn * bd < bn * td:
                bn, bd = tn, td
            if bn % 2:
                bd *= 2
            else:
                bn //= 2
            gap = n - 2 - (jumps[-1] if jumps else 0)
            if gap > 0:
                # the budget keeps certificates alive; the plateau value
                # keeps each filler a legal weak choice (b_n >= a_n)
                filler = max(gap * bd // bn + 1, a)
                fillers.append(filler)
                b_prefix.extend([filler] * gap)
            else:
                fillers.append(None)
            b_prefix.append(b)
            jumps.append(n - 1)
        a_seen.append(value)
    else:
        raise DepthExhausted(
            f"only {len(jumps)} jumps within horizon {horizon}")

    return _Prefix(
        a_prefix=tuple(a_seen[:jumps[-1]]),
        b_prefix=tuple(b_prefix),
        jump_indices=tuple(jumps),
        next_jump_index=n - 1,
        next_jump_value=a_seen[-1],
        theta_choices=tuple(thetas),
        filler_values=tuple(fillers),
        future_filler_bound=_coprime(bn, bd),
    )


def _margins(prefix: _Prefix, number):
    """(index, lower, upper) for each built index, from the last one back:
    StepCertificate's margins as pairs in lowest terms, run from lower = 0,
    upper = -B and a_{n+1} = next_jump_value, the target that anchors the
    tail.

    Only the running sums pass through ``number``: ``construct`` gives
    int, and the command line gives ``decimal.Decimal`` in an exact
    context, whose digits print in linear time. The constant added at
    each index is reduced in ints of a's size, and ``_pair_sum`` reads
    the same integers either way.
    """
    budget = prefix.future_filler_bound
    lower = number(0), number(1)
    upper = number(-budget.numerator), number(budget.denominator)
    a_next = prefix.next_jump_value
    for idx in range(len(prefix.a_prefix), 0, -1):
        a, b = prefix.a_prefix[idx - 1], prefix.b_prefix[idx - 1]
        # at a jump, the numerators are the gaps in the companion's bracket
        mid = b * (a_next - a)
        ln, ld = a * a_next - mid, b * a * a_next
        un, ud = mid - (a - 1) * (a_next - 1), b * (a - 1) * (a_next - 1)
        g, h = math.gcd(ln, ld), math.gcd(un, ud)
        lower = _pair_sum(*lower, ln // g, ld // g)
        upper = _pair_sum(*upper, un // h, ud // h)
        if lower[0] <= 0 or upper[0] <= 0:
            raise ConstructionError(f"certificate failed at index {idx}")
        yield idx, lower, upper
        a_next = a


def _enclosure(a_1, lower, upper):
    """The theta enclosure (lo, hi) as pairs: the index-1 window
    (1/a_1, 1/(a_1 - 1)) narrowed by that index's margins, lo = lower +
    1/a_1 and hi = 1/(a_1 - 1) - upper, on the margins' number type.
    Each margin is ``_pair_sum``'s first pair, so that only the short
    a_1 passes through ``int``.
    """
    return (_pair_sum(*lower, 1, a_1),
            _pair_sum(-upper[0], upper[1], 1, a_1 - 1))
