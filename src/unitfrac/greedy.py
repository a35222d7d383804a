"""Greedy and weak greedy unit-fraction expansion over exact rationals.

A run tracks two integer sequences. The shadow sequence a_n is the greedy
denominator of the running residual before each subtraction; the chosen
sequence b_n is what actually gets subtracted, and weakness means
b_n >= a_n at every step. A policy fixes how b_n is chosen; the cap
b_n <= ceil(t * a_n) holds at every index, so the paper's index set is
all of N, and min-admissible at t == 1 is greedy (see ``WgaaPolicy``).

Consecutive shadows a < a' bound the choice between them by the
telescoping bracket 1/a - 1/a' < 1/b < 1/(a-1) - 1/(a'-1), in integers
(a-1)(a'-1) < b (a'-a) < a a'. Its length is 1 + (2a - 1)/(a' - a), so it
always holds an integer. ``bracket_misses(a, b)`` is the one check of
whole sequences against it, which ``verify --bracket`` and ``family``
run, and ``_companion``, its largest integer, the one companion rule,
which ``construct`` and ``families`` take.

One walk, ``_walk``, serves both the chosen denominators of
``wgaa_expand`` and the given ones of ``recover_shadow``, because the
shadow is fixed by the residual alone. It holds the residual as an int
pair (p, q) in lowest terms and makes a Fraction of each residual once.
When p and the step d = b_n - (a_n - 1) are both below ``_WORD_BOUND``
(2**64), the walk builds the next pair from integers, so its one long
product is the square m*m, which ``rational._square`` forms by a
Schönhage–Strassen transform once m passes 124 kbit; every other step is
``rational._pair_sum``, the two gcds of ``Fraction``'s own subtraction.

The walk keeps its long squares. ``_walk_square`` holds every square
m*m of an operand of at least ``_MEMO_BITS`` (8 kbit) bits that a walk
or a growth check of ``diagnostics`` forms, in the memo ``_squares``,
keyed by the operand. ``_walk`` empties the memo when its target is not
the last walk's, so the memo holds every long square formed since the
target last changed. The shadow depends on the residual alone, so a
replay of a run from that target, a longer walk from it, or a growth
check of such a run, meets the same m at every step it shares with them
and reads the square back instead of forming it again; a walk from
another target, even one that forms no long square, releases them.
The deep benchmark checks each run right after replaying it, so its
checks only read; a check on a run the memo does not hold keeps its
squares until a walk from another target starts.

The squares stay held until a walk from another target starts, after
the caller has dropped its run: keys of about 2n bits and squares of
about 4n, n being the last operand's length. That is 0.75 MB after a
20-term greedy walk from 3/7 (n = 1 Mbit), doubling with each further
step; walks from one target under several policies add theirs up.
Walks that overlap in time on threads share the one memo; a hit is
keyed by the operand's value, so they stay exact, and the memo may then
hold the squares of all of them.
"""
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import rational
from .rational import (_coprime, _pair_sum, _unit_target, exact,
                       positive_int, positive_ints)

_MAX_TERMS = 10**4

_WORD_BOUND = 1 << 64
"""Operand bound below which ``_walk`` builds the next residual pair
around the square m*m.

With p and d under one machine word, the new numerator p*d - s has at most
128 bits, so the gcd that reduces the pair is one linear remainder and
the one long product is the square m*m, which ``_walk_square`` forms or
reads back. A long p or d would make that numerator long and that gcd
quadratic, while ``rational._pair_sum`` only needs gcd(q, b), which
stays cheap, so those steps are left to it.
"""

_SELECTIONS = ("greedy", "ceil-t-a", "min-admissible")


class ReplayOverrunError(ValueError):
    """Partial sums reached or passed the target, so no shadow exists there."""

    def __init__(self, index: int):
        super().__init__(
            f"partial sum reaches or exceeds the target at index {index}; "
            "the sequence cannot weakly approximate it"
        )
        self.index = index


class WgaaPolicy(NamedTuple("WgaaPolicy", [("t", Fraction),
                                           ("selection", str)])):
    """How b_n is chosen: scale factor t and selection rule.

    Selections:
      greedy          b_n = a_n
      ceil-t-a        b_n = ceil(t * a_n)
      min-admissible  smallest strictly weak choice, a_n + 1, unless the
                      cap forces a_n

    The cap b_n <= ceil(t * a_n) holds at every index (the paper's index
    set is all of N). As t >= 1 and a_n >= 1, ceil(t * a_n) >= a_n + 1
    exactly when t > 1, so no rule goes past it then, and min-admissible
    at t == 1 is greedy. The cap is the paper's c) as proved here: with
    a_n >= 2, b_n/a_n < t + 1/a_n <= t + 1/2 at every index, and
    b_n/a_n <= t' for every t' > t from some index on; b_n/a_n <= t
    holds under ceil-t-a only where t * a_n is an integer. An immutable
    named tuple; ``_make`` and ``_replace`` go through the constructor's
    checks.
    """

    __slots__ = ()

    def __new__(cls, t: Fraction = Fraction(1),
                selection: str = "greedy") -> "WgaaPolicy":
        t = exact(t)
        if t < 1:
            raise ValueError(f"scale factor t must be >= 1, got {t}")
        if selection not in _SELECTIONS:
            raise ValueError(f"unknown selection rule: {selection!r}")
        return tuple.__new__(cls, (t, selection))

    @classmethod
    def _make(cls, iterable) -> "WgaaPolicy":
        return cls(*iterable)

    @classmethod
    def greedy(cls) -> "WgaaPolicy":
        return cls()

    @classmethod
    def scaled(cls, t: Fraction) -> "WgaaPolicy":
        return cls(t=t, selection="ceil-t-a")


class WeakGreedyRun(NamedTuple):
    """Finite prefix of an expansion: shadows, choices, exact residuals."""

    theta: Fraction
    policy: WgaaPolicy
    a: tuple
    b: tuple
    residuals: tuple


class ShadowReplay(NamedTuple):
    """Result of replaying a denominator list against a target."""

    a: tuple
    residuals: tuple
    first_weak_violation: Optional[int]


def _select_b(policy: WgaaPolicy, a_n: int) -> int:
    if policy.selection == "greedy":
        return a_n
    if policy.selection == "ceil-t-a":
        return -(-policy.t.numerator * a_n // policy.t.denominator)
    # min-admissible: the cap binds only at t == 1 (see WgaaPolicy)
    return a_n if policy.t == 1 else a_n + 1


_MEMO_BITS = 8_000
"""Operand length from which a walk keeps its squares in ``_squares``.

A walk that nobody replays pays for the memo on every square it keeps,
one hash and one insertion beside the square, and a replay or growth
check gains a read in place of a square. On CPython 3.11.7 (x86-64),
medians over 200 random operands: x*x takes 4.2, 47 and 386 us at 2, 8
and 40 kbit, a miss with its insertion 4.8, 49 and 399 us, and a read
0.29, 0.81 and 3.6 us. From this length on a miss costs under 5 % more
than the plain square, while a read is some 60 times cheaper. Over the
deep benchmark's requests in process, each run under every threshold
back to back, the median request took about the same with no threshold
and at 2, 4, 8 and 16 kbit (2.0 to 2.4 ms at seeds 1 and 2, within the
spread of the runs), and 3.0 to 3.2 ms at 40 kbit, which leaves out its
16 and 31 kbit squares.

The threshold is for certify, whose ``verify`` replays of 3500 to
3700-term lists take the word-size step with short m: with none, over 3
alternated 15 s benchmark pairs at seed 1 (CPython 3.11.7, 2 vCPUs,
±30 %), its peak RSS read 40.3–41.1 against 39.5–40.4 MB and its tail
114–181 against 78–101 ms, worse in every pair; deep stayed level.
"""

_squares: dict[int, int] = {}
"""The long squares of the walks from the last target, by operand."""
_target = None  # the target of the last walk


def _walk_square(x: int) -> int:
    """x*x for a walk step or a growth check. A square of at least
    ``_MEMO_BITS`` bits of operand is read from the memo, or formed by
    ``rational._square`` and added. The kernel is looked up at each call,
    so a wrapper put on it sees every long square the memo forms."""
    if x.bit_length() < _MEMO_BITS:
        return x * x
    square = _squares.get(x)
    if square is None:
        square = _squares[x] = rational._square(x)
    return square


def _walk(theta: Fraction, n_terms: int,
          choose: Callable[[int, int], int]) -> tuple[tuple, tuple, tuple]:
    """Shadows, choices and residuals of n_terms steps from theta.

    ``choose(n, a_n)`` gives b_n. The residual r = p/q is carried as an
    int pair in lowest terms, q >= 1, and each one becomes a Fraction once,
    through ``rational._coprime``. With m = q // p, s = q - p*m and
    d = b_n - m, p/q - 1/b_n = (p*d - s) / (p*m*m + (p*d + s)*m + s*d),
    whose denominator is q*b_n written around the square m*m, which
    ``_walk_square`` forms or reads back (see the module docstring). That
    form is taken when p and d lie in a machine word (see
    ``_WORD_BOUND``); every other step is ``rational._pair_sum``, the two
    gcds of ``Fraction``'s own subtraction. Greedy steps (d = 1) never
    raise the numerator and min-admissible steps (d = 2) at most double
    it, so from a word-sized numerator they take the word form for dozens
    of steps.

    The walk raises ReplayOverrunError as soon as the running residual is
    no longer positive, because no shadow exists there; a weak choice
    (1/b_n <= 1/a_n < r) never gets there.
    """
    global _target
    theta = _unit_target(theta)
    if theta != _target:
        _squares.clear()
        _target = theta
    shadows: list[int] = []
    chosen: list[int] = []
    residuals: list[Fraction] = []
    p, q = theta.numerator, theta.denominator
    for n in range(1, n_terms + 1):
        if p <= 0:
            raise ReplayOverrunError(n)
        m = q // p
        b_n = choose(n, m + 1)
        d = b_n - m
        if p < _WORD_BOUND and 0 < d < _WORD_BOUND:
            s = q - p * m
            p, q = p * d - s, p * _walk_square(m) + (p * d + s) * m + s * d
            g = math.gcd(p, q)
            if g != 1:
                p, q = p // g, q // g
        else:
            p, q = _pair_sum(p, q, -1, b_n)
        shadows.append(m + 1)
        chosen.append(b_n)
        residuals.append(_coprime(p, q))
    return tuple(shadows), tuple(chosen), tuple(residuals)


def wgaa_expand(theta: Fraction, policy: WgaaPolicy, n_terms: int,
                last_greedy: bool = False) -> WeakGreedyRun:
    """Expand theta for n_terms steps, at most 10**4, under the policy.

    With ``last_greedy`` the final step takes b_n = a_n regardless of the
    policy, which is the right convention for fixed-length approximations:
    the last term has no successor to leave room for.
    """
    if positive_int(n_terms, "n_terms") > _MAX_TERMS:
        raise ValueError(f"need at most {_MAX_TERMS} terms, got {n_terms}")
    a, b, residuals = _walk(
        theta, n_terms, lambda n, a_n: a_n if last_greedy and n == n_terms
        else _select_b(policy, a_n))
    return WeakGreedyRun(theta=Fraction(theta), policy=policy, a=a, b=b,
                         residuals=residuals)


def greedy_expand(theta: Fraction, n_terms: int) -> WeakGreedyRun:
    """Pure greedy expansion: b_n = a_n at every step."""
    return wgaa_expand(theta, WgaaPolicy.greedy(), n_terms)


def recover_shadow(b: Sequence[int], theta: Fraction) -> ShadowReplay:
    """Replay a denominator list against theta and recover the shadows.

    Every b_n must be a positive integer; the whole list is checked before
    the replay starts. Weakness failures (b_n below the recovered shadow)
    are reported via ``first_weak_violation`` and do not abort the replay;
    a residual that is no longer positive aborts it (ReplayOverrunError).

    The replay reads back the long squares of the walks from theta (see
    the module docstring).
    """
    b = positive_ints(b, "denominator")
    a, _, residuals = _walk(theta, len(b), lambda n, a_n: b[n - 1])
    violation = next((n for n, (a_n, b_n) in enumerate(zip(a, b), start=1)
                      if b_n < a_n), None)
    return ShadowReplay(a=a, residuals=residuals,
                        first_weak_violation=violation)


def _companion(a_cur: int, a_next: int) -> int:
    """The largest integer strictly inside the telescoping bracket."""
    return (a_cur * a_next - 1) // (a_next - a_cur)


def bracket_misses(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Indices n (1-based) where b_n lies outside its telescoping bracket.

    Index n is checked only where the bracket exists: a_{n+1} is given and
    2 <= a_n < a_{n+1}. There b_n must satisfy
    (a_n - 1)(a_{n+1} - 1) < b_n (a_{n+1} - a_n) < a_n a_{n+1}.
    Every other index is skipped, not reported.
    """
    a = positive_ints(a, "a")
    b = positive_ints(b, "b")
    return [n for n, (a_cur, a_next, b_n) in enumerate(zip(a, a[1:], b), 1)
            if 2 <= a_cur < a_next and not (
                (a_cur - 1) * (a_next - 1) < b_n * (a_next - a_cur)
                < a_cur * a_next)]
