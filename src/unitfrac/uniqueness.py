"""When do consecutive greedy values force the weak choice.

Two windows matter for a pair a < a'.  The open admissible window
((a-1)a'/(a'-a+1), a(a'-1)/(a'-a-1)), unbounded above when a' = a + 1,
holds every b realizable by some theta whose consecutive greedy values
are a and a'; when it contains exactly one integer the choice is forced,
and a sequence all of whose pairs are forced has exactly one expansion.
The closed telescoping window [(a-1)(a'-1)/(a'-a), a a'/(a'-a)] is the
outer necessary bound: a unique expansion requires it to hold exactly
one integer at every pair.  Both counts reduce to integer arithmetic.

Each criterion reads one q, r = divmod(a^2, gap) and decides the pair by
one of three rules:
- closed, gap delta = a' - a: a a' = a^2 + a delta, so delta divides a a'
  exactly when r = 0, and then the pair is not unique.  Otherwise it is
  unique exactly when r >= 2a, since q delta = a^2 - r, and
  a^2 - r < (a-1)^2 is r > 2a - 1.  Either way k = a + q.
- open, gap d = a' - a - 1, r = 0: a(a'-1)/d = q + a, so k = a + q - 1.
  The pair is unique exactly when d + 3 >= 2(q + a), since
  a'^2 - (4a-1)a' + a^2 + a - 2 = d (d + 3 - 2(q + a)) once a^2 = q d.
- open, r > 0: k = a + q, and the pair is unique exactly when
  r + 1 >= 2(q + a), since q (d + 2) = a^2 - r + 2q <= (a-1)^2 is that.
"""
import itertools
import operator
import random
from typing import Iterator, NamedTuple, Optional

from .rational import positive_int

# range of the random pairs behind `unique --sample`
_SAMPLE_MAX_START = 50
_SAMPLE_MAX_GAP = 400


class UniquenessVerdict(NamedTuple):
    """Outcome for one consecutive pair.

    index is the pair's place in its sequence, from 1; a lone pair has 0.
    k is the forced value when unique; otherwise a representative
    candidate (the largest in the window, or the smallest when the
    window is unbounded above).
    """

    index: int
    a: int
    a_next: int
    unique: bool
    k: int
    case: str


def _validate_pair(a: int, a_next: int) -> None:
    positive_int(a_next, "a_next", positive_int(a, "a", 2) + 1)


# The criteria below take a pair already validated and return
# (unique, k, case); the verdicts and the census rows both read them.

def _open_criterion(a: int, a_next: int) -> tuple[bool, int, str]:
    if a_next - a <= 1:
        # a' = a + 1: the window is ((a-1)(a+1)/2, infinity)
        return False, (a * a - 1) // 2 + 1, "unbounded"
    d = a_next - a - 1
    q, r = divmod(a * a, d)
    if r == 0:
        return d + 3 >= 2 * (q + a), a + q - 1, "open-divisible"
    return r + 1 >= 2 * (q + a), a + q, "open-nondivisible"


def _closed_criterion(a: int, a_next: int) -> tuple[bool, int, str]:
    q, r = divmod(a * a, a_next - a)
    if r == 0:
        return False, a + q, "closed-divisible"
    return r >= 2 * a, a + q, "closed-nondivisible"


def pair_uniqueness(a: int, a_next: int) -> UniquenessVerdict:
    """Open-window criterion: is the weak choice forced for this pair?"""
    _validate_pair(a, a_next)
    return UniquenessVerdict(0, a, a_next, *_open_criterion(a, a_next))


def pair_necessary_closed(a: int, a_next: int) -> UniquenessVerdict:
    """Closed-window criterion each pair must pass for a unique expansion."""
    _validate_pair(a, a_next)
    return UniquenessVerdict(0, a, a_next, *_closed_criterion(a, a_next))


def _pairwise(a_seq, criterion):
    """(all unique, verdicts) of the criterion over a_seq's pairs."""
    seq = list(a_seq)
    if len(seq) < 2:
        raise ValueError(f"need at least two terms, got {len(seq)}")
    pairs = seq, seq[1:]
    # plain rising ints from 2 pass in one C pass; anything else (a bool,
    # an int subclass, a refused pair) goes to the loop, which names it
    if not (set(map(type, seq)) == {int} and seq[0] > 1
            and all(map(operator.lt, *pairs))):
        for index, (a, a_next) in enumerate(zip(*pairs), 1):
            try:
                _validate_pair(a, a_next)
            except ValueError as exc:
                raise ValueError(
                    f"pair {index} (a={a}, a_next={a_next}): {exc}") from exc
    # no Python frame runs per pair but the criterion's
    column = list(map(criterion, *pairs))
    return (all(map(operator.itemgetter(0), column)),
            tuple(map(tuple.__new__, itertools.repeat(UniquenessVerdict),
                      map(operator.add, zip(range(1, len(seq)), *pairs),
                          column))))


def sufficient_uniqueness(a_seq):
    """(all_unique, verdicts), each verdict indexed from 1, by the open
    window: all_unique when every pair forces its choice, so the
    expansion is unique."""
    return _pairwise(a_seq, _open_criterion)


def necessary_uniqueness(a_seq):
    """(all_unique, verdicts), each verdict indexed from 1, by the closed
    window: all_unique False rules uniqueness out, True leaves it
    possible."""
    return _pairwise(a_seq, _closed_criterion)


def _consequences(a: int, a_next: int) -> tuple[bool, bool, bool, bool]:
    delta = a_next - a
    return (a_next > 3 * a, (a - 1) * (a - 1) % delta != 0,
            (a * a) % delta != 0, (a * a_next) % delta != 0)


def uniqueness_consequences(a: int, a_next: int) -> dict:
    """Divisibility and growth facts that hold for closed-unique pairs."""
    _validate_pair(a, a_next)
    return dict(zip(("ratio_above_3", "pred_square_indivisible",
                     "square_indivisible", "product_indivisible"),
                    _consequences(a, a_next)))


class CensusRow(NamedTuple):
    """One pair of a census: each criterion beside its window count.

    The fields, in order, are the csv columns of ``unique --range`` and
    ``unique --sample``. A count is the number of integers in its window
    (None when the open window is unbounded above); an ``agrees`` field
    says whether the criterion's verdict matches that count being one.
    """

    a: int
    a_next: int
    open_unique: bool
    open_case: str
    open_k: int
    open_count: Optional[int]
    open_agrees: bool
    closed_unique: bool
    closed_case: str
    closed_k: int
    closed_count: int
    closed_agrees: bool
    consequences_ok: bool


def _row(a: int, a_next: int) -> CensusRow:
    # sweep and sample_pairs make only valid pairs; each count comes from
    # its window's ends alone by floor division, never from the criteria,
    # so each row checks a criterion against an independent count.  Both
    # windows are nonempty, so last >= first - 1 and a count is never
    # negative.
    gap = a_next - a
    if gap <= 1:
        open_count = None
    else:
        first = (a - 1) * a_next // (gap + 1) + 1
        last = -(-a * (a_next - 1) // (gap - 1)) - 1
        open_count = last - first + 1
    first = -(-(a - 1) * (a_next - 1) // gap)
    closed_count = a * a_next // gap - first + 1
    open_unique, open_k, open_case = _open_criterion(a, a_next)
    closed_unique, closed_k, closed_case = _closed_criterion(a, a_next)
    # the facts of uniqueness_consequences, tested where they must hold
    consequences_ok = not closed_unique or all(_consequences(a, a_next))
    # tuple.__new__ skips the field-by-field __new__ NamedTuple generates
    return tuple.__new__(CensusRow, (
        a, a_next,
        open_unique, open_case, open_k, open_count,
        open_unique == (open_count == 1),
        closed_unique, closed_case, closed_k, closed_count,
        closed_unique == (closed_count == 1),
        consequences_ok))


def sweep(limit: int) -> Iterator[CensusRow]:
    """Census rows for every pair 2 <= a < a' <= limit, made one at a time."""
    positive_int(limit, "limit", 3)
    return (_row(a, a_next)
            for a in range(2, limit)
            for a_next in range(a + 1, limit + 1))


def sample_pairs(count: int, seed: int) -> Iterator[CensusRow]:
    """Rows for `count` random pairs, made one at a time, fixed by the seed.

    Pair by pair, the start a and then the gap are the draws of
    ``random.Random(seed).randint(2, 50)`` and ``randint(1, 400)``, made
    here by the same rejection from ``getrandbits`` that ``randint``
    makes on CPython 3.10 to 3.13, without its three Python frames per
    draw. The seed is an int >= 0: ``random.seed`` takes |seed|, so a
    negative seed would name the pairs of another.
    """
    positive_int(count, "count")
    positive_int(seed, "seed", 0)
    return _sample_rows(count, random.Random(seed).getrandbits)


def _sample_rows(count: int, getrandbits) -> Iterator[CensusRow]:
    # randint(lo, hi) draws k = (hi - lo + 1).bit_length() bits until the
    # value is below hi - lo + 1, then adds lo
    starts = _SAMPLE_MAX_START - 1
    start_bits = starts.bit_length()
    gap_bits = _SAMPLE_MAX_GAP.bit_length()
    for _ in range(count):
        a = getrandbits(start_bits)
        while a >= starts:
            a = getrandbits(start_bits)
        gap = getrandbits(gap_bits)
        while gap >= _SAMPLE_MAX_GAP:
            gap = getrandbits(gap_bits)
        yield _row(a + 2, a + gap + 3)
