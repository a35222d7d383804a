"""When do consecutive greedy values force the weak choice.

Two windows matter for a pair a < a'.  The open admissible window holds
every b realizable by some theta whose consecutive greedy values are a
and a'; when it contains exactly one integer the choice is forced, and a
sequence all of whose pairs are forced has exactly one expansion.  The
closed telescoping window [(a-1)(a'-1)/(a'-a), a a'/(a'-a)] is the
outer necessary bound: a unique expansion requires it to hold exactly
one integer at every pair.  Both counts reduce to integer arithmetic.
"""
from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Optional

from .greedy import _admissible_ends, _telescoping_ends
from .rational import checked_int, integer_bounds, positive_int

# range of the random pairs behind `unique --sample`
_SAMPLE_MAX_START = 50
_SAMPLE_MAX_GAP = 400


class UniquenessVerdict(NamedTuple):
    """Outcome for one consecutive pair.

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
        lo_n, lo_d, _, _ = _admissible_ends(a, a_next)
        return False, lo_n // lo_d + 1, "unbounded"
    d = a_next - a - 1
    if (a * a) % d == 0:
        k = a * (a_next - 1) // d - 1
        unique = (a_next * a_next - (4 * a - 1) * a_next
                  + (a * a + a - 2)) >= 0
        return unique, k, "open-divisible"
    floor_part = (a * a) // d
    unique = floor_part * (a_next - a + 1) <= (a - 1) * (a - 1)
    return unique, a + floor_part, "open-nondivisible"


def _closed_criterion(a: int, a_next: int) -> tuple[bool, int, str]:
    delta = a_next - a
    floor_part = (a * a) // delta
    if (a * a_next) % delta == 0:
        return False, a + floor_part, "closed-divisible"
    unique = floor_part * delta < (a - 1) * (a - 1)
    return unique, a + floor_part, "closed-nondivisible"


def pair_uniqueness(a: int, a_next: int, index: int = 0) -> UniquenessVerdict:
    """Open-window criterion: is the weak choice forced for this pair?"""
    _validate_pair(a, a_next)
    positive_int(index, "index", 0)
    return tuple.__new__(UniquenessVerdict,
                         (index, a, a_next, *_open_criterion(a, a_next)))


def pair_necessary_closed(a: int, a_next: int,
                          index: int = 0) -> UniquenessVerdict:
    """Closed-window criterion each pair must pass for a unique expansion."""
    _validate_pair(a, a_next)
    positive_int(index, "index", 0)
    return tuple.__new__(UniquenessVerdict,
                         (index, a, a_next, *_closed_criterion(a, a_next)))


def _pairwise(a_seq, *criteria):
    """(all unique, verdicts) per criterion; each pair is checked once."""
    seq = list(a_seq)
    if len(seq) < 2:
        raise ValueError("need at least two terms")
    columns = [[] for _ in criteria]
    for index, (a, a_next) in enumerate(zip(seq, seq[1:]), 1):
        try:
            _validate_pair(a, a_next)
        except ValueError as exc:
            raise ValueError(
                f"pair {index} (a={a}, a_next={a_next}): {exc}") from exc
        for verdicts, criterion in zip(columns, criteria):
            verdicts.append(tuple.__new__(
                UniquenessVerdict, (index, a, a_next, *criterion(a, a_next))))
    return [(all(v.unique for v in c), tuple(c)) for c in columns]


def sufficient_uniqueness(a_seq):
    """True when every pair forces its choice, so the expansion is unique."""
    return _pairwise(a_seq, _open_criterion)[0]


def necessary_uniqueness(a_seq):
    """False rules uniqueness out; True leaves it possible."""
    return _pairwise(a_seq, _closed_criterion)[0]


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
    # sweep and sample_pairs make only valid pairs; the counts come from
    # the window ends alone, never from the criteria, so each row checks a
    # criterion against an independent count.  Both windows are nonempty,
    # so last >= first - 1 and a count is never negative.
    lo_n, lo_d, hi_n, hi_d = _admissible_ends(a, a_next)
    if hi_d < 1:
        open_count = None
    else:
        first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, True, True)
        open_count = last - first + 1
    lo_n, lo_d, hi_n, hi_d = _telescoping_ends(a, a_next)
    first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, False, False)
    closed_count = last - first + 1
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
    """Rows for `count` random pairs, made one at a time, fixed by the seed."""
    positive_int(count, "count")
    rng = random.Random(checked_int(seed, "seed"))
    # pair by pair, the start is drawn before the gap
    starts = (rng.randint(2, _SAMPLE_MAX_START) for _ in range(count))
    return (_row(a, a + rng.randint(1, _SAMPLE_MAX_GAP)) for a in starts)
