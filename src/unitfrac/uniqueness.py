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
from dataclasses import dataclass

from .greedy import admissible_endpoints, telescoping_endpoints
from .rational import integer_bounds


@dataclass(frozen=True)
class UniquenessVerdict:
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

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "a": self.a,
            "a-next": self.a_next,
            "unique": self.unique,
            "k": self.k,
            "case": self.case,
        }


def _validate_pair(a: int, a_next: int) -> None:
    if a < 2:
        raise ValueError("a must be at least 2")
    if a_next <= a:
        raise ValueError("a_next must exceed a")


def pair_uniqueness(a: int, a_next: int, index: int = 0) -> UniquenessVerdict:
    """Open-window criterion: is the weak choice forced for this pair?"""
    _validate_pair(a, a_next)
    if a_next - a <= 1:
        lo_n, lo_d, _, _ = admissible_endpoints(a, a_next)
        return UniquenessVerdict(index, a, a_next, False, lo_n // lo_d + 1,
                                 "unbounded")
    d = a_next - a - 1
    if (a * a) % d == 0:
        k = a * (a_next - 1) // d - 1
        unique = (a_next * a_next - (4 * a - 1) * a_next
                  + (a * a + a - 2)) >= 0
        return UniquenessVerdict(index, a, a_next, unique, k, "open-divisible")
    floor_part = (a * a) // d
    k = a + floor_part
    unique = floor_part * (a_next - a + 1) <= (a - 1) * (a - 1)
    return UniquenessVerdict(index, a, a_next, unique, k, "open-nondivisible")


def pair_necessary_closed(a: int, a_next: int,
                          index: int = 0) -> UniquenessVerdict:
    """Closed-window criterion each pair must pass for a unique expansion."""
    _validate_pair(a, a_next)
    delta = a_next - a
    k = a + (a * a) // delta
    if (a * a_next) % delta == 0:
        return UniquenessVerdict(index, a, a_next, False, k,
                                 "closed-divisible")
    unique = ((a * a) // delta) * delta < (a - 1) * (a - 1)
    return UniquenessVerdict(index, a, a_next, unique, k,
                             "closed-nondivisible")


def _pairwise(a_seq, checker):
    seq = list(a_seq)
    if len(seq) < 2:
        raise ValueError("need at least two terms")
    verdicts = tuple(checker(seq[i], seq[i + 1], index=i + 1)
                     for i in range(len(seq) - 1))
    return all(v.unique for v in verdicts), verdicts


def sufficient_uniqueness(a_seq):
    """True when every pair forces its choice, so the expansion is unique."""
    return _pairwise(a_seq, pair_uniqueness)


def necessary_uniqueness(a_seq):
    """False rules uniqueness out; True leaves it possible."""
    return _pairwise(a_seq, pair_necessary_closed)


def uniqueness_consequences(a: int, a_next: int) -> dict:
    """Divisibility and growth facts that hold for closed-unique pairs."""
    _validate_pair(a, a_next)
    delta = a_next - a
    return {
        "ratio_above_3": a_next > 3 * a,
        "pred_square_indivisible": (a - 1) * (a - 1) % delta != 0,
        "square_indivisible": (a * a) % delta != 0,
        "product_indivisible": (a * a_next) % delta != 0,
    }


def _row(a: int, a_next: int) -> dict:
    # the counts come from the window ends alone, not from the criteria,
    # so each row checks a criterion against an independent count
    v_open = pair_uniqueness(a, a_next)
    lo_n, lo_d, hi_n, hi_d = admissible_endpoints(a, a_next)
    if hi_d < 1:
        open_count = None
    else:
        first, last = integer_bounds(lo_n, lo_d, hi_n, hi_d, True, True)
        open_count = max(0, last - first + 1)
    v_closed = pair_necessary_closed(a, a_next)
    first, last = integer_bounds(*telescoping_endpoints(a, a_next),
                                 False, False)
    closed_count = max(0, last - first + 1)
    return {
        "a": a,
        "a_next": a_next,
        "open_unique": v_open.unique,
        "open_case": v_open.case,
        "open_k": v_open.k,
        "open_count": open_count,
        "open_agrees": v_open.unique == (open_count == 1),
        "closed_unique": v_closed.unique,
        "closed_case": v_closed.case,
        "closed_k": v_closed.k,
        "closed_count": closed_count,
        "closed_agrees": v_closed.unique == (closed_count == 1),
        "consequences_ok": not v_closed.unique or all(
            uniqueness_consequences(a, a_next).values()),
    }


def sweep(limit: int) -> list[dict]:
    """Criterion-vs-enumeration rows for every pair 2 <= a < a' <= limit."""
    if limit < 3:
        raise ValueError("limit must be at least 3")
    return [_row(a, a_next)
            for a in range(2, limit)
            for a_next in range(a + 1, limit + 1)]


def sample_pairs(count: int, seed: int, max_start: int = 50,
                 max_gap: int = 400) -> list[dict]:
    """Rows for `count` random pairs; deterministic for a given seed."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        a = rng.randint(2, max_start)
        a_next = a + rng.randint(1, max_gap)
        rows.append(_row(a, a_next))
    return rows
