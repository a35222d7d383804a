"""Greedy and weak greedy unit-fraction expansion over exact rationals.

A run tracks two integer sequences. The shadow sequence a_n is the greedy
denominator of the running residual before each subtraction; the chosen
sequence b_n is what actually gets subtracted, and weakness means
b_n >= a_n at every step. A policy fixes how b_n is chosen and where the
cap b_n <= ceil(t * a_n) is enforced (the index set Lambda).

Two denominator windows derived from consecutive shadow values live here
because several modules share them. Their ends are integer ratios,
written once as (lo_n, lo_d, hi_n, hi_d) and read through
``rational.integer_bounds``:

* ``admissible_endpoints(a, a_next)``: the open window every weak choice
  b_n lands in when the shadow moves from a to a_next. It is unbounded
  above when the shadow moves by at most one.
* ``telescoping_endpoints(a, a_next)``: the strictly smaller open window
  1/a - 1/a_next < 1/b < 1/(a-1) - 1/(a_next-1), whose reciprocal bounds
  telescope across indices and so certify tail enclosures. Its length is
  1 + (2a - 1)/(a_next - a), so it always contains an integer.
  ``bracket_misses(a, b)`` is the one check of whole sequences against it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .rational import format_rational, greedy_denominator, parse_rational

DEFAULT_MAX_TERMS = 10**4

_SELECTIONS = ("greedy", "ceil-t-a", "min-admissible")


def max_terms() -> int:
    """Term-count cap for expansion requests; UNITFRAC_MAX_TERMS overrides."""
    raw = os.environ.get("UNITFRAC_MAX_TERMS")
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"UNITFRAC_MAX_TERMS is not an integer: {raw!r}") from exc
    if value < 1:
        raise ValueError(f"UNITFRAC_MAX_TERMS must be positive: {value}")
    return value


class ReplayOverrunError(ValueError):
    """Partial sums reached or passed the target, so no shadow exists there."""

    def __init__(self, index: int):
        super().__init__(
            f"partial sum reaches or exceeds the target at index {index}; "
            "the sequence cannot weakly approximate it"
        )
        self.index = index


@dataclass(frozen=True)
class IndexSet:
    """Set of step indices where the cap applies.

    Kinds: "all" (every index), "finite" (exactly the listed indices),
    "cofinite" (every index except the listed ones), and "periodic"
    (indices n with n mod period in residues).
    """

    kind: str
    members: frozenset = frozenset()
    period: int = 0
    residues: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("all", "finite", "cofinite", "periodic"):
            raise ValueError(f"unknown index set kind: {self.kind!r}")
        if self.kind == "periodic":
            if self.period < 1:
                raise ValueError("period must be a positive integer")
            if not self.residues:
                raise ValueError("periodic index set needs at least one residue")
            if any(not 0 <= r < self.period for r in self.residues):
                raise ValueError("residues must lie in [0, period)")

    @classmethod
    def all(cls) -> "IndexSet":
        return cls("all")

    @classmethod
    def finite(cls, members: Iterable[int]) -> "IndexSet":
        return cls("finite", members=frozenset(int(m) for m in members))

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> "IndexSet":
        return cls("cofinite", members=frozenset(int(m) for m in excluded))

    @classmethod
    def periodic(cls, period: int, residues: Iterable[int]) -> "IndexSet":
        return cls("periodic", period=period,
                   residues=frozenset(int(r) for r in residues))

    def contains(self, n: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "finite":
            return n in self.members
        if self.kind == "cofinite":
            return n not in self.members
        return n % self.period in self.residues

    def spec_string(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "finite":
            return "set:" + ",".join(str(m) for m in sorted(self.members))
        if self.kind == "cofinite":
            return "cofinite:" + ",".join(str(m) for m in sorted(self.members))
        return f"periodic:{self.period}:" + ",".join(
            str(r) for r in sorted(self.residues))

    @classmethod
    def parse(cls, text: str) -> "IndexSet":
        text = text.strip()
        if text == "all":
            return cls.all()
        head, _, rest = text.partition(":")
        try:
            if head == "set":
                return cls.finite(_int_list(rest))
            if head == "cofinite":
                return cls.cofinite(_int_list(rest))
            if head == "periodic":
                period_text, _, residues_text = rest.partition(":")
                return cls.periodic(int(period_text), _int_list(residues_text))
        except ValueError as exc:
            raise ValueError(f"bad index set spec {text!r}: {exc}") from exc
        raise ValueError(f"bad index set spec {text!r}")


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


@dataclass(frozen=True)
class WgaaPolicy:
    """How b_n is chosen: scale factor t, cap index set, selection rule.

    Selections:
      greedy          b_n = a_n
      ceil-t-a        b_n = ceil(t * a_n)
      min-admissible  smallest strictly weak choice, a_n + 1, unless the
                      cap at that index forces a_n
    """

    t: Fraction = Fraction(1)
    lam: IndexSet = field(default_factory=IndexSet.all)
    selection: str = "greedy"

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", Fraction(self.t))
        if self.t < 1:
            raise ValueError(f"scale factor t must be >= 1, got {self.t}")
        if self.selection not in _SELECTIONS:
            raise ValueError(f"unknown selection rule: {self.selection!r}")

    @classmethod
    def greedy(cls) -> "WgaaPolicy":
        return cls()

    @classmethod
    def scaled(cls, t: Fraction) -> "WgaaPolicy":
        return cls(t=Fraction(t), lam=IndexSet.all(), selection="ceil-t-a")

    def to_json_dict(self) -> dict:
        return {
            "t": format_rational(self.t),
            "lambda": self.lam.spec_string(),
            "b-selection": self.selection,
        }

    @classmethod
    def from_json_dict(cls, blob: dict) -> "WgaaPolicy":
        return cls(t=parse_rational(blob["t"]),
                   lam=IndexSet.parse(blob["lambda"]),
                   selection=blob.get("b-selection", "greedy"))


@dataclass(frozen=True)
class WeakGreedyRun:
    """Finite prefix of an expansion: shadows, choices, exact residuals."""

    theta: Fraction
    policy: WgaaPolicy
    a: tuple
    b: tuple
    residuals: tuple

    def to_json_dict(self) -> dict:
        return {
            "theta": format_rational(self.theta),
            "t": format_rational(self.policy.t),
            "lambda": self.policy.lam.spec_string(),
            "a": list(self.a),
            "b": list(self.b),
            "residuals": [format_rational(r) for r in self.residuals],
        }


@dataclass(frozen=True)
class ShadowReplay:
    """Result of replaying a denominator list against a target."""

    a: tuple
    residuals: tuple
    first_weak_violation: Optional[int]


def _select_b(policy: WgaaPolicy, n: int, a_n: int) -> int:
    if policy.selection == "greedy":
        return a_n
    if policy.selection == "ceil-t-a":
        return math.ceil(policy.t * a_n)
    # min-admissible, the only rule that reads the cap, and only on Lambda
    cap = math.ceil(policy.t * a_n) if policy.lam.contains(n) else None
    if cap is None or cap >= a_n + 1:
        return a_n + 1
    return a_n


def wgaa_expand(theta: Fraction, policy: WgaaPolicy, n_terms: int,
                last_greedy: bool = False) -> WeakGreedyRun:
    """Expand theta for n_terms steps under the given policy.

    With ``last_greedy`` the final step takes b_n = a_n regardless of the
    policy, which is the right convention for fixed-length approximations:
    the last term has no successor to leave room for.
    """
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"target must lie in (0, 1], got {theta}")
    if n_terms < 1:
        raise ValueError("need at least one term")
    cap = max_terms()
    if n_terms > cap:
        raise ValueError(f"{n_terms} terms exceeds the cap of {cap} "
                         "(set UNITFRAC_MAX_TERMS to raise it)")
    shadows: list[int] = []
    chosen: list[int] = []
    residuals: list[Fraction] = []
    r = theta
    for n in range(1, n_terms + 1):
        a_n = greedy_denominator(r)
        if last_greedy and n == n_terms:
            b_n = a_n
        else:
            b_n = _select_b(policy, n, a_n)
        # any weak choice keeps the residual positive: 1/b <= 1/a < r
        r = r - Fraction(1, b_n)
        shadows.append(a_n)
        chosen.append(b_n)
        residuals.append(r)
    return WeakGreedyRun(theta=theta, policy=policy, a=tuple(shadows),
                         b=tuple(chosen), residuals=tuple(residuals))


def greedy_expand(theta: Fraction, n_terms: int) -> WeakGreedyRun:
    """Pure greedy expansion: b_n = a_n at every step."""
    return wgaa_expand(theta, WgaaPolicy.greedy(), n_terms)


def recover_shadow(b: Sequence[int], theta: Fraction) -> ShadowReplay:
    """Replay a denominator list against theta and recover the shadows.

    Weakness failures (b_n below the recovered shadow) are reported via
    ``first_weak_violation``; they do not abort the replay on their own.
    The replay does abort, with ReplayOverrunError, as soon as the running
    residual is no longer positive, because no shadow exists there.
    """
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError(f"target must lie in (0, 1], got {theta}")
    shadows: list[int] = []
    residuals: list[Fraction] = []
    violation: Optional[int] = None
    r = theta
    for n, b_n in enumerate(b, start=1):
        b_n = int(b_n)
        if b_n < 1:
            raise ValueError(f"denominators must be positive, got {b_n} at {n}")
        if r <= 0:
            raise ReplayOverrunError(n)
        a_n = greedy_denominator(r)
        if violation is None and b_n < a_n:
            violation = n
        r = r - Fraction(1, b_n)
        shadows.append(a_n)
        residuals.append(r)
    return ShadowReplay(a=tuple(shadows), residuals=tuple(residuals),
                        first_weak_violation=violation)


def admissible_endpoints(a_cur: int,
                         a_next: int) -> tuple[int, int, int, int]:
    """Integer ends (lo_n, lo_d, hi_n, hi_d) of the admissible window.

    The window is the open interval (lo_n/lo_d, hi_n/hi_d), with ends
    (a-1)*a'/(a'-a+1) and a*(a'-1)/(a'-a-1). When the shadow advances by
    at most one, hi_d < 1 and the window is unbounded above.
    """
    if not 2 <= a_cur <= a_next:
        raise ValueError(f"need 2 <= a_cur <= a_next, got ({a_cur}, {a_next})")
    return ((a_cur - 1) * a_next, a_next - a_cur + 1,
            a_cur * (a_next - 1), a_next - a_cur - 1)


def telescoping_endpoints(a_cur: int,
                          a_next: int) -> tuple[int, int, int, int]:
    """Integer ends (lo_n, lo_d, hi_n, hi_d) of the telescoping window.

    The ends are (a-1)(a'-1)/(a'-a) and a*a'/(a'-a); both denominators
    are the gap a' - a.
    """
    if a_cur < 2 or a_next <= a_cur:
        raise ValueError(
            f"need 2 <= a_cur < a_next, got ({a_cur}, {a_next})")
    gap = a_next - a_cur
    return (a_cur - 1) * (a_next - 1), gap, a_cur * a_next, gap


def bracket_misses(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Indices n (1-based) where b_n lies outside its telescoping bracket.

    Index n is checked only where the bracket exists: a_{n+1} is given and
    2 <= a_n < a_{n+1}. There b_n must satisfy
    (a_n - 1)(a_{n+1} - 1) < b_n (a_{n+1} - a_n) < a_n a_{n+1}.
    Every other index is skipped, not reported.
    """
    misses = []
    for n in range(1, min(len(a) - 1, len(b)) + 1):
        a_cur, a_next = a[n - 1], a[n]
        if 2 <= a_cur < a_next:
            lo_n, gap, hi_n, _ = telescoping_endpoints(a_cur, a_next)
            if not lo_n < b[n - 1] * gap < hi_n:
                misses.append(n)
    return misses
