"""The three workloads: seeded request lists, the client and output checks.

Each workload is one client in one process running a closed loop: the next
request goes out when the previous one has returned.  A request list is made
from the seed alone.  Its shape is fixed per workload (how many requests of
each kind, format and size band); the seed picks the values inside each slot
from narrow ranges, so different seeds cost about the same and the figures
can be compared across seeds.

CLI requests call ``unitfrac.cli.main(argv)`` in-process with stdout and
stderr captured.  ``deep`` requests call the library.  Both look the entry
points up at call time, so the tracer's wrappers are seen when installed.

The checks never call the code that produced the output: they parse what was
printed (or returned) and re-derive the claim with plain integer
cross-multiplication.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from unitfrac import cli, diagnostics, greedy

FORMATS = ("json", "csv", "table")

# Python limits int<->str conversion to this many digits by default.
INT_STR_DIGITS = 4300
_DIGIT_LIMIT_RE = re.compile(r"Exceeds the limit \(\d+ digits\)")
# Error class of a CLI request that exits EXIT_VERIFY: the program's own
# verification failed on well-formed input, which is a wrong answer.
VERIFY_FAILED = "verify-failed"


@dataclass(frozen=True)
class Request:
    """One request: ``kind`` is "cli" (args is argv) or "deep"."""

    kind: str
    args: tuple

    def describe(self) -> str:
        return self.kind + " " + " ".join(str(a) for a in self.args)


@dataclass
class Outcome:
    """What a request returned; ``error`` names the failure class or is None."""

    error: Optional[str]
    stdout: str = ""
    result: object = None


# ------------------------------------------------------------------ client

def execute(req: Request) -> Outcome:
    if req.kind == "deep":
        return _execute_deep(req.args)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.args))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a crash here
        return Outcome(f"raised-{type(exc).__name__}", out.getvalue())
    if code == 0:
        return Outcome(None, out.getvalue())
    if code == cli.EXIT_VERIFY:
        return Outcome(VERIFY_FAILED, out.getvalue())
    if _DIGIT_LIMIT_RE.search(err.getvalue()):
        return Outcome("int-str-digits-limit", out.getvalue())
    return Outcome(f"exit-{code}", out.getvalue())


def _policy(kind: str, k: int) -> "greedy.WgaaPolicy":
    if kind == "greedy":
        return greedy.WgaaPolicy.greedy()
    if kind == "min-admissible":
        return greedy.WgaaPolicy(t=Fraction(2), selection="min-admissible")
    return greedy.WgaaPolicy.scaled(Fraction(k + 1, k))


def _execute_deep(args) -> Outcome:
    p, q, kind, k, n_terms = args
    theta = Fraction(p, q)
    try:
        run = greedy.wgaa_expand(theta, _policy(kind, k), n_terms)
        replay = greedy.recover_shadow(run.b, theta)
        growth = diagnostics.greedy_ratio_checks(run)
        ratios = diagnostics.scaled_run_ratio_checks(run)
    except Exception as exc:  # a crash is a failed request, not a crash here
        return Outcome(f"raised-{type(exc).__name__}")
    return Outcome(None, result=(run, replay, growth, ratios))


def fingerprint(outcome: Outcome) -> bytes:
    """Digest of everything a request returned, for byte-identity checks."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(outcome.error).encode())
    h.update(outcome.stdout.encode())
    if outcome.result is not None:
        run, replay, growth, ratios = outcome.result
        last = run.residuals[-1]
        for x in (*run.a, *run.b, last.numerator, last.denominator,
                  *replay.a):
            h.update(x.to_bytes(x.bit_length() // 8 + 1, "little"))
        h.update(repr([c.holds for c in growth]).encode())
        h.update(repr([(c.lower_holds, c.upper_holds) for c in ratios]).encode())
    return h.digest()


# --------------------------------------------------------------- generation

def _cli(*argv) -> Request:
    return Request("cli", tuple(str(a) for a in argv))


def _write_lines(path: Path, values) -> str:
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def _fibonacci_from_2(count: int) -> list[int]:
    """2, 3, 5, 8, ...: Fibonacci numbers from F_3, every term at least 2."""
    out, prev, cur = [], 1, 2
    for _ in range(count):
        out.append(cur)
        prev, cur = cur, prev + cur
    return out


def _family_prefix(rng: random.Random, kind: str, count: int) -> list[int]:
    if kind == "arithmetic":
        a0, d = rng.randint(2, 50), rng.randint(1, 9)
        return [a0 + n * d for n in range(count)]
    if kind == "geometric":
        a0 = rng.randint(2, 9)
        return [a0 * 3**n for n in range(count)]
    return _fibonacci_from_2(count)


def gen_census(rng: random.Random, work: Path) -> list[Request]:
    # Cost order: pairs < samples < a-files < ranges.  Seven cheaper and
    # seven dearer requests put the median latency in the middle of the
    # eight same-sized samples, and the two csv ranges (MB-size output) are
    # the heaviest, so the tail percentile falls among their samples; their
    # size varies by one, so the tail barely moves with the seed.
    reqs = []
    for base, spread, fmt in ((120, 2, "json"), (120, 2, "table"),
                              (150, 1, "csv"), (150, 1, "csv")):
        reqs.append(_cli("unique", "--range", base + rng.randint(-spread, spread),
                         "--format", fmt))
    for i in range(8):
        reqs.append(_cli("unique", "--sample", 2000 + rng.randint(0, 80),
                         "--seed", rng.randrange(10**6),
                         "--format", ("json", "table")[i % 2]))
    lengths = {"arithmetic": (5000, 5200), "fibonacci": (2100, 2200),
               "geometric": (700, 750)}
    for i, kind in enumerate(("arithmetic", "fibonacci", "geometric",
                              "arithmetic")):
        values = _family_prefix(rng, kind, rng.randint(*lengths[kind]))
        path = _write_lines(work / f"census-a-{i}.txt", values)
        reqs.append(_cli("unique", "--a-file", path, "--format", FORMATS[i % 3]))
    for i in range(6):
        a = rng.randint(2, 5000)
        reqs.append(_cli("unique", "--pair", a, a + rng.randint(1, 5000),
                         "--format", FORMATS[i % 3]))
    return reqs


# (policy, target bits of the last residual denominator, requests).  With
# the four ceil-t-a requests, eight requests cost less than a greedy 125 kbit
# one and eight cost more, so the median latency falls in the middle of
# those six same-sized requests; the two 2 Mbit ones set the tail.
DEEP_SLOTS = (("greedy", 2_000_000, 2),
              ("greedy", 500_000, 2), ("min-admissible", 500_000, 2),
              ("min-admissible", 125_000, 2), ("greedy", 125_000, 6),
              ("greedy", 32_000, 2), ("min-admissible", 32_000, 2))
DEEP_SCALED = 4  # ceil-t-a requests with t = 1 + 1/k


def _steps_to_bits(p: int, q: int, kind: str, bits: int, max_steps: int):
    """Steps of the expansion of p/q until its residual denominator has at
    least ``bits`` bits; returns (steps, bits) or None past max_steps."""
    for n in range(1, max_steps + 1):
        b = q // p + 1 + (kind == "min-admissible")
        p, q = p * b - q, q * b
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q.bit_length() >= bits:
            return n, q.bit_length()
    return None


def _small_theta(rng: random.Random) -> tuple[int, int]:
    while True:
        q = rng.randint(3, 300)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return p, q


def gen_deep(rng: random.Random, work: Path) -> list[Request]:
    # Greedy and min-admissible runs square the residual denominator every
    # step, so one with B/4 bits after n steps has about B bits two steps
    # later.  Drawing theta until that lands within 5 % of B/4 keeps every
    # request of a slot near-constant in cost, whatever the seed.
    # ceil-t-a runs grow a geometrically, so their operands stay at a few
    # hundred bits; they cover the policy, not big-integer cost.
    reqs = []
    for kind, bits, count in DEEP_SLOTS:
        for _ in range(count):
            while True:
                p, q = _small_theta(rng)
                hit = _steps_to_bits(p, q, kind, bits // 4, 18)
                if hit and hit[0] >= 12 and hit[1] < 1.05 * bits / 4:
                    reqs.append(Request("deep", (p, q, kind, 0, hit[0] + 2)))
                    break
    for _ in range(DEEP_SCALED):
        reqs.append(Request("deep", (*_small_theta(rng), "ceil-t-a",
                                     rng.randint(2, 64), rng.randint(14, 20))))
    return reqs


def _plateau_targets(jumps: int) -> list[int]:
    """2, 3, 3, 5, 5, 5, 8, ...: plateau lengths cycle through 1..4 and
    steps through 1..3.  The seed picks only the depth, because these
    requests set the workload's peak memory."""
    values, value = [], 2
    for j in range(jumps):
        values.extend([value] * (1 + j % 4))
        value += 1 + j % 3
    values.append(value)
    return values


def _built_prefix(construct_result) -> tuple[list[int], str]:
    """b prefix and a target inside the construction's theta enclosure."""
    iv = construct_result.theta_enclosure
    theta = (iv.lo + iv.hi) / 2
    bits = max(theta.numerator, theta.denominator).bit_length()
    if bits * math.log10(2) >= INT_STR_DIGITS:
        raise ValueError("verify target too large to print; lower its depth")
    return list(construct_result.b_prefix), f"{theta.numerator}/{theta.denominator}"


def _classify(rng: random.Random, work: Path, i: int, spec: str,
              n_terms: int, fmt: str) -> Request:
    from unitfrac.families import parse_family_spec

    family = parse_family_spec(spec)
    a_path = _write_lines(work / f"certify-classify-a-{i}.txt",
                          [family.a(n) for n in range(1, n_terms + 1)])
    b_path = _write_lines(work / f"certify-classify-b-{i}.txt",
                          [family.b(n) for n in range(1, n_terms + 1)])
    return _cli("classify", "--a-file", a_path, "--b-file", b_path,
                "--family", spec, "--format", fmt)


def _family(spec: str, n_terms: int, fmt: str) -> Request:
    return _cli("family", "--spec", spec, "--terms", n_terms,
                "--theta-enclosure", "--format", fmt)


def gen_certify(rng: random.Random, work: Path) -> list[Request]:
    # Eight requests cost less than a construct on an arithmetic target,
    # seven such constructs (json and table, 40-60 ms) come next, and nine
    # cost more, so the median latency falls among the seven.  The two
    # long Fibonacci families are the heaviest and set the tail.
    from unitfrac.construct import TargetSequence, construct
    from unitfrac.families import ArithmeticFamily

    reqs = []
    # cheaper than the median: classify on family data, verify of built
    # prefixes (replayed against a target prepared here), short families
    reqs.append(_classify(rng, work, 0, "geometric:a=2,r=3",
                          rng.randint(285, 295), "csv"))
    reqs.append(_classify(rng, work, 1, "fibonacci", rng.randint(930, 970), "json"))
    reqs.append(_classify(rng, work, 2, f"arithmetic:a={rng.randint(2, 9)},d=1",
                          rng.randint(1400, 1500), "table"))
    built = (
        TargetSequence.from_family(ArithmeticFamily(
            rng.randint(2, 5), rng.randint(1, 2))),
        TargetSequence.from_explicit(_plateau_targets(130), "repeat-last-delta"),
    )
    for i, (seq, depth) in enumerate(zip(built, (rng.randint(350, 380),
                                                 rng.randint(75, 80)))):
        b_values, theta = _built_prefix(construct(seq, depth))
        path = _write_lines(work / f"certify-b-built-{i}.txt", b_values)
        reqs.append(_cli("verify", "--b-file", path, "--theta", theta,
                         "--bracket", "--format", FORMATS[i]))
    for a, fmt in ((2, "table"), (3, "csv")):
        reqs.append(_family(f"geometric:a={a},r=3", rng.randint(600, 620), fmt))
    reqs.append(_family("fibonacci", rng.randint(290, 310), "json"))
    # the median: construct on arithmetic targets
    for i in range(7):
        spec = f"arithmetic:a={rng.randint(3, 5)},d=1"
        reqs.append(_cli("construct", "--family", spec,
                         "--depth", rng.randint(284, 290),
                         "--format", ("json", "table")[i % 2]))
    # dearer: geometric:a=2,r=3 stops printing at depth 168 (4300-digit
    # margins), so two requests below the limit and two above it
    for i, (lo, hi) in enumerate(((125, 130), (125, 130),
                                  (170, 175), (170, 175))):
        reqs.append(_cli("construct", "--family", "geometric:a=2,r=3",
                         "--depth", rng.randint(lo, hi),
                         "--format", FORMATS[(i + 1) % 3]))
    for i in range(2):
        depth = rng.randint(150, 154)
        path = _write_lines(work / f"certify-a-{i}.txt",
                            _plateau_targets(depth + 5))
        reqs.append(_cli("construct", "--a-file", path, "--repeat-last-delta",
                         "--depth", depth, "--format", FORMATS[(i + 2) % 3]))
    # long polynomial lists b = n(n + k), sum 1/b = H_k / k
    for i, (k, theta) in enumerate(((2, "3/4"), (3, "11/18"))):
        n_terms = rng.randint(3500, 3700)
        path = _write_lines(work / f"certify-b-poly-{i}.txt",
                            [n * (n + k) for n in range(1, n_terms + 1)])
        reqs.append(_cli("verify", "--b-file", path, "--theta", theta,
                         "--bracket", "--format", FORMATS[(i + 1) % 3]))
    reqs.append(_family(f"arithmetic:a={rng.randint(2, 9)},d={rng.randint(1, 4)}",
                        rng.randint(16300, 16700), "json"))
    for fmt in ("json", "csv"):
        reqs.append(_family("fibonacci", rng.randint(1315, 1325), fmt))
    return reqs


GENERATORS = {"census": gen_census, "deep": gen_deep, "certify": gen_certify}


def generate(workload: str, seed: int, work: Path) -> list[Request]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), work)


def request_digest(reqs: list[Request], work: Path) -> str:
    """Digest of the request list and of every input file it names."""
    h = hashlib.sha256()
    for req in reqs:
        h.update(req.describe().replace(str(work), "<work>").encode() + b"\n")
        for arg in req.args:
            if isinstance(arg, str) and arg.startswith(str(work)):
                h.update(Path(arg).read_bytes())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------- checks
#
# check(req, outcome) returns None when the output is right, else a reason.

def _ints(path: str) -> list[int]:
    return [int(line) for line in Path(path).read_text().split()]


def _arg(req: Request, flag: str) -> str:
    return req.args[req.args.index(flag) + 1]


def _rat(text: str) -> tuple[int, int]:
    num, den = text.split("/")
    return int(num), int(den)


def _table(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines()]


def _rows(req: Request, text: str, header_key: str) -> list[list[str]]:
    """Data rows of a csv or table listing whose header starts header_key."""
    lines = (list(csv.reader(io.StringIO(text))) if _arg(req, "--format") == "csv"
             else _table(text))
    start = next(i for i, row in enumerate(lines) if row and row[0] == header_key)
    rows = []
    for row in lines[start + 1:]:
        if not row or not row[0].isdigit():
            break
        rows.append(row)
    return rows


def _open_count(a: int, a_next: int) -> Optional[int]:
    """Integers in the open admissible window; None when unbounded."""
    if a_next - a <= 1:
        return None
    lo_n, lo_d = (a - 1) * a_next, a_next - a + 1
    hi_n, hi_d = a * (a_next - 1), a_next - a - 1
    return max(0, (hi_n - 1) // hi_d - lo_n // lo_d)


def _closed_count(a: int, a_next: int) -> int:
    """Integers in the closed telescoping window."""
    gap = a_next - a
    return a * a_next // gap - -(-(a - 1) * (a_next - 1) // gap) + 1


def _in_bracket(a: int, a_next: int, b: int) -> bool:
    """b strictly inside ((a-1)(a'-1)/(a'-a), a a'/(a'-a))."""
    gap = a_next - a
    return (a - 1) * (a_next - 1) < b * gap < a * a_next


def _expect_verdicts(pairs, open_unique, closed_unique) -> Optional[str]:
    for (a, a_next), ou, cu in zip(pairs, open_unique, closed_unique):
        if ou != (_open_count(a, a_next) == 1):
            return f"open verdict wrong at ({a}, {a_next})"
        if cu != (_closed_count(a, a_next) == 1):
            return f"closed verdict wrong at ({a}, {a_next})"
    return None


def _check_unique(req: Request, out: str) -> Optional[str]:
    fmt = _arg(req, "--format")
    if "--pair" in req.args:
        i = req.args.index("--pair")
        a, a_next = int(req.args[i + 1]), int(req.args[i + 2])
        if fmt == "json":
            doc = json.loads(out)
            got = (doc["open"]["unique"], doc["closed"]["unique"])
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            got = tuple(row[1] == "True" for row in rows)
        else:
            got = tuple("unique=True" in line for line in out.splitlines()[:2])
        return _expect_verdicts([(a, a_next)], [got[0]], [got[1]])
    if "--a-file" in req.args:
        values = _ints(_arg(req, "--a-file"))
        pairs = list(zip(values, values[1:]))
        if fmt == "json":
            doc = json.loads(out)
            opens = [v["unique"] for v in doc["open-verdicts"]]
            closeds = [v["unique"] for v in doc["closed-verdicts"]]
        else:
            rows = _rows(req, out, "index")
            opens = [row[3] == "True" for row in rows]
            closeds = [row[5] == "True" for row in rows]
        if not len(opens) == len(closeds) == len(pairs):
            return f"{len(opens)} verdicts for {len(pairs)} pairs"
        return _expect_verdicts(pairs, opens, closeds)
    if "--range" in req.args:
        limit = int(_arg(req, "--range"))
        expected = (limit - 1) * (limit - 2) // 2
    else:
        expected = int(_arg(req, "--sample"))
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        pairs = len(rows)
        bad = sum(1 for r in rows if not (r["open_agrees"] == r["closed_agrees"]
                                          == r["consequences_ok"] == "True"))
    elif fmt == "json":
        doc = json.loads(out)
        pairs, bad = doc["pairs"], doc["disagreements"]
    else:
        doc = dict(line.split(": ", 1) for line in out.splitlines())
        pairs, bad = int(doc["pairs"]), int(doc["disagreements"])
    if pairs != expected:
        return f"{pairs} pairs, {expected} requested"
    return f"{bad} disagreements" if bad else None


def _check_construct(req: Request, out: str) -> Optional[str]:
    if _arg(req, "--format") == "json":
        doc = json.loads(out)
        margins = [(c["lower-margin"], c["upper-margin"])
                   for c in doc["certificates"]]
        if not len(doc["a"]) == len(doc["b"]) == len(margins):
            return "prefix and certificate lengths differ"
        lo, hi = _rat(doc["theta-enclosure"]["lo"]), _rat(doc["theta-enclosure"]["hi"])
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return "empty theta enclosure"
    else:
        margins = [(row[3], row[4]) for row in _rows(req, out, "n" if _arg(
            req, "--format") == "table" else "index")]
    if not margins:
        return "no certificates"
    for lower, upper in margins:
        if _rat(lower)[0] <= 0 or _rat(upper)[0] <= 0:
            return "certificate margin not positive"
    return None


def _check_verify(req: Request, out: str) -> Optional[str]:
    fmt = _arg(req, "--format")
    if fmt == "json":
        doc = json.loads(out)
        if not doc["ok"]:
            return "verify not ok"
        if len(doc["a"]) != len(_ints(_arg(req, "--b-file"))):
            return "shadow length differs from the b list"
    elif fmt == "table" and out.splitlines()[-1] != "OK":
        return "verify not OK"
    return None  # csv prints no verdict; run.py fails it on its exit code


def _check_family(req: Request, out: str) -> Optional[str]:
    fmt = _arg(req, "--format")
    n_terms = int(_arg(req, "--terms"))
    if fmt == "json":
        doc = json.loads(out)
        a, b = doc["a"], doc["b"]
        if doc["bracket-ok"] is not True:
            return "bracket-ok is not true"
        lo, hi = _rat(doc["theta-enclosure"]["lo"]), _rat(doc["theta-enclosure"]["hi"])
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return "empty theta enclosure"
    else:
        rows = _rows(req, out, "n")
        a, b = [int(r[1]) for r in rows], [int(r[2]) for r in rows]
        if fmt == "table" and "bracket-ok: True" not in out:
            return "bracket-ok is not True"
    if len(a) != n_terms or len(b) != n_terms:
        return f"{len(a)} terms, {n_terms} requested"
    first = next(i for i, x in enumerate(a) if x >= 2)
    for i in range(first, n_terms - 1):
        if not _in_bracket(a[i], a[i + 1], b[i]):
            return f"b leaves its telescoping bracket at n = {i + 1}"
    return None


_T_GRID = ((1, 1), (3, 2), (2, 1), (3, 1), (5, 1), (10, 1))


def _check_classify(req: Request, out: str) -> Optional[str]:
    a, b = _ints(_arg(req, "--a-file")), _ints(_arg(req, "--b-file"))
    half = len(a) // 2
    expected = []
    for num, den in _T_GRID:
        hits = [b[i] <= -(-num * a[i] // den) for i in range(len(a))]
        expected.append((sum(hits), sum(hits[half:])))
    fmt = _arg(req, "--format")
    if fmt == "json":
        doc = json.loads(out)
        got = [(w["count"], s["count"]) for w, s in zip(
            doc["witness-counts"], doc["second-half-witness-counts"])]
    else:
        lines = (list(csv.reader(io.StringIO(out))) if fmt == "csv"
                 else _table(out))
        got = [(int(row[1]), int(row[2])) for row in lines[1:1 + len(_T_GRID)]]
    return None if got == expected else "witness counts differ"


def _check_deep(req: Request, result) -> Optional[str]:
    p, q, kind, _, n_terms = req.args
    run, replay, growth, _ = result
    if len(run.b) != n_terms or replay.a != run.a:
        return "replayed shadows differ from the expansion"
    if replay.first_weak_violation is not None:
        return "replay reports a weakness violation"
    # r_{n-1} - 1/b_n == r_n at every step, by cross-multiplication; summed
    # it telescopes to sum 1/b_n + last residual == theta
    for b, r in zip(run.b, run.residuals):
        if (p * b - q) * r.denominator != r.numerator * q * b:
            return "sum of 1/b plus the residual is not theta"
        p, q = r.numerator, r.denominator
    if kind == "greedy" and not all(c.holds for c in growth):
        return "greedy growth bound fails"
    return None


_CLI_CHECKS = {"unique": _check_unique, "construct": _check_construct,
               "verify": _check_verify, "family": _check_family,
               "classify": _check_classify}


def check(req: Request, outcome: Outcome) -> Optional[str]:
    try:
        if req.kind == "deep":
            return _check_deep(req, outcome.result)
        return _CLI_CHECKS[req.args[0]](req, outcome.stdout)
    except (ValueError, KeyError, IndexError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
