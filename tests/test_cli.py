"""End-to-end command line checks.

Exit codes: 0 success, 1 verification failure, 2 malformed input or
internal error.  Output must be byte-identical across repeat runs.

A command's stdout bytes live in ``cli_golden.json`` (see
``test_cli_golden.py``), and a fact pinned there is not asserted again
here.  This file holds exit-code and stderr contracts, process-level
behaviour, and what no record pins: outputs too long to record, runs
under patched internals, the parser's reuse across calls, and inputs no
golden case reads.

Each command runs ``cli.main`` in-process through ``run_main``.  A test
spawns ``python -m unitfrac`` only where the process is under test: the
exit code it returns, a closed pipe, its peak memory, and its bytes under
two hash seeds.  The demos run as scripts.

Each demo's stdout is compared with the record in ``demo_golden.json``
next to this file.  After an intended change to a demo's output, rewrite
that record with

    PYTHONPATH=src python3 tests/test_cli.py
"""
from __future__ import annotations

import ast
import contextlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitfrac
import unitfrac.construct as construct_module
from unitfrac import cli
from unitfrac.construct import TargetSequence, construct
from unitfrac.families import (FibonacciFamily, parse_family_spec,
                               theta_partial)
from unitfrac.greedy import _companion
from unitfrac.rational import format_rational, parse_int

from test_cli_golden import run_main
from test_construct import plateau_runs, plateau_values

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
DEMO_GOLDEN = Path(__file__).with_name("demo_golden.json")


def child_env(extra=None) -> dict:
    """Environment in which a child interpreter imports this unitfrac."""
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(unitfrac.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    if extra:
        env.update(extra)
    return env


def run_module(argv, **env):
    """One ``python -m unitfrac`` process; stdout and stderr are bytes."""
    return subprocess.run([sys.executable, "-m", "unitfrac", *argv],
                          capture_output=True, env=child_env(env))


def run_under_two_hash_seeds(argv):
    """The stdout of two processes, one under each of PYTHONHASHSEED 0
    and 1, which must be the same bytes: only separate processes can
    differ in hash order."""
    first, second = (run_module(argv, PYTHONHASHSEED=seed)
                     for seed in ("0", "1"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    return first.stdout.decode()


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


# ------------------------------------------------------------------ expand

def test_expand_has_no_lambda_option():
    # there is no index set to give: the cap holds at every index
    proc = run_main(["expand", "--theta", "19/48", "--terms", "2",
                     "--lambda", "all"])
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize("theta", ["0/1", "5/4", "-1/2", "abc", "1/0"])
def test_expand_rejects_bad_theta(theta):
    proc = run_main(["expand", "--theta", theta, "--terms", "3"])
    assert proc.returncode == 2


def test_expand_table_deterministic():
    stdout = run_under_two_hash_seeds(["expand", "--theta", "2/3",
                                       "--terms", "4"])
    assert "1/6" in stdout


def test_expand_refuses_terms_past_the_cap():
    proc = run_main(["expand", "--theta", "2/3", "--terms", "10001"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "10000" in proc.stderr


# ------------------------------------------------------------------ verify

def test_verify_overrun_at_an_exact_zero_residual(tmp_path):
    # 1/2 - 1/2 leaves exactly 0, so index 2 has no shadow
    b_file = write_lines(tmp_path / "b.txt", [2, 3])
    proc = run_main(["verify", "--b-file", b_file, "--theta", "1/2"])
    assert proc.returncode == 1
    assert "FAIL: partial sums exhaust theta at index 2" in proc.stdout
    proc = run_main(["verify", "--b-file", b_file, "--theta", "1/2",
                     "--format", "json"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["overrun-at"] == 2


def fib_b(count):
    fam = FibonacciFamily()
    return [fam.b(n) for n in range(1, count + 1)]


def fib_theta_string():
    return format_rational(theta_partial(FibonacciFamily(), 25).midpoint())


def test_verify_bracket_clean(tmp_path):
    b_file = write_lines(tmp_path / "b.txt", fib_b(6))
    proc = run_main(["verify", "--b-file", b_file, "--theta",
                     fib_theta_string(), "--bracket", "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["bracket-checked"] is True
    assert doc["bracket-failures"] == []


def test_verify_bracket_flags_oversized_choice(tmp_path):
    values = fib_b(6)
    values[1] = 6
    b_file = write_lines(tmp_path / "b.txt", values)
    proc = run_main(["verify", "--b-file", b_file, "--theta",
                     fib_theta_string(), "--bracket", "--format", "json"])
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["bracket-failures"] == [2]
    # without the bracket check the same file verifies
    proc = run_main(["verify", "--b-file", b_file, "--theta",
                     fib_theta_string(), "--format", "json"])
    assert proc.returncode == 0


# what follows the file's path on stderr
MALFORMED_FILES = {
    "": ": empty sequence file",
    "12\nabc\n": ":2: not an integer: 'abc'",
    "3.5\n": ":1: not an integer: '3.5'",
    # int() takes each of the first three; a blank line is no integer
    "7\n1_0\n+5\n\u0663\n\n": ":2: not an integer: '1_0'",
    # only "\n" ends a line: str.splitlines also splits at "\v" and "\f"
    "2\n3\n5\x0b8\n13\n": ":3: not an integer: '5\\x0b8'",
    "2\n3\x0c\n5x\n": ":3: not an integer: '5x'",
}


@pytest.mark.parametrize("content", list(MALFORMED_FILES))
def test_verify_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "b.txt"
    path.write_text(content, encoding="utf-8")
    proc = run_main(["verify", "--b-file", str(path), "--theta", "1/2"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}{MALFORMED_FILES[content]}\n"


@pytest.mark.parametrize("bad", ["1_0", "+5", "\u0663", "", " ", "3.5",
                                 "9" * 5000])
def test_sequence_file_names_its_first_bad_line(tmp_path, bad):
    # every line is checked in one pass; the message is parse_int's, with
    # the number of the first line it refuses. 5000 digits pass the check
    # but not int() past the interpreter's digit limit, where there is one
    path = tmp_path / "a.txt"
    path.write_text(f"7\n{bad}\n1_0\n", encoding="utf-8")
    try:
        parse_int(bad)
        expected = f"{path}:3: not an integer: '1_0'"
    except ValueError as exc:
        expected = f"{path}:2: {exc}"
    with pytest.raises(ValueError) as info:
        cli._read_sequence_file(str(path))
    assert str(info.value) == expected
    path.write_text(" 7\n-3 \n\t12\n")
    assert cli._read_sequence_file(str(path)) == [7, -3, 12]


def test_verify_rejects_nonpositive_denominator_before_replay(tmp_path):
    # the partial sums pass 2/3 at index 3, but the 0 at index 4 is
    # malformed input and is reported first
    b_file = write_lines(tmp_path / "b.txt", [2, 2, 7, 0])
    proc = run_main(["verify", "--b-file", b_file, "--theta", "2/3"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "at 4" in proc.stderr


def test_verify_missing_file():
    proc = run_main(["verify", "--b-file", "/nonexistent/b.txt",
                     "--theta", "1/2"])
    assert proc.returncode == 2


# --------------------------------------------------------------- construct

def test_construct_exhaustion_is_malformed(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 2, 3, 3, 4, 4])
    proc = run_main(["construct", "--a-file", a_file, "--repeat-last-delta",
                     "--depth", "4"])
    assert proc.returncode == 2
    proc = run_main(["construct", "--a-file", a_file, "--depth", "4"])
    assert proc.returncode == 2


def test_construct_refuses_an_ending_sequence_at_once(tmp_path):
    # a last difference of 0 continues (2, 3, 3) by nothing: the three
    # terms hold one jump, and the scan ends with them, whatever the depth
    a_file = write_lines(tmp_path / "a.txt", [2, 3, 3])
    proc = subprocess.run(
        [sys.executable, "-m", "unitfrac", "construct", "--a-file", a_file,
         "--repeat-last-delta", "--depth", "1000000000"],
        capture_output=True, env=child_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"only 1 of 1000000001 jumps in 3 given terms" in proc.stderr


def test_construct_internal_error_exits_2(monkeypatch, tmp_path):
    # a failed bracket check is a bug, not a failed verification; a b two
    # above the companion misses its bracket (test_construct)
    a_file = write_lines(tmp_path / "a.txt", [2, 2, 3, 3, 4, 4, 5, 5, 6])
    monkeypatch.setattr(construct_module, "_companion",
                        lambda a, a2: _companion(a, a2) + 2)
    proc = run_main(["construct", "--a-file", a_file, "--depth", "3"])
    assert proc == (2, "", "error: companion outside the bracket at jump 2\n")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9), plateau_runs)
def test_construct_prints_the_library_result(tmp_path_factory, start, runs):
    # the command prints the jump records and the enclosure of the
    # library's own construct, each record's pair on every index of its
    # plateau
    values = plateau_values(start, runs)
    res = construct(TargetSequence.from_explicit(values), len(runs) - 1)
    a_file = write_lines(tmp_path_factory.mktemp("targets") / "a.txt", values)
    proc = run_main(["construct", "--a-file", a_file,
                     "--depth", str(len(runs) - 1), "--format", "json"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    rows, start = [], 1
    for c in res.certificates:
        pair = {"lower-margin": format_rational(c.lower_margin),
                "upper-margin": format_rational(c.upper_margin)}
        rows += [{"index": n, **pair} for n in range(start, c.index + 1)]
        start = c.index + 1
    assert doc["certificates"] == rows
    assert len(rows) == len(res.a_prefix)
    assert doc["jump-indices"] == [c.index for c in res.certificates]
    assert doc["theta-choices"] == [format_rational(c.upper_margin)
                                    for c in res.certificates]
    assert doc["filler-values"] == [c.filler for c in res.certificates]
    iv = res.theta_enclosure
    assert (doc["theta-enclosure"]["lo"], doc["theta-enclosure"]["hi"]) == (
        format_rational(iv.lo), format_rational(iv.hi))


@contextlib.contextmanager
def digit_limit(limit):
    """Run under this int-to-str digit limit, then restore the old one."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def refusal(x) -> str:
    """The stderr of a command in which str() refuses x, under the digit
    limit in force."""
    with pytest.raises(ValueError) as refused:
        str(x)
    return f"error: {refused.value}\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
@pytest.mark.parametrize("fmt, depth", [("table", 340), ("json", 340),
                                        ("csv", 450)],
                         ids=["table", "json", "csv"])
def test_margins_print_up_to_the_digit_limit(fmt, depth):
    # every integer the command prints, enclosure ends included, goes
    # through str(), which refuses the first one past the limit; csv
    # prints no enclosure, so only its deeper certificates get that long
    printed = construct_geometric(depth, fmt)
    longest = max(map(int, re.findall("[0-9]+", printed.stdout)))
    digits = len(str(longest))
    assert digits > 640  # the lowest limit Python accepts, plus one
    # the longest is an enclosure end where one is printed, else a
    # certificate, so each of the two is refused past the limit
    res = construct(TargetSequence.from_family(parse_family_spec(
        "geometric:a=2,r=3")), depth)
    values = (res.theta_enclosure if fmt != "csv" else
              [x for c in res.certificates
               for x in (c.lower_margin, c.upper_margin)])
    assert longest in {n for x in values for n in (x.numerator, x.denominator)}
    with digit_limit(digits):
        assert construct_geometric(depth, fmt) == printed
    with digit_limit(digits - 1):
        assert construct_geometric(depth, fmt) == (2, "", refusal(longest))


def construct_geometric(depth, fmt):
    return run_main(["construct", "--family", "geometric:a=2,r=3",
                     "--depth", str(depth), "--format", fmt])


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_an_empty_enclosure_is_an_internal_error(monkeypatch, fmt):
    # lo < hi holds for every construction (construct's docstring); sums
    # crafted to put lo above hi fail RationalInterval's check
    monkeypatch.setattr(construct_module, "_unit_sums",
                        lambda scale, b: (0, scale))
    proc = construct_geometric(3, fmt)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: empty interval: lo=")


def assert_usage_error(proc, *flags):
    """Exit 2 with nothing on stdout and every given flag named on stderr."""
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr
    for flag in flags:
        assert flag in proc.stderr


OUT_OF_RANGE = [
    (["expand", "--theta", "19/48", "--terms", "0"], "--terms"),
    (["construct", "--family", "fibonacci", "--depth", "0"], "--depth"),
    (["unique", "--range", "2"], "--range"),
    (["unique", "--sample", "0"], "--sample"),
    (["family", "--spec", "fibonacci", "--terms", "0"], "--terms"),
    (["unique", "--pair", "1", "5"], "--pair A"),
    (["unique", "--pair", "4", "4"], "--pair A_NEXT"),
]


@pytest.mark.parametrize("argv, option", OUT_OF_RANGE,
                         ids=[argv[0] + option.replace(" ", "-")
                              for argv, option in OUT_OF_RANGE])
def test_out_of_range_option_is_named(argv, option):
    # the message names the option, as argparse prints it, not the
    # library's parameter
    assert_usage_error(run_main(argv), f"{option} must be an integer >= ")


def test_construct_source_flags_exclusive(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 3, 5])
    proc = run_main(["construct", "--a-file", a_file, "--family", "fibonacci",
                     "--depth", "3"])
    assert_usage_error(proc, "--a-file", "--family")
    proc = run_main(["construct", "--depth", "3"])
    assert_usage_error(proc, "--a-file", "--family")
    proc = run_main(["construct", "--family", "fibonacci",
                     "--repeat-last-delta", "--depth", "3"])
    assert_usage_error(proc, "--repeat-last-delta")


# ------------------------------------------------------------------ unique

def test_unique_mode_flags_exclusive(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 7, 57])
    proc = run_main(["unique"])
    assert_usage_error(proc, "--pair", "--a-file", "--range", "--sample")
    proc = run_main(["unique", "--pair", "2", "7", "--range", "10"])
    assert_usage_error(proc, "--pair", "--range")
    proc = run_main(["unique", "--a-file", a_file, "--sample", "5"])
    assert_usage_error(proc, "--a-file", "--sample")
    # a seed is read by --sample alone, so no other mode takes one
    for mode in (["--pair", "2", "7"], ["--a-file", a_file],
                 ["--range", "10"]):
        proc = run_main(["unique", *mode, "--seed", "5"])
        assert_usage_error(proc, "--seed applies only to --sample")


def test_unique_sample_deterministic():
    stdout = run_under_two_hash_seeds(["unique", "--sample", "10",
                                       "--seed", "3", "--format", "csv"])
    assert stdout.count("\n") == 11
    # without --seed a sample is drawn from seed 0
    argv = ["unique", "--sample", "10", "--format", "csv"]
    assert run_main(argv) == run_main([*argv, "--seed", "0"])


def test_unique_file_reports(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 7, 57])
    proc = run_main(["unique", "--a-file", a_file, "--format", "json"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["sufficient"] is True and doc["necessary"] is True
    a_file = write_lines(tmp_path / "a2.txt", [2, 4, 20])
    doc = json.loads(run_main(["unique", "--a-file", a_file,
                               "--format", "json"]).stdout)
    assert doc["sufficient"] is False


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="VmHWM is read from Linux /proc")
def test_unique_range_summary_holds_no_rows():
    # 179101 pairs: holding their rows took 110 MB, folding them as they
    # are made takes about what a bare interpreter does.  csv prints every
    # row, about 15 MB of text: held once it fits the bound, held twice (a
    # buffer and a copy of its whole value) it took 47 MB.  The peak is the
    # child's VmHWM, not its ru_maxrss: Linux carries the spawning
    # process's peak across exec into ru_maxrss, so under a test runner
    # that would read the runner's size.
    pairs = 599 * 598 // 2
    for fmt in ("json", "csv"):
        script = ("import sys\n"
                  "from unitfrac.cli import main\n"
                  f"code = main(['unique', '--range', '600', '--format', '{fmt}'])\n"
                  "with open('/proc/self/status') as status:\n"
                  "    print(*(line for line in status\n"
                  "            if line.startswith('VmHWM:')), file=sys.stderr)\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            assert json.loads(proc.stdout)["pairs"] == pairs
        else:
            assert proc.stdout.count("\n") == 1 + pairs
        _, kilobytes, unit = proc.stderr.split()
        assert unit == "kB"
        peak_mb = int(kilobytes) / 1024
        assert peak_mb < 40, f"{fmt}: peak RSS {peak_mb:.1f} MB"


# ---------------------------------------------------------------- refusals

A3, B3 = [2, 3, 4], [7, 13, 21]
GEOMETRIC_A = [2 * 3 ** (n - 1) for n in range(1, 13)]

# Each refusal as (files, argv, how stderr matches, expected stderr). A
# file is its lines, or its raw bytes; "@a" and "@b", in argv and in the
# expected text, stand for the paths of the files named a and b.
REFUSALS = {
    # a plateau is a natural shadow, but no pair criterion takes it
    "unique_file_names_the_pair_that_does_not_increase": (
        {"a": [2, 3, 3, 5]}, ["unique", "--a-file", "@a"], "substring",
        "pair 2 (a=3, a_next=3): a_next must be an integer >= 4, got 3"),
    "unique_file_of_one_term_names_its_count": (
        {"a": [2]}, ["unique", "--a-file", "@a", "--format", "json"],
        "exact", "error: need at least two terms, got 1\n"),
    "family_rejects_unknown_spec": (
        {}, ["family", "--spec", "explicit", "--terms", "4"], "exact",
        "error: unrecognized family spec: 'explicit'\n"),
    # a spec field is read as every integer is, and refused by its bound
    "family_refuses_a_negative_spec_field": (
        {}, ["family", "--spec", "geometric:a=-2,r=3", "--terms", "4"],
        "exact", "error: a0 must be an integer >= 2, got -2\n"),
    "classify_rejects_empty_t_grid": (
        {"a": A3, "b": B3},
        ["classify", "--a-file", "@a", "--b-file", "@b", "--t-grid", ""],
        "exact", "error: not a rational literal: ''\n"),
    "classify_rejects_empty_family": (
        {"a": A3, "b": B3},
        ["classify", "--a-file", "@a", "--b-file", "@b", "--family", ""],
        "exact", "error: unrecognized family spec: ''\n"),
    "classify_names_where_the_data_leaves_the_declared_family": (
        {"a": range(2, 42), "b": range(3, 43)},
        ["classify", "--a-file", "@a", "--b-file", "@b",
         "--family", "geometric:a=2,r=3"],
        "exact", "error: a differs from geometric:a=2,r=3 at index 2\n"),
    # b_n = a_n - 1 is below every weak choice, and b_1 = 1 overruns every
    # theta <= 1, yet each such b_n would count as a witness at every t
    "classify_refuses_b_below_a": (
        {"a": GEOMETRIC_A, "b": [x - 1 for x in GEOMETRIC_A]},
        ["classify", "--a-file", "@a", "--b-file", "@b",
         "--family", "geometric:a=2,r=3"],
        "exact", "error: b falls below a at index 1\n"),
    "classify_names_the_counts_of_unequal_files": (
        {"a": A3, "b": [7, 13]},
        ["classify", "--a-file", "@a", "--b-file", "@b"], "exact",
        "error: need equal-length nonempty sequences, got 3 a and 2 b "
        "terms\n"),
    "classify_names_a_file_that_is_not_utf8": (
        {"a": A3, "b": b"\xff7\n13\n21\n"},
        ["classify", "--a-file", "@a", "--b-file", "@b"], "prefix",
        "error: cannot read @b: 'utf-8'"),
    # random.seed takes |seed|, so -5 would draw the pairs of 5
    "unique_refuses_a_negative_seed": (
        {}, ["unique", "--sample", "5", "--seed", "-5"], "exact",
        "error: --seed must be an integer >= 0, got -5\n"),
    # an option is read by its full name only: argparse would read each
    # prefix below as the option it starts, and classify's --t as --t-grid
    "expand_refuses_an_option_prefix": (
        {}, ["expand", "--the", "19/48", "--terms", "2"], "substring",
        "the following arguments are required: --theta"),
    "verify_refuses_an_option_prefix": (
        {"b": [3, 17]}, ["verify", "--b-f", "@b", "--theta", "19/48"],
        "substring", "the following arguments are required: --b-file"),
    "construct_refuses_an_option_prefix": (
        {}, ["construct", "--family", "fibonacci", "--dep", "3"],
        "substring", "the following arguments are required: --depth"),
    "unique_refuses_an_option_prefix": (
        {}, ["unique", "--ran", "10"], "substring",
        "one of the arguments --pair --a-file --range --sample is required"),
    "family_refuses_an_option_prefix": (
        {}, ["family", "--spec", "fibonacci", "--terms", "2", "--theta"],
        "substring", "unrecognized arguments: --theta\n"),
    "classify_refuses_an_option_prefix": (
        {"a": A3, "b": B3},
        ["classify", "--a-file", "@a", "--b-file", "@b", "--t", "2"],
        "substring", "unrecognized arguments: --t 2\n"),
}
MATCHES = {"exact": str.__eq__, "prefix": str.startswith,
           "substring": str.__contains__}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_exits_2(case, tmp_path):
    """Exit 2, nothing on stdout, and the message on stderr."""
    files, argv, match, expected = REFUSALS[case]
    paths = {}
    for name, content in files.items():
        path = tmp_path / f"{name}.txt"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            write_lines(path, content)
        paths[f"@{name}"] = str(path)
    for placeholder, path in paths.items():
        expected = expected.replace(placeholder, path)
    proc = run_main([paths.get(arg, arg) for arg in argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert MATCHES[match](proc.stderr, expected), proc.stderr


# ----------------------------------------------------------------- command

def test_help_and_unknown_command():
    proc = run_main(["--help"])
    assert proc.returncode == 0
    for sub in ("expand", "verify", "construct", "unique", "family",
                "classify"):
        assert sub in proc.stdout
    proc = run_main(["frobnicate"])
    assert proc.returncode == 2


def test_an_option_value_may_follow_an_equals_sign():
    joined = run_main(["expand", "--theta=19/48", "--terms=2"])
    assert joined.returncode == 0
    assert joined == run_main(["expand", "--theta", "19/48", "--terms", "2"])


def test_parser_is_built_once_per_process():
    # a usage error, a good request, the same usage error: the one parser
    # serves all three, and carries nothing from one call to the next
    usage_error = ["unique", "--pair", "2", "7", "--range", "10"]
    first = run_main(usage_error)
    assert first.returncode == 2 and first.stdout == ""
    assert "not allowed with argument" in first.stderr
    code, out, _ = run_main(["unique", "--pair", "2", "7"])
    assert code == 0 and out.startswith("open: unique=True k=2")
    assert run_main(usage_error) == first
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_exits_quietly(unbuffered):
    # the csv is far larger than a pipe buffer, so the writer is still
    # writing when the reader closes its end, as `| head -1` does; stdout
    # is buffered or not by PYTHONUNBUFFERED, and both must notice
    proc = subprocess.Popen(
        [sys.executable, "-m", "unitfrac", "unique", "--range", "120",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env({"PYTHONUNBUFFERED": unbuffered}))
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"a,a_next,")
    assert stderr == b""


def test_module_entry_exits_with_mains_code(tmp_path):
    # in-process runs read main's return value; only a process shows that
    # `python -m unitfrac` makes it the exit code
    b_file = write_lines(tmp_path / "b.txt", [2, 3, 10])
    assert run_module(["unique", "--pair", "2", "7"]).returncode == 0
    assert run_module(["verify", "--b-file", b_file,
                       "--theta", "51/100"]).returncode == 1
    proc = run_module(["expand", "--theta", "0/1", "--terms", "3"])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: target must lie in (0, 1], got 0\n"


# ------------------------------------------------------------------- demos

def run_demo(demo: Path):
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env())


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.loads(DEMO_GOLDEN.read_text())[demo.name]


# ------------------------------------------------------------------ README

def test_readme_python_blocks_run():
    # a renamed or deleted public name fails here instead of going stale
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), {})


def test_readme_shell_blocks_print_what_they_show(tmp_path, monkeypatch):
    # each `$ unitfrac ...` line shown with output lines must exit 0 and
    # print exactly those lines; `$ printf '...' > FILE` writes a file the
    # later commands read, and a command shown without output is skipped
    monkeypatch.chdir(tmp_path)
    readme = (REPO / "README.md").read_text()
    replayed = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line, shown in re.findall(r"^\$ (.*)\n((?:(?!\$ ).+\n)*)",
                                      block, re.M):
            command, *args = shlex.split(line)
            if command == "printf":
                text, redirect, name = args
                assert redirect == ">", line
                Path(name).write_text(text.replace(r"\n", "\n"))
            elif shown:
                assert command == "unitfrac", line
                assert run_main(args)[:2] == (0, shown), line
                replayed.append(line)
    assert replayed


def test_readme_claims_name_tests_that_exist():
    # each row of README's claims table gives a command the parser takes,
    # and names tests of the suite or open items of the roadmap
    readme = (REPO / "README.md").read_text()
    roadmap = (REPO / "ROADMAP.md").read_text()
    section = readme.split("## Claims of the paper\n", 1)[1]
    lines = re.findall(r"^\| (.*) \|$", section.split("\n## ", 1)[0], re.M)
    header, rule, *rows = [[cell.strip() for cell in line.split(" | ")]
                           for line in lines]
    assert header == ["Claim", "Command", "Pinned by"]
    assert 0 < len(rows) <= 10
    for claim, command, pinned in rows:
        argv = shlex.split(re.fullmatch(r"`unitfrac (.*)`", command)[1])
        cli.build_parser().parse_args(argv)
        tests = [name.split("::") for name in re.findall(r"`(.*?)`", pinned)]
        items = re.findall(r"open, items? (\d+)(?: and (\d+))?", pinned)
        assert tests or items, claim
        for path, name in tests:
            tree = ast.parse((REPO / path).read_text())
            assert name in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, name
        for number in filter(None, itertools.chain(*items)):
            assert re.search(rf"^{number}\. \*\*", roadmap, re.M), number


if __name__ == "__main__":
    record = {}
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo.name} failed:\n{proc.stderr}")
        record[demo.name] = proc.stdout
    DEMO_GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
