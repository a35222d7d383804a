"""Exact stdout bytes and exit codes of the CLI, in every output format.

Each case runs ``cli.main`` in-process and compares its stdout and exit
code with the record in ``cli_golden.json`` next to this file.  After an
intended change to the output, rewrite that record with

    PYTHONPATH=src python3 tests/test_cli_golden.py

The later tests check that longer outputs keep the json and csv contracts,
that a format evaluates only what it prints, and that a census summary is
counted in one pass over rows it does not hold.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from unitfrac import cli, uniqueness
from unitfrac.uniqueness import CensusRow, sample_pairs, sweep

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("table", "json", "csv")

# sequence files the cases read, one integer per line; "@name" in an
# argument list stands for the path of the file
FILES = {
    "quadratic": [n * (n + 2) for n in range(1, 13)],
    "weak": [2],
    "overrun": [2, 3, 10],
    # 1/2 + 1/3 + 1/6 lands exactly on 1: b_3 = 6 sits below its shadow
    # 7, and the last residual prints reduced, as 0/1
    "exact": [2, 3, 6],
    # the shadows of 646/947 are 2, 6, 18, 54 and each b sits in its
    # bracket; raising b_2 to 9 moves the later shadows and b_3 leaves
    # its bracket
    "geometric-b": [2, 8, 26, 80],
    "geometric-b-miss": [2, 9, 26, 80],
    "targets": [2, 3, 5],
    "plateaus": [2, 2, 3, 3, 4, 4, 5, 5, 6],
    "unique": [2, 7, 57, 100],
    "shifted": [n + 1 for n in range(1, 13)],
    "geometric-a": [2 * 3 ** (n - 1) for n in range(1, 11)],
    "geometric-a-b": [3 ** n - 1 for n in range(1, 11)],
    "arithmetic": list(range(2, 998, 5)),
    "classify-a": list(range(2, 22)),
    "classify-b": list(range(3, 23)),
    "plateaus-uneven": [2, 2, 3, 3, 3, 5],
    "verify-b": [25, 757, 763309],
}

CASES = {
    "expand-greedy": ["expand", "--theta", "19/48", "--terms", "4"],
    "expand-scaled-last-greedy": ["expand", "--theta", "19/48", "--terms", "2",
                                  "--t", "4/3", "--last-greedy"],
    "expand-min-admissible": ["expand", "--theta", "2/3", "--terms", "4",
                              "--t", "2", "--selection", "min-admissible"],
    "verify-ok": ["verify", "--b-file", "@quadratic", "--theta", "3/4"],
    "verify-weak-violation": ["verify", "--b-file", "@weak", "--theta", "1/2"],
    "verify-overrun": ["verify", "--b-file", "@overrun", "--theta", "51/100"],
    "verify-exact": ["verify", "--b-file", "@exact", "--theta", "1"],
    "verify-bracket-clean": ["verify", "--b-file", "@geometric-b",
                             "--theta", "646/947", "--bracket"],
    "verify-bracket-miss": ["verify", "--b-file", "@geometric-b-miss",
                            "--theta", "646/947", "--bracket"],
    "construct-repeat-last-delta": ["construct", "--a-file", "@targets",
                                    "--repeat-last-delta", "--depth", "3"],
    "construct-plateaus": ["construct", "--a-file", "@plateaus",
                           "--depth", "3"],
    "construct-family": ["construct", "--family", "geometric:a=2,r=3",
                         "--depth", "3"],
    "construct-fibonacci": ["construct", "--family", "fibonacci",
                            "--depth", "5"],
    "unique-pair": ["unique", "--pair", "2", "7"],
    "unique-a-file": ["unique", "--a-file", "@unique"],
    "unique-range": ["unique", "--range", "25"],
    "unique-sample": ["unique", "--sample", "30", "--seed", "3"],
    "family": ["family", "--spec", "fibonacci", "--terms", "6"],
    "family-enclosure": ["family", "--spec", "geometric:a=2,r=3",
                         "--terms", "8", "--theta-enclosure"],
    "classify": ["classify", "--a-file", "@shifted", "--b-file", "@quadratic"],
    "classify-grid-family": ["classify", "--a-file", "@geometric-a",
                             "--b-file", "@geometric-a-b",
                             "--t-grid", "1,3/2,2",
                             "--family", "geometric:a=2,r=3"],
    "family-fibonacci-enclosure": ["family", "--spec", "fibonacci",
                                   "--terms", "60", "--theta-enclosure"],
    # d divides a0^2 in the first and not in the second: the two closed
    # forms of the arithmetic b_n in families.ArithmeticFamily
    "family-arithmetic-divisible": ["family", "--spec", "arithmetic:a=2,d=4",
                                    "--terms", "8", "--theta-enclosure"],
    "family-arithmetic-nondivisible": ["family", "--spec",
                                       "arithmetic:a=3,d=2", "--terms", "8",
                                       "--theta-enclosure"],
    "construct-arithmetic": ["construct", "--family", "arithmetic:a=3,d=1",
                             "--depth", "20"],
    # the filler of plateau 4 is bound by plateau 3's slack, not its own
    "construct-plateaus-deep": ["construct", "--a-file", "@plateaus",
                                "--repeat-last-delta", "--depth", "5"],
}


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_main(argv: list[str]) -> Run:
    """Exit code, stdout and stderr of one in-process ``cli.main`` run:
    the one way the tests run the command line without a process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # argparse refuses an argv outside the grammar, and answers
            # --help, by exiting
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


def run_args(args: list[str], fmt: str, directory: Path) -> Run:
    argv = []
    for arg in args:
        if arg.startswith("@"):
            path = directory / f"{arg[1:]}.txt"
            path.write_text("".join(f"{v}\n" for v in FILES[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return run_main(argv + ["--format", fmt])


def run_case(name: str, fmt: str, directory: Path) -> Run:
    return run_args(CASES[name], fmt, directory)


def case_id(name: str, fmt: str) -> str:
    return f"{name}/{fmt}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CASES)
def test_cli_bytes(golden, tmp_path, name, fmt):
    code, stdout, _ = run_case(name, fmt, tmp_path)
    expected = golden[case_id(name, fmt)]
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_golden_covers_every_case(golden):
    assert set(golden) == {case_id(n, f) for n in CASES for f in FORMATS}


def canonical(fmt: str, text: str) -> str:
    """The text the stdlib writes for what it reads back from ``text``:
    the json contract is its indent-2 text of the document and a newline,
    the csv contract its writer's text, with "\\n" line ends, of the rows,
    whatever code renders them."""
    if fmt == "json":
        return json.dumps(json.loads(text), indent=2) + "\n"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        csv.reader(io.StringIO(text)))
    return buffer.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_json_records_are_canonical(golden, name):
    stdout = golden[case_id(name, "json")]["stdout"]
    assert stdout == canonical("json", stdout)


# longer outputs, held to each format's contract and not recorded: an
# a-file census, a long construct and a classify report, and more rows of
# each command
CONTRACT_CASES = {
    "unique-a-file-arithmetic": ["unique", "--a-file", "@arithmetic"],
    "construct-arithmetic-deep": ["construct", "--family",
                                  "arithmetic:a=3,d=1", "--depth", "40"],
    "classify-family": ["classify", "--a-file", "@classify-a",
                        "--b-file", "@classify-b",
                        "--family", "arithmetic:a=2,d=1"],
    "expand-greedy-5-121": ["expand", "--theta", "5/121", "--terms", "5"],
    "verify-bracket-5-121": ["verify", "--b-file", "@verify-b",
                             "--theta", "5/121", "--bracket"],
    "construct-plateaus-uneven": ["construct", "--a-file", "@plateaus-uneven",
                                  "--repeat-last-delta", "--depth", "12"],
    "unique-range-60": ["unique", "--range", "60"],
    "family-fibonacci-60": ["family", "--spec", "fibonacci", "--terms", "60"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", CONTRACT_CASES)
def test_outputs_are_canonical(tmp_path, name, fmt):
    code, stdout, _ = run_args(CONTRACT_CASES[name], fmt, tmp_path)
    assert code == 0
    # as lines, so that a failure reports the first line that differs
    # instead of diffing every line
    lines = stdout.splitlines(keepends=True)
    assert lines
    assert lines == canonical(fmt, stdout).splitlines(keepends=True)


def test_json_formats_no_table_rows(monkeypatch, tmp_path):
    formatted = []

    def counting(x):
        formatted.append(x)
        return f"{x.numerator}/{x.denominator}"

    monkeypatch.setattr(cli, "format_rational", counting)
    code, _, _ = run_case("verify-ok", "json", tmp_path)
    assert code == 0
    assert formatted == [Fraction(3, 4)]  # theta, and no residual


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_build_no_json(monkeypatch, tmp_path, fmt):
    def refuse(result):
        raise AssertionError("json document built")

    monkeypatch.setattr(cli, "_construct_doc", refuse)
    code, _, _ = run_case("construct-family", fmt, tmp_path)
    assert code == 0



def census_recount(rows: list[CensusRow]) -> dict:
    """The census summary counted again from rows held in a list."""
    cases = Counter(r.open_case for r in rows)
    cases.update(r.closed_case for r in rows)
    return {
        "pairs": len(rows),
        "open-unique": sum(r.open_unique for r in rows),
        "closed-unique": sum(r.closed_unique for r in rows),
        "disagreements": sum(
            not (r.open_agrees and r.closed_agrees and r.consequences_ok)
            for r in rows),
        "cases": dict(sorted(cases.items())),
    }


def check_census_output(fmt: str, code: int, stdout: str,
                        rows: list[CensusRow]) -> None:
    expected = census_recount(rows)
    assert code == (1 if expected["disagreements"] else 0)
    if fmt == "json":
        assert json.loads(stdout) == expected
    elif fmt == "table":
        assert stdout == "".join(f"{key}: {value}\n"
                                 for key, value in expected.items())
    else:
        records = list(csv.reader(io.StringIO(stdout)))
        assert records[0] == list(CensusRow._fields)
        assert records[1:] == [["" if v is None else str(v) for v in row]
                               for row in rows]


CENSUS = {
    "range": (["--range", "40"], lambda: list(sweep(40))),
    "range-60": (["--range", "60"], lambda: list(sweep(60))),
    "range-80": (["--range", "80"], lambda: list(sweep(80))),
    "sample": (["--sample", "400", "--seed", "11"],
               lambda: list(sample_pairs(400, 11))),
    "sample-seed-5": (["--sample", "300", "--seed", "5"],
                      lambda: list(sample_pairs(300, 5))),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", CENSUS)
def test_census_summary_is_a_recount_of_its_rows(mode, fmt):
    args, rows = CENSUS[mode]
    code, stdout, _ = run_main(["unique", *args, "--format", fmt])
    assert code == 0  # no pair disagrees with its window count
    check_census_output(fmt, code, stdout, rows())


@pytest.mark.parametrize("fmt", FORMATS)
def test_census_reads_its_rows_once(monkeypatch, fmt):
    # the rows arrive as a one-shot iterator, so a second pass over them,
    # or a len(), cannot pass here; one planted disagreement must be
    # counted and turn the exit code to 1
    rows = list(sweep(30))
    rows[7] = rows[7]._replace(closed_agrees=False)
    monkeypatch.setattr(uniqueness, "sweep", lambda limit: iter(rows))
    code, stdout, _ = run_main(["unique", "--range", "30", "--format", fmt])
    check_census_output(fmt, code, stdout, rows)


@pytest.mark.parametrize("fmt", FORMATS)
def test_census_counts_a_wrong_criterion_once(monkeypatch, fmt):
    # one pair's open verdict is flipped, so it disagrees with its window
    # count: json, the table lines and the exit code each read the folded
    # summary, and each must count that pair once
    criterion = uniqueness._open_criterion

    def flipped(a, a_next):
        unique, k, case = criterion(a, a_next)
        return unique != ((a, a_next) == (2, 7)), k, case

    monkeypatch.setattr(uniqueness, "_open_criterion", flipped)
    rows = list(sweep(40))
    assert census_recount(rows)["disagreements"] == 1
    code, stdout, _ = run_main(["unique", "--range", "40", "--format", fmt])
    check_census_output(fmt, code, stdout, rows)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {}
        for name in CASES:
            for fmt in FORMATS:
                code, stdout, _ = run_case(name, fmt, Path(tmp))
                record[case_id(name, fmt)] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
