"""End-to-end command line checks via subprocess.

Exit codes: 0 success, 1 verification failure, 2 malformed input or
internal error.  Output must be byte-identical across repeat runs.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unitfrac
from unitfrac.families import FibonacciFamily, theta_partial
from unitfrac.rational import format_rational
from unitfrac.uniqueness import sweep

REPO = Path(__file__).resolve().parent.parent


def child_env(extra=None) -> dict:
    """Environment in which a child interpreter imports this unitfrac."""
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(unitfrac.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    if extra:
        env.update(extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "unitfrac.cli", *args],
        capture_output=True, text=True, env=child_env(env_extra))


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


# ------------------------------------------------------------------ expand

def test_expand_greedy_json():
    proc = run_cli("expand", "--theta", "19/48", "--terms", "2",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {"theta", "t", "lambda", "a", "b", "residuals"}
    assert doc["theta"] == "19/48"
    assert doc["a"] == [3, 17] and doc["b"] == [3, 17]
    assert doc["residuals"] == ["1/16", "1/272"]


def test_expand_scaled_last_greedy():
    proc = run_cli("expand", "--theta", "19/48", "--t", "4/3",
                   "--terms", "2", "--last-greedy", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["b"] == [4, 7]
    proc = run_cli("expand", "--theta", "19/48", "--t", "4/3",
                   "--terms", "2", "--format", "json")
    assert json.loads(proc.stdout)["b"] == [4, 10]


@pytest.mark.parametrize("theta", ["0/1", "5/4", "-1/2", "abc", "1/0"])
def test_expand_rejects_bad_theta(theta):
    proc = run_cli("expand", "--theta", theta, "--terms", "3")
    assert proc.returncode == 2


def test_expand_table_deterministic():
    first = run_cli("expand", "--theta", "2/3", "--terms", "4")
    second = run_cli("expand", "--theta", "2/3", "--terms", "4")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert "1/6" in first.stdout


def test_expand_term_cap_env():
    proc = run_cli("expand", "--theta", "2/3", "--terms", "10",
                   env_extra={"UNITFRAC_MAX_TERMS": "5"})
    assert proc.returncode == 2


# ------------------------------------------------------------------ verify

def test_verify_long_quadratic_file(tmp_path):
    b_file = write_lines(tmp_path / "b.txt",
                         (n * (n + 2) for n in range(1, 501)))
    proc = run_cli("verify", "--b-file", b_file, "--theta", "3/4",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["a"][:4] == [2, 3, 4, 5]
    assert doc["first-weak-violation"] is None
    assert doc["bracket-checked"] is False


def test_verify_weakness_violation(tmp_path):
    b_file = write_lines(tmp_path / "b.txt", [2])
    proc = run_cli("verify", "--b-file", b_file, "--theta", "1/2",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["first-weak-violation"] == 1


def test_verify_overrun(tmp_path):
    b_file = write_lines(tmp_path / "b.txt", [2, 3, 10])
    proc = run_cli("verify", "--b-file", b_file, "--theta", "51/100",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["overrun-at"] == 3


def fib_b(count):
    fam = FibonacciFamily()
    return [fam.b(n) for n in range(1, count + 1)]


def fib_theta_string():
    return format_rational(theta_partial(FibonacciFamily(), 25).midpoint())


def test_verify_bracket_clean(tmp_path):
    b_file = write_lines(tmp_path / "b.txt", fib_b(6))
    proc = run_cli("verify", "--b-file", b_file, "--theta",
                   fib_theta_string(), "--bracket", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["bracket-checked"] is True
    assert doc["bracket-failures"] == []


def test_verify_bracket_flags_oversized_choice(tmp_path):
    values = fib_b(6)
    values[1] = 6
    b_file = write_lines(tmp_path / "b.txt", values)
    proc = run_cli("verify", "--b-file", b_file, "--theta",
                   fib_theta_string(), "--bracket", "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["bracket-failures"] == [2]
    # without the bracket check the same file verifies
    proc = run_cli("verify", "--b-file", b_file, "--theta",
                   fib_theta_string(), "--format", "json")
    assert proc.returncode == 0


@pytest.mark.parametrize("content", ["", "12\nabc\n", "3.5\n"])
def test_verify_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "b.txt"
    path.write_text(content)
    proc = run_cli("verify", "--b-file", str(path), "--theta", "1/2")
    assert proc.returncode == 2


def test_verify_missing_file():
    proc = run_cli("verify", "--b-file", "/nonexistent/b.txt",
                   "--theta", "1/2")
    assert proc.returncode == 2


# --------------------------------------------------------------- construct

def test_construct_from_file_with_rule(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 3, 5])
    proc = run_cli("construct", "--a-file", a_file, "--repeat-last-delta",
                   "--depth", "5", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["b"] == [5, 7, 17, 31, 49]
    assert doc["verification-depth"] == 5
    assert doc["theta-enclosure"]["lo_open"] is True


def test_construct_from_family():
    proc = run_cli("construct", "--family", "geometric:a=2,r=3",
                   "--depth", "6", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["b"] == [2, 8, 26, 80, 242, 728]


def test_construct_exhaustion_is_malformed(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 2, 3, 3, 4, 4])
    proc = run_cli("construct", "--a-file", a_file, "--repeat-last-delta",
                   "--depth", "4")
    assert proc.returncode == 2
    proc = run_cli("construct", "--a-file", a_file, "--depth", "4")
    assert proc.returncode == 2


def test_construct_source_flags_exclusive(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 3, 5])
    proc = run_cli("construct", "--a-file", a_file, "--family", "fibonacci",
                   "--depth", "3")
    assert proc.returncode == 2
    proc = run_cli("construct", "--depth", "3")
    assert proc.returncode == 2


# ------------------------------------------------------------------ unique

def test_unique_pair_json():
    proc = run_cli("unique", "--pair", "2", "7", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["open"]["unique"] is True and doc["open"]["k"] == 2
    assert doc["closed"]["unique"] is True
    assert doc["consequences"]["ratio_above_3"] is True


def test_unique_range_summary():
    proc = run_cli("unique", "--range", "60", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    rows = sweep(60)
    assert doc["pairs"] == len(rows)
    assert doc["open-unique"] == sum(r["open_unique"] for r in rows)
    assert doc["closed-unique"] == sum(r["closed_unique"] for r in rows)
    assert doc["disagreements"] == 0


def test_unique_sample_deterministic():
    first = run_cli("unique", "--sample", "10", "--seed", "3",
                    "--format", "csv")
    second = run_cli("unique", "--sample", "10", "--seed", "3",
                     "--format", "csv")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 11


def test_unique_file_reports(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 7, 57])
    proc = run_cli("unique", "--a-file", a_file, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["sufficient"] is True and doc["necessary"] is True
    a_file = write_lines(tmp_path / "a2.txt", [2, 4, 20])
    doc = json.loads(run_cli("unique", "--a-file", a_file,
                             "--format", "json").stdout)
    assert doc["sufficient"] is False


# ------------------------------------------------------------------ family

def test_family_table_and_enclosure():
    proc = run_cli("family", "--spec", "fibonacci", "--terms", "6",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["a"] == [1, 2, 3, 5, 8, 13]
    assert doc["b"] == [3, 5, 7, 13, 20, 34]
    assert doc["bracket-ok"] is True
    assert "theta-enclosure" not in doc
    proc = run_cli("family", "--spec", "geometric:a=2,r=3", "--terms", "30",
                   "--theta-enclosure", "--format", "json")
    doc = json.loads(proc.stdout)
    lo = Fraction(doc["theta-enclosure"]["lo"])
    assert abs(float(lo) - 0.68215) < 1e-4


def test_family_rejects_unknown_spec():
    proc = run_cli("family", "--spec", "explicit", "--terms", "4")
    assert proc.returncode == 2


# ---------------------------------------------------------------- classify

def test_classify_cli(tmp_path):
    a_file = write_lines(tmp_path / "a.txt",
                         (n + 1 for n in range(1, 201)))
    b_file = write_lines(tmp_path / "b.txt",
                         (n * (n + 2) for n in range(1, 201)))
    proc = run_cli("classify", "--a-file", a_file, "--b-file", b_file,
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "not-producible-evidence"

    geo_a = write_lines(tmp_path / "ga.txt",
                        (2 * 3 ** (n - 1) for n in range(1, 21)))
    geo_b = write_lines(tmp_path / "gb.txt",
                        (3**n - 1 for n in range(1, 21)))
    proc = run_cli("classify", "--a-file", geo_a, "--b-file", geo_b,
                   "--family", "geometric:a=2,r=3", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "producible-evidence"
    assert doc["closed-form-limit"] == "3/1"
    proc = run_cli("classify", "--a-file", geo_a, "--b-file", geo_b,
                   "--t-grid", "1,3/2", "--format", "json")
    doc = json.loads(proc.stdout)
    assert [w["t"] for w in doc["witness-counts"]] == ["1/1", "3/2"]


def test_classify_rejects_empty_t_grid(tmp_path):
    a_file = write_lines(tmp_path / "a.txt", [2, 3, 4])
    b_file = write_lines(tmp_path / "b.txt", [7, 13, 21])
    proc = run_cli("classify", "--a-file", a_file, "--b-file", b_file,
                   "--t-grid", "")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: not a rational literal: ''\n"


def test_help_and_unknown_command():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for sub in ("expand", "verify", "construct", "unique", "family",
                "classify"):
        assert sub in proc.stdout
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_exits_quietly(unbuffered):
    # the csv is far larger than a pipe buffer, so the writer is still
    # writing when the reader closes its end, as `| head -1` does; stdout
    # is buffered or not by PYTHONUNBUFFERED, and both must notice
    proc = subprocess.Popen(
        [sys.executable, "-m", "unitfrac.cli", "unique", "--range", "120",
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


# ------------------------------------------------------------------- demos

@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
