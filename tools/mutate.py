"""Mutation run over the comparisons of one module.

    python tools/mutate.py src/unitfrac/construct.py
    python tools/mutate.py src/unitfrac/greedy.py --function _walk
    python tools/mutate.py src/unitfrac/greedy.py -- tests/test_greedy.py

Each ``<``, ``<=``, ``>``, ``>=``, ``==`` and ``!=`` in the module, or in
the functions named by ``--function``, is flipped to its boundary partner
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), one at a time,
through ``ast``. So is each comparison passed by name, as in
``map(operator.lt, ...)`` or ``map(width.__eq__, ...)``: the ``operator``
functions ``lt`` to ``ne`` and the methods ``__lt__`` to ``__ne__``, with
the same partners (``operator.lt`` and ``operator.le``, ``x.__eq__`` and
``x.__ne__``, and so on). Each mutant is written into a copy of the source tree in a
temporary directory (``TMPDIR`` chooses where), and the tests run against
it with ``--hypothesis-seed=0``: the test files given after ``--``, or else
the files ``tests/test_<module>*.py`` (the module's name without leading
underscores, so ``_json`` is tested by ``tests/test_json_render.py``),
``tests/test_acceptance.py`` and ``tests/test_cli_golden.py``. A mutant is
killed when the tests fail or time out. The tests must pass on the
unmutated copy first; a module with no comparison is reported at once,
with no copy and no run.

A survivor listed in ``EQUIVALENT`` is reported with its reason there;
any other survivor makes the exit status 1. The summary line ends with
the run's wall time. A mutant is named by its function and by the
comparison (or the name) before and after the flip, as ``ast.unparse``
writes them, so the list outlives changes of line numbers.
Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
# the same partners for comparisons passed by name: operator.lt and
# operator.le, x.__lt__ and x.__le__, ...
_NAMES = {ast.Lt: "lt", ast.LtE: "le", ast.Gt: "gt", ast.GtE: "ge",
          ast.Eq: "eq", ast.NotEq: "ne"}
OPERATOR_FLIP = {_NAMES[op]: _NAMES[partner] for op, partner in FLIP.items()}
DUNDER_FLIP = {f"__{name}__": f"__{partner}__"
               for name, partner in OPERATOR_FLIP.items()}
TIMEOUT_S = 600  # per mutant; a mutant can loop for ever

EQUIVALENT = {
    "construct": {
        ("construct", "tn <= 0", "tn < 0"):
            "b = (a*a' - 1) // gap gives tn = b*gap - lo_n >= 2a - 1 >= 3, "
            "so tn is never 0",
        ("construct", "tn * bd < bn * td", "tn * bd <= bn * td"):
            "at equal values both sides are the same reduced pair",
        ("construct", "a * a_next <= mid", "a * a_next < mid"):
            "b = (a*a' - 1) // gap gives a*a' - b*gap >= 1, so the two "
            "are never equal",
    },
    "greedy": {
        ("_walk_square", "x.bit_length() < _MEMO_BITS",
         "x.bit_length() <= _MEMO_BITS"):
            "memo or not, the square is the same",
        ("_walk", "p < _WORD_BOUND", "p <= _WORD_BOUND"):
            "the identity for p/q - 1/b holds on either path",
        ("_walk", "0 < d", "0 <= d"):
            "the identity holds on either path, including d = 0, where it "
            "gives -s/(q*m) = p/q - 1/m",
        ("_walk", "d < _WORD_BOUND", "d <= _WORD_BOUND"):
            "the identity for p/q - 1/b holds on either path",
    },
    "diagnostics": {
        ("_product_gap_below", "(lo1 << e1 - e) - (hi2 << e2 - e) >= c_units",
         "(lo1 << e1 - e) - (hi2 << e2 - e) > c_units"):
            "at equality the bounds decide nothing and the exact products "
            "below decide the same",
        ("greedy_ratio_checks", "0 <= d", "0 < d"):
            "b*b - b + 1 = m*m + (2d - 1)*m + d*d - d + 1 holds for every d, "
            "so either path gives the same bound",
        ("greedy_ratio_checks", "d < _WORD_BOUND", "d <= _WORD_BOUND"):
            "b*b - b + 1 = m*m + (2d - 1)*m + d*d - d + 1 holds for every d, "
            "so either path gives the same bound",
    },
    "rational": {
        ("positive_ints", "min(values) >= 1", "min(values) > 1"):
            "a list holding 1 goes to the per-element loop, which accepts "
            "it: the same tuple, only slower",
        ("_square", "x.bit_length() < _SSA_BITS",
         "x.bit_length() <= _SSA_BITS"):
            "both bands are exact at the cutoff",
    },
}


def _named_comparison(node: ast.AST) -> bool:
    """Whether node is ``operator.lt`` or the like, or ``x.__lt__`` or
    the like: a comparison passed by name."""
    return isinstance(node, ast.Attribute) and (
        node.attr in DUNDER_FLIP
        or node.attr in OPERATOR_FLIP and isinstance(node.value, ast.Name)
        and node.value.id == "operator")


def _comparisons(tree: ast.Module, functions: set[str]):
    """(function, node, op index) of every flippable comparison, in
    source order, inside one of ``functions`` when any are named. A
    comparison passed by name has index 0."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if not functions or inner in functions:
                if isinstance(child, ast.Compare):
                    found.extend((inner, child, i)
                                 for i, op in enumerate(child.ops)
                                 if type(op) in FLIP)
                elif _named_comparison(child):
                    found.append((inner, child, 0))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def _flip(node: ast.Compare | ast.Attribute, i: int) -> None:
    """Flip the i-th comparison of node in place; a second flip undoes
    the first."""
    if isinstance(node, ast.Compare):
        node.ops[i] = FLIP[type(node.ops[i])]()
    else:
        node.attr = (DUNDER_FLIP.get(node.attr)
                     or OPERATOR_FLIP[node.attr])


def _names(node: ast.Compare | ast.Attribute, i: int) -> tuple[str, str]:
    """The i-th comparison of node before and after its flip, as
    ``ast.unparse`` writes them: the mutant's name in ``EQUIVALENT``. Of
    a chain that is the i-th comparison alone."""
    if isinstance(node, ast.Compare):
        one = ast.Compare(node.comparators[i - 1] if i else node.left,
                          [node.ops[i]], [node.comparators[i]])
    else:
        one = ast.Attribute(node.value, node.attr, ast.Load())
    before = ast.unparse(one)
    _flip(one, 0)
    return before, ast.unparse(one)


def _first_failure(tree_dir: Path, tests: list[str]):
    """None when the tests pass in tree_dir, else the first failing test
    as pytest names it, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree_dir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *tests],
            cwd=tree_dir, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ")[1]
    return f"exit {proc.returncode}"


def _summary(mutants: int, survivors: int, start: float) -> int:
    """Print the summary line and return the exit status."""
    print(f"{mutants} mutants, {survivors} unexplained survivors "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("module",
                        help="source file, e.g. src/unitfrac/greedy.py")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only this function (repeatable)")
    parser.add_argument("tests", nargs="*", help="test files, after --")
    args = parser.parse_intermixed_args(argv)
    start = time.perf_counter()

    path = Path(args.module).resolve()
    rel = path.relative_to(ROOT)
    name = path.stem
    own = sorted(str(test.relative_to(ROOT)) for test in
                 (ROOT / "tests").glob(f"test_{name.lstrip('_')}*.py"))
    tests = args.tests or list(dict.fromkeys(
        own + ["tests/test_acceptance.py", "tests/test_cli_golden.py"]))
    source = path.read_text()
    tree = ast.parse(source)
    sites = _comparisons(tree, set(args.function))
    known = EQUIVALENT.get(name, {})
    if not sites:
        # nothing to flip, so no copy of the tree and no unmutated run
        return _summary(0, 0, start)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache",
            ".bench_build"))
        target = copy / rel
        if _first_failure(copy, tests) is not None:
            print("the tests fail on the unmutated tree", file=sys.stderr)
            return 2
        survivors = 0
        for function, node, i in sites:
            before, after = _names(node, i)
            _flip(node, i)
            target.write_text(ast.unparse(tree))
            _flip(node, i)
            failure = _first_failure(copy, tests)
            reason = known.get((function, before, after))
            if failure is not None:
                verdict = f"killed by {failure}" + (
                    " (listed as equivalent)" if reason else "")
            elif reason:
                verdict = f"equivalent: {reason}"
            else:
                verdict = "SURVIVED"
                survivors += 1
            print(f"{rel}:{node.lineno} {function}: {before} -> {after}: "
                  f"{verdict}", flush=True)
        target.write_text(source)
    return _summary(len(sites), survivors, start)


if __name__ == "__main__":
    sys.exit(main())
