"""Every survivor ``tools/mutate.py`` lists as equivalent is still a mutant.

A refactor that deletes or rewrites a listed comparison would leave its
reason behind. Here each ``(function, before, after)`` key of
``EQUIVALENT`` is matched against the comparisons of its module and their
flips, named as the tool names them, from the AST alone: no mutant runs.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate",
                                               REPO / "tools/mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def mutants(module: str) -> set[tuple[str, str, str]]:
    """(function, before, after) of every mutant the tool makes of a
    module of the package."""
    tree = ast.parse((REPO / "src/unitfrac" / f"{module}.py").read_text())
    return {(function, *mutate._names(node, i))
            for function, node, i in mutate._comparisons(tree, set())}


@pytest.mark.parametrize("module", mutate.EQUIVALENT)
def test_every_equivalent_names_a_mutant(module):
    listed = mutate.EQUIVALENT[module]
    assert set(listed) - mutants(module) == set()
    assert all(listed.values())


def test_comparisons_passed_by_name_are_flipped():
    # operator's comparison functions and the comparison dunders flip to
    # the partners of their operators; other names are left alone, and a
    # second flip puts the source back
    tree = ast.parse("def f(pairs, width, other):\n"
                     "    return (all(map(operator.lt, *pairs))\n"
                     "            and all(map(width.__eq__, pairs))\n"
                     "            and other.lt and width.__floordiv__(2)\n"
                     "            and operator.__ge__(width, 1))\n")
    source = ast.unparse(tree)
    sites = mutate._comparisons(tree, set())
    assert [(function, *mutate._names(node, i))
            for function, node, i in sites] == [
        ("f", "operator.lt", "operator.le"),
        ("f", "width.__eq__", "width.__ne__"),
        ("f", "operator.__ge__", "operator.__gt__")]
    for _, node, i in sites:
        mutate._flip(node, i)
    assert "operator.le, *pairs" in ast.unparse(tree)
    for _, node, i in sites:
        mutate._flip(node, i)
    assert ast.unparse(tree) == source
    assert mutate.OPERATOR_FLIP == {"lt": "le", "le": "lt", "gt": "ge",
                                    "ge": "gt", "eq": "ne", "ne": "eq"}


def test_a_module_with_no_comparison_copies_no_tree(monkeypatch, capsys):
    # nothing to flip: the summary comes at once, before any copy of the
    # tree or unmutated run of the tests
    def refuse(*args, **kwargs):
        raise AssertionError("the tree was copied")

    monkeypatch.setattr(mutate.shutil, "copytree", refuse)
    assert mutate.main([str(REPO / "src/unitfrac/__main__.py")]) == 0
    assert capsys.readouterr().out.startswith(
        "0 mutants, 0 unexplained survivors in ")


def test_options_by_their_full_names_only(monkeypatch, capsys):
    # argparse would read "--func" as "--function"; it is refused before
    # any run
    def refuse(*args, **kwargs):
        raise AssertionError("the tree was copied")

    monkeypatch.setattr(mutate.shutil, "copytree", refuse)
    with pytest.raises(SystemExit) as exc:
        mutate.main([str(REPO / "src/unitfrac/_json.py"), "--func", "_rows"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --func" in capsys.readouterr().err
