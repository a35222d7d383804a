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
