"""Every name a module imports is read somewhere in that module.

A deletion elsewhere can leave an import behind that nothing uses; this
scan finds it.  Names listed in ``__all__`` count as read, since they are
imported to be exported.  A second scan checks that the package reads no
environment variable: its settings come from arguments only.  A third
keeps the integer input check in one place: only ``rational.py`` tests
whether a value is a bool.
"""
from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src/unitfrac", "tests", "demos")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, and the strings in __all__."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return read


def test_no_unused_imports():
    unused = []
    for directory in SCANNED:
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            read = read_names(tree)
            unused += [f"{path.relative_to(REPO)}:{line}: {name}"
                       for name, line in imported_names(tree).items()
                       if name not in read]
    assert unused == []


def test_package_reads_no_environment():
    env_names = {"environ", "getenv"}
    reads = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                hit = (isinstance(node.value, ast.Name)
                       and node.value.id == "os" and node.attr in env_names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "os" and any(
                    alias.name in env_names for alias in node.names)
            else:
                hit = False
            if hit:
                reads.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert reads == []


def test_bool_checks_only_in_rational():
    """``isinstance(x, bool)``, alone or in a tuple, outside rational.py."""
    hits = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(name, ast.Name) and name.id == "bool"
                       for name in names):
                    hits.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert hits and all(hit.startswith("src/unitfrac/rational.py:")
                        for hit in hits), hits
