"""Every name a module imports is read somewhere in that module.

A deletion elsewhere can leave an import behind that nothing uses; this
scan finds it.  Names listed in ``__all__`` count as read, since they are
imported to be exported.  A second scan checks that the package reads no
environment variable: its settings come from arguments only.  A third
keeps the integer input check in one place: only ``rational.py`` tests
whether a value is a bool.  A fourth keeps every output document in the
command line: no library type serialises itself, and only ``cli.py`` and
the package namespace import ``format_rational``. The last two keep every
process start light: no module of the package imports ``dataclasses``,
and importing the package and its command line loads none of
``dataclasses``, ``inspect`` and ``csv``.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_documents_only_in_cli():
    methods = []
    formatters = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = str(path.relative_to(REPO))
        methods += [f"{where}:{node.lineno}: {node.name}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name in ("to_json_dict", "from_json_dict")]
        if "format_rational" in imported_names(tree):
            formatters.append(path.name)
    assert methods == []
    assert formatters == ["__init__.py", "cli.py"]


def test_no_dataclasses_import():
    hits = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                hits.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert hits == []


def test_start_up_import_graph():
    """The modules ``import unitfrac, unitfrac.cli`` adds to a fresh
    interpreter. ``dataclasses`` brings ``inspect``, and the two were most
    of the start-up time of every command; the csv output joins its fields
    itself, so ``csv`` is not needed either. Modules the interpreter loaded
    before, as a site hook may, are not counted."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import unitfrac, unitfrac.cli\n"
              "print(*sorted(set(sys.modules) - before))\n")
    added = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}).stdout.split()
    assert "unitfrac.cli" in added
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(added), added
