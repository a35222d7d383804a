"""Every name a module imports is read somewhere in that module.

A deletion elsewhere can leave an import behind that nothing uses; this
scan finds it.  A second scan checks that the package reads no
environment variable: its settings come from arguments only.  A third
keeps the integer input check in one place: only ``rational.py`` tests
whether a value is a bool, and only it calls ``int``, so text becomes an
integer by one grammar.  A fourth keeps every output document in the
command line: no library type serialises itself, and only ``cli.py``
imports ``format_rational``; and no test file of a library module
imports ``unitfrac.cli``, since a document's bytes are pinned by its
golden record. A fifth keeps module state with the walk that owns it:
only ``greedy.py`` has a ``global`` statement. A sixth keeps every module a
plain module: none assigns a ``__class__`` or writes into ``sys.modules``.

The rest keep every process start light. No module of the package
imports ``dataclasses``, and no record's field types are strings, which
typing compiles into ``ForwardRef``s at import. In a fresh interpreter,
importing the package and its command line loads none of its algorithm
modules, nor ``json``, ``dataclasses``, ``inspect`` and ``csv``: the
namespace resolves its names on first use, and each command imports the
modules it runs, ``greedy`` for the parser, and no others. The package's
``construct`` is its submodule, however it was imported first.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src/unitfrac", "tests", "demos")
MODULES = sorted(path.stem for path in (REPO / "src/unitfrac").glob("*.py")
                 if path.stem not in ("__init__", "__main__"))


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
    """Names loaded anywhere in the module."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


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


def test_int_calls_only_in_rational():
    """``int(...)`` or ``map(int, ...)`` outside rational.py: text becomes
    an integer by one grammar, ``rational.parse_int``'s."""
    hits = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "map" and node.args:
                called = node.args[0]
            else:
                called = node.func
            if isinstance(called, ast.Name) and called.id == "int":
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
    assert formatters == ["cli.py"]


def test_library_tests_import_no_cli():
    """A library module's test file reaches the command line only through
    ``test_cli_golden.run_main``; the documents ``cli`` builds are pinned
    by ``tests/cli_golden.json``."""
    import unitfrac
    hits = []
    for module in unitfrac._HOMES:
        path = REPO / "tests" / f"test_{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(f"{name}.".startswith("unitfrac.cli.") for name in names):
                hits.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert hits == []


def test_global_statements_only_in_greedy():
    """The walk's square memo is the package's one rebound module state."""
    hits = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                hits.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert hits and all(hit.startswith("src/unitfrac/greedy.py:")
                        for hit in hits), hits


def test_modules_stay_plain():
    """No module assigns an object's ``__class__`` or into ``sys.modules``,
    so Python binds each submodule as it binds any other:
    ``import unitfrac.construct as m`` gives a module."""
    hits = []
    for path in sorted((REPO / "src/unitfrac").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if (isinstance(node, ast.Attribute) and node.attr == "__class__"
                    or isinstance(node, ast.Subscript)
                    and ast.unparse(node.value) == "sys.modules"):
                hits.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert hits == []


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


def test_records_hold_no_string_annotations():
    """Under ``from __future__ import annotations`` each field type of a
    ``NamedTuple`` is a string that typing compiles into a ``ForwardRef``
    while the module is imported: 59 compiles, once most of this
    package's import time."""
    hints = {}
    for name in MODULES:
        module = importlib.import_module(f"unitfrac.{name}")
        for record in vars(module).values():
            if (isinstance(record, type) and issubclass(record, tuple)
                    and record.__module__ == module.__name__):
                for cls in record.__mro__:
                    for field, hint in vars(cls).get(
                            "__annotations__", {}).items():
                        hints[f"{name}.{record.__name__}.{field}"] = hint
    assert "cli.Report.doc" in hints and "rational.RationalInterval.lo" in hints
    assert [key for key, hint in hints.items()
            if isinstance(hint, (str, typing.ForwardRef))] == []


def fresh_modules(script: str, *argv: str) -> list[str]:
    """The names ``script`` prints last, run with ``argv`` in a fresh
    interpreter that imports this unitfrac."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True,
        text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    return proc.stdout.splitlines()[-1].split()


def test_start_up_import_graph():
    """The modules ``import unitfrac, unitfrac.cli`` adds to a fresh
    interpreter. ``dataclasses`` brings ``inspect``, and the two were most
    of the start-up time of every command; the csv output joins its fields
    itself, so ``csv`` is not needed either; ``json`` is for json output
    alone, and each algorithm module for the commands that run it. Modules
    the interpreter loaded before, as a site hook may, are not counted."""
    added = fresh_modules("import sys\n"
                          "before = set(sys.modules)\n"
                          "import unitfrac, unitfrac.cli\n"
                          "print(*sorted(set(sys.modules) - before))\n")
    assert "unitfrac.cli" in added
    assert {"dataclasses", "inspect", "csv", "json", "unitfrac._json",
            "unitfrac.greedy", "unitfrac.construct", "unitfrac.families",
            "unitfrac.uniqueness", "unitfrac.diagnostics",
            }.isdisjoint(added), added


# build_parser imports greedy for the choices of expand --selection, so
# every command loads it, whatever it runs
PARSER_MODULE = "greedy"
COMMAND_MODULES = {
    "expand": (["expand", "--theta", "19/48", "--terms", "4"], []),
    "expand-json": (["expand", "--theta", "19/48", "--terms", "4",
                     "--format", "json"], ["_json"]),
    "verify": (["verify", "--b-file", "@b", "--theta", "19/48"], []),
    "construct": (["construct", "--family", "arithmetic:a=2,d=1",
                   "--depth", "3", "--format", "json"],
                  ["_json", "construct", "families"]),
    "unique-pair": (["unique", "--pair", "2", "7"], ["uniqueness"]),
    "unique-file": (["unique", "--a-file", "@b"], ["uniqueness"]),
    "unique-range": (["unique", "--range", "10", "--format", "csv"],
                     ["uniqueness"]),
    "unique-sample": (["unique", "--sample", "3"], ["uniqueness"]),
    "family": (["family", "--spec", "fibonacci", "--terms", "4"],
               ["families"]),
    "classify": (["classify", "--a-file", "@b", "--b-file", "@b"],
                 ["diagnostics", "families"]),
}


@pytest.mark.parametrize("case", COMMAND_MODULES)
def test_command_imports_what_it_runs(case, tmp_path):
    """The package modules one ``cli.main`` call loads, besides the
    package, ``cli``, ``rational`` and ``PARSER_MODULE``; ``json`` comes
    with ``_json``, unless the interpreter loaded it before."""
    argv, modules = COMMAND_MODULES[case]
    # "@b" stands for a file of the greedy denominators of 19/48
    b_file = tmp_path / "b.txt"
    b_file.write_text("3\n17\n273\n")
    argv = [str(b_file) if arg == "@b" else arg for arg in argv]
    loaded = fresh_modules(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from unitfrac import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print()\n"
        "print(*sorted(m for m in set(sys.modules) - before\n"
        "              if m.startswith('unitfrac') or m == 'json'))\n", *argv)
    expected = ["cli", "rational", PARSER_MODULE, *modules]
    assert loaded == sorted(["unitfrac", *(f"unitfrac.{m}" for m in expected),
                             *(["json"] if "_json" in modules else [])])


def test_namespace_resolves_every_public_name():
    import unitfrac
    for module, names in unitfrac._HOMES.items():
        home = importlib.import_module(f"unitfrac.{module}")
        for name in names:
            assert getattr(unitfrac, name) is getattr(home, name), name


@pytest.mark.parametrize("script", [
    "import unitfrac.construct as m\n"
    "from unitfrac import TargetSequence, construct\n",
    "from unitfrac import TargetSequence, construct\n"
    "import unitfrac.construct as m\n",
], ids=["submodule-first", "package-first"])
def test_construct_is_a_plain_submodule(script):
    """``unitfrac.construct`` is the module, as every submodule is, and the
    function and ``TargetSequence`` are its attributes; the package still
    resolves ``TargetSequence``, whichever is imported first."""
    names = fresh_modules(
        script + "import unitfrac\n"
        "print(type(m).__name__, m is construct is unitfrac.construct,\n"
        "      m.construct.__name__, m.TargetSequence is TargetSequence,\n"
        "      type(TargetSequence).__name__)\n")
    assert names == ["module", "True", "construct", "True", "type"]
