"""Source hygiene: every name a library module imports is read in it,
and every function or class it defines at module level is used
somewhere else: by a library module, a test or the benchmark.

``__init__.py`` is skipped by the import scan because it imports names
to re-export them, and ``from __future__`` imports because they are
compiler directives.  Functions that a decorator registers, such as the
CLI commands, are exempt from the definition scan.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypermet"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
USERS = sorted({*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "perfbench").rglob("*.py")})


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    src = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(src) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def names_used(node) -> set[str]:
    """Every name that node reads: bare, as an attribute, or imported."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def unused_definitions(source: str, elsewhere: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each module-level function or class of source that
    neither the rest of the module nor elsewhere uses; its own body does
    not count, and a decorated function is registered, so used."""
    body = ast.parse(source).body
    found = []
    for i, node in enumerate(body):
        if isinstance(node, ast.ClassDef) or (isinstance(node, ast.FunctionDef)
                                              and not node.decorator_list):
            rest = set().union(*(names_used(other) for j, other in enumerate(body) if j != i))
            if node.name not in rest | elsewhere:
                found.append((node.lineno, node.name))
    return found


def test_the_scan_sees_an_unused_definition():
    src = ("def helper():\n    return helper()\n\n"
           "def used():\n    return 1\n\n"
           "@register\ndef command():\n    pass\n\n"
           "class Lonely:\n    pass\n\n"
           "x = used()\n")
    assert unused_definitions(src, set()) == [(1, "helper"), (11, "Lonely")]
    assert unused_definitions(src, {"helper", "Lonely"}) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_definitions(module):
    elsewhere = set().union(*(names_used(ast.parse(path.read_text()))
                              for path in USERS if path != SRC / module))
    assert unused_definitions((SRC / module).read_text(), elsewhere) == []
