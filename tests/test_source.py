"""Static checks on the package source, with the standard library only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quintics"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from m import x" bind one name
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_orphans():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import combinations, product as prod\n"
        "from .projgeom import incident\n"
        "def f(x):\n"
        "    return os.path.join(x, str(prod))\n"
    )
    assert _unused_imports(source) == [(3, "combinations"), (4, "incident")]


def _bound_names(node) -> list:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds (``_X = ...``, ``_X: T = ...``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _unreferenced_private_defs(sources: dict) -> list:
    """Module-level functions, classes and constants with a leading underscore
    that no name or attribute in any of the modules reads outside their own
    definition.

    ``sources`` maps a module name to its source text.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}

    def reads(node) -> list:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    everywhere = [name for tree in trees.values() for name in reads(tree)]
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _bound_names(node):
                if name.startswith("_") and not name.startswith("__") \
                        and everywhere.count(name) == reads(node).count(name):
                    orphans.append((module, node.lineno, name))
    return sorted(orphans)


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced_private_defs(sources) == []


def test_private_helper_check_sees_orphans():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _orphan():\n    return _used()\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Orphan:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
            "def public():\n    return 2\n"
            "_ORPHAN = 4\n"
            "_TABLE: dict = {1: _used}\n"
            "__all__ = ['public']\n"
        ),
        "b.py": (
            "from .a import _used\n"
            "def _by_attribute():\n    return _used()\n"
            "def _by_name():\n    return 3\n"
        ),
        "c.py": (
            "from . import a, b\nfrom .b import _by_name\n"
            "VALUE = b._by_attribute() + _by_name() + len(a._TABLE)\n"
        ),
    }
    assert _unreferenced_private_defs(sources) == [
        ("a.py", 3, "_orphan"), ("a.py", 5, "_recursive"), ("a.py", 7, "_Orphan"),
        ("a.py", 13, "_ORPHAN")]


def _imported_modules(source: str) -> set:
    """The top-level names of the modules a source imports, relative imports
    left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # the package's value classes derive from _value._Value instead
    assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8"))


def test_imported_module_scan_sees_every_form():
    source = ("import os.path, json as j\nfrom dataclasses import field\n"
              "from . import lsys\nfrom .errors import InputError\n"
              "def f():\n    import dataclasses\n")
    assert _imported_modules(source) == {"os", "json", "dataclasses"}


def test_importing_the_package_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import quintics, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out == "False\n"


_FOOTPRINT = """\
import sys
import quintics, quintics.cli
from quintics import HomogeneousPoly, PrimeField, singular_set_bruteforce
print(sorted(m for m in ("quintics.sieve", "quintics.formats") if m in sys.modules))
xyz = HomogeneousPoly(PrimeField(7), 3, {(1, 1, 1): 1})
sing = singular_set_bruteforce(xyz, 7)
print("quintics.sieve" in sys.modules, "quintics.formats" in sys.modules)
print(sorted(pt.coords for pt in sing.isolated_points),
      sing.line_components, sing.conic_components, sing.whole_plane)
"""


def test_importing_the_cli_loads_neither_the_sieve_nor_the_formats():
    # the sieve loads on the first brute-force call and the formats on the
    # first file read or write; xyz is singular at the three coordinate points
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines() == [
        "[]",
        "True False",
        "[(0, 0, 1), (0, 1, 0), (1, 0, 0)] () () False",
    ]
