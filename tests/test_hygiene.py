"""Source hygiene: every name a module imports is used in that module, and
every private helper of the package is used somewhere in the package.

The package's ``__init__.py`` is left out of the import check, since it
imports names only to re-export them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spikesam").glob("*.py"))
FILES = sorted(
    p for p in (*PACKAGE, *(ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _references(tree: ast.AST) -> list[str]:
    """Every name read as a bare name or as an attribute under ``tree``."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """``_``-prefixed functions and classes that nothing but their own body refers to."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for ref in _references(tree):
            counts[ref] = counts.get(ref, 0) + 1
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            if counts.get(node.name, 0) == _references(node).count(node.name):
                unused.append(f"{name}:{node.lineno}: {node.name}")
    return unused


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["line 1: os"]
    assert unused_imports("from a.b import c, d as e\nprint(c, e)\n") == []


def test_detector_flags_an_unreferenced_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Box:\n    def _method(self):\n        pass\n    def __init__(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\nobj._method()\n",
    }
    assert unreferenced_helpers(sources) == ["a.py:4: _recursive", "a.py:6: _Box"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers({p.name: p.read_text() for p in PACKAGE}) == []
