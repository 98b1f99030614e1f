"""Every module of the package and of the tests uses each name it
imports, and every module-level name the package defines is read by
some package module.  Standard library only, so it runs wherever the
tests do; the package ``__init__.py`` is skipped, since its imports are
re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = [
    path for path in sorted((ROOT / "src" / "pitkit").glob("*.py")) if path.name != "__init__.py"
]
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def read_names(tree: ast.AST) -> set:
    """Every bare name a module reads, including names read only inside
    string annotations."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                expression = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = read_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def dead_names(sources: dict) -> list:
    """(module, line, name) of each function, class or variable defined
    at the top level of one of ``sources`` (module name -> source) that
    no module reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(read_names(tree) for tree in trees.values()))
    used.update(
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    )
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            dead += [(module, node.lineno, name) for name in names if name not in used]
    return sorted(dead)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_and_used_names():
    source = (
        "import os, sys\n"
        "from typing import Optional, Sequence\n"
        "import numpy as np\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "Sequence"), (3, "np")]


def test_package_reads_every_name_it_defines():
    assert dead_names({path.stem: path.read_text() for path in PACKAGE}) == []


def test_scanner_sees_dead_and_read_names():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "WIDTH: int = 4\n"
            "def helper(): return LIMIT\n"
            "def unused(): return helper()\n"
            "class Box: pass\n"
        ),
        "b": "from . import a\nx = a.WIDTH\ndef g(box: 'Box'): pass\n",
    }
    assert dead_names(sources) == [("a", 4, "unused"), ("b", 2, "x"), ("b", 3, "g")]
