"""Every module of the package and of the tests uses each name it
imports.  Standard library only, so it runs wherever the tests do; the
package ``__init__.py`` is skipped, since its imports are re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [
    path
    for folder in (ROOT / "src" / "pitkit", ROOT / "tests")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names read only inside string annotations
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


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
