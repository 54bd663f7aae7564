"""No module under ``src/repro`` keeps a module-level import it never uses.

The check walks each module's AST: a name bound by a top-level
``import``/``from ... import`` is used when it appears as a name anywhere
in the module, including inside a string annotation.  Names listed in
``__all__`` are exported, and a package's ``__init__`` imports are its
re-exports, so neither counts as unused.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _annotation_names(tree: ast.AST):
    """Names inside string annotations such as ``Optional["GraphPair"]``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for sub in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _exported(tree: ast.Module):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    """``[(line, name)]`` of module-level imports the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | _exported(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_an_unused_import_and_spares_exports():
    source = (
        "from __future__ import annotations\n"
        "import io\n"
        "import numpy as np\n"
        "from typing import Optional, Tuple\n"
        "from x import Exported, Quoted\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Optional[Quoted]') -> int:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "io"), (4, "Tuple")]


def test_no_module_keeps_an_unused_import():
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused module-level imports:\n" + "\n".join(found)
