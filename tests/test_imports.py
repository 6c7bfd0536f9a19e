"""Every module-level import in the package is used by its module.

A deletion that leaves an import behind shows up here.  Each module of
`src/weyl1` except `__init__` (which imports to re-export) is parsed, and
every name a top-level import binds must occur as a name in the module,
quoted annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weyl1"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """(bound name, line) for each top-level import; __future__ excluded."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _names(tree: ast.AST) -> set:
    """Every identifier used as a name, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for c in ast.walk(ann) if ann else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= _names(ast.parse(c.value, mode="eval"))
    return names


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"core", "linalg", "windows", "checks", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
