"""Every module-level import in the package is used by its module, and
every private function, class or method has a caller.

A deletion that leaves an import or a helper behind shows up here.  Each
module of `src/weyl1` except `__init__` (which imports to re-export) is
parsed, and every name a top-level import binds must occur as a name in
the module, quoted annotations included.  Every underscore-named (not
dunder) function, class or method defined in the package must occur as a
name, an attribute or an imported name outside its own definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weyl1"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(tree: ast.AST):
    """(identifier, line) for each name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_definition_has_a_caller():
    refs = {mod: list(_references(tree)) for mod, tree in TREES.items()}
    dead = []
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _is_private(node.name):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (other != mod or line not in inside)
                for other, found in refs.items()
                for name, line in found
            ):
                dead.append(f"{mod}.{node.name} (line {node.lineno})")
    assert not dead, f"private definitions nobody references: {', '.join(dead)}"
