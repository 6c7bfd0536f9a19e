"""Every module-level import in the package is used by its module, and
every private function, class or method has a caller.

A deletion that leaves an import or a helper behind shows up here.  Each
module of `src/weyl1` except `__init__` (which imports to re-export) is
parsed, and every name a top-level import binds must occur as a name in
the module, quoted annotations included.  Every underscore-named (not
dunder) function, class or method defined in the package must occur as a
name, an attribute or an imported name outside its own definition.  So
must every public top-level function or class, where an export from
`__init__` and a use in `bench/` or `demos/` count too: a public helper
that only the tests call belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weyl1"
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


def _referenced(node, mod: str, refs: dict) -> bool:
    """Whether the name node defines in module mod occurs in refs
    ({module: [(identifier, line)]}) outside the definition itself."""
    inside = range(node.lineno, node.end_lineno + 1)
    return any(
        name == node.name and (other != mod or line not in inside)
        for other, found in refs.items()
        for name, line in found
    )


def test_every_private_definition_has_a_caller():
    refs = {mod: list(_references(tree)) for mod, tree in TREES.items()}
    dead = []
    for mod, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _is_private(node.name) and not _referenced(node, mod, refs):
                dead.append(f"{mod}.{node.name} (line {node.lineno})")
    assert not dead, f"private definitions nobody references: {', '.join(dead)}"


def test_every_public_definition_has_a_caller_outside_the_tests():
    refs = {mod: list(_references(tree)) for mod, tree in TREES.items()}
    for folder in ("bench", "demos"):
        refs[folder] = [
            ref
            for path in sorted((ROOT / folder).glob("*.py"))
            for ref in _references(ast.parse(path.read_text(encoding="utf-8")))
        ]
    dead = [
        f"{mod}.{node.name} (line {node.lineno})"
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not _referenced(node, mod, refs)
    ]
    assert not dead, f"public definitions only the tests call: {', '.join(dead)}"
