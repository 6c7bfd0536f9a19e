"""Every import in the package is used, and every definition has a caller
that is not a test.

A deletion that leaves an import, a helper or a constant behind shows up
here.  References are resolved the way Python binds names: a function,
lambda or comprehension binds its parameters and every name it stores,
deletes or imports (unless it declares the name global), a class body
binds names for its own loads only, and a load goes to the innermost
scope that binds it.  So a local variable named like a module-level
function is not a caller of that function.  Quoted annotations are read
as expressions.  `__init__` is not scanned: it only re-exports.

- Every name an import binds in a module of `src/weyl1` is loaded in the
  scope the import binds it in.
- A top-level def, class or module-level assignment in `src/weyl1`
  counts as used only if one of these holds: a load of it in its own
  module, outside its definition; an import of it in another `src`
  module followed by a load of the bound name, or a `mod.name` read
  through an imported module; in `bench/` or `demos/`, an attribute read
  of the name, a `from weyl1 import` of it, or a string that
  `bench/workloads.py`'s `_call(pkg, "...")` looks up.  A re-export from
  `__init__` does not count: a helper that only the tests call belongs
  in `tests/oracles.py`.
- A public, non-dunder method of a `src` class counts as used only if
  its name is read outside its own definition: as a name, an attribute
  or a string, in `src/`, `bench/` or `demos/`.  Methods are matched by
  name, since an attribute's owner is not known before run time, so a
  method that shares its name with something read elsewhere passes.
- Every underscore-named (not dunder) function, class or method occurs
  as a name or an attribute outside its own definition; methods are
  matched by name, since an attribute's owner is not known before run
  time.
"""

import ast
import copy
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weyl1"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
OUTSIDE = [
    ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("bench", "demos")
    for path in sorted((ROOT / folder).glob("*.py"))
]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Unquote(ast.NodeTransformer):
    """Parses each string in an annotation as the expression it names."""

    def visit_Constant(self, node):
        if not isinstance(node.value, str):
            return node
        return ast.increment_lineno(ast.parse(node.value, mode="eval").body, node.lineno - 1)


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _binds(scope: ast.AST) -> set:
    """The names a function, lambda, class or comprehension binds itself."""
    if isinstance(scope, _COMPREHENSIONS):
        return {n.id for g in scope.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
    names, declared = set(), set()
    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {_bound(alias) for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
        if isinstance(node, _DEFS):
            names.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, _FUNCTIONS + _COMPREHENSIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names - declared


class Resolution:
    """The loads, attribute reads and imports of one module, each tied to
    the scope node (the module, a function, a class or a comprehension)
    whose binding it names.

    `loads` holds (name, line, scope); `reads` holds (name, attribute,
    scope of name) for each `name.attribute`; `imports` holds (module as
    written, name, bound name, binding scope), with name None for a plain
    `import`.
    """

    def __init__(self, tree: ast.Module):
        self.loads, self.reads, self.imports = [], [], []
        self._visit(tree, [(tree, False, set())])

    @staticmethod
    def _scope(name: str, scopes) -> ast.AST:
        # A class body's names serve its own loads, not its methods'.
        for i, (node, is_class, names) in reversed(list(enumerate(scopes))):
            if name in names and (not is_class or i == len(scopes) - 1):
                return node
        return scopes[0][0]

    def _visit(self, node: ast.AST, scopes) -> None:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.loads.append((node.id, node.lineno, self._scope(node.id, scopes)))
            return
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            self.reads.append((node.value.id, node.attr, self._scope(node.value.id, scopes)))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import):
                    module, name = alias.name, None
                else:
                    module, name = "." * node.level + (node.module or ""), alias.name
                self.imports.append((module, name, _bound(alias), scopes[-1][0]))
            return
        annotations = [getattr(node, field, None) for field in ("annotation", "returns")]
        children = [
            _Unquote().visit(copy.deepcopy(c)) if any(c is a for a in annotations) else c
            for c in ast.iter_child_nodes(node)
        ]
        # Decorators, defaults, annotations, bases and a comprehension's
        # first iterable are evaluated in the enclosing scope.
        outer, inner = children, []
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            inner = node.body if isinstance(node.body, list) else [node.body]
            outer = [c for c in children if not any(c is b for b in inner)]
        elif isinstance(node, _COMPREHENSIONS):
            outer = [node.generators[0].iter]
            inner = [c for c in children if not isinstance(c, ast.comprehension)] + [
                c for g in node.generators for c in ast.iter_child_nodes(g) if c is not outer[0]
            ]
        for child in outer:
            self._visit(child, scopes)
        if inner:
            scope = scopes + [(node, isinstance(node, ast.ClassDef), _binds(node))]
            for child in inner:
                self._visit(child, scope)


def _top_level(tree: ast.Module):
    """(name, node) for each top-level def, class and assigned name; dunders excluded."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, node


def _reached_from(tree: ast.Module) -> set:
    """The names a bench or demo file reads: attributes, names imported
    from weyl1 and the strings its `_call(pkg, "...")` looks up."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weyl1":
            names |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_call"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            names.add(node.args[1].value)
    return names


def _in_package(module: str):
    """The package-relative name of an imported module ("" for the
    package itself), or None for a module outside the package."""
    if module.startswith("."):
        return module.lstrip(".")
    if module == "weyl1" or module.startswith("weyl1."):
        return module[6:]
    return None


def unused_definitions(trees: dict, outside: list) -> list:
    """'module.name' for each top-level definition in trees ({module name:
    tree} of the package's modules) with no use by the rules above;
    outside holds the trees of the bench and demo files."""
    resolved = {mod: Resolution(tree) for mod, tree in trees.items()}
    callers = set().union(*map(_reached_from, outside))
    imported = set()  # (module, name) used through another module's import
    for res in resolved.values():
        loaded = {(name, scope) for name, _, scope in res.loads}
        modules = {}  # (bound name, scope) -> the package module it binds
        for written, name, bound, scope in res.imports:
            module = _in_package(written)
            if name is None and module in trees:
                modules[bound, scope] = module
            elif module == "" and name in trees:
                modules[bound, scope] = name
            elif module in trees and (bound, scope) in loaded:
                imported.add((module, name))
        imported |= {
            (modules[base, scope], attr) for base, attr, scope in res.reads if (base, scope) in modules
        }
    return [
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name, node in _top_level(tree)
        if name not in callers
        and (mod, name) not in imported
        and not any(
            n == name and scope is tree and not node.lineno <= line <= node.end_lineno
            for n, line, scope in resolved[mod].loads
        )
    ]


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"core", "linalg", "windows", "checks", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    res = Resolution(ast.parse(path.read_text(encoding="utf-8")))
    loaded = {(name, scope) for name, _, scope in res.loads}
    unused = [
        bound for module, _, bound, scope in res.imports
        if module != "__future__" and (bound, scope) not in loaded
    ]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    dead = unused_definitions(TREES, OUTSIDE)
    assert not dead, f"definitions only the tests use: {', '.join(dead)}"


def test_the_resolver_binds_names_as_python_does():
    trees = {
        "a": ast.parse(textwrap.dedent("""
            LIMIT = 3
            SCALE = 2

            def poly():
                return poly()

            def helper():
                return 1

            class Box:
                SCALE = 5  # its methods do not see it

                def size(self):
                    return [helper() for SCALE in range(SCALE)]
        """)),
        "b": ast.parse(textwrap.dedent("""
            from .a import Box
            from .a import poly as p

            def newton(poly):
                poly = Box()
                return poly
        """)),
        "c": ast.parse(textwrap.dedent("""
            from . import b

            def run(call):
                return call(b.newton)
        """)),
    }
    bench = ast.parse('def run(pkg):\n    return _call(pkg, "run")\n')
    # poly: called only by itself, bound as p but never loaded, and
    # newton's local `poly` is not it; LIMIT is never loaded.  SCALE is
    # loaded once, by the first iterable of a comprehension in a method:
    # neither the comprehension's SCALE nor the class's binds that load.
    assert unused_definitions(trees, [bench]) == ["a.LIMIT", "a.poly"]
    assert unused_definitions(trees, []) == ["a.LIMIT", "a.poly", "c.run"]


def _reads(tree: ast.AST):
    """(identifier, line) for each loaded name, read attribute and string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unused_methods(trees: dict, outside: list) -> list:
    """'Class.method' for each public, non-dunder method of a class in
    trees ({module name: tree}) whose name is read nowhere outside its own
    definition, in trees or in outside (the bench and demo trees)."""
    refs = {mod: list(_reads(tree)) for mod, tree in trees.items()}
    elsewhere = {name for tree in outside for name, _ in _reads(tree)}
    dead = []
    for mod, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and not _referenced(node, mod, refs)
                ):
                    dead.append(f"{cls.name}.{node.name}")
    return dead


def test_every_public_method_has_a_caller_outside_the_tests():
    dead = unused_methods(TREES, OUTSIDE)
    assert not dead, f"methods only the tests call: {', '.join(dead)}"


def test_the_method_guard_reads_names_attributes_and_strings():
    trees = {
        "a": ast.parse(textwrap.dedent("""
            class Box:
                def __len__(self):
                    return 0

                def depth(self):
                    return self.depth() + 1  # only itself

                def size(self):
                    return len(self)

                def label(self):
                    return "box"

                def named(self):
                    return 1

            def run(box):
                return getattr(box, "size")()
        """)),
        "b": ast.parse("def go(box):\n    box.label = None\n    return named\n"),
    }
    bench = ast.parse("def run(box):\n    return box.label()\n")
    # depth reads itself only; label is stored in src but read only by
    # bench; size is read through a string and named through a name.
    assert unused_methods(trees, [bench]) == ["Box.depth"]
    assert unused_methods(trees, []) == ["Box.depth", "Box.label"]


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
            if isinstance(node, _DEFS) and _is_private(node.name) and not _referenced(node, mod, refs):
                dead.append(f"{mod}.{node.name} (line {node.lineno})")
    assert not dead, f"private definitions nobody references: {', '.join(dead)}"
