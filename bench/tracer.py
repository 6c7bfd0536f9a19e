"""Layer tracer for the weyl1 benchmark.

The layers are the package modules.  The tracer wraps, from outside the
package, every function that crosses a module boundary (a public function
of a layer module that some other weyl1 module, or the package itself,
binds by name) plus a fixed list of methods, and records for each call a
span: its layer, its duration and the part of that duration spent in
child spans.  A layer's self time is the sum of its spans' durations
minus their children's.  Counters are taken at the same boundaries.

A name bound with ``from .linalg import nullspace`` lives on in the
importing module's namespace, so each wrapped function is replaced in
every weyl1 module that holds it, not only in the defining one.
``uninstall`` puts every original object back, and ``leftovers`` lists
any wrapper still reachable, which must be none.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core",
    "maps",
    "windows",
    "linalg",
    "endos",
    "gwa",
    "checks",
    "parsing",
    "serialize",
)

# Methods wrapped in addition to the boundary functions: the operators
# through which almost all arithmetic flows, map evaluation and its
# monomial cache, matrix construction and batch membership.
METHODS = {
    "core": {
        "WeylElement": (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "__rmul__", "__pow__",
        ),
    },
    "maps": {"LinearMap": ("__init__", "__call__")},
    "windows": {
        "Window": ("coords", "sparse_coords", "element", "basis_elements", "contains"),
    },
    "linalg": {"RatMatrix": ("__init__", "mul_vector")},
    "endos": {"MembershipSolver": ("solve", "basis_product")},
    "gwa": {"LocalizedElement": ("__add__", "__sub__", "__neg__", "__mul__")},
}

LINALG_ENTRIES = ("nullspace", "canonical_basis", "solve_many", "rank")
GWA_CONVERSIONS = ("to_graded", "from_graded", "embed")


def _bits(q) -> int:
    return max(int(q.numerator).bit_length(), int(q.denominator).bit_length())


def _coeffs(a):
    """Coefficients of a WeylElement, or of a scalar operand, via public API."""
    if hasattr(a, "terms"):
        return [c for _, c in a.terms()]
    return [a]


def _rows_and_nnz(name, args):
    """Input size of a linalg entry point: rows and nonzero entries."""
    if name == "solve_many":
        rows = args[0]
        return len(rows), sum(len(r) for r in rows)
    if name == "canonical_basis":
        rows = args[0]
        return len(rows), sum(
            len(r) if isinstance(r, dict) else sum(1 for v in r if v) for r in rows
        )
    mat = args[0]
    return mat.nrows, sum(1 for row in mat.rows for v in row if v)


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.active = False
        self._stack = []  # [layer, child seconds] per open span
        self._patches = []  # (owner, attribute name, original object)
        self.self_s = defaultdict(float)
        self.key_self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.maxima = defaultdict(int)

    # -- span machinery -------------------------------------------------

    def _wrap(self, layer, key, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_enter = perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                own = (t1 - t0) - frame[1]
                tracer.self_s[layer] += own
                tracer.key_self_s[key] += own
            if after is not None:
                entering = parent is None or parent[0] != layer
                after(tracer, args, out, entering)
            if parent is not None:
                parent[1] += perf_counter() - t_enter
            return out

        span.__bench_span__ = key
        return span

    @contextmanager
    def paused(self):
        """Run output checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]

    def install(self):
        """Wrap every boundary function and listed method; start recording."""
        modules = self._modules()
        for layer in LAYERS:
            mod = sys.modules[f"{self.pkg.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                holders = [
                    (m, n) for m in modules for n, v in list(vars(m).items())
                    if v is obj
                ]
                if not any(m is not mod for m, _ in holders):
                    continue  # used only inside its own module
                wrapper = self._wrap(layer, f"{layer}.{name}", obj, _AFTER.get((layer, name)))
                for m, n in holders:
                    self._patches.append((m, n, obj))
                    setattr(m, n, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    self._patch_method(layer, cls, name)
            if layer == "maps":
                for cls in vars(mod).values():
                    if (
                        inspect.isclass(cls)
                        and issubclass(cls, mod.LinearMap)
                        and "_monomial_image" in vars(cls)
                    ):
                        self._patch_method(layer, cls, "_monomial_image")
        self.active = True

    def _patch_method(self, layer, cls, name):
        original = vars(cls).get(name)
        if not inspect.isfunction(original):
            return
        key = f"{layer}.{cls.__name__}.{name}"
        hook = _AFTER.get((layer, name if name == "_monomial_image" else f"{cls.__name__}.{name}"))
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrap(layer, key, original, hook))

    def uninstall(self):
        self.active = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def leftovers(self):
        """Every wrapper still bound in a weyl1 module or class; must be empty."""
        found = []
        for m in self._modules():
            for n, v in vars(m).items():
                if hasattr(v, "__bench_span__"):
                    found.append(f"{m.__name__}.{n}")
                if inspect.isclass(v) and v.__module__.startswith(self.pkg.__name__):
                    for cn, cv in vars(v).items():
                        if hasattr(cv, "__bench_span__"):
                            found.append(f"{v.__module__}.{v.__name__}.{cn}")
        return sorted(set(found))


# -- per-boundary counters -------------------------------------------------


def _after_mul(t, args, out, entering):
    if out is NotImplemented:
        return
    ca, cb, co = (_coeffs(v) for v in (args[0], args[1], out))
    pairs = len(ca) * len(cb)
    t.count["core.mul_calls"] += 1
    t.count["core.term_pairs"] += pairs
    if all(q.denominator == 1 for q in ca + cb):
        t.count["core.int_term_pairs"] += pairs
    t.count["core.out_terms"] += len(co)
    if co:
        t.maxima["core.max_coeff_bits"] = max(
            t.maxima["core.max_coeff_bits"], max(_bits(q) for q in co))


def _after_map_call(t, args, out, entering):
    t.count["maps.calls"] += 1
    t.count["maps.cache_lookups"] += args[1].monomial_count()


def _after_monomial_image(t, args, out, entering):
    t.count["maps.cache_misses"] += 1


def _after_map_init(t, args, out, entering):
    t.count["maps.instances"] += 1


def _after_map_matrix(t, args, out, entering):
    t.count["windows.map_matrix_calls"] += 1
    t.count["windows.matrix_cells"] += out.nrows * out.ncols


def _after_eigenspace(t, args, out, entering):
    t.count["windows.eigen_tries"] += 1
    if out:
        t.count["windows.eigen_hits"] += 1


def _linalg_entry(name):
    def after(t, args, out, entering):
        if not entering:
            return  # internal call, already counted at the layer's entry
        t.count[f"linalg.{name}.calls"] += 1
        rows, nnz = _rows_and_nnz(name, args)
        t.count["linalg.rows_in"] += rows
        t.count["linalg.nnz_in"] += nnz
        if name == "rank":
            t.count["linalg.rank_out"] += out
            return
        if name == "nullspace":
            t.count["linalg.rank_out"] += args[0].ncols - len(out)
            values = [v for vec in out for v in vec if v]
        elif name == "canonical_basis":
            t.count["linalg.rank_out"] += len(out)
            values = [v for vec in out for v in vec if v]
        else:  # solve_many: the rank is not visible in its result
            values = [v for sol in out if sol for v in sol.values()]
        if values:
            t.maxima["linalg.max_coeff_bits"] = max(
                t.maxima["linalg.max_coeff_bits"], max(_bits(q) for q in values))

    return after


def _after_membership(t, args, out, entering):
    t.count["endos.solve_calls"] += 1
    t.count["endos.pairs_tried"] += max((m.pairs_tried for m in out), default=0)
    t.count["endos.verdicts"] += len(out)
    t.count["endos.members"] += sum(1 for m in out if m.member)


def _after_localized_mul(t, args, out, entering):
    t.count["gwa.localized_mul_calls"] += 1


def _after_conversion(t, args, out, entering):
    t.count["gwa.convert_calls"] += 1


_AFTER = {
    ("core", "WeylElement.__mul__"): _after_mul,
    ("maps", "LinearMap.__call__"): _after_map_call,
    ("maps", "LinearMap.__init__"): _after_map_init,
    ("maps", "_monomial_image"): _after_monomial_image,
    ("windows", "map_matrix"): _after_map_matrix,
    ("windows", "eigenspace"): _after_eigenspace,
    ("endos", "MembershipSolver.solve"): _after_membership,
    ("gwa", "localized_mul"): _after_localized_mul,
    **{("gwa", n): _after_conversion for n in GWA_CONVERSIONS},
    **{("linalg", n): _linalg_entry(n) for n in LINALG_ENTRIES},
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-pass layer metrics from one traced phase of ``passes`` passes."""
    c, s = tracer.count, tracer.self_s
    total = sum(s[layer] for layer in LAYERS)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s[layer] / passes, "s")
        out[f"{layer}.share"] = (_ratio(s[layer], total), "ratio")
    out.update({
        "core.mul_calls": (c["core.mul_calls"] / passes, "count"),
        "core.mul_self_s": (
            tracer.key_self_s["core.WeylElement.__mul__"] / passes, "s"),
        "core.term_pairs": (c["core.term_pairs"] / passes, "count"),
        "core.out_terms": (c["core.out_terms"] / passes, "count"),
        "core.max_coeff_bits": (tracer.maxima["core.max_coeff_bits"], "bits"),
        "core.int_coeff_share": (
            _ratio(c["core.int_term_pairs"], c["core.term_pairs"]), "ratio"),
        "maps.calls": (c["maps.calls"] / passes, "count"),
        "maps.instances": (c["maps.instances"] / passes, "count"),
        "maps.cache_hit_ratio": (
            _ratio(c["maps.cache_lookups"] - c["maps.cache_misses"],
                   c["maps.cache_lookups"]), "ratio"),
        "windows.map_matrix_calls": (c["windows.map_matrix_calls"] / passes, "count"),
        "windows.matrix_cells": (c["windows.matrix_cells"] / passes, "count"),
        "windows.eigen_hit_ratio": (
            _ratio(c["windows.eigen_hits"], c["windows.eigen_tries"]), "ratio"),
        "linalg.rows_in": (c["linalg.rows_in"] / passes, "count"),
        "linalg.nnz_in": (c["linalg.nnz_in"] / passes, "count"),
        "linalg.rank_out": (c["linalg.rank_out"] / passes, "count"),
        "linalg.max_coeff_bits": (tracer.maxima["linalg.max_coeff_bits"], "bits"),
        "endos.solve_calls": (c["endos.solve_calls"] / passes, "count"),
        "endos.pairs_tried": (c["endos.pairs_tried"] / passes, "count"),
        "endos.member_ratio": (
            _ratio(c["endos.members"], c["endos.verdicts"]), "ratio"),
        "gwa.localized_mul_calls": (c["gwa.localized_mul_calls"] / passes, "count"),
        "gwa.convert_calls": (c["gwa.convert_calls"] / passes, "count"),
    })
    for name in LINALG_ENTRIES:
        out[f"linalg.{name}.calls"] = (c[f"linalg.{name}.calls"] / passes, "count")
    return out
