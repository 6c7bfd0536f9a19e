"""The three benchmark workloads.

Each workload builds its inputs from the seed (this is the timed set-up),
runs passes of operations ("ops") through the public weyl1 API, and
checks every op's output.  Functions are looked up on the package at
call time, so a traced pass sees the tracer's wrappers.

* verify-canonical: what ``weyl1 verify --report`` does, from cold
  process-level caches.  An op is one of the 24 checks, or building and
  dumping the report.  The canonical config is fixed, so the seed does
  not change this workload.
* windows-deep: window computations on the triangular-x2 and composite
  pairs past the canonical caps, run warm.  The seed picks the
  eigenvalues tried and the op order.
* arith-graded: seeded random elements whose coefficients all have
  denominators > 1, through products, commutators, powers, theta,
  apply_endo, graded and localized arithmetic, the cusp powers and
  parse/print round trips, run warm.  No linear algebra.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from time import perf_counter

DEFAULT_SEED = 1

# SHA-256 of the canonical verify report document, as `weyl1 verify
# --report` writes it.
REPORT_SHA256 = "0d22ee329433467899e43e7f3f7e20879691265bc9df2e2f97f682f158531ad1"

# Output digests of one pass at DEFAULT_SEED.
RECORDED_DIGESTS = {
    "windows-deep": "2f44a6c973636ff73e9a1e4b52c9d3ea472aba7d5cf30c06a3cebc5c16565e49",
    "arith-graded": "712095cc07c02acaf22c01d8ff0ea5619aa6fda3bad86f2ce6ee9894a5ec170c",
}


def clear_process_caches(pkg):
    """Empty every functools cache in the package, as a new process has."""
    prefix = pkg.__name__ + "."
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == pkg.__name__ or name.startswith(prefix)):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _call(pkg, name, *args):
    """An op calling pkg.<name>(*args), the name resolved when it runs."""
    return lambda: getattr(pkg, name)(*args)


def canonical_pair(pkg, name):
    """The named endomorphism pair of the canonical verify config."""
    doc = next(d for d in pkg.canonical_config()["endomorphisms"] if d["name"] == name)
    return pkg.compile_recipe(pkg.checks.recipe_from_doc(doc))


class Workload:
    name = ""
    warm = True  # run one untimed pass before measuring

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.seed = seed

    def fingerprint(self):
        """Digest of the generated inputs."""
        return hashlib.sha256(self.describe_inputs().encode()).hexdigest()

    def recorded_digest(self):
        return RECORDED_DIGESTS.get(self.name) if self.seed == DEFAULT_SEED else None

    def run_pass(self, tick):
        """Run every op once, calling tick() between ops.

        Returns [(label, start, end, output, error)] per op.
        """
        records = []
        for label, op in self.ops:
            t0 = perf_counter()
            try:
                out, err = op(), None
            except Exception as exc:  # a raising op counts as failed
                out, err = None, exc
            records.append((label, t0, perf_counter(), out, err))
            tick()
        return records


class VerifyCanonical(Workload):
    name = "verify-canonical"
    warm = False
    OPS_PER_PASS = 25

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.checks = pkg.checks
        self.serialize = pkg.serialize
        self.config = pkg.canonical_config()

    def describe_inputs(self):
        return json.dumps(self.config, sort_keys=True)

    def run_pass(self, tick):
        clear_process_caches(self.pkg)
        timed = []

        def timer(fn):
            @functools.wraps(fn)
            def check(*args, **kwargs):
                t0 = perf_counter()
                res = fn(*args, **kwargs)
                timed.append((res, t0, perf_counter()))
                tick()
                return res

            return check

        originals = {
            n: f for n, f in vars(self.checks).items()
            if n.startswith("check_") and callable(f)
        }
        for n, f in originals.items():
            setattr(self.checks, n, timer(f))
        try:
            results = self.pkg.run_suite(self.config)
        except Exception as exc:
            t = perf_counter()
            return [("run_suite", t, t, None, exc)] * self.OPS_PER_PASS
        finally:
            for n, f in originals.items():
                setattr(self.checks, n, f)
        records = [(res.name, t0, t1, res, None) for res, t0, t1 in timed]
        t0 = perf_counter()
        try:
            out, err = self.serialize.dumps(
                self.serialize.check_results_to_doc(results, self.config)
            ), None
        except Exception as exc:
            out, err = None, exc
        records.append(("report", t0, perf_counter(), out, err))
        return records

    def check(self, label, out):
        if label == "report":
            return hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256
        return out.passed

    def text(self, label, out):
        return out if label == "report" else out.line()


class WindowsDeep(Workload):
    name = "windows-deep"
    PAIRS = ("triangular-x2", "composite")
    # Caps step through a range so that op costs spread evenly from a few
    # milliseconds to the largest window, rather than in a few clumps.
    CENTRALIZER_CAPS = {"triangular-x2": (12, 14, 16, 18, 20), "composite": (12, 14, 16)}
    EIGEN_CAP = {"triangular-x2": 12, "composite": 10}
    KERNEL_CAPS = (6, 7)
    CLOSURE_CAPS = (5, 6)
    # dim(target) - rank of delta from the cap window into its enlargement,
    # recorded at the commit that introduced the benchmark
    COKER_DIMS = {
        ("triangular-x2", 8): 13, ("triangular-x2", 10): 16,
        ("composite", 8): 28, ("composite", 10): 34,
    }

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        rng = random.Random(f"{self.name}/{seed}")
        self.pairs = {n: canonical_pair(pkg, n) for n in self.PAIRS}
        self.expect = {}
        ops = []
        for n in self.PAIRS:
            e = self.pairs[n]
            deg = {k: pkg.weighted_degree(pkg.W11, v) for k, v in
                   (("x", e.x), ("y", e.y), ("h", e.h))}
            for cap in self.CENTRALIZER_CAPS[n]:
                label = f"centralizer/{n}/{cap}"
                self.expect[label] = (e.h, 0, cap // deg["h"] + 1)
                ops.append((label, _call(pkg, "centralizer_window", e.h,
                                         pkg.Window(pkg.W11, cap))))
            cap = self.EIGEN_CAP[n]
            ints = rng.sample(range(-4, 5), 4)
            fracs = [pkg.rat(rng.choice((-1, 1)) * rng.randint(1, 7), rng.choice((2, 3)))
                     for _ in range(2)]
            for lam in [pkg.rat(i) for i in ints] + fracs:
                label = f"eigenspace/{n}/{lam}"
                self.expect[label] = (e.h, lam, _eigen_dim(lam, cap, deg))
                ops.append((label, _call(pkg, "eigenspace", e.h, lam,
                                         pkg.Window(pkg.W11, cap))))
            for cap in self.KERNEL_CAPS:
                ops.append((f"kernel_delta/{n}/{cap}",
                            _call(pkg, "check_kernel_delta", e, cap)))
            for cap in self.CLOSURE_CAPS:
                for m_name in ("ad_x", "ad_y", "delta"):
                    ops.append((f"closure/{n}/{cap}/{m_name}",
                                self._closure_op(e, m_name, cap)))
            for (pair, cap) in self.COKER_DIMS:
                if pair == n:
                    ops.append((f"coker/{n}/{cap}", self._coker_op(e, cap)))
        rng.shuffle(ops)
        self.ops = ops

    def _map(self, e, m_name):
        p = self.pkg
        if m_name == "ad_x":
            return p.ad(e.x)
        if m_name == "ad_y":
            return p.ad(e.y)
        return p.delta_xy(e)

    def _closure_op(self, e, m_name, cap):
        def op():
            win = self.pkg.Window(self.pkg.W11, cap)
            return self.pkg.nilpotent_closure_window(self._map(e, m_name), win, 4 * cap + 1)
        return op

    def _coker_op(self, e, cap):
        def op():
            m = self.pkg.delta_xy(e)
            win = self.pkg.Window(self.pkg.W11, cap)
            return self.pkg.coker_window_dim(m, win, win.enlarged(m))
        return op

    def describe_inputs(self):
        return "\n".join(label for label, _ in self.ops)

    def check(self, label, out):
        p = self.pkg
        kind, n = label.split("/")[:2]
        if kind in ("centralizer", "eigenspace"):
            a, lam, dim = self.expect[label]
            return len(out) == dim and all(
                p.commutator(a, u) == lam * u for u in out)
        if kind == "kernel_delta":
            return out.passed
        if kind == "closure":
            # x and y are images of X and Y under an automorphism, so
            # ad(x), ad(y) and delta are locally nilpotent everywhere
            win = p.Window(p.W11, int(label.split("/")[2]))
            return out == win.basis_elements()
        cap = int(label.split("/")[2])
        m = p.delta_xy(self.pairs[n])
        win = p.Window(p.W11, cap)
        tgt = win.enlarged(m)
        other = tgt.dimension() - p.rank(p.map_matrix(m, win, tgt))
        return out == other == self.COKER_DIMS[(n, cap)]

    def text(self, label, out):
        if isinstance(out, list):
            return "; ".join(str(u) for u in out)
        return str(getattr(out, "passed", out))


def _eigen_dim(lam, cap, deg):
    """Dimension of the lam-eigenspace of ad(h) in the window, from degrees:
    spanned by h^k x^i (i = lam >= 0) or h^k y^-i (i < 0) within the cap."""
    if lam.denominator != 1:
        return 0
    i = int(lam)
    base = i * deg["x"] if i >= 0 else -i * deg["y"]
    return (cap - base) // deg["h"] + 1 if base <= cap else 0


class ArithGraded(Workload):
    name = "arith-graded"
    COUNTS = {
        "mul": 16, "comm": 10, "pow": 6, "theta": 10, "endo": 4,
        "graded": 10, "localized": 6, "parse": 10,
    }
    POWER = 3
    CUSP_POWERS = range(1, 9)

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        # The exponent sets come from a fixed generator and only the
        # coefficients and the op order from the seed, so that every seed
        # asks for the same amount of work.
        rng = random.Random(f"{self.name}/{seed}")
        shapes = random.Random(self.name)
        p = pkg
        self.endo = canonical_pair(pkg, "composite")
        ops = []

        def elem(terms, degree):
            d = {}
            while len(d) < terms:
                i = shapes.randint(0, degree)
                d[(i, shapes.randint(0, degree - i))] = None
            for key in d:
                q = p.rat(0)
                while q.denominator == 1:
                    q = p.rat(rng.choice((-1, 1)) * rng.randint(1, 19), rng.randint(2, 9))
                d[key] = q
            return p.WeylElement(d)

        for k in range(self.COUNTS["mul"]):
            a, b = elem(10, 8), elem(10, 8)
            ops.append((f"mul/{k}", _call(p, "mul", a, b), (a, b)))
        for k in range(self.COUNTS["comm"]):
            a, b = elem(10, 8), elem(10, 8)
            ops.append((f"comm/{k}", _call(p, "commutator", a, b), (a, b)))
        for k in range(self.COUNTS["pow"]):
            a = elem(5, 4)
            ops.append((f"pow/{k}", (lambda a=a: a ** self.POWER), (a,)))
        for k in range(self.COUNTS["theta"]):
            a = elem(10, 8)
            ops.append((f"theta/{k}", _call(p, "theta", a), (a,)))
        for k in range(self.COUNTS["endo"]):
            a = elem(5, 5)
            ops.append((f"endo/{k}", _call(p, "apply_endo", self.endo, a), (a,)))
        for k in range(self.COUNTS["graded"]):
            a = elem(12, 10)
            ops.append((f"graded/{k}", self._graded_op(a), (a,)))
        for k in range(self.COUNTS["localized"]):
            a, b = elem(6, 4), elem(6, 4)
            la, lb = p.embed(a), p.embed(b)
            ops.append((f"localized/{k}", _call(p, "localized_mul", la, lb), (a, b)))
        for k in range(self.COUNTS["parse"]):
            a = elem(12, 8)
            ops.append((f"parse/{k}", self._parse_op(a), (a,)))
        # w = H (H-1)^-1 (H-2) X: w is not in A1, every w^i with i >= 2 is
        w = p.graded_component(1, p.ratfun([0, -2, 1], [-1, 1]))
        for i in self.CUSP_POWERS:
            ops.append((f"cusp/{i}", self._cusp_op(w, i), (i,)))
        rng.shuffle(ops)
        self.args = {label: a for label, _, a in ops}
        self.ops = [(label, op) for label, op, _ in ops]

    def _graded_op(self, a):
        def op():
            g = self.pkg.to_graded(a)
            return g, self.pkg.from_graded(g)
        return op

    def _parse_op(self, a):
        return lambda: self.pkg.parse(self.pkg.format_element(a))

    def _cusp_op(self, w, i):
        def op():
            acc = w
            for _ in range(i - 1):
                acc = self.pkg.localized_mul(acc, w)
            return self.pkg.in_A1(acc)
        return op

    def describe_inputs(self):
        return "\n".join(
            f"{label} {[str(a) for a in self.args[label]]}" for label, _ in self.ops)

    def check(self, label, out):
        p = self.pkg
        kind = label.split("/")[0]
        args = self.args[label]
        deg = functools.partial(p.weighted_degree, p.W11)
        if kind == "mul":
            a, b = args
            return deg(out) == deg(a) + deg(b)
        if kind == "comm":
            a, b = args
            return out.is_zero() or deg(out) <= deg(a) + deg(b) - 2
        if kind == "pow":
            return deg(out) == self.POWER * deg(args[0])
        if kind == "theta":
            (a,) = args
            flipped = p.WeylElement(
                {(i, j): (-c if (i + j) % 2 else c) for (i, j), c in a.terms()})
            return p.theta(out) == flipped
        if kind == "endo":
            return out == p.parse(self._substituted(args[0]))
        if kind == "graded":
            return out[1] == args[0]
        if kind == "localized":
            a, b = args
            return out == p.embed(a * b)
        if kind == "parse":
            return out == args[0]
        (i,) = args
        member, el = out
        if i == 1:
            return not member
        return member and p.commutator(p.H, el) == i * el

    def _substituted(self, a):
        """a with X, Y replaced by the pair's x, y, as an expression."""
        x, y = str(self.endo.x), str(self.endo.y)
        parts = []
        for (i, j), c in a.terms():
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{sign} {abs(c)}*({y})^{i}*({x})^{j}")
        return " ".join(parts).lstrip()

    def text(self, label, out):
        kind = label.split("/")[0]
        if kind == "graded":
            return f"{sorted(out[0].components.items())} | {out[1]}"
        if kind == "localized":
            return repr(out)
        if kind == "cusp":
            return f"{out[0]} {out[1]}"
        return str(out)


WORKLOADS = {w.name: w for w in (VerifyCanonical, WindowsDeep, ArithGraded)}
