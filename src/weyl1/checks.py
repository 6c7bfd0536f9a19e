"""Windowed verification suite for commutator-one pairs.

Each check exercises one exact statement about a verified pair (x, y)
with h = y*x: the windowed centralizer of h is spanned by powers of h,
the eigenvalues of ad(h) seen in a window are integers with eigenspaces
spanned by h^k x^i (resp. h^k y^(-i)), the factorials-and-falling-products
identities for y^i x^i and x^i y^i, the product rules of the maps
d = [y, .]x and d' = [x, .]y, the kernel and nilpotent closure of
delta = ad(x) ad(y), drop propagation, and the eigenvector tables.

Checks return a CheckResult carrying their full parameterization, a
pass/fail verdict, and witness data on failure, so every verdict is
reproducible from its own record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Dict, List, Optional, Sequence

from .core import (
    ONE,
    X,
    Y,
    EndoPair,
    WeylElement,
    apply_endo,
    commutator,
    linear_combination,
    powers,
)
from .degrees import W11, weighted_degree
from .endos import MembershipSolver, compile_recipe
from .gwa import POLY_ONE, embed, graded_component, localized_mul, poly, ratfun
from .linalg import nullspace, solve_many
from .maps import ad, d_xy, d_yx, delta_xy
from .scalars import rat
from .serialize import recipe_from_doc
from .windows import (
    Coordinates,
    Window,
    default_eigen_candidates,
    eigenvalue_scan,
    centralizer_window,
    map_matrix,
    nilpotent_closure_window,
)


@dataclass
class CheckResult:
    name: str
    params: Dict[str, object]
    passed: bool
    witness: Optional[Dict[str, object]] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        bits = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{status} {self.name} ({bits})"


# -- subspace helpers -----------------------------------------------------


def span_basis(elems: Sequence[WeylElement]) -> List[WeylElement]:
    """Canonical (RREF) basis of the span, as elements."""
    co = Coordinates(elems)
    return [co.element(row) for row in co.span(elems)]


def spans_equal(
    a: Sequence[WeylElement], b: Sequence[WeylElement]
) -> bool:
    co = Coordinates(a, b)
    return co.span(a) == co.span(b)


def span_contains(
    space: Sequence[WeylElement], elems: Sequence[WeylElement]
) -> bool:
    co = Coordinates(space, elems)
    sols = solve_many(
        co.matrix(space).sparse, len(space), [co.coords(el) for el in elems]
    )
    return all(s is not None for s in sols)


def span_intersection(
    a: Sequence[WeylElement], b: Sequence[WeylElement]
) -> List[WeylElement]:
    """Canonical basis of span(a) meet span(b)."""
    a = span_basis(a)
    b = span_basis(b)
    if not a or not b:
        return []
    co = Coordinates(a, b)
    # columns: lambda coefficients on a, then mu coefficients on b;
    # kernel rows of [A^T  -B^T] give lambda with lambda.A = mu.B
    combos = nullspace(co.matrix(a + [-el for el in b]))
    out = [linear_combination(zip(vec[: len(a)], a)) for vec in combos]
    return span_basis([u for u in out if not u.is_zero()])


# -- the checks -----------------------------------------------------------


def check_centralizer_theorem(e: EndoPair, cap: int) -> CheckResult:
    """Windowed centralizer of h = y*x equals the span of its powers."""
    win = Window(W11, cap)
    h = e.h
    basis = centralizer_window(h, win)
    expected = powers(h, cap // weighted_degree(W11, h))
    ok = spans_equal(basis, expected)
    witness = None
    if not ok:
        witness = {
            "computed_dimension": len(basis),
            "expected_dimension": len(span_basis(expected)),
            "computed": [str(u) for u in basis],
        }
    return CheckResult(
        name="centralizer_theorem",
        params={"cap": cap, "weight": "(1,1)"},
        passed=ok,
        witness=witness,
    )


def check_eigen_theorem(
    e: EndoPair, cap: int, candidates: Optional[Sequence] = None
) -> CheckResult:
    """Eigenvalues of ad(h) in the window are integers; eigenspaces are
    window slices of spans of h^k x^i (resp. h^k y^(-i))."""
    win = Window(W11, cap)
    if candidates is None:
        candidates = default_eigen_candidates(cap)
    h = e.h
    report = eigenvalue_scan(h, win, candidates)
    vh = weighted_degree(W11, h)
    vx = weighted_degree(W11, e.x)
    vy = weighted_degree(W11, e.y)

    problems: List[str] = []
    found_map = {lam: basis for lam, basis in report.found}
    for lam in found_map:
        if lam.denominator != 1:
            problems.append(f"non-integer eigenvalue {lam}")

    # independent dimension count from degrees alone
    expected_found: Dict[int, int] = {}
    for lam in report.candidates:
        if lam.denominator != 1:
            continue
        i = int(lam)
        base = i * vx if i >= 0 else (-i) * vy
        count = 0
        k = 0
        while base + k * vh <= cap:
            count += 1
            k += 1
        if count:
            expected_found[i] = count

    h_pows = powers(h, cap // vh)
    x_pows = powers(e.x, max(expected_found, default=0))
    y_pows = powers(e.y, -min(expected_found, default=0))
    for i, count in expected_found.items():
        basis = found_map.get(rat(i))
        if basis is None:
            problems.append(f"eigenvalue {i} missing")
            continue
        if len(basis) != count:
            problems.append(
                f"eigenvalue {i}: dimension {len(basis)} != expected {count}"
            )
            continue
        vi = x_pows[i] if i >= 0 else y_pows[-i]
        expected_space = [hk * vi for hk in h_pows[:count]]
        if not span_contains(expected_space, basis):
            problems.append(f"eigenvalue {i}: basis not inside span of h^k v_i'")
    for lam in found_map:
        if lam.denominator == 1 and int(lam) not in expected_found:
            problems.append(f"unexpected eigenvalue {lam}")

    return CheckResult(
        name="eigen_theorem",
        params={
            "cap": cap,
            "weight": "(1,1)",
            "candidates": len(report.candidates),
        },
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


def check_klein_basis(e: EndoPair, imax: int) -> CheckResult:
    """y^i x^i and x^i y^i as products of shifted h's, and the delta chain."""
    x, y, h = e.x, e.y, e.h
    dl = delta_xy(e)
    problems: List[str] = []
    yixi_prev = ONE
    xiyi_prev = ONE
    rising = ONE
    falling = ONE
    yixi_list = [ONE]
    xiyi_list = [ONE]
    for i in range(1, imax + 1):
        yixi = y * yixi_prev * x
        xiyi = x * xiyi_prev * y
        rising = rising * (h + (i - 1))
        falling = falling * (h - i)
        if yixi != rising:
            problems.append(f"y^{i}x^{i} != h(h+1)...(h+{i}-1)")
        if xiyi != falling:
            problems.append(f"x^{i}y^{i} != (h-1)...(h-{i})")
        yixi_list.append(yixi)
        xiyi_list.append(xiyi)
        yixi_prev, xiyi_prev = yixi, xiyi
    for i in range(1, imax + 1):
        sign_i = -1 if i % 2 else 1
        sign_prev = -1 if (i - 1) % 2 else 1
        ei = rat(sign_i, factorial(i) ** 2) * yixi_list[i]
        ei_prev = rat(sign_prev, factorial(i - 1) ** 2) * yixi_list[i - 1]
        if dl(ei) != ei_prev:
            problems.append(f"delta chain fails at i={i} on y^i x^i")
        fi = rat(sign_i, factorial(i) ** 2) * xiyi_list[i]
        fi_prev = rat(sign_prev, factorial(i - 1) ** 2) * xiyi_list[i - 1]
        if dl(fi) != fi_prev:
            problems.append(f"delta chain fails at i={i} on x^i y^i")
    return CheckResult(
        name="klein_basis",
        params={"imax": imax},
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


def _random_element(rng: random.Random, max_degree=3, max_terms=4) -> WeylElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        num = rng.randint(-9, 9)
        den = rng.randint(1, 3)
        if num:
            terms[(i, j)] = terms.get((i, j), 0) + rat(num, den)
    return WeylElement(terms)


def check_product_rules(e: EndoPair, samples: int, seed: int = 20260809) -> CheckResult:
    """Denominator-free product rules for d and d'; literal rational-
    coefficient versions in the localized algebra for the identity pair."""
    rng = random.Random(seed)
    d = d_yx(e)
    dp = d_xy(e)
    x, y = e.x, e.y
    problems: List[str] = []
    pairs = []
    while len(pairs) < samples:
        a = _random_element(rng)
        b = _random_element(rng)
        if not a.is_zero() and not b.is_zero():
            pairs.append((a, b))
    for k, (a, b) in enumerate(pairs):
        lhs = d(a * b)
        rhs = d(a) * b + a * d(b) + commutator(y, a) * commutator(b, x)
        if lhs != rhs:
            problems.append(f"d product rule fails on sample {k}")
        lhs2 = dp(a * b)
        rhs2 = dp(a) * b + a * dp(b) + commutator(x, a) * commutator(b, y)
        if lhs2 != rhs2:
            problems.append(f"d' product rule fails on sample {k}")
    if e.is_identity():
        h_inv = graded_component(0, ratfun(POLY_ONE, poly([0, 1])))
        h_minus1_inv = graded_component(0, ratfun(POLY_ONE, poly([-1, 1])))
        # the contraction x h^{-1} y = 1 behind the denominator-free form
        if localized_mul(localized_mul(embed(X), h_inv), embed(Y)) != embed(ONE):
            problems.append("x h^-1 y != 1 in the localized algebra")
        for k, (a, b) in enumerate(pairs[: min(len(pairs), 5)]):
            lhs = embed(d(a * b))
            tail = localized_mul(
                localized_mul(localized_mul(embed(d(a)), h_inv), embed(Y)),
                embed(commutator(b, X)),
            )
            rhs = embed(d(a) * b) + embed(a * d(b)) + tail
            if lhs != rhs:
                problems.append(f"localized d rule fails on sample {k}")
            lhs2 = embed(dp(a * b))
            tail2 = localized_mul(
                localized_mul(localized_mul(embed(dp(a)), h_minus1_inv), embed(X)),
                embed(commutator(b, Y)),
            )
            rhs2 = embed(dp(a) * b) + embed(a * dp(b)) + tail2
            if lhs2 != rhs2:
                problems.append(f"localized d' rule fails on sample {k}")
    return CheckResult(
        name="product_rules",
        params={"samples": samples, "seed": seed, "localized": e.is_identity()},
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


def check_kernel_delta(
    e: EndoPair, cap: int, span_bound: Optional[int] = None
) -> CheckResult:
    """Windowed kernel of delta is (K[x] + K[y]) cut to the window, and
    its intersection with the centralizer window is the scalars.

    The window slice of K[x] + K[y] is an honest intersection: leading
    terms of x^(2j) and y^j can cancel (e.g. y^3 - x^6 drops a degree),
    so generators run up to degree span_bound (default 2*cap) and are
    intersected with the window exactly.  Every generator is killed by
    delta, so a dimension match certifies equality.
    """
    if span_bound is None:
        span_bound = 2 * cap
    win = Window(W11, cap)
    dl = delta_xy(e)
    mat = map_matrix(dl, win, win.enlarged(dl))
    kernel = [win.element(vec) for vec in nullspace(mat)]
    vx = weighted_degree(W11, e.x)
    vy = weighted_degree(W11, e.y)
    generators = powers(e.x, span_bound // vx) + powers(e.y, span_bound // vy)[1:]
    expected = span_intersection(generators, win.basis_elements())
    problems: List[str] = []
    if not spans_equal(kernel, expected):
        problems.append(
            f"kernel window (dim {len(kernel)}) differs from the "
            f"(K[x]+K[y]) window (dim {len(expected)})"
        )
    inter = span_intersection(kernel, centralizer_window(e.h, win))
    if not spans_equal(inter, [ONE]):
        problems.append("kernel meet centralizer is not the scalars")
    return CheckResult(
        name="kernel_delta",
        params={"cap": cap, "span_bound": span_bound, "weight": "(1,1)"},
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


def check_nilpotent_closure(
    e: EndoPair,
    cap: int,
    max_iter: Optional[int] = None,
    slack: Optional[int] = None,
) -> CheckResult:
    """The windowed nilpotent closures of ad(x), ad(y) and delta all agree
    with the membership-determined window of the image subalgebra.

    Defaults: max_iter = 4*cap + 1 and slack = 7*cap, which certify
    convergence for the recipe-built pairs (substitution at most doubles
    a weighted degree per triangular generator).
    """
    if max_iter is None:
        max_iter = 4 * cap + 1
    if slack is None:
        slack = 7 * cap
    win = Window(W11, cap)
    closures = {
        "ad_x": nilpotent_closure_window(ad(e.x), win, max_iter),
        "ad_y": nilpotent_closure_window(ad(e.y), win, max_iter),
        "delta": nilpotent_closure_window(delta_xy(e), win, max_iter),
    }
    solver = MembershipSolver(e)
    verdicts = solver.solve(win.basis_elements(), slack)
    member_span = span_basis(
        [m for m, v in zip(win.basis_elements(), verdicts) if v.member]
    )
    problems: List[str] = []
    for label, basis in closures.items():
        if not spans_equal(basis, member_span):
            problems.append(
                f"{label} closure (dim {len(basis)}) != membership window "
                f"(dim {len(member_span)})"
            )
    return CheckResult(
        name="nilpotent_closure",
        params={
            "cap": cap,
            "max_iter": max_iter,
            "slack": slack,
            "weight": "(1,1)",
        },
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


def check_propagation(
    e: EndoPair, a: WeylElement, n: int, slack: int = 4
) -> CheckResult:
    """If (d d')^n(a) lies in the image subalgebra then so does a."""
    d = d_yx(e)
    dp = d_xy(e)
    img = a
    for _ in range(n):
        img = d(dp(img))
    solver = MembershipSolver(e)
    m_img, m_a = solver.solve([img, a], slack)
    passed = (not m_img.member) or m_a.member
    return CheckResult(
        name="propagation",
        params={"n": n, "slack": slack},
        passed=passed,
        witness=None
        if passed
        else {
            "image_member": m_img.member,
            "element_member": m_a.member,
        },
    )


def check_eigvec_tables(e: EndoPair, imax: int, nmax: int) -> CheckResult:
    """The six eigenvector families of the maps d and d'."""
    d = d_yx(e)
    dp = d_xy(e)
    x, y = e.x, e.y
    problems: List[str] = []
    x_pows = powers(x, imax + nmax)
    y_pows = powers(y, imax + nmax)
    for i in range(0, imax + 1):
        yixi = y_pows[i] * x_pows[i]
        xiyi = x_pows[i] * y_pows[i]
        if d(yixi) != i * yixi:
            problems.append(f"d(y^{i}x^{i}) != {i} y^{i}x^{i}")
        if dp(xiyi) != -i * xiyi:
            problems.append(f"d'(x^{i}y^{i}) != -{i} x^{i}y^{i}")
        for n in range(1, nmax + 1):
            u = y_pows[n + i] * x_pows[i]
            if d(u) != i * u:
                problems.append(f"d(y^{n} y^{i}x^{i}) != {i} u")
            u = y_pows[i] * x_pows[i + n]
            if d(u) != (i + n) * u:
                problems.append(f"d(y^{i}x^{i} x^{n}) != {i + n} u")
            u = x_pows[i] * y_pows[i + n]
            if dp(u) != -(i + n) * u:
                problems.append(f"d'(x^{i}y^{i} y^{n}) != -({i}+{n}) u")
            u = x_pows[n + i] * y_pows[i]
            if dp(u) != -i * u:
                problems.append(f"d'(x^{n} x^{i}y^{i}) != -{i} u")
    return CheckResult(
        name="eigvec_tables",
        params={"imax": imax, "nmax": nmax},
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


# -- suite ----------------------------------------------------------------

def canonical_config() -> dict:
    """The fixed suite configuration; CLI `verify` uses it by default."""
    return {
        "format": "weyl-verify-config",
        "version": 1,
        "endomorphisms": [
            {"name": "identity", "generators": []},
            {
                "name": "triangular-x2",
                "generators": [{"kind": "add_poly_x", "coeffs": ["0", "0", "1"]}],
            },
            {
                "name": "composite",
                "generators": [
                    {"kind": "add_poly_x", "coeffs": ["0", "0", "1"]},
                    {"kind": "add_poly_y", "coeffs": ["0", "0", "1"]},
                ],
            },
        ],
        "params": {
            "centralizer_cap": 10,
            "eigen_cap": 6,
            "klein_imax": 8,
            "product_samples": 20,
            "kernel_cap": 5,
            "closure_cap": 4,
            "eigvec_imax": 4,
            "eigvec_nmax": 4,
            "propagation_power": 2,
            "propagation_element": "Y^2*X^3",
            "membership_slack": 4,
            "seed": 20260809,
        },
    }


def run_suite(config: Optional[dict] = None) -> List[CheckResult]:
    """Run every check over every configured pair, in declaration order."""
    from .parsing import parse

    if config is None:
        config = canonical_config()
    params = config["params"]
    prop_elem = parse(params.get("propagation_element", "Y^2*X^3"))
    results: List[CheckResult] = []
    for doc in config["endomorphisms"]:
        name = doc["name"]
        e = compile_recipe(recipe_from_doc(doc))
        for res in (
            check_centralizer_theorem(e, params["centralizer_cap"]),
            check_eigen_theorem(e, params["eigen_cap"]),
            check_klein_basis(e, params["klein_imax"]),
            check_product_rules(e, params["product_samples"], params["seed"]),
            check_kernel_delta(e, params["kernel_cap"]),
            check_nilpotent_closure(
                e,
                params["closure_cap"],
                params.get("closure_max_iter"),
                params.get("closure_slack"),
            ),
            check_propagation(
                e,
                apply_endo(e, prop_elem),
                params["propagation_power"],
                params["membership_slack"],
            ),
            check_eigvec_tables(e, params["eigvec_imax"], params["eigvec_nmax"]),
        ):
            res.name = f"{res.name}[{name}]"
            results.append(res)
    return results
