"""Windowed verification suite for commutator-one pairs.

Each check exercises one exact statement about a verified pair (x, y)
with h = y*x: the windowed centralizer of h is spanned by powers of h,
the eigenvalues of ad(h) seen in a window are integers with eigenspaces
spanned by h^k x^i (resp. h^k y^(-i)), the factorials-and-falling-products
identities for y^i x^i and x^i y^i, the product rules of the maps
d = [y, .]x and d' = [x, .]y, the kernel and nilpotent closure of
delta = ad(x) ad(y), drop propagation, and the eigenvector tables.

The Klein-basis and eigenvector-table checks test identities that hold
for every pair with [y, x] = 1.  The map phi: X -> x, Y -> y extends to
an algebra homomorphism exactly when [y, x] = 1, and then h = phi(H),
d(phi(a)) = phi([Y, a]X), d'(phi(a)) = phi([X, a]Y) and delta(phi(a)) =
phi([X, [Y, a]]), so phi maps each of these identities on (X, Y) to the
same identity on (x, y).  Those two checks therefore read the premise
[y, x] = 1 that the pair's certificate recomputed, never the pair's
`verified` flag, and check the identities once on (X, Y).  The product
rules are not covered: their samples are not images under phi, and the
rules hold for any x and y.

The eigen and centralizer checks read one prediction, the h^k v_i' of
the window, formed once (`_predicted`).  The eigen check certifies a
PASS from dim V, the largest ad(h)-invariant subspace of its window,
before it computes any eigenspace: the predicted elements must be
independent eigenvectors, each for its i.  Every eigenvector lies in V
and eigenspaces of distinct eigenvalues are independent, so the dim
E_lam sum to at most dim V.  When the predicted spans P_i, each inside
E_i, fill V, then E_i = P_i for every i and every other eigenspace is
zero, candidate or not: the candidate scan would PASS.

Every check takes the pair alone.  What several checks of a pair read
comes from memos: its certificate (`endos.certificate`: the premise
[y, x], v(x), v(y) and membership), its maps and windows, and the
product-rule samples, memoized by (samples, seed).

Checks return a CheckResult carrying their full parameterization, a
pass/fail verdict, and witness data on failure, so every verdict is
reproducible from its own record.

Every basis `windows` returns is canonical in the window's monomial
order (reduced row echelon form), so two window subspaces are equal
exactly when their bases are equal as lists; the checks compare them so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    H,
    ONE,
    X,
    Y,
    EndoPair,
    WeylElement,
    apply_endo,
    commutator,
    format_element,
    identity_endo,
    powers,
)
from .degrees import W11
from .endos import certificate, compile_recipe
from .errors import DomainError
from .gwa import embed, graded_component, localized_mul, ratfun
from .maps import ad, d_xy, d_yx, delta_xy
from .parsing import parse
from .scalars import Rat, rat
from .serialize import recipe_from_doc
from .windows import (
    Window,
    centralizer_window,
    eigen_candidates,
    eigenvalue_scan,
    invariant_dim,
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


def _verdict(name: str, params: Dict[str, object], problems: List[str]) -> CheckResult:
    """PASS when no problem was found, else FAIL with the problems as witness."""
    return CheckResult(
        name=name,
        params=params,
        passed=not problems,
        witness={"problems": problems} if problems else None,
    )


# -- the checks -----------------------------------------------------------


def _eigen_problems(
    e: EndoPair, cap: int, candidates: Optional[Sequence]
) -> Tuple[Tuple[Rat, ...], List[str]]:
    """Compare each candidate's eigenspace of ad(h) in the (1,1) window of
    the cap with its prediction (`_predicted`): the dimension of its
    h^k v_i', inside their span.  Return the candidates and the problems.

    With more than one candidate the certificate (module docstring) is
    tried first on the same elements; when it holds, none is computed.
    Otherwise the candidates are scanned, reading the ad(h) window matrix
    and dim V from the same `windows` memos.
    """
    win, h = Window(W11, cap), e.h
    cands = eigen_candidates(cap, candidates)
    predicted = _predicted(e, cap, cands)
    if len(cands) > 1 and _eigen_certificate(h, win, predicted):
        return cands, []
    found = dict(eigenvalue_scan(h, win, cands).found)
    problems: List[str] = []
    for lam in cands:
        basis, span = found.get(lam, []), predicted.get(lam, [])
        if len(basis) != len(span):
            problems.append(
                f"eigenvalue {lam}: dimension {len(basis)} != expected {len(span)}"
            )
        # the dimensions agree, so containment in the span is equality
        elif basis and win.basis(span) != basis:
            problems.append(f"eigenvalue {lam}: basis not inside span of h^k v_i'")
    return cands, problems


def _predicted(e: EndoPair, cap: int, cands: Sequence[Rat]) -> Dict[int, List[WeylElement]]:
    """The h^k v_i' in the (1,1) window of the cap, k = 0, 1, ..., for each
    integer candidate i, with v_i' = x^i for i >= 0 and y^(-i) for i < 0.
    Degrees add, since gr A1 = K[X, Y] is a domain (`endos._cut`), so
    v(h) = v(x) + v(y) and there are (cap - v(v_i')) // v(h) + 1 of them."""
    h, cert = e.h, certificate(e)
    vx, vy = cert.vx, cert.vy
    vh = vx + vy
    counts: Dict[int, int] = {}
    for i in (lam.numerator for lam in cands if lam.denominator == 1):
        base = i * vx if i >= 0 else -i * vy
        counts[i] = (cap - base) // vh + 1 if base <= cap else 0
    present = [i for i, count in counts.items() if count]
    h_pows = powers(h, cap // vh)
    v = dict(enumerate(powers(e.x, max(present, default=0))))
    v.update((-n, yn) for n, yn in enumerate(powers(e.y, -min(present, default=0))))
    return {i: [hk * v[i] for hk in h_pows[:count]] for i, count in counts.items()}


def _eigen_certificate(
    h: WeylElement, win: Window, predicted: Dict[int, List[WeylElement]]
) -> bool:
    """True when the predicted h^k v_i' (`_predicted`) are eigenvectors of
    ad(h), each for its i, all are independent, and there are dim V of
    them (`windows.invariant_dim`)."""
    span: List[WeylElement] = []
    for i, us in predicted.items():
        for u in us:
            if commutator(h, u) != i * u:
                return False
            span.append(u)
    return len(win.basis(span)) == len(span) == invariant_dim(h, win)


def check_centralizer_theorem(e: EndoPair, cap: int) -> CheckResult:
    """Windowed centralizer of h = y*x equals the span of its powers.

    This is the eigen comparison at the one candidate 0: the powers of h
    are linearly independent, so the predicted dimension and containment
    in their span mean equal spans.
    """
    _, problems = _eigen_problems(e, cap, [0])
    return _verdict("centralizer_theorem", {"cap": cap, "weight": "(1,1)"}, problems)


def check_eigen_theorem(
    e: EndoPair, cap: int, candidates: Optional[Sequence] = None
) -> CheckResult:
    """Eigenvalues of ad(h) in the window are integers; eigenspaces are
    window slices of spans of h^k x^i (resp. h^k y^(-i)), as counted by
    degrees (see `_predicted`)."""
    scanned, problems = _eigen_problems(e, cap, candidates)
    return _verdict(
        "eigen_theorem",
        {"cap": cap, "weight": "(1,1)", "candidates": len(scanned)},
        problems,
    )


def _premise_problems(e: EndoPair) -> List[str]:
    """The premise of the identity checks, [y, x] = 1, as the pair's
    certificate recomputed it; the pair's `verified` flag is never read."""
    c = certificate(e).premise
    return [] if c == ONE else [f"premise fails: [y, x] = {format_element(c)}"]


def _klein_problems(imax: int) -> List[str]:
    """The Klein-basis identities on (X, Y), for i = 1..imax."""
    dl = delta_xy(identity_endo())
    problems: List[str] = []
    yixi_prev = xiyi_prev = rising = falling = ONE
    for i in range(1, imax + 1):
        yixi = Y * yixi_prev * X
        xiyi = X * xiyi_prev * Y
        rising = rising * (H + (i - 1))
        falling = falling * (H - i)
        if yixi != rising:
            problems.append(f"y^{i}x^{i} != h(h+1)...(h+{i}-1)")
        if xiyi != falling:
            problems.append(f"x^{i}y^{i} != (h-1)...(h-{i})")
        if dl(yixi) != -i * i * yixi_prev:
            problems.append(f"delta chain fails at i={i} on y^i x^i")
        if dl(xiyi) != -i * i * xiyi_prev:
            problems.append(f"delta chain fails at i={i} on x^i y^i")
        yixi_prev, xiyi_prev = yixi, xiyi
    return problems


def check_klein_basis(
    e: EndoPair, imax: int, identities: Optional[List[str]] = None
) -> CheckResult:
    """y^i x^i and x^i y^i as products of shifted h's, and the delta chain.

    The chain delta(e_i) = e_(i-1) for e_i = (-1)^i / (i!)^2 u_i is checked
    in its equivalent form delta(u_i) = -i^2 u_(i-1), for u_i = y^i x^i
    and for u_i = x^i y^i.

    The identities are checked on (X, Y) and carried to (x, y) by phi
    (module docstring): y^i x^i = phi(Y^i X^i), h = phi(H) and
    delta(phi(a)) = phi([X, [Y, a]]).  A FAIL names the premise with
    its defect, or an identity that fails on (X, Y), which is a fault of
    `core`.  At imax = 0 no identity is checked, and a pair with
    [y, x] != 1 still FAILs on the premise.  `identities`, when given, is
    `_klein_problems(imax)`, which `run_suite` evaluates once for all pairs.
    """
    if identities is None:
        identities = _klein_problems(imax)
    return _verdict("klein_basis", {"imax": imax}, _premise_problems(e) + identities)


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


@lru_cache(maxsize=64)
def _product_samples(
    samples: int, seed: int
) -> Tuple[Tuple[WeylElement, WeylElement, WeylElement], ...]:
    """The first `samples` nonzero pairs (a, b) drawn from `seed`, as
    triples (a, b, a*b): drawn once, while among the 64 most recent."""
    rng = random.Random(seed)
    triples = []
    while len(triples) < samples:
        a = _random_element(rng)
        b = _random_element(rng)
        if not a.is_zero() and not b.is_zero():
            triples.append((a, b, a * b))
    return tuple(triples)


def check_product_rules(e: EndoPair, samples: int, seed: int = 20260809) -> CheckResult:
    """Denominator-free product rules for d and d'; literal rational-
    coefficient versions in the localized algebra for the identity pair.

    Each rule reads m(ab) = m(a) b + a m(b) + [left, a][b, right], with
    (left, right) = (y, x) for d = [y, .]x and (x, y) for d' = [x, .]y;
    localized, the last term is m(a) (h - c)^-1 left [b, right], with c = 0
    for d and c = 1 for d'.

    The samples and their products come from `_product_samples`, which
    every pair shares.  Both rules read the one a*b of a sample, and the
    localized rules, on the first five samples, embed the m(ab), m(a) b,
    a m(b), m(a) and [b, right] the polynomial rule formed.
    """
    rules = [("d", d_yx(e), e.y, e.x), ("d'", d_xy(e), e.x, e.y)]
    localized = e.is_identity()
    problems: List[str] = []
    formed = []  # per localized sample and rule: m(ab), m(a) b, a m(b), m(a), [b, right]
    for k, (a, b, ab) in enumerate(_product_samples(samples, seed)):
        for r, (name, m, left, right) in enumerate(rules):
            mab, ma, br = m(ab), m(a), commutator(b, right)
            ma_b, a_mb = ma * b, a * m(b)
            if mab != ma_b + a_mb + commutator(left, a) * br:
                problems.append(f"{name} product rule fails on sample {k}")
            if localized and k < 5:
                formed.append((k, r, mab, ma_b, a_mb, ma, br))
    if localized:
        # (h - c)^-1 for c = 0, 1: the denominators of d and d'
        inverses = [graded_component(0, ratfun([1], [-c, 1])) for c in (0, 1)]
        # the contraction x h^{-1} y = 1 behind the denominator-free form
        if localized_mul(localized_mul(embed(X), inverses[0]), embed(Y)) != embed(ONE):
            problems.append("x h^-1 y != 1 in the localized algebra")
        for k, r, mab, ma_b, a_mb, ma, br in formed:
            name, _, left, _ = rules[r]
            tail = localized_mul(
                localized_mul(localized_mul(embed(ma), inverses[r]), embed(left)), embed(br)
            )
            if embed(mab) != embed(ma_b) + embed(a_mb) + tail:
                problems.append(f"localized {name} rule fails on sample {k}")
    return _verdict(
        "product_rules",
        {"samples": samples, "seed": seed, "localized": localized},
        problems,
    )


def check_kernel_delta(e: EndoPair, cap: int) -> CheckResult:
    """Windowed kernel of delta is (K[x] + K[y]) cut to the window, and
    its intersection with the centralizer window is the scalars.

    The window slice of K[x] + K[y] is an honest intersection: leading
    terms of x^(2j) and y^j can cancel (e.g. y^3 - x^6 drops a degree,
    and y - x^2 of degree 1 needs y of degree 4 for the composite pair),
    so generators run up to degree 2*cap, doubled while their window
    slice is smaller than the kernel window, up to 8*cap, and are
    cut to the window exactly (`Window.meet`).  Every generator
    is killed by delta, so a dimension match certifies equality; the
    params report the bound reached.
    """
    bound = 2 * cap
    win = Window(W11, cap)
    dl = delta_xy(e)
    kernel = nilpotent_closure_window(dl, win, 1)  # ker delta in the window
    cert = certificate(e)
    vx, vy = cert.vx, cert.vy
    xs, ys = powers(e.x, bound // vx), powers(e.y, bound // vy)
    while True:
        expected = win.meet(xs + ys[1:])
        if len(expected) >= len(kernel) or not 0 < bound < 8 * cap:
            break
        bound = min(2 * bound, 8 * cap)
        for ps, a, v in ((xs, e.x, vx), (ys, e.y, vy)):
            while len(ps) <= bound // v:
                ps.append(ps[-1] * a)
    problems: List[str] = []
    if kernel != expected:  # both canonical in the window's coordinates
        problems.append(
            f"kernel window (dim {len(kernel)}) differs from the "
            f"(K[x]+K[y]) window (dim {len(expected)}) within span_bound {bound}"
        )
    # 1 lies in both spaces, so they meet in the scalars iff their sum
    # falls short of the sum of their dimensions by exactly one
    cent = centralizer_window(e.h, win)
    if len(win.basis(kernel + cent)) != len(kernel) + len(cent) - 1:
        problems.append("kernel meet centralizer is not the scalars")
    return _verdict(
        "kernel_delta", {"cap": cap, "span_bound": bound, "weight": "(1,1)"}, problems
    )


def default_closure_max_iter(cap: int) -> int:
    """The nilpotent-closure iteration bound used when none is given."""
    return 4 * cap + 1


def check_nilpotent_closure(
    e: EndoPair,
    cap: int,
    max_iter: Optional[int] = None,
    slack: Optional[int] = None,
) -> CheckResult:
    """The windowed nilpotent closures of ad(x), ad(y) and delta all agree
    with the membership-determined window of the image subalgebra.

    Defaults: max_iter = 4*cap + 1 and slack = 7*cap, which suffice for
    the canonical pairs.  They are not enough for every pair: a deeper
    recipe can FAIL at them, so a FAIL holds within the printed max_iter
    and slack, which its witness names.  A pair that membership refuses
    FAILs with the refusal.

    The closures iterate only what the Leibniz bound leaves open
    (`nilpotent_closure_window`).  ad(x) and ad(y) are derivations, so
    nu(Y^i X^j) <= i(nu(Y) - 1) + j(nu(X) - 1) + 1 from D^(p+q-1)(uv) =
    sum_k C(p+q-1, k) D^k(u) D^(p+q-1-k)(v); delta reads the indices the
    ad(x) and ad(y) closures found, since [x, y], recomputed, is a scalar
    for a genuine pair and then delta^n = ad(x)^n ad(y)^n.  The default
    max_iter is exactly the bound of composite ad(y), with nu(X) = 5 and
    nu(Y) = 3, at X^cap: cap (5 - 1) + 1.  So the default is tight: X^cap
    dies at step 4*cap + 1 and not before.
    """
    if max_iter is None:
        max_iter = default_closure_max_iter(cap)
    if slack is None:
        slack = 7 * cap
    params = {"cap": cap, "max_iter": max_iter, "slack": slack, "weight": "(1,1)"}
    win = Window(W11, cap)
    monos = win.basis_elements()
    try:
        verdicts = certificate(e).solve(monos, slack)
    except DomainError as exc:
        return _verdict("nilpotent_closure", params, [str(exc)])
    members = [m for m, v in zip(monos, verdicts) if v.member]
    closures = {
        "ad_x": nilpotent_closure_window(ad(e.x), win, max_iter),
        "ad_y": nilpotent_closure_window(ad(e.y), win, max_iter),
        "delta": nilpotent_closure_window(delta_xy(e), win, max_iter),
    }
    problems: List[str] = []
    for label, basis in closures.items():
        if basis != members:
            problems.append(
                f"{label} closure (dim {len(basis)}) != membership window "
                f"(dim {len(members)}) within max_iter {max_iter} and slack {slack}"
            )
    return _verdict("nilpotent_closure", params, problems)


def check_propagation(e: EndoPair, a: WeylElement, n: int, slack: int = 4) -> CheckResult:
    """If (d d')^n(a) lies in the image subalgebra then so does a.  A pair
    that membership refuses FAILs with the refusal.  When (d d')^n(a) is
    a itself, as at n = 0, a is solved alone."""
    params = {"n": n, "slack": slack}
    d = d_yx(e)
    dp = d_xy(e)
    img = a
    for _ in range(n):
        img = d(dp(img))
    try:
        solved = certificate(e).solve([a] if img == a else [img, a], slack)
    except DomainError as exc:
        return _verdict("propagation", params, [str(exc)])
    m_img, m_a = solved[0], solved[-1]
    problems: List[str] = []
    if m_img.member and not m_a.member:
        problems.append(
            f"(d d')^{n}(a) is in the image subalgebra at slack {slack} but a is not"
        )
    return _verdict("propagation", params, problems)


def _eigvec_problems(imax: int, nmax: int) -> List[str]:
    """The six eigenvector families of d and d' on (X, Y)."""
    ident = identity_endo()
    d, dp = d_yx(ident), d_xy(ident)
    problems: List[str] = []
    x_pows = powers(X, imax + nmax)
    y_pows = powers(Y, imax + nmax)
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
    return problems


def check_eigvec_tables(
    e: EndoPair, imax: int, nmax: int, identities: Optional[List[str]] = None
) -> CheckResult:
    """The six eigenvector families of the maps d and d'.

    They are checked on (X, Y) and carried to (x, y) by phi (module
    docstring): every family member is phi of its (X, Y) counterpart, and
    d(phi(a)) = phi([Y, a]X), d'(phi(a)) = phi([X, a]Y).  A FAIL names the
    premise with its defect, or a family member that fails on (X, Y),
    which is a fault of `core`.  `identities`, when given, is
    `_eigvec_problems(imax, nmax)`, which `run_suite` evaluates once.
    """
    if identities is None:
        identities = _eigvec_problems(imax, nmax)
    return _verdict(
        "eigvec_tables", {"imax": imax, "nmax": nmax}, _premise_problems(e) + identities
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
    """Run every check over every configured pair, in declaration order.

    The pair-free identities are evaluated once per call, before the
    first pair, and passed to the two checks that read them.  Every check
    takes the pair alone; its certificate and the product-rule samples
    come from their memos (module docstring)."""
    if config is None:
        config = canonical_config()
    params = config["params"]
    prop_elem = parse(params.get("propagation_element", "Y^2*X^3"))
    klein = _klein_problems(params["klein_imax"])
    eigvec = _eigvec_problems(params["eigvec_imax"], params["eigvec_nmax"])
    results: List[CheckResult] = []
    for doc in config["endomorphisms"]:
        name = doc["name"]
        e = compile_recipe(recipe_from_doc(doc))
        for res in (
            check_centralizer_theorem(e, params["centralizer_cap"]),
            check_eigen_theorem(e, params["eigen_cap"]),
            check_klein_basis(e, params["klein_imax"], klein),
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
            check_eigvec_tables(e, params["eigvec_imax"], params["eigvec_nmax"], eigvec),
        ):
            res.name = f"{res.name}[{name}]"
            results.append(res)
    return results
