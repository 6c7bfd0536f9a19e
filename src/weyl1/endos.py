"""Endomorphism recipes and membership in the image subalgebra.

A recipe composes elementary commutator-preserving generators:

    add_poly_x(f):  X -> X,          Y -> Y + f(X)
    add_poly_y(g):  X -> X + g(Y),   Y -> Y
    linear(a,b,c,d) with ad - bc = 1:  X -> aX + bY,  Y -> cX + dY

or overrides the pair (x, y) directly, in which case [y, x] = 1 is
checked.  Generators apply left to right, so a recipe [g1, g2] compiles
to the endomorphism "g2 after g1".

Membership of an element a in the subalgebra generated by a verified
pair (x, y) is decided within a stated slack: the monomials y^i x^j are
a basis of that subalgebra, and a is a member when its expansion uses
only pairs with v11(y^i x^j) <= v11(a) + slack.  A negative verdict is
therefore always "not at this slack".

Aut(A1) is tame (Dixmier 1968, Makar-Limanov 1984), so `inverse_pair`
can reduce a pair to (X, Y) and write down the inverse psi.  It returns
psi only with a certificate: [y, x] = 1 recomputed, [psi(Y), psi(X)] =
1 and phi(psi(X)) = X, phi(psi(Y)) = Y for phi: X -> x, Y -> y.  Then
phi(psi(a)) = a, and phi is injective because A1 is simple, so psi(a) is
the unique expansion of a and the solver reads the verdict off its
support, with no linear solve.  A pair without a certificate keeps the
slack solver: an elimination over the y^i x^j within the bound.  Both
give the same verdict, witness and witness order for every element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    ONE,
    ZERO,
    X,
    Y,
    EndoPair,
    WeylElement,
    apply_endo,
    build_endo,
    commutator,
    linear_combination,
    powers,
)
from .degrees import W11, Weight, weighted_degree
from .errors import DomainError, UnverifiedEndoError
from .scalars import NEG_INF, Rat, exact_div, rat
from .windows import Coordinates, Window


@dataclass(frozen=True)
class AddPolyX:
    """X -> X, Y -> Y + f(X); coeffs of f ascending in the argument."""

    coeffs: Tuple[Rat, ...]

    def pair(self) -> EndoPair:
        f_of_x = linear_combination(zip(self.coeffs, powers(X, len(self.coeffs) - 1)))
        return build_endo(X, Y + f_of_x)


@dataclass(frozen=True)
class AddPolyY:
    """X -> X + g(Y), Y -> Y."""

    coeffs: Tuple[Rat, ...]

    def pair(self) -> EndoPair:
        g_of_y = linear_combination(zip(self.coeffs, powers(Y, len(self.coeffs) - 1)))
        return build_endo(X + g_of_y, Y)


@dataclass(frozen=True)
class LinearGen:
    """X -> aX + bY, Y -> cX + dY with ad - bc = 1."""

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    def pair(self) -> EndoPair:
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("linear generator needs determinant 1")
        return build_endo(self.a * X + self.b * Y, self.c * X + self.d * Y)


EndoGenerator = Union[AddPolyX, AddPolyY, LinearGen]


def add_poly_x(coeffs) -> AddPolyX:
    return AddPolyX(tuple(rat(c) for c in coeffs))


def add_poly_y(coeffs) -> AddPolyY:
    return AddPolyY(tuple(rat(c) for c in coeffs))


def linear(a, b, c, d) -> LinearGen:
    return LinearGen(rat(a), rat(b), rat(c), rat(d))


@dataclass(frozen=True)
class EndoRecipe:
    generators: Tuple[EndoGenerator, ...] = ()
    raw: Optional[Tuple[WeylElement, WeylElement]] = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


def compile_recipe(recipe: EndoRecipe) -> EndoPair:
    """Compose the generators left to right; verify the result.

    A raw override bypasses the generators but still must verify.
    """
    if recipe.raw is not None:
        pair = build_endo(*recipe.raw)
        if not pair.verified:
            raise UnverifiedEndoError(
                "raw pair fails [y, x] = 1; commutator is "
                f"{pair.defect}"
            )
        return pair
    x_cur, y_cur = X, Y
    for gen in recipe.generators:
        gpair = gen.pair()
        if not gpair.verified:  # cannot happen for the shipped generators
            raise UnverifiedEndoError("generator failed verification")
        x_cur = apply_endo(gpair, x_cur)
        y_cur = apply_endo(gpair, y_cur)
    pair = build_endo(x_cur, y_cur)
    if not pair.verified:
        raise UnverifiedEndoError("composite pair failed verification")
    return pair


# -- products and substitution for one pair --------------------------------


class _Products:
    """The products y^i x^j of one pair, cached by rows: row i starts at
    y^i, and each entry is its left neighbour times x."""

    def __init__(self, e: EndoPair):
        self.x, self.y = e.x, e.y
        self._y_pows = [ONE]
        self._rows: Dict[int, List[WeylElement]] = {}

    def product(self, i: int, j: int) -> WeylElement:
        row = self._rows.get(i)
        if row is None:
            while len(self._y_pows) <= i:
                self._y_pows.append(self._y_pows[-1] * self.y)
            row = self._rows[i] = [self._y_pows[i]]
        while len(row) <= j:
            row.append(row[-1] * self.x)
        return row[j]

    def substitute(self, a: WeylElement) -> WeylElement:
        """sum a[i,j] y^i x^j, the map of `apply_endo`, by Horner's rule
        in y: c_0 + y (c_1 + y (c_2 + ...)) with c_i = sum_j a[i,j] x^j
        from row 0.  Each step multiplies by y alone, which costs less
        than forming every y^i x^j of a."""
        rows: Dict[int, list] = {}
        for (i, j), c in a._terms.items():
            rows.setdefault(i, []).append((c, self.product(0, j)))
        acc = ZERO
        for i in range(max(rows, default=-1), -1, -1):
            acc = self.y * acc + linear_combination(rows.get(i, ()))
        return acc


def _cut_top(a, va, b, vb, r, s):
    """(a - c*b^k, r - c*s^k) when the (1,1)-leading form of a is c times
    that of b^k, k = va/vb; else None.  gr A1 = K[X, Y] is a commutative
    domain, so lead(b^k) = lead(b)^k and the cut lowers the degree of a."""
    if va % vb:
        return None
    k = va // vb
    bk = b**k
    top_a = {key: v for key, v in a._terms.items() if key[0] + key[1] == va}
    top_b = {key: v for key, v in bk._terms.items() if key[0] + key[1] == va}
    if top_a.keys() != top_b.keys():
        return None
    first = next(iter(top_a))
    c = exact_div(top_a[first], top_b[first])
    if any(v != c * top_b[mono] for mono, v in top_a.items()):
        return None
    return a - c * bk, r - c * s**k


# -- the inverse of a pair ------------------------------------------------


def inverse_pair(e: EndoPair) -> Optional[EndoPair]:
    """The inverse psi = (psi(X), psi(Y)) of phi: X -> x, Y -> y, or None.

    Degree reduction after Jung and van der Kulk: while the (1,1)-leading
    form of y is c times that of x^k, y <- y - c*x^k (else the same with
    x and y swapped), and the same step on a pair (p, q) that starts at
    (X, Y) keeps x = phi(p) and y = phi(q).  Each step lowers
    v(x) + v(y); at v(x) = v(y) = 1 the affine pair is inverted by hand.

    psi is returned only with its certificate: [y, x] = 1, recomputed
    rather than read from e.verified; [psi(Y), psi(X)] = 1; and
    phi(psi(X)) = X, phi(psi(Y)) = Y, with phi the map of `apply_endo`
    evaluated by Horner's rule.  Then phi(psi(a)) = a for every a, and
    phi is injective because A1 is simple, so psi(a) is the only
    expansion of a over the y^i x^j.  None means no certificate: a pair
    without [y, x] = 1, or a stall, which on a commutator-one pair would
    be a counterexample to Dixmier's problem (Bull. SMF 96, 1968).
    """
    phi = build_endo(e.x, e.y)
    if not phi.verified:
        return None
    x, y, p, q = e.x, e.y, X, Y
    vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    while vx + vy > 2:  # [y, x] = 1 keeps both degrees >= 1
        step = _cut_top(y, vy, x, vx, q, p)
        if step is not None:
            y, q = step
        else:
            step = _cut_top(x, vx, y, vy, p, q)
            if step is None:
                return None
            x, p = step
        vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    # x = a1 X + b1 Y + e1, y = a2 X + b2 Y + e2, a1 b2 - a2 b1 = [y, x] = 1
    a1, b1, e1 = (x.coefficient(*key) for key in ((0, 1), (1, 0), (0, 0)))
    a2, b2, e2 = (y.coefficient(*key) for key in ((0, 1), (1, 0), (0, 0)))
    psi_x = linear_combination([(b2, p), (-b1, q), (b1 * e2 - b2 * e1, ONE)])
    psi_y = linear_combination([(a1, q), (-a2, p), (a2 * e1 - a1 * e2, ONE)])
    image = _Products(phi).substitute
    if commutator(psi_y, psi_x) == ONE and image(psi_x) == X and image(psi_y) == Y:
        return EndoPair(x=psi_x, y=psi_y, verified=True)
    return None


# -- membership in the image subalgebra ----------------------------------


@dataclass
class Membership:
    """Verdict of the slack-bounded expansion a = sum c[i,j] y^i x^j.

    pairs_tried counts the pairs with v11(y^i x^j) <= v11(a) + slack, 0
    for a = 0: it depends on the element alone, not on its batch.
    """

    member: bool
    witness: Optional[Dict[Tuple[int, int], Rat]]
    slack: int
    degree_bound: Union[int, float]
    pairs_tried: int

    def __bool__(self):
        return self.member


class MembershipSolver:
    """Membership queries for one pair.

    With a certified inverse psi (see `inverse_pair`) the expansion of a
    is psi(a), substituted with cached powers of psi(X).  Any other
    pair, such as a stall, keeps the slack solver: an elimination over
    the cached products y^i x^j within the bound.
    """

    def __init__(self, e: EndoPair):
        if not e.verified:
            raise UnverifiedEndoError("membership needs a verified pair")
        self.pair = e
        self._vx = weighted_degree(W11, e.x)
        self._vy = weighted_degree(W11, e.y)
        if self._vx < 1 or self._vy < 1:
            # candidate_pairs would never leave a degree-0 direction
            raise DomainError(
                f"membership needs v(x), v(y) >= 1, got {self._vx}, {self._vy}: "
                "a commutator-one pair has no scalar component"
            )
        self._products = _Products(e)
        inverse = inverse_pair(e)
        self._inverse = None if inverse is None else _Products(inverse)

    def basis_product(self, i: int, j: int) -> WeylElement:
        return self._products.product(i, j)

    def candidate_pairs(self, bound) -> Tuple[Tuple[int, int], ...]:
        """Pairs with v11(y^i x^j) = i*v(y) + j*v(x) <= bound, scan order:
        the monomials of the window of weight (v(y), v(x)) and that cap."""
        return Window(Weight(self._vy, self._vx), bound).monomials

    def solve(self, elements: Sequence[WeylElement], slack: int) -> List[Membership]:
        """One verdict per element; each matches element-by-element solving.

        The expansion a = sum c[i,j] y^i x^j is unique, and a is a member
        at this slack iff every (i, j) it uses has i*v(y) + j*v(x) <=
        v11(a) + slack.  With a certified inverse the expansion is psi(a),
        so the verdicts, witnesses and their order are those of the slack
        solver, which solves the batch once at its largest bound and
        checks which pairs each witness uses.  A negative slack is refused.
        """
        if slack < 0:
            raise ValueError(f"membership slack must be >= 0, got {slack}")
        degrees = [weighted_degree(W11, a) for a in elements]
        if self._inverse is not None:
            expansions = [self._inverse.substitute(a)._terms for a in elements]
        else:
            expansions = self._eliminate(elements, degrees, slack)
        vy, vx = self._vy, self._vx
        out = []
        for deg, b in zip(degrees, expansions):
            if deg == NEG_INF:
                out.append(Membership(True, {}, slack, deg, 0))
                continue
            bound = deg + slack
            tried = len(self.candidate_pairs(bound))
            if b is None or any(i * vy + j * vx > bound for (i, j) in b):
                out.append(Membership(False, None, slack, bound, tried))
                continue
            # scan order, as the columns of the slack solver
            order = sorted(b, key=lambda p: (p[0] * vy + p[1] * vx, p[0]))
            witness = {p: b[p] for p in order}
            out.append(Membership(True, witness, slack, bound, tried))
        return out

    def _eliminate(self, elements, degrees, slack):
        """Expansions over the pairs within the batch's largest bound, None
        where there is none: one elimination serves the batch."""
        finite = [d for d in degrees if d != NEG_INF]
        if not finite:
            return [None] * len(elements)
        pairs = self.candidate_pairs(max(finite) + slack)
        columns = [self.basis_product(i, j) for (i, j) in pairs]
        sols = Coordinates(columns, elements).solve(columns, elements)
        return [
            None if sol is None else {pairs[c]: v for c, v in sol.items()}
            for sol in sols
        ]


def subalgebra_membership(
    e: EndoPair, a: WeylElement, slack: int = 4
) -> Membership:
    """Decide a = sum c[i,j] y^i x^j over pairs within the slack bound."""
    return MembershipSolver(e).solve([a], slack)[0]
