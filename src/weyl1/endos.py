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

There is one way to find that expansion.  Aut(A1) is tame (Dixmier
1968, Makar-Limanov 1984), and `decompose` reduces the degrees of
(x, y) after Jung and van der Kulk by elementary steps y <- y - c*x^k or
x <- x - c*y^k, down to an affine pair.  `certify` accepts the steps
only when undoing them from the affine pair gives (x, y) back exactly.
Then phi: X -> x, Y -> y is an affine automorphism after elementary ones,
its inverse psi is known step by step, and psi(a) is the unique
expansion of a: the solver pulls a back one elementary substitution at a
time and reads the verdict off the support of psi(a).  A pair without a
certified decomposition is refused: one whose [y, x] is not 1, or a
stall, which on a commutator-one pair would be a counterexample to
Dixmier's problem (Bull. SMF 96, 1968).
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
    format_element,
    linear_combination,
    powers,
)
from .degrees import W11, Weight, weighted_degree
from .errors import DomainError, UnverifiedEndoError
from .scalars import Rat, exact_div, rat
from .windows import Window


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
        x_cur = apply_endo(gpair, x_cur)
        y_cur = apply_endo(gpair, y_cur)
    pair = build_endo(x_cur, y_cur)
    if not pair.verified:
        raise UnverifiedEndoError("composite pair failed verification")
    return pair


# -- the tame decomposition of a pair ---------------------------------------


def _top(a: WeylElement, va) -> WeylElement:
    """The terms of a of (1,1)-degree va: its leading form when va = v11(a)."""
    return WeylElement._raw({key: v for key, v in a._terms.items() if sum(key) == va})


def _cut(side: str, a, va, b, vb):
    """(side, c, k) when the (1,1)-leading form of a is c times that of
    b^k, k = va/vb; else None.  gr A1 = K[X, Y] is a commutative domain,
    so lead(b^k) = lead(b)^k and a - c*b^k has a lower degree than a."""
    if va % vb:
        return None
    k = va // vb
    top_a, top_b = _top(a, va)._terms, _top(_top(b, vb) ** k, va)._terms
    if top_a.keys() != top_b.keys():
        return None
    first = next(iter(top_a))
    c = exact_div(top_a[first], top_b[first])
    if any(v != c * top_b[mono] for mono, v in top_a.items()):
        return None
    return side, c, k


def _step(x: WeylElement, y: WeylElement, side: str, c, k: int):
    """(x, y + c*x^k) for side "y", (x + c*y^k, y) for side "x"."""
    return (x, y + c * x**k) if side == "y" else (x + c * y**k, y)


def _substitute(a: WeylElement, x: WeylElement, y: WeylElement) -> WeylElement:
    """sum a[i,j] y^i x^j, the map of `apply_endo`, by Horner's rule in y:
    c_0 + y (c_1 + y (...)) with c_i = sum_j a[i,j] x^j."""
    x_pows = powers(x, max((j for _, j in a._terms), default=0))
    rows: Dict[int, list] = {}
    for (i, j), c in a._terms.items():
        rows.setdefault(i, []).append((c, x_pows[j]))
    acc = ZERO
    for i in range(max(rows, default=-1), -1, -1):
        acc = y * acc + linear_combination(rows.get(i, ()))
    return acc


@dataclass(frozen=True)
class Decomposition:
    """Steps (side, c, k), each y <- y - c*x^k (side "y") or x <- x -
    c*y^k (side "x"), that take (x, y) to the affine pair (self.x, self.y).
    A step composes phi with eps: Y -> Y - c X^k (or X -> X - c Y^k), so
    phi^-1 = eps_1 ... eps_T alpha^-1 with alpha: X -> self.x, Y -> self.y.
    """

    steps: Tuple[Tuple[str, Rat, int], ...]
    x: WeylElement
    y: WeylElement

    def pull_back(self, a: WeylElement) -> WeylElement:
        """phi^-1(a), one substitution at a time, so the intermediates stay
        near the size of a."""
        if (self.x, self.y) != (X, Y):
            # x = a1 X + b1 Y + e1, y = a2 X + b2 Y + e2, a1 b2 - a2 b1 = 1
            (a1, b1, e1), (a2, b2, e2) = (
                [u.coefficient(*key) for key in ((0, 1), (1, 0), (0, 0))]
                for u in (self.x, self.y)
            )
            inv_x = b2 * X - b1 * Y + (b1 * e2 - b2 * e1)
            inv_y = a1 * Y - a2 * X + (a2 * e1 - a1 * e2)
            a = _substitute(a, inv_x, inv_y)
        for side, c, k in reversed(self.steps):
            a = _substitute(a, *_step(X, Y, side, -c, k))
        return a


def decompose(e: EndoPair) -> Decomposition:
    """The degree reduction of (x, y) after Jung and van der Kulk: while
    the (1,1)-leading form of y is c times that of x^k, y <- y - c*x^k,
    else the same with x and y swapped, down to v(x) = v(y) = 1.

    [y, x] = 1 is recomputed before any product is formed; a pair without
    it raises UnverifiedEndoError.  A stall raises DomainError naming the
    degrees and leading forms: on a commutator-one pair it would be a
    counterexample to Dixmier's problem (Bull. SMF 96, 1968).
    """
    defect = commutator(e.y, e.x)
    if defect != ONE:
        raise UnverifiedEndoError(f"no decomposition: [y, x] = {format_element(defect)}")
    x, y, steps = e.x, e.y, []
    vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    while vx + vy > 2:  # [y, x] = 1 keeps both degrees >= 1
        step = _cut("y", y, vy, x, vx) or _cut("x", x, vx, y, vy)
        if step is None:
            raise DomainError(
                f"degree reduction stalls at v(x) = {vx}, v(y) = {vy}, leading forms "
                f"{format_element(_top(x, vx))} and {format_element(_top(y, vy))}"
            )
        steps.append(step)
        side, c, k = step
        x, y = _step(x, y, side, -c, k)
        vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    return Decomposition(tuple(steps), x, y)


def certify(e: EndoPair, dec: Decomposition) -> Decomposition:
    """dec, once its affine pair has [y, x] = 1 and undoing its steps from
    there gives (x, y) back exactly; else DomainError.  Then `pull_back`
    is the inverse of phi: X -> x, Y -> y, and phi is injective because
    A1 is simple, so it gives the only expansion of a over the y^i x^j."""
    x, y = dec.x, dec.y
    affine = max(weighted_degree(W11, x), weighted_degree(W11, y)) <= 1
    if affine and commutator(y, x) == ONE:
        for step in reversed(dec.steps):
            x, y = _step(x, y, *step)
        if (x, y) == (e.x, e.y):
            return dec
    raise DomainError("the decomposition does not replay to the pair")


def inverse_pair(e: EndoPair) -> Optional[EndoPair]:
    """(phi^-1(X), phi^-1(Y)) for phi: X -> x, Y -> y, pulled back along
    the certified decomposition; None for a pair without one."""
    try:
        dec = certify(e, decompose(e))
    except DomainError:
        return None
    return EndoPair(x=dec.pull_back(X), y=dec.pull_back(Y), verified=True)


# -- membership in the image subalgebra ----------------------------------


@dataclass
class Membership:
    """Verdict on the expansion a = sum c[i,j] y^i x^j within a slack.

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
    """Membership queries for one pair: the expansion of a is psi(a),
    pulled back along the pair's certified decomposition.  A pair without
    one is refused when the solver is built: UnverifiedEndoError when
    [y, x] is not 1, DomainError on a stall."""

    def __init__(self, e: EndoPair):
        self._vx = weighted_degree(W11, e.x)
        self._vy = weighted_degree(W11, e.y)
        if self._vx < 1 or self._vy < 1:
            raise DomainError(
                f"membership needs v(x), v(y) >= 1, got {self._vx}, {self._vy}: "
                "a commutator-one pair has no scalar component"
            )
        self._decomposition = certify(e, decompose(e))

    def candidate_pairs(self, bound) -> Tuple[Tuple[int, int], ...]:
        """Pairs with v11(y^i x^j) = i*v(y) + j*v(x) <= bound, scan order:
        the monomials of the window of weight (v(y), v(x)) and that cap."""
        return Window(Weight(self._vy, self._vx), bound).monomials

    def solve(self, elements: Sequence[WeylElement], slack: int) -> List[Membership]:
        """One verdict per element, independent of the batch.

        The expansion a = sum c[i,j] y^i x^j is psi(a), and a is a member
        at this slack iff every (i, j) it uses has i*v(y) + j*v(x) <=
        v11(a) + slack.  The witness lists the pairs in scan order.  A
        negative slack is refused.
        """
        if slack < 0:
            raise ValueError(f"membership slack must be >= 0, got {slack}")
        vy, vx = self._vy, self._vx
        out = []
        for a in elements:
            b = self._decomposition.pull_back(a)._terms  # empty iff a = 0
            bound = weighted_degree(W11, a) + slack
            member = all(i * vy + j * vx <= bound for (i, j) in b)
            order = sorted(b, key=lambda p: (p[0] * vy + p[1] * vx, p[0]))
            witness = {p: b[p] for p in order} if member else None
            tried = len(self.candidate_pairs(bound)) if b else 0
            out.append(Membership(member, witness, slack, bound, tried))
        return out


def subalgebra_membership(
    e: EndoPair, a: WeylElement, slack: int = 4
) -> Membership:
    """Decide a = sum c[i,j] y^i x^j over pairs within the slack bound."""
    return MembershipSolver(e).solve([a], slack)[0]
