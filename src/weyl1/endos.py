"""Endomorphism recipes and membership in the image subalgebra.

A recipe composes elementary commutator-preserving generators:

    add_poly_x(f):  X -> X,          Y -> Y + f(X)
    add_poly_y(g):  X -> X + g(Y),   Y -> Y
    linear(a,b,c,d) with ad - bc = 1:  X -> aX + bY,  Y -> cX + dY

or overrides the pair (x, y) directly.  Generators apply left to right,
so a recipe [g1, g2] compiles to the endomorphism "g2 after g1".  A
generator's pair needs no check, since [Y + f(X), X] = [Y, X + g(Y)] = 1
and [cX + dY, aX + bY] = ad - bc; `compile_recipe` checks [y, x] = 1 of
the result once.

Membership of an element a in the subalgebra generated by a verified
pair (x, y) is decided within a stated slack: the monomials y^i x^j are
a basis of that subalgebra, and a is a member when its expansion uses
only pairs with v11(y^i x^j) <= v11(a) + slack.  A negative verdict is
therefore always "not at this slack".

Aut(A1) is tame (Dixmier 1968, Makar-Limanov 1984), and a pair's
certificate reduces the degrees of (x, y) after Jung and van der Kulk
(`_reduce`) by elementary steps y <- y - c*x^k or x <- x - c*y^k, down to
an affine pair, and keeps the recipe that undoes them as `recipe`.
`certify` accepts the recipe only when `compile_recipe` gives (x, y)
back exactly.  Then phi: X -> x, Y -> y is a composite of automorphisms,
its inverse psi is the inverse generators in reverse order, and psi(a)
is the unique expansion of a.
`MembershipSolver(e)` is the pair's one certificate, which
`certificate(e)` memoizes for every check of the pair.  Building it never
raises: it recomputes [y, x] once, reads v(x) and v(y), and keeps either
the certified recipe with psi or the refusal, which `solve` raises.
`solve` pulls its whole batch back through psi (`_pull_back`) one
inverse generator at a time, forming that generator's powers of X and Y
once for the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    ONE,
    X,
    Y,
    EndoPair,
    WeylElement,
    apply_endo_batch,
    build_endo,
    commutator,
    format_element,
    linear_combination,
    powers,
)
from .degrees import W11, weighted_degree
from .errors import DomainError, UnverifiedEndoError
from .scalars import Rat, rat


@dataclass(frozen=True)
class AddPolyX:
    """X -> X, Y -> Y + f(X); coeffs of f ascending in the argument."""

    coeffs: Tuple[Rat, ...]

    def pair(self) -> EndoPair:
        f_of_x = linear_combination(zip(self.coeffs, powers(X, len(self.coeffs) - 1)))
        return EndoPair(X, Y + f_of_x, verified=True)  # [Y + f(X), X] = [Y, X] = 1

    def inverse(self) -> AddPolyX:
        return AddPolyX(tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class AddPolyY:
    """X -> X + g(Y), Y -> Y."""

    coeffs: Tuple[Rat, ...]

    def pair(self) -> EndoPair:
        g_of_y = linear_combination(zip(self.coeffs, powers(Y, len(self.coeffs) - 1)))
        return EndoPair(X + g_of_y, Y, verified=True)  # [Y, X + g(Y)] = [Y, X] = 1

    def inverse(self) -> AddPolyY:
        return AddPolyY(tuple(-c for c in self.coeffs))


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
        return EndoPair(self.a * X + self.b * Y, self.c * X + self.d * Y, verified=True)

    def inverse(self) -> LinearGen:
        return LinearGen(self.d, -self.b, -self.c, self.a)


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
        if self.generators and self.raw is not None:
            raise ValueError("a recipe takes generators or a raw pair, not both")


def compile_recipe(recipe: EndoRecipe) -> EndoPair:
    """Compose the generators left to right, or take the raw pair; verify
    [y, x] = 1 of the result."""
    x_cur, y_cur = recipe.raw or (X, Y)
    for gen in recipe.generators:
        x_cur, y_cur = apply_endo_batch(gen.pair(), [x_cur, y_cur])
    pair = build_endo(x_cur, y_cur)
    if not pair.verified:
        kind = "composite" if recipe.raw is None else "raw"
        raise UnverifiedEndoError(f"{kind} pair fails [y, x] = 1; commutator is {pair.defect}")
    return pair


# -- the tame decomposition of a pair ---------------------------------------


def _top(a: WeylElement, va) -> WeylElement:
    """The terms of a of (1,1)-degree va: its leading form when va = v11(a)."""
    return WeylElement._cleared({key: v for key, v in a._ints.items() if sum(key) == va}, a._den)


def _cut(side: str, a, va, b, vb):
    """(side, c, k) when the (1,1)-leading form of a is c times that of
    b^k, k = va/vb; else None.  gr A1 = K[X, Y] is a commutative domain,
    so lead(b^k) = lead(b)^k and a - c*b^k has a lower degree than a."""
    if va % vb:
        return None
    k = va // vb
    top_a, top_b = _top(a, va), _top(_top(b, vb) ** k, va)
    if top_a._ints.keys() != top_b._ints.keys():
        return None
    first = next(iter(top_a._ints))
    c = top_a.coefficient(*first) / top_b.coefficient(*first)
    if top_a != c * top_b:
        return None
    return side, c, k


def _reduce(e: EndoPair, premise: WeylElement) -> EndoRecipe:
    """The recipe that compiles to (x, y), read off the degree reduction
    after Jung and van der Kulk: while the (1,1)-leading form of y is c
    times that of x^k, y <- y - c*x^k, else the same with x and y swapped,
    down to v(x) = v(y) = 1.

    A step y <- y - c*x^k composes phi with Y -> Y - c X^k, so the recipe
    undoes it with add_poly_x, f = c X^k; an x step with add_poly_y,
    g = c Y^k.  The affine end pair x = aX + bY + s, y = cX + dY + t
    closes the recipe as add_poly_y([s]), add_poly_x([t]),
    linear(a, b, c, d).  Identity generators are left out.

    premise is [y, x] as recomputed before any product is formed; a pair
    without [y, x] = 1 raises UnverifiedEndoError.  A stall raises
    DomainError naming the degrees and leading forms: on a commutator-one
    pair it would be a counterexample to Dixmier's problem (Bull. SMF 96,
    1968).
    """
    if premise != ONE:
        raise UnverifiedEndoError(f"no decomposition: [y, x] = {format_element(premise)}")
    x, y, gens = e.x, e.y, []
    vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    while vx + vy > 2:  # [y, x] = 1 keeps both degrees >= 1
        step = _cut("y", y, vy, x, vx) or _cut("x", x, vx, y, vy)
        if step is None:
            raise DomainError(
                f"degree reduction stalls at v(x) = {vx}, v(y) = {vy}, leading forms "
                f"{format_element(_top(x, vx))} and {format_element(_top(y, vy))}"
            )
        side, c, k = step
        if side == "y":
            y = y - c * x**k
            gens.append(add_poly_x([0] * k + [c]))
        else:
            x = x - c * y**k
            gens.append(add_poly_y([0] * k + [c]))
        vx, vy = weighted_degree(W11, x), weighted_degree(W11, y)
    # x = aX + bY + s, y = cX + dY + t
    (a, b, s), (c, d, t) = (
        [u.coefficient(*key) for key in ((0, 1), (1, 0), (0, 0))] for u in (x, y)
    )
    if s:
        gens.append(add_poly_y([s]))
    if t:
        gens.append(add_poly_x([t]))
    if (a, b, c, d) != (1, 0, 0, 1):
        gens.append(linear(a, b, c, d))
    return EndoRecipe(tuple(gens))


def certify(e: EndoPair, recipe: EndoRecipe) -> EndoRecipe:
    """recipe, once `compile_recipe` turns its generators into (x, y)
    exactly; else DomainError.  A raw pair certifies nothing and is not
    compiled."""
    try:
        pair = compile_recipe(EndoRecipe(recipe.generators))
    except (ValueError, UnverifiedEndoError):
        pass
    else:
        if (pair.x, pair.y) == (e.x, e.y):
            return recipe
    raise DomainError("the decomposition does not replay to the pair")


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
    pairs_tried: int

    def __bool__(self):
        return self.member


class MembershipSolver:
    """The one certificate of a pair (module docstring) and membership
    queries against it.  `premise` is [y, x] as recomputed, `vx` and `vy`
    are v11(x) and v11(y); `recipe` is the decomposition `certify` accepted,
    or None, and then `refusal` is UnverifiedEndoError when [y, x] is not
    1, else DomainError for a stall or a recipe that does not replay."""

    def __init__(self, e: EndoPair):
        self.premise = commutator(e.y, e.x)
        self.recipe = self.refusal = None
        try:
            self.recipe = certify(e, _reduce(e, self.premise))
        except DomainError as exc:
            self.refusal = exc
        gens = self.recipe.generators if self.recipe else ()
        self._inverse = [g.inverse().pair() for g in reversed(gens)]
        self.vx = weighted_degree(W11, e.x)
        self.vy = weighted_degree(W11, e.y)

    def _raise_refusal(self) -> None:
        if self.refusal is not None:
            raise self.refusal.with_traceback(None)

    def _pull_back(self, batch: Sequence[WeylElement]) -> List[WeylElement]:
        """psi of each element of the batch, pulled back one inverse
        generator at a time, which keeps each near the size of its
        element.  Each generator's powers of X and Y are formed once, up
        to the largest exponents the batch holds at that step
        (`core.apply_endo_batch`)."""
        self._raise_refusal()
        for g in self._inverse:
            batch = apply_endo_batch(g, batch)
        return batch

    def solve(self, elements: Sequence[WeylElement], slack: int) -> List[Membership]:
        """One verdict per element, independent of the batch.

        The batch is pulled back through psi together (`_pull_back`).  a
        is a member at this slack iff every (i, j) that psi(a) uses has
        i*v(y) + j*v(x) <= v11(a) + slack.  A member's witness lists the
        pairs in scan order.  A negative slack is refused.
        """
        self._raise_refusal()
        if slack < 0:
            raise ValueError(f"membership slack must be >= 0, got {slack}")
        vy, vx, elements = self.vy, self.vx, list(elements)
        out = []
        for a, b in zip(elements, self._pull_back(elements)):
            used = b._ints  # empty iff a = 0
            bound = weighted_degree(W11, a) + slack
            member = all(i * vy + j * vx <= bound for (i, j) in used)
            witness = None
            if member:
                order = sorted(used, key=lambda p: (p[0] * vy + p[1] * vx, p[0]))
                witness = {p: b.coefficient(*p) for p in order}
            tried = _pairs_within(vy, vx, bound) if used else 0
            out.append(Membership(member, witness, slack, tried))
        return out


@lru_cache(maxsize=64)
def certificate(e: EndoPair) -> MembershipSolver:
    """The pair's `MembershipSolver`, built once per pair while it stays
    among the 64 most recent."""
    return MembershipSolver(e)


def _pairs_within(vy: int, vx: int, bound: int) -> int:
    """The number of pairs (i, j) with i*vy + j*vx <= bound, counted by i."""
    return sum((bound - i * vy) // vx + 1 for i in range(bound // vy + 1))


def subalgebra_membership(
    e: EndoPair, a: WeylElement, slack: int = 4
) -> Membership:
    """Decide a = sum c[i,j] y^i x^j over pairs within the slack bound."""
    return certificate(e).solve([a], slack)[0]
