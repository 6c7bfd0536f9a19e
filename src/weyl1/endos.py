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
a basis of that subalgebra, and the solver looks for an exact expansion
using the pairs with v11(y^i x^j) <= v11(a) + slack.  A negative verdict
is therefore always "not at this slack".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import (
    ONE,
    X,
    Y,
    EndoPair,
    WeylElement,
    apply_endo,
    build_endo,
    linear_combination,
    powers,
)
from .degrees import W11, Weight, weighted_degree
from .errors import DomainError, UnverifiedEndoError
from .scalars import Rat, rat
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


# -- membership in the image subalgebra ----------------------------------


@dataclass
class Membership:
    """Verdict of the slack-bounded expansion a = sum c[i,j] y^i x^j."""

    member: bool
    witness: Optional[Dict[Tuple[int, int], Rat]]
    slack: int
    degree_bound: Union[int, float]
    pairs_tried: int

    def __bool__(self):
        return self.member


class MembershipSolver:
    """Caches powers y^i x^j of one pair for repeated membership queries."""

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
        self._y_pows = [ONE]
        # _rows[i][j] = y^i x^j, each built from its left neighbour
        self._rows: Dict[int, List[WeylElement]] = {}

    def basis_product(self, i: int, j: int) -> WeylElement:
        row = self._rows.get(i)
        if row is None:
            while len(self._y_pows) <= i:
                self._y_pows.append(self._y_pows[-1] * self.pair.y)
            row = self._rows[i] = [self._y_pows[i]]
        while len(row) <= j:
            row.append(row[-1] * self.pair.x)
        return row[j]

    def candidate_pairs(self, bound) -> Tuple[Tuple[int, int], ...]:
        """Pairs with v11(y^i x^j) = i*v(y) + j*v(x) <= bound, scan order:
        the monomials of the window of weight (v(y), v(x)) and that cap."""
        return Window(Weight(self._vy, self._vx), bound).monomials

    def solve(self, elements: Sequence[WeylElement], slack: int) -> List[Membership]:
        """Batch the queries; verdicts match element-by-element solving.

        The expansion over the y^i x^j basis is unique, so solving once at
        the largest bound and checking which pairs each witness uses gives
        exactly the per-element answers.  A negative slack is refused.
        """
        if slack < 0:
            raise ValueError(f"membership slack must be >= 0, got {slack}")
        degrees = [weighted_degree(W11, a) for a in elements]
        finite = [d for d in degrees if d != float("-inf")]
        if not finite:
            return [
                Membership(True, {}, slack, d, 0) for d in degrees
            ]
        bound = max(finite) + slack
        pairs = self.candidate_pairs(bound)
        columns = [self.basis_product(i, j) for (i, j) in pairs]
        sols = Coordinates(columns, elements).solve(columns, elements)
        out = []
        for a, deg, sol in zip(elements, degrees, sols):
            if a.is_zero():
                out.append(Membership(True, {}, slack, deg, len(pairs)))
                continue
            if sol is None:
                out.append(Membership(False, None, slack, deg + slack, len(pairs)))
                continue
            own_bound = deg + slack
            witness = {pairs[c]: v for c, v in sorted(sol.items())}
            within = all(
                i * self._vy + j * self._vx <= own_bound for (i, j) in witness
            )
            if within:
                out.append(Membership(True, witness, slack, own_bound, len(pairs)))
            else:
                out.append(Membership(False, None, slack, own_bound, len(pairs)))
        return out


def subalgebra_membership(
    e: EndoPair, a: WeylElement, slack: int = 4
) -> Membership:
    """Decide a = sum c[i,j] y^i x^j over pairs within the slack bound."""
    return MembershipSolver(e).solve([a], slack)[0]
