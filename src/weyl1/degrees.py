"""Weighted degree functions, Newton polygons, and leading terms.

A weight (rho, eta) assigns Y^i X^j the value rho*i + eta*j; the degree
of an element is the maximum over its support and -inf for zero.  With
both entries positive this is a degree function (multiplicative on
products, subadditive on sums, zero on scalars).  Evaluation itself
accepts arbitrary integer weights, since the regime rho + eta > 0 is
also needed; operations that require positivity check it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .core import WeylElement, monomial
from .errors import NonGenericWeightError
from .scalars import NEG_INF

Point = Tuple[int, int]


@dataclass(frozen=True)
class Weight:
    rho: int
    eta: int

    def is_positive(self) -> bool:
        return self.rho > 0 and self.eta > 0


W11 = Weight(1, 1)


def weighted_degree(w: Weight, a: WeylElement) -> Union[int, float]:
    """max(rho*i + eta*j) over the support; -inf for the zero element."""
    if a.is_zero():
        return NEG_INF
    rho, eta = w.rho, w.eta
    return max(rho * i + eta * j for (i, j) in a.support())


@dataclass(frozen=True)
class Polygon:
    """Convex hull of a lattice support; vertices counterclockwise."""

    support: frozenset
    vertices: Tuple[Point, ...]


def _hull(points: List[Point]) -> Tuple[Point, ...]:
    """Andrew monotone chain with exact integer cross products.

    Collinear points are dropped, so the vertex list is minimal; a single
    point or a collinear set degenerates to one or two vertices.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return tuple(pts)

    def cross(o: Point, a: Point, b: Point) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def newton_polygon(a: WeylElement) -> Polygon:
    if a.is_zero():
        raise ValueError("the zero element has no Newton polygon")
    supp = a.support()
    return Polygon(support=frozenset(supp), vertices=_hull(list(supp)))


def _maximizers(w: Weight, a: WeylElement) -> List[Point]:
    rho, eta = w.rho, w.eta
    best = None
    hits: List[Point] = []
    for (i, j) in a.support():
        v = rho * i + eta * j
        if best is None or v > best:
            best = v
            hits = [(i, j)]
        elif v == best:
            hits.append((i, j))
    return hits


def is_generic(w: Weight, a: WeylElement) -> bool:
    """Whether exactly one support point attains the weighted degree."""
    if a.is_zero():
        raise ValueError("genericity is undefined for the zero element")
    if not w.is_positive():
        raise ValueError("genericity requires positive weights")
    return len(_maximizers(w, a)) == 1


def find_generic_weight(a: WeylElement, bound: int = 16) -> Optional[Weight]:
    """First generic pair in the scan order (rho+eta asc, then rho asc).

    All but finitely many pairs are generic, so the scan succeeds once the
    bound exceeds the largest slope denominator of the hull edges.  None
    is returned when the bound is exhausted; the caller decides whether
    that is an error.
    """
    if a.is_zero():
        raise ValueError("no weight is generic for the zero element")
    for s in range(2, 2 * bound + 1):
        for rho in range(max(1, s - bound), min(bound, s - 1) + 1):
            w = Weight(rho, s - rho)
            if is_generic(w, a):
                return w
    return None


def leading_term(w: Weight, a: WeylElement) -> WeylElement:
    """The unique monomial attaining the weighted degree (generic w only)."""
    if a.is_zero():
        raise ValueError("the zero element has no leading term")
    if not w.is_positive():
        raise ValueError("leading terms require positive weights")
    hits = _maximizers(w, a)
    if len(hits) != 1:
        raise NonGenericWeightError(
            f"weight ({w.rho}, {w.eta}) is not generic: "
            f"{len(hits)} support points attain the degree"
        )
    (i, j) = hits[0]
    return monomial(i, j, a.coefficient(i, j))
