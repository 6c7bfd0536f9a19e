"""Weighted degree functions and generic weights.

A weight (rho, eta) assigns Y^i X^j the value rho*i + eta*j; the degree
of an element is the maximum over its support and -inf for zero.  With
both entries positive this is a degree function (multiplicative on
products, subadditive on sums, zero on scalars).  Evaluation itself
accepts arbitrary integer weights, since the regime rho + eta > 0 is
also needed; operations that require positivity check it themselves.

A positive weight is generic for a nonzero element when a single support
point attains the degree, so the leading term is one monomial.  The
paper's drops of the maps attached to a pair are read at such a weight,
which `find_generic_weight` finds (the `generic` command).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .core import WeylElement
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
    bound exceeds the largest slope denominator of the edges of the
    support's convex hull.  None is returned when the bound is exhausted;
    the caller decides whether that is an error.
    """
    if a.is_zero():
        raise ValueError("no weight is generic for the zero element")
    for s in range(2, 2 * bound + 1):
        for rho in range(max(1, s - bound), min(bound, s - 1) + 1):
            w = Weight(rho, s - rho)
            if is_generic(w, a):
                return w
    return None

