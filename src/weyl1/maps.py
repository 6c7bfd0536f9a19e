"""Linear maps on the algebra and their drops.

The maps of interest are the inner derivations ad(a) = [a, .], the pair
maps  d = [y, .]*x  and  d' = [x, .]*y  attached to an endomorphism pair
(x, y), the composition delta = ad(x) ad(y), and arbitrary compositions.
Every map here raises or lowers weighted degree by a bounded amount: the
commutator inequality

    v(ab - ba) <= v(a) + v(b) - rho - eta        (positive weights)

gives each map a degree shift bound used to size target windows.

The drop of a map at a with respect to a degree function v is
v(m(a)) - v(a), with -inf when the image vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .core import EndoPair, WeylElement, commutator, linear_combination, monomial, mul
from .degrees import Weight, weighted_degree
from .errors import UnverifiedEndoError
from .scalars import NEG_INF

Degree = Union[int, float]


class LinearMap:
    """Base class: a linear self-map evaluable on elements.

    Subclasses define the image of a single monomial; linear extension
    and a per-instance monomial cache live here.  Cache writes are
    idempotent, so concurrent readers are safe.
    """

    def _monomial_image(self, i: int, j: int) -> WeylElement:
        raise NotImplementedError

    def __init__(self):
        self._cache = {}

    def __call__(self, a: WeylElement) -> WeylElement:
        return linear_combination(
            (c, self._cached_image(key)) for key, c in a._terms.items()
        )

    def _cached_image(self, key) -> WeylElement:
        img = self._cache.get(key)
        if img is None:
            img = self._cache[key] = self._monomial_image(*key)
        return img

    def degree_shift(self, w: Weight) -> Degree:
        """Upper bound for v(m(a)) - v(a) under the weight w."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<map {self.describe()}>"


class AdMap(LinearMap):
    """ad(a): b -> [a, b].  Satisfies the Leibniz rule."""

    def __init__(self, a: WeylElement):
        super().__init__()
        self.a = a

    def _monomial_image(self, i, j):
        return commutator(self.a, monomial(i, j))

    def degree_shift(self, w):
        va = weighted_degree(w, self.a)
        if va == NEG_INF:
            return NEG_INF
        return va - w.rho - w.eta

    def describe(self):
        return f"ad({self.a})"


def _require_verified(e: EndoPair, what: str) -> EndoPair:
    if not e.verified:
        raise UnverifiedEndoError(f"{what} requires a verified pair")
    return e


class PairMap(LinearMap):
    """d: a -> [y, a] * x, or, primed, d': a -> [x, a] * y."""

    def __init__(self, e: EndoPair, primed: bool):
        super().__init__()
        self.pair = _require_verified(e, "d' = [x, .]y" if primed else "d = [y, .]x")
        self.primed = primed
        self._left, self._right = (e.x, e.y) if primed else (e.y, e.x)

    def _monomial_image(self, i, j):
        return mul(commutator(self._left, monomial(i, j)), self._right)

    def degree_shift(self, w):
        return (
            weighted_degree(w, self.pair.x)
            + weighted_degree(w, self.pair.y)
            - w.rho
            - w.eta
        )

    def describe(self):
        return "[x, .]*y" if self.primed else "[y, .]*x"


class DeltaMap(LinearMap):
    """delta: a -> [x, [y, a]], the composition ad(x) ad(y)."""

    def __init__(self, e: EndoPair):
        super().__init__()
        self.pair = _require_verified(e, "delta = ad(x) ad(y)")

    def _monomial_image(self, i, j):
        return commutator(self.pair.x, commutator(self.pair.y, monomial(i, j)))

    def degree_shift(self, w):
        return (
            weighted_degree(w, self.pair.x)
            + weighted_degree(w, self.pair.y)
            - 2 * (w.rho + w.eta)
        )

    def describe(self):
        return "ad(x) ad(y)"


class ComposeMap(LinearMap):
    """Composition; the rightmost map is applied first."""

    def __init__(self, maps: Sequence[LinearMap]):
        super().__init__()
        self.maps = tuple(maps)
        if not self.maps:
            raise ValueError("empty composition")

    def _monomial_image(self, i, j):
        a = monomial(i, j)
        for m in reversed(self.maps):
            a = m(a)
        return a

    def degree_shift(self, w):
        total = 0
        for m in self.maps:
            s = m.degree_shift(w)
            if s == NEG_INF:
                return NEG_INF
            total += s
        return total

    def describe(self):
        return " o ".join(m.describe() for m in self.maps)


def ad(a: WeylElement) -> AdMap:
    return AdMap(a)


def d_yx(e: EndoPair) -> PairMap:
    return PairMap(e, primed=False)


def d_xy(e: EndoPair) -> PairMap:
    return PairMap(e, primed=True)


def delta_xy(e: EndoPair) -> DeltaMap:
    return DeltaMap(e)


def compose(*maps: LinearMap) -> ComposeMap:
    return ComposeMap(maps)


def eval_map(m: LinearMap, a: WeylElement) -> WeylElement:
    return m(a)


# -- drops ---------------------------------------------------------------


def drop(m: LinearMap, w: Weight, a: WeylElement) -> Degree:
    """v(m(a)) - v(a); -inf when the image vanishes.  Rejects a = 0."""
    if a.is_zero():
        raise ValueError("the drop is undefined at the zero element")
    img = m(a)
    if img.is_zero():
        return NEG_INF
    return weighted_degree(w, img) - weighted_degree(w, a)


@dataclass
class DropSample:
    element: WeylElement
    degree: Degree
    image_degree: Degree
    drop: Degree


@dataclass
class DropReport:
    """Per-sample drops of one map, plus the constancy verdict."""

    map_description: str
    weight: Weight
    samples: List[DropSample]
    constant: bool
    drop_value: Optional[int]


def drop_profile(m: LinearMap, w: Weight, samples: Sequence[WeylElement]) -> DropReport:
    if not samples:
        raise ValueError("drop_profile needs at least one sample")
    rows = []
    for a in samples:
        img = m(a)
        va = weighted_degree(w, a)
        vi = weighted_degree(w, img)
        d = NEG_INF if img.is_zero() else vi - va
        rows.append(DropSample(element=a, degree=va, image_degree=vi, drop=d))
    finite = [r.drop for r in rows if r.drop != NEG_INF]
    constant = all(d == finite[0] for d in finite) if finite else True
    value = int(finite[0]) if finite and constant else None
    return DropReport(
        map_description=m.describe(),
        weight=w,
        samples=rows,
        constant=constant,
        drop_value=value,
    )


def nilpotency_degree(
    m: LinearMap, a: WeylElement, max_iter: int
) -> Optional[int]:
    """Least n with m^n(a) = 0, or None once max_iter is exceeded."""
    cur = a
    for n in range(max_iter + 1):
        if cur.is_zero():
            return n
        cur = m(cur)
    return None
