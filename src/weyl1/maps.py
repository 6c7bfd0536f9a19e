"""Linear maps on the algebra and their drops.

The maps of interest are the inner derivations ad(a) = [a, .], the pair
maps  d = [y, .]*x  and  d' = [x, .]*y  attached to an endomorphism pair
(x, y), the composition delta = ad(x) ad(y), and arbitrary compositions.
Every map here raises or lowers weighted degree by a bounded amount: the
commutator inequality

    v(ab - ba) <= v(a) + v(b) - rho - eta        (positive weights)

gives each map a degree shift bound used to size target windows.

One class carries them all.  A `LinearMap` is an image rule (the image
of one monomial), a degree-shift bound (a function of the weight) and a
name; `ad`, `d_yx`, `d_xy`, `delta_xy` and `compose` only choose the
three.  Linear extension and a per-map cache of monomial images are
shared (see `LinearMap`).  The four constructors are memoized by their
fixed element or pair (`functools.lru_cache`, at most 64 maps each): equal
inputs get one map, so the image cache is per fixed element and
process-wide, and every window and check built on ad(h) reuses the
images already formed.  Everything here runs on the cleared forms of
`core`: `ad`, `d_yx`, `d_xy` and `delta_xy` bracket each monomial with
the int numerators of their fixed elements through `core._bracket`, the
loop `core.commutator` runs (delta brackets twice and reduces once), and
a map applied to an element sums the cleared images of its monomials.
No Rat is formed until something reads an image's coefficients.

The drop of a map at a with respect to a degree function v is
v(m(a)) - v(a), with -inf when the image vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .core import EndoPair, WeylElement, _bracket, _combine, commutator
from .degrees import Weight, weighted_degree
from .errors import UnverifiedEndoError

Degree = Union[int, float]


class LinearMap:
    """A linear self-map, evaluable on elements.

    `image` gives the image of one monomial Y^i X^j (passed as an
    element with coefficient 1, whose cleared form is {(i, j): 1} over 1),
    `shift` an upper bound for v(m(a)) - v(a) under a weight,
    and `description` the map's name in reports.  The cache maps (i, j)
    to the image of Y^i X^j.  A map applied to an element sums the
    cleared forms of those images in one pass (`core._combine`) into a
    fresh element; the cached ones are only read.  Cache writes are
    idempotent, so concurrent readers are safe.  A map from `ad`, `d_yx`,
    `d_xy` or `delta_xy` is shared by every caller with an equal fixed
    element or pair, so its cache lives as long as the constructor's memo
    keeps it (the 64 most recent maps per constructor).

    Two marks let `windows.nilpotent_closure_window` bound nilpotency
    indices instead of iterating: `derivation` is set by `ad`, whose map
    obeys the Leibniz rule, and `factors` by `delta_xy`, as a function
    giving (ad(x), ad(y)) when they commute.  `_orders` holds, for a
    derivation, the index of X (key (0, 1)) and of Y (key (1, 0)) once a
    closure has found it: the least n with m^n of the monomial 0.  Every
    other map carries neither mark and is iterated.  The `factors`
    function is called on each read: so `delta_xy` takes ad(x) and ad(y)
    through the `ad` memo, where closures record their indices, also once
    it has rebuilt them.
    """

    def __init__(
        self,
        image: Callable,
        shift: Callable,
        description: str,
        derivation: bool = False,
        factors: Optional[Callable[[], Tuple["LinearMap", "LinearMap"]]] = None,
    ):
        self._image = image
        self._shift = shift
        self._description = description
        self._cache = {}
        self.derivation = derivation
        self._factors = factors
        self._orders: Dict[Tuple[int, int], int] = {}

    @property
    def factors(self) -> Optional[Tuple["LinearMap", "LinearMap"]]:
        return self._factors and self._factors()

    def _monomial_image(self, i: int, j: int) -> WeylElement:
        return self._image(WeylElement._cleared({(i, j): 1}))

    def __call__(self, a: WeylElement) -> WeylElement:
        cleared = []
        for key, c in a._ints.items():
            img = self._cached_image(key)
            cleared.append((c, a._den * img._den, img._ints))
        return _combine(cleared)

    def _cached_image(self, key) -> WeylElement:
        """Image of the monomial at key; see the class docstring."""
        img = self._cache.get(key)
        if img is None:
            img = self._cache[key] = self._monomial_image(*key)
        return img

    def degree_shift(self, w: Weight) -> Degree:
        """Upper bound for v(m(a)) - v(a) under the weight w."""
        return self._shift(w)

    def describe(self) -> str:
        return self._description

    def __repr__(self):
        return f"<map {self.describe()}>"


def _bracket_by(a: WeylElement) -> Callable[[WeylElement], WeylElement]:
    """The image rule u -> [a, u] for monomials u (`core._bracket`)."""
    p, den = a._ints, a._den
    return lambda u: WeylElement._cleared(_bracket(p, u._ints), den)


@lru_cache(maxsize=64, typed=True)
def ad(a: WeylElement) -> LinearMap:
    """ad(a): b -> [a, b].  Satisfies the Leibniz rule."""
    return LinearMap(
        _bracket_by(a),
        lambda w: weighted_degree(w, a) - w.rho - w.eta,
        f"ad({a})",
        derivation=True,
    )


def _require_verified(e: EndoPair, what: str) -> None:
    if not e.verified:
        raise UnverifiedEndoError(f"{what} requires a verified pair")


def _pair_shift(e: EndoPair, brackets: int) -> Callable[[Weight], Degree]:
    """w -> v(x) + v(y) - brackets * (rho + eta)."""
    return lambda w: (
        weighted_degree(w, e.x) + weighted_degree(w, e.y) - brackets * (w.rho + w.eta)
    )


def _pair_map(e: EndoPair, what: str, name: str, left, right) -> LinearMap:
    """a -> [left, a] * right, where {left, right} = {x, y} of a verified e."""
    _require_verified(e, what)
    bracket = _bracket_by(left)
    return LinearMap(lambda u: bracket(u) * right, _pair_shift(e, 1), name)


@lru_cache(maxsize=64, typed=True)
def d_yx(e: EndoPair) -> LinearMap:
    """d: a -> [y, a] * x."""
    return _pair_map(e, "d = [y, .]x", "[y, .]*x", e.y, e.x)


@lru_cache(maxsize=64, typed=True)
def d_xy(e: EndoPair) -> LinearMap:
    """d': a -> [x, a] * y."""
    return _pair_map(e, "d' = [x, .]y", "[x, .]*y", e.x, e.y)


@lru_cache(maxsize=64, typed=True)
def delta_xy(e: EndoPair) -> LinearMap:
    """delta: a -> [x, [y, a]], the composition ad(x) ad(y).

    It carries the factors (ad(x), ad(y)) only when [x, y], recomputed
    here rather than read from `verified`, is a scalar: then [ad x, ad y]
    = ad [x, y] = 0, so delta^n = ad(x)^n ad(y)^n = ad(y)^n ad(x)^n.
    Each read takes them through the `ad` memo (`LinearMap`).
    """
    _require_verified(e, "delta = ad(x) ad(y)")
    px, py, den = e.x._ints, e.y._ints, e.x._den * e.y._den
    commuting = commutator(e.x, e.y).is_scalar()
    return LinearMap(
        lambda u: WeylElement._cleared(_bracket(px, _bracket(py, u._ints)), den),
        _pair_shift(e, 2),
        "ad(x) ad(y)",
        factors=(lambda: (ad(e.x), ad(e.y))) if commuting else None,
    )


def compose(*maps: LinearMap) -> LinearMap:
    """Composition; the rightmost map is applied first."""
    if not maps:
        raise ValueError("empty composition")

    def image(u):
        for m in reversed(maps):
            u = m(u)
        return u

    return LinearMap(
        image,
        lambda w: sum(m.degree_shift(w) for m in maps),
        " o ".join(m.describe() for m in maps),
    )


# -- drops ---------------------------------------------------------------


def drop(m: LinearMap, w: Weight, a: WeylElement) -> Degree:
    """v(m(a)) - v(a); -inf when the image vanishes.  Rejects a = 0."""
    if a.is_zero():
        raise ValueError("the drop is undefined at the zero element")
    return weighted_degree(w, m(a)) - weighted_degree(w, a)


@dataclass
class DropReport:
    """Whether one map's finite drops agree on the samples, and the drop
    when they do and one is finite."""

    constant: bool
    drop_value: Optional[int]


def drop_profile(m: LinearMap, w: Weight, samples: Sequence[WeylElement]) -> DropReport:
    if not samples:
        raise ValueError("drop_profile needs at least one sample")
    images = [(a, m(a)) for a in samples]
    finite = [weighted_degree(w, b) - weighted_degree(w, a) for a, b in images if not b.is_zero()]
    constant = all(d == finite[0] for d in finite)
    return DropReport(constant, int(finite[0]) if finite and constant else None)


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
