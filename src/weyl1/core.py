"""Exact normal-form arithmetic in the first Weyl algebra.

The algebra is generated by X and Y subject to the single relation
Y*X - X*Y = 1.  Every element has a unique normal form

    sum  a[i, j] * Y^i * X^j      (all Y's to the left of all X's)

and that is how elements are held: a sparse map from exponent pairs
(i, j) to nonzero exact rational coefficients, in one form, the cleared
form: nonzero Python int numerators over their least positive common
denominator (`scalars`), with den 1 for zero.  The representation is
canonical, so `==` compares it and the zero element is the empty map.
Elements are immutable; every operation returns a fresh value.

Products, commutators, powers, scalings, sums, linear combinations,
`theta`, `apply_endo` and the map images of `maps` read and write the
cleared form: their inner loops run on ints, and each result is reduced
by one gcd of its denominator and numerators.  Elements with integer
coefficients, which dominate the verification suite, have den 1 and
skip the gcd.  A mapping comes in only through the constructor, which
clears it once (`integral`).  `terms()` and `coefficient()` build their
Rat values on each call and keep none.
Printing reads the cleared form too: `format_element`, the element
documents of `serialize` and the H-polynomials of `gwa` reduce each
numerator against the denominator by one gcd (`_printed_terms`) and
build no Rat; `format_element` and `gwa.poly_str` share one term joiner,
`_join_terms`, and differ only in how a monomial is named.

Products are normal ordered with the closed form

    X^b * Y^c = sum_k m_k(b, c) * Y^(c-k) * X^(b-k),
    m_k(b, c) = (-1)^k * k! * C(b,k) * C(c,k),

and commutators come from the same table without forming either
product: both orders of a term pair land on the same monomials and their
k = 0 terms cancel, so

    [Y^i1 X^j1, Y^i2 X^j2]
        = sum_{k>=1} (m_k(j1, i2) - m_k(j2, i1)) * Y^(i1+i2-k) * X^(j1+j2-k).

m_k(b, c) = 0 for k >= 1 when b or c is 0.  So a product pair with X^0
or Y^0 in the middle is the one term Y^(i1+i2) X^(j1+j2).  One kernel,
`_mul_into`, adds f * P * Q into a caller's int term map: a product, each
term of `theta`, and the several products of an `apply_endo` image or a
product-rule residual (`_product_sum`) go into one map, reduced once.
A bracket pair reads a side only when both of its exponents are nonzero;
a pair with neither side commutes and is skipped.  `_bracket` runs that
loop on cleared numerators, for `commutator` and for the map images of
`maps`.  A pair with both sides reads its differences m_k(j1, i2) -
m_k(j2, i1), k >= 1, from a table memoized by (j1, i2, j2, i1),
`_bracket_coeffs`; a pair with one side reads that side's m_k, its sign
carried by the coefficient.

The test suite validates both against the one-step rewriting oracle
XY -> YX - 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import UnverifiedEndoError
from .scalars import Rat, coeff, integral, rat_str

ExponentPair = Tuple[int, int]
Scalar = Union[int, str, Rat]


def _canonical(term) -> Tuple[int, int]:  # the (i+j, i) order of `terms`
    return term[0][0] + term[0][1], term[0][0]


@lru_cache(maxsize=None)
def _reorder(b: int, c: int) -> Tuple[int, ...]:
    """Integer coefficients m_k with X^b Y^c = sum_k m_k Y^(c-k) X^(b-k)."""
    coeffs = []
    m = 1  # k! * C(b, k) * C(c, k), accumulated multiplicatively
    for k in range(min(b, c) + 1):
        if k:
            m = m * (b - k + 1) * (c - k + 1) // k
        coeffs.append(m if k % 2 == 0 else -m)
    return tuple(coeffs)


class WeylElement:
    """An element of the algebra in canonical Y^i X^j form, held as its
    cleared form `_ints` over `_den` (module docstring)."""

    __slots__ = ("_ints", "_den")

    def __init__(self, terms: Optional[Mapping[ExponentPair, Scalar]] = None):
        data = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair {(i, j)}")
                q = coeff(c)
                if q:
                    data[(i, j)] = q
        self._ints, self._den = integral(data)

    @classmethod
    def _cleared(cls, ints: dict, den: int = 1) -> "WeylElement":
        # internal: nonzero int numerators over den >= 1, reduced here by
        # one gcd to the cleared form; an empty map gets den 1
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {k: v // g for k, v in ints.items()}
        self = object.__new__(cls)
        self._ints, self._den = ints, den
        return self

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterable[Tuple[ExponentPair, Rat]]:
        """Term stream in the canonical (i+j, i) ascending order."""
        den = self._den
        return sorted(((key, Rat(c, den)) for key, c in self._ints.items()), key=_canonical)

    def support(self):
        return set(self._ints)

    def coefficient(self, i: int, j: int):
        return Rat(self._ints.get((i, j), 0), self._den)

    def is_zero(self) -> bool:
        return not self._ints

    def is_scalar(self) -> bool:
        return self._ints.keys() <= {(0, 0)}

    def monomial_count(self) -> int:
        return len(self._ints)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement._cleared({k: -v for k, v in self._ints.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other):
        """Normal-ordered product: `_mul_into` a fresh map."""
        if not isinstance(other, WeylElement):
            return self._scaled(other)
        acc: dict = {}
        _mul_into(acc, self._ints, other._ints, 1)
        return WeylElement._cleared(acc, self._den * other._den)

    def __rmul__(self, other):
        # only reached for a non-element on the left; scalars are central
        return self._scaled(other)

    def _scaled(self, c):
        if not isinstance(c, (int, Rat, numbers.Rational)):
            return NotImplemented
        c = coeff(c)
        if not c:
            return ZERO
        n = c.numerator
        return WeylElement._cleared(
            {k: n * v for k, v in self._ints.items()}, self._den * c.denominator
        )

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        if len(self._ints) == 1:
            ((i, j), c), = self._ints.items()
            if not (i and j):  # c Y^i or c X^j: (c Y^i)^n = c^n Y^(i n)
                return WeylElement._cleared({(i * n, j * n): c**n}, self._den**n)
        # one product per step, as in `powers`, but keeping no lower
        # power; squaring a dense power costs far more than multiplying
        # it by the (usually small) base
        result = self if n else ONE
        for _ in range(n - 1):
            result = result * self
        return result

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Rat, numbers.Rational)):
            other = WeylElement({(0, 0): other})
        if isinstance(other, WeylElement):
            return self._den == other._den and self._ints == other._ints
        return NotImplemented

    def __hash__(self):
        # a scalar equals its value (`__eq__`), so it hashes as that value
        if self.is_scalar():
            return hash(self.coefficient(0, 0))
        return hash((self._den, frozenset(self._ints.items())))

    def __bool__(self):
        return bool(self._ints)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<WeylElement {format_element(self)}>"


def _coerce(value) -> Union[WeylElement, type(NotImplemented)]:
    if isinstance(value, WeylElement):
        return value
    if isinstance(value, (int, Rat, numbers.Rational)):
        return WeylElement({(0, 0): value})
    return NotImplemented


def _sum(a: WeylElement, b: WeylElement, sign: int) -> WeylElement:
    """a + sign * b on the cleared forms, added into one copy of a's
    numerators; two den-1 operands need no scaling and no gcd."""
    den = a._den if a._den == b._den else lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    out = dict(a._ints) if fa == 1 else {k: fa * v for k, v in a._ints.items()}
    for key, v in b._ints.items():
        s = out.get(key, 0) + fb * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return WeylElement._cleared(out, den)


def _mul_into(acc: dict, p: dict, q: dict, f: int) -> None:
    """Add f * P * Q into the int term map acc, normal ordered by the
    closed form on the int term maps p and q (only read); a term pair with
    X^0 or Y^0 in the middle goes straight into its one key."""
    terms = p.items() if f == 1 else [(key, f * v) for key, v in p.items()]
    for (i1, j1), c1 in terms:
        for (i2, j2), c2 in q.items():
            c = c1 * c2
            if not (j1 and i2):  # X^0 or Y^0 in the middle: one key
                key = (i1 + i2, j1 + j2)
                v = acc.get(key, 0) + c
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
                continue
            for k, m in enumerate(_reorder(j1, i2)):
                key = (i1 + i2 - k, j1 + j2 - k)
                v = acc.get(key, 0) + c * m
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)


def _product_sum(terms: List[Tuple[int, WeylElement, WeylElement]]) -> WeylElement:
    """sum s * P * Q over (int s, P, Q) triples, each product added by
    `_mul_into` into one term map over the lcm of the products'
    denominators, and reduced once."""
    common = lcm(*[p._den * q._den for _, p, q in terms])
    acc: dict = {}
    for s, p, q in terms:
        _mul_into(acc, p._ints, q._ints, s * (common // (p._den * q._den)))
    return WeylElement._cleared(acc, common)


def linear_combination(pairs: Iterable[Tuple[Scalar, WeylElement]]) -> WeylElement:
    """sum c * el over (c, el) pairs, accumulated in a single term map.

    Each pair is brought to int numerators over its own denominator
    (the scalar's times its element's) and summed by `_combine`.
    """
    cleared = []
    for c, el in pairs:
        c = coeff(c)
        if c:
            cleared.append((c.numerator, c.denominator * el._den, el._ints))
    return _combine(cleared)


def _combine(cleared: List[Tuple[int, int, dict]]) -> WeylElement:
    """sum (n / den) * ints over cleared (n, den, ints) triples.

    The sum is taken in ints over the lcm of the denominators and reduced
    by one gcd.  The `ints` maps are only read.
    """
    common = lcm(*(den for _, den, _ in cleared))
    acc: dict = {}
    for n, den, ints in cleared:
        f = n * (common // den)
        for key, v in ints.items():
            s = acc.get(key, 0) + f * v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return WeylElement._cleared(acc, common)


def monomial(i: int, j: int, c: Scalar = 1) -> WeylElement:
    """The element c * Y^i * X^j."""
    return WeylElement({(i, j): c})


def scalar(c: Scalar) -> WeylElement:
    return WeylElement({(0, 0): c})


ZERO = WeylElement()
ONE = scalar(1)
X = monomial(0, 1)
Y = monomial(1, 0)
H = monomial(1, 1)  # H = Y*X


# -- named operations --------------------------------------------------


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, by the bracket closed form of the module
    docstring: one pass over the term pairs of the cleared forms
    (`_bracket`), forming neither product."""
    if not (isinstance(a, WeylElement) and isinstance(b, WeylElement)):
        return a * b - b * a  # a plain scalar operand, or a type error
    return WeylElement._cleared(_bracket(a._ints, b._ints), a._den * b._den)


def _bracket(p: dict, q: dict) -> dict:
    """Int term map of [P, Q] from the int term maps p and q (only read)
    of P and Q; each term pair reads only the sides it has, a pair with
    both from the table `_bracket_coeffs` (module docstring)."""
    acc: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            if j1 and i2:
                c = c1 * c2
                m = _bracket_coeffs(j1, i2, j2, i1) if j2 and i1 else _reorder(j1, i2)[1:]
            elif j2 and i1:
                m, c = _reorder(j2, i1)[1:], -c1 * c2
            else:
                continue  # the two terms commute
            # m[k] is the coefficient at k + 1; adding a zero changes nothing
            s, t = i1 + i2 - 1, j1 + j2 - 1
            for k, d in enumerate(m):
                key = (s - k, t - k)
                v = acc.get(key, 0) + c * d
                if v:
                    acc[key] = v
                else:
                    acc.pop(key, None)
    return acc


@lru_cache(maxsize=None)
def _bracket_coeffs(j1: int, i2: int, j2: int, i1: int) -> Tuple[int, ...]:
    """m_k(j1, i2) - m_k(j2, i1) for k >= 1: the bracket coefficients of
    a term pair Y^i1 X^j1, Y^i2 X^j2 with both sides (module docstring)."""
    both = zip_longest(_reorder(j1, i2), _reorder(j2, i1), fillvalue=0)
    return tuple(u - w for u, w in both)[1:]


def powers(a: WeylElement, n: int) -> List[WeylElement]:
    """[1, a, a^2, ..., a^n] (empty for n < 0), each power one product
    from the one before it."""
    out = [ONE, a][: max(n + 1, 0)]
    for _ in range(n - 1):
        out.append(out[-1] * a)
    return out


def theta(a: WeylElement) -> WeylElement:
    """The automorphism X -> Y, Y -> -X (hence H -> -H + 1)."""
    # substitute, then normal order: c (-X)^i Y^j, each term's X^i Y^j
    # added by `_mul_into` straight into one map
    acc: dict = {}
    for (i, j), c in a._ints.items():
        _mul_into(acc, {(0, i): 1}, {(j, 0): 1}, -c if i % 2 else c)
    return WeylElement._cleared(acc, a._den)


def theta_prime(a: WeylElement) -> WeylElement:
    """The anti-automorphism X -> Y, Y -> X (so H -> H)."""
    # term by term: reversal sends Y^i X^j to Y^j X^i, already normal
    return WeylElement._cleared({(j, i): c for (i, j), c in a._ints.items()}, a._den)


@dataclass(frozen=True)
class EndoPair:
    """A pair (x, y) of elements intended to satisfy [y, x] = 1.

    Such a pair is the same thing as an algebra endomorphism X -> x,
    Y -> y.  `verified` records whether the commutator really is 1; when
    it is not, `defect` keeps the computed commutator for diagnosis.
    """

    x: WeylElement
    y: WeylElement
    verified: bool
    defect: Optional[WeylElement] = None

    @cached_property
    def h(self) -> WeylElement:
        # formed once per pair; kept outside the fields, so equality and
        # the hash that keys the map memos are unchanged
        return self.y * self.x

    def is_identity(self) -> bool:
        return self.x == X and self.y == Y


def build_endo(x: WeylElement, y: WeylElement) -> EndoPair:
    """Check [y, x] = 1 and package the pair, keeping the defect if not."""
    c = commutator(y, x)
    if c == ONE:
        return EndoPair(x=x, y=y, verified=True)
    return EndoPair(x=x, y=y, verified=False, defect=c)


def identity_endo() -> EndoPair:
    return EndoPair(x=X, y=Y, verified=True)


def apply_endo(e: EndoPair, a: WeylElement) -> WeylElement:
    """Image of a under X -> x, Y -> y: `apply_endo_batch` of the batch
    of one."""
    return apply_endo_batch(e, [a])[0]


def apply_endo_batch(e: EndoPair, batch: Sequence[WeylElement]) -> List[WeylElement]:
    """Images of the batch's elements under X -> x, Y -> y.

    The powers of y and x are formed once, up to the largest exponents
    the batch holds, and each image is grouped by powers of y:
    sum_i y^i * (sum_j a[i,j] * x^j), the products for all i added into
    one map (`_product_sum`).
    """
    if not e.verified:
        raise UnverifiedEndoError(
            "refusing to apply an unverified pair; commutator defect: "
            f"{format_element(e.defect) if e.defect is not None else '?'}"
        )
    y_pow = powers(e.y, max((i for a in batch for (i, _) in a._ints), default=0))
    x_pow = powers(e.x, max((j for a in batch for (_, j) in a._ints), default=0))
    out = []
    for a in batch:
        rows: dict = {}  # i -> the cleared terms of sum_j a[i,j] * x^j
        for (i, j), c in a._ints.items():
            rows.setdefault(i, []).append((c, a._den * x_pow[j]._den, x_pow[j]._ints))
        out.append(_product_sum([(1, y_pow[i], _combine(row)) for i, row in rows.items()]))
    return out


# -- canonical printing ------------------------------------------------


def _format_monomial(key: ExponentPair) -> str:
    i, j = key
    parts = []
    if i:
        parts.append("Y" if i == 1 else f"Y^{i}")
    if j:
        parts.append("X" if j == 1 else f"X^{j}")
    return "*".join(parts)


def _printed_terms(items: Iterable[Tuple[object, int]], den: int):
    """(key, c < 0, |c| as "p" or "p/q") for each (key, n) with a nonzero
    int n and c = n / den, in order: one gcd per coefficient, no Rat."""
    for key, n in items:
        g = gcd(n, den)
        yield key, n < 0, rat_str(abs(n) // g, den // g)


def _join_terms(terms, name) -> str:
    """The signed sum of `_printed_terms`, name(key) printing each monomial
    ("" for the unit); "0" for no terms."""
    chunks = []
    for key, negative, mag in terms:
        mono = name(key)
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        sign = ("- " if negative else "+ ") if chunks else ("-" if negative else "")
        chunks.append(sign + body)
    return " ".join(chunks) or "0"


def format_element(a: WeylElement) -> str:
    """Canonical form, terms sorted by (i+j, i) ascending; parses back."""
    terms = _printed_terms(sorted(a._ints.items(), key=_canonical), a._den)
    return _join_terms(terms, _format_monomial)
