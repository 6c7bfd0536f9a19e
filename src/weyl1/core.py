"""Exact normal-form arithmetic in the first Weyl algebra.

The algebra is generated by X and Y subject to the single relation
Y*X - X*Y = 1.  Every element has a unique normal form

    sum  a[i, j] * Y^i * X^j      (all Y's to the left of all X's)

and that is how elements are stored: a sparse map from exponent pairs
(i, j) to nonzero exact rational coefficients.  The representation is
canonical, so equality is structural and the zero element is the empty
map.  Elements are immutable; every operation returns a fresh value.

Coefficients are kept in the stored form of `scalars`: an int when
integral, else a Rat with denominator > 1, never a float.  Every
operation restores that form on its result.  `terms()`, `coefficient()`
and `scalar_value()` still hand out Rat values.

Products, commutators, scalings and linear combinations are
fraction-free: each clears its operands' denominators once on the way in
(`integral`), runs its inner loop on Python ints over one common
denominator, and divides once per output term on the way out (`over`).
Elements with integer coefficients, which dominate the verification
suite, skip both steps.  Addition and subtraction stay on the stored
values: they do one scalar operation per term, and clearing would not
save any.

Products are normal ordered with the closed form

    X^b * Y^c = sum_k m_k(b, c) * Y^(c-k) * X^(b-k),
    m_k(b, c) = (-1)^k * k! * C(b,k) * C(c,k),

and commutators come from the same table without forming either
product: both orders of a term pair land on the same monomials and their
k = 0 terms cancel, so

    [Y^i1 X^j1, Y^i2 X^j2]
        = sum_{k>=1} (m_k(j1, i2) - m_k(j2, i1)) * Y^(i1+i2-k) * X^(j1+j2-k).

The test suite validates both against the one-step rewriting oracle
XY -> YX - 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Iterable, List, Mapping, Optional, Tuple, Union

from .errors import UnverifiedEndoError
from .scalars import RAT_ONE, Rat, coeff, demote, integral, over, rat_str

ExponentPair = Tuple[int, int]
Scalar = Union[int, str, Rat]


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
    """An element of the algebra in canonical Y^i X^j form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[ExponentPair, Scalar]] = None):
        data = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair {(i, j)}")
                q = coeff(c)
                if q:
                    q = data.get((i, j), 0) + q
                    if q:
                        data[(i, j)] = demote(q)
                    else:
                        data.pop((i, j), None)
        self._terms = data

    @classmethod
    def _raw(cls, terms: dict) -> "WeylElement":
        # internal: terms already canonical (no zeros, stored-form values)
        self = object.__new__(cls)
        self._terms = terms
        return self

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterable[Tuple[ExponentPair, Rat]]:
        """Term stream in the canonical (i+j, i) ascending order."""
        return sorted(
            ((key, Rat(c)) for key, c in self._terms.items()),
            key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
        )

    def support(self):
        return set(self._terms)

    def coefficient(self, i: int, j: int):
        return Rat(self._terms.get((i, j), 0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def scalar_value(self):
        """The value of a scalar element; raises on non-scalars."""
        if self.is_zero():
            return Rat(0)
        if set(self._terms) == {(0, 0)}:
            return Rat(self._terms[(0, 0)])
        raise ValueError("element is not a scalar")

    def monomial_count(self) -> int:
        return len(self._terms)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            v = out.get(key, 0) + c
            if v:
                out[key] = demote(v)
            else:
                out.pop(key, None)
        return WeylElement._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(self._terms, other._terms)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _difference(other._terms, self._terms)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return self._scaled(other)
        a, da = integral(self._terms)
        b, db = integral(other._terms)
        acc: dict = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                c = c1 * c2
                for k, m in enumerate(_reorder(j1, i2)):
                    key = (i1 + i2 - k, j1 + j2 - k)
                    v = acc.get(key, 0) + c * m
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
        return WeylElement._raw(over(acc, da * db))

    def __rmul__(self, other):
        # only reached for a non-element on the left; scalars are central
        return self._scaled(other)

    def _scaled(self, c):
        if not isinstance(c, (int, Rat, numbers.Rational)):
            return NotImplemented
        c = coeff(c)
        if not c:
            return WeylElement._raw({})
        ints, den = integral(self._terms)
        n = int(c.numerator)
        return WeylElement._raw(
            over({k: n * v for k, v in ints.items()}, den * int(c.denominator))
        )

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        # one product per step, as in `powers`, but keeping no lower
        # power; squaring a dense power costs far more than multiplying
        # it by the (usually small) base
        result = self if n else ONE
        for _ in range(n - 1):
            result = result * self
        return result

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, WeylElement):
            return self._terms == other._terms
        if isinstance(other, (int, Rat, numbers.Rational)):
            return self._terms == WeylElement({(0, 0): other})._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

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


def _difference(p: dict, q: dict) -> WeylElement:
    """p - q for stored-form term maps, subtracted into one copy of p."""
    out = dict(p)
    for key, c in q.items():
        v = out.get(key, 0) - c
        if v:
            out[key] = demote(v)
        else:
            out.pop(key, None)
    return WeylElement._raw(out)


def linear_combination(pairs: Iterable[Tuple[Scalar, WeylElement]]) -> WeylElement:
    """sum c * el over (c, el) pairs, accumulated in a single term map.

    Each pair is brought to int numerators over its own denominator
    (the scalar's times its element's), and the sum is taken in ints over
    the lcm of those, so the only division is one per output term.
    """
    cleared = []
    common = 1
    for c, el in pairs:
        c = coeff(c)
        if not c:
            continue
        ints, den = integral(el._terms)
        den *= int(c.denominator)
        cleared.append((int(c.numerator), den, ints))
        common = lcm(common, den)
    acc: dict = {}
    for n, den, ints in cleared:
        f = n * (common // den)
        for key, v in ints.items():
            s = acc.get(key, 0) + f * v
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return WeylElement._raw(over(acc, common))


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


def add(a: WeylElement, b: WeylElement) -> WeylElement:
    return a + b


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    return a * b


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, by the bracket closed form of the module
    docstring: one fraction-free pass over term pairs, forming neither
    product."""
    if not (isinstance(a, WeylElement) and isinstance(b, WeylElement)):
        return a * b - b * a  # a plain scalar operand, or a type error
    p, da = integral(a._terms)
    q, db = integral(b._terms)
    acc: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m1 = _reorder(j1, i2)
            m2 = _reorder(j2, i1)
            n1, n2 = len(m1), len(m2)
            if n1 == n2 == 1:
                continue  # the two terms commute
            c, s, t = c1 * c2, i1 + i2, j1 + j2
            for k in range(1, max(n1, n2)):
                d = (m1[k] if k < n1 else 0) - (m2[k] if k < n2 else 0)
                if d:
                    key = (s - k, t - k)
                    v = acc.get(key, 0) + c * d
                    if v:
                        acc[key] = v
                    else:
                        acc.pop(key, None)
    return WeylElement._raw(over(acc, da * db))


def powers(a: WeylElement, n: int) -> List[WeylElement]:
    """[1, a, a^2, ..., a^n] (empty for n < 0), each power one product
    from the one before it."""
    out = [ONE, a][: max(n + 1, 0)]
    for _ in range(n - 1):
        out.append(out[-1] * a)
    return out


def theta(a: WeylElement) -> WeylElement:
    """The automorphism X -> Y, Y -> -X (hence H -> -H + 1)."""
    # substitute, then normal order: (-X)^i * Y^j
    return linear_combination(
        (-c if i % 2 else c, monomial(0, i) * monomial(j, 0))
        for (i, j), c in a._terms.items()
    )


def theta_prime(a: WeylElement) -> WeylElement:
    """The anti-automorphism X -> Y, Y -> X (so H -> H)."""
    # term by term: reversal sends Y^i X^j to Y^j X^i, already normal
    return WeylElement._raw({(j, i): c for (i, j), c in a._terms.items()})


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

    @property
    def h(self) -> WeylElement:
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
    """Image of a under X -> x, Y -> y, i.e. sum a[i,j] * y^i * x^j."""
    if not e.verified:
        raise UnverifiedEndoError(
            "refusing to apply an unverified pair; commutator defect: "
            f"{format_element(e.defect) if e.defect is not None else '?'}"
        )
    y_pow = powers(e.y, max((i for (i, _) in a._terms), default=0))
    x_pow = powers(e.x, max((j for (_, j) in a._terms), default=0))
    return linear_combination(
        (c, y_pow[i] * x_pow[j]) for (i, j), c in a._terms.items()
    )


# -- canonical printing ------------------------------------------------


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("Y" if i == 1 else f"Y^{i}")
    if j:
        parts.append("X" if j == 1 else f"X^{j}")
    return "*".join(parts)


def format_element(a: WeylElement) -> str:
    """Canonical form, terms sorted by (i+j, i) ascending; parses back."""
    if a.is_zero():
        return "0"
    chunks = []
    for (i, j), c in a.terms():
        mono = _format_monomial(i, j)
        mag = abs(c)
        if mono and mag == RAT_ONE:
            body = mono
        elif mono:
            body = f"{rat_str(mag)}*{mono}"
        else:
            body = rat_str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)
