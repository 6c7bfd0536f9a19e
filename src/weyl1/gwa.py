"""Graded view of the algebra and its K(H)-localized extension.

Writing H = Y*X, the algebra decomposes as a direct sum of components
K[H] * v_n with v_n = X^n for n > 0, v_n = Y^(-n) for n < 0 and v_0 = 1.
The twist sigma: H -> H - 1 governs moving coefficients past the v_n:
X * p(H) = p(H - 1) * X, and the contractions X*Y = H - 1, Y*X = H.
Together they give the product of two components in closed form,

    alpha v_m * beta v_n = alpha * sigma^m(beta) * c_mn(H) * v_(m+n),

with c_mn a run of shifted linear factors H + k (see `localized_mul`).
`localized_mul` sums the products that land in one component over one
denominator and reduces one rational function per component.

Cleared form.  A polynomial in H (`Poly`) is a tuple of Rat coefficients,
ascending degree, zero = (), every entry a Rat even when integral; inside,
an int polynomial is a list or tuple of ints without a trailing zero.  A
`RatFun` holds ints and builds Rats only when `num` or `den` is read: it
is (n / c) / d, an int tuple n over an int c > 0, divided by an int tuple
d that is primitive with a positive lead, with gcd(c, content n) = 1 and
gcd(n, d) = 1.  The form is canonical, so `==` and `hash` compare the
triple, and d = (1,) for a polynomial.  A `GradedElement` is int rows
over their least denominator; `components` builds its Polys.  Gcds come
from a primitive pseudo-remainder sequence (Collins, JACM 14, 1967; Brown
& Traub, JACM 18, 1971); by Gauss's lemma, division by a primitive gcd is
exact in ints and products of primitive polynomials are primitive.
H -> H - m is an automorphism of Z[H] that keeps leads and contents, so
`rf_shift` takes no gcd.  `to_graded` sends Y^i X^j to a rising factorial;
`from_graded` inverts it with p(H) Y^m = Y^m p(H - m) and the Stirling
numbers of the second kind, H^k = sum_l (-1)^(k-l) S(k, l) Y^l X^l.  The
maps and their inverses have int coefficients, so neither divides.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .core import WeylElement
from .degrees import Weight, weighted_degree
from .scalars import RAT_ONE, Rat, coeff, rat_str

Poly = Tuple[Rat, ...]
Ints = Tuple[int, ...]

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (RAT_ONE,)


# -- int coefficient lists -----------------------------------------------


def _clear(p: Iterable) -> Tuple[List[int], int]:
    """(ints, den): scalars p over their least den, trailing zeros dropped."""
    q = [coeff(c) for c in p]
    den = lcm(*[c.denominator for c in q])
    ints = [c.numerator * (den // c.denominator) for c in q]
    while ints and not ints[-1]:
        ints.pop()
    return ints, den


def _out(ints: Iterable[int], den: int, f: int = 1) -> Poly:
    """The Poly f * ints / den, each coefficient a Rat built once (from a
    list, which sizes the tuple exactly, as a generator does not)."""
    return tuple([Rat(f * v, den) for v in ints])


def _mul(a: Ints, b: Ints) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:  # a constant factor; 1, the most frequent, is a copy
        return [] if not b else list(a) if b[0] == 1 else [x * b[0] for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _axpy(f: int, a: Ints, g: int, b: Ints) -> List[int]:
    """f*a + g*b."""
    if len(a) < len(b):
        f, a, g, b = g, b, f, a
    out = [f * v for v in a]
    for k, v in enumerate(b):
        out[k] += g * v
    while out and not out[-1]:
        out.pop()
    return out


def _divmod(a: Ints, b: Ints) -> Tuple[List[int], List[int], int]:
    """(q, r, s) with s*a = q*b + r and deg r < deg b, for b != 0: a step
    scales by lc(b) only when it does not divide the top remainder
    coefficient, so s = 1 when a primitive b divides a."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    quo = [0] * max(0, len(a) - nb + 1)
    s = 1
    while len(rem) >= nb:
        top = rem[-1]
        c, r = divmod(top, lead)
        if r:
            rem = [v * lead for v in rem]
            quo = [v * lead for v in quo]
            s *= lead
            c = top
        k = len(rem) - nb
        quo[k] = c
        for i in range(nb - 1):
            rem[k + i] -= c * b[i]
        rem.pop()  # the top coefficient cancels exactly
        while rem and not rem[-1]:
            rem.pop()
    return quo, rem, s


def _primitive(a: Ints) -> Ints:
    """a over its content, with a positive leading coefficient."""
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return a if c == 1 else [v // c for v in a]


def _gcd(a: Ints, b: Ints) -> Ints:
    """Primitive gcd of nonzero a and b, positive leading coefficient,
    by the primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _divmod(a, b)[1]
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _shift(a: Ints, m: int) -> List[int]:
    """a(H - m), by the Ruffini-Horner Taylor shift."""
    a = list(a)
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] -= m * a[k + 1]
    return a


# -- dense polynomials over the rationals -------------------------------


def poly(coeffs) -> Poly:
    """Normalize a coefficient iterable (ascending degree) to a Poly."""
    return _out(*_clear(coeffs))


def poly_mul(p: Poly, q: Poly) -> Poly:
    a, da = _clear(p)
    b, db = _clear(q)
    return _out(_mul(a, b), da * db)


def poly_divmod(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    a, da = _clear(p)
    b, db = _clear(q)
    quo, rem, s = _divmod(a, b)
    # s*a = quo*b + rem, so p = a/da = (quo*db / (s*da)) * (b/db) + rem / (s*da)
    return _out(quo, s * da, db), _out(rem, s * da)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd, by a primitive pseudo-remainder sequence on ints."""
    a, b = _clear(p)[0], _clear(q)[0]
    g = _gcd(a, b) if a and b else a or b
    return _out(g, g[-1]) if g else POLY_ZERO


def poly_shift(p: Poly, m: int) -> Poly:
    """Substitute H -> H - m (the m-fold twist sigma^m)."""
    a, den = _clear(p)
    return _out(_shift(a, m), den)


def poly_str(p: Poly, var: str = "H") -> str:
    chunks = []
    for k, c in enumerate(p):
        if c:
            body = rat_str(abs(c))
            if k:
                v = var if k == 1 else f"{var}^{k}"
                body = v if body == "1" else f"{body}*{v}"
            sign = ("- " if c < 0 else "+ ") if chunks else ("-" if c < 0 else "")
            chunks.append(sign + body)
    return " ".join(chunks) or "0"


@lru_cache(maxsize=None)
def _shifted_product(lo: int, hi: int) -> Ints:
    """Int coefficients of prod_{k=lo}^{hi-1} (H + k), 1 for hi <= lo."""
    out = [1]
    for k in range(lo, hi):
        out = _mul(out, [k, 1])
    return tuple(out)


@lru_cache(maxsize=None)
def _stirling(k: int) -> Ints:
    """c with H^k = sum_l c[l] * Y^l X^l, so c[l] = (-1)^(k-l) S(k, l), by
    H * Y^l X^l = Y^(l+1) X^(l+1) - l * Y^l X^l; ask for k = 0, 1, ..."""
    if not k:
        return (1,)
    out = [0] * (k + 1)
    for l, c in enumerate(_stirling(k - 1)):
        out[l] -= l * c
        out[l + 1] += c
    return tuple(out)


# -- rational functions in H --------------------------------------------


class RatFun:
    """(n / c) / d in the cleared form (module docstring), built from a
    numerator and an optional denominator, Polys or scalar sequences."""

    __slots__ = ("n", "c", "d")

    def __new__(cls, num, den=None):
        n, cn = _clear(num)
        d, cd = _clear(POLY_ONE if den is None else den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        return _ratfun([cd * v for v in n], d, cn)  # (n / cn) / (d / cd)

    @classmethod
    def _cleared(cls, n: Ints, c: int = 1, d: Ints = (1,)) -> "RatFun":
        self = object.__new__(cls)
        self.n, self.c, self.d = n, c, d
        return self

    @property
    def num(self) -> Poly:
        """The reduced numerator over the monic `den`."""
        return _out(self.n, self.c * self.d[-1])

    @property
    def den(self) -> Poly:
        return _out(self.d, self.d[-1])

    def is_polynomial(self) -> bool:
        return len(self.d) == 1

    def __eq__(self, other):
        return isinstance(other, RatFun) and (
            (self.n, self.c, self.d) == (other.n, other.c, other.d))

    def __hash__(self):
        return hash((self.n, self.c, self.d))

    def __str__(self):
        if len(self.d) == 1:
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"

    def __repr__(self):
        return f"<RatFun {self}>"

    def __reduce__(self):  # copy and pickle the triple, not through __new__
        return RatFun._cleared, (self.n, self.c, self.d)


RF_ZERO = RatFun._cleared(())
ratfun = RatFun


def _ratfun(n: Ints, d: Ints, c: int) -> RatFun:
    """The RatFun n / (c * d) for int polynomials n and d != 0 and an int
    c != 0: divide out the primitive gcd of n and d exactly, move d's
    content and sign into c, and divide out gcd(c, content n)."""
    if not n:
        return RF_ZERO
    if len(n) > 1 and len(d) > 1:
        g = _gcd(n, d)
        n, d = _divmod(n, g)[0], _divmod(d, g)[0]
    pd = _primitive(d)
    c *= d[-1] // pd[-1]  # d's content, with the sign of its lead
    k = gcd(c, *n) if c > 0 else -gcd(c, *n)
    return RatFun._cleared(tuple([v // k for v in n]), c // k, tuple(pd))


def rf_add(a: RatFun, b: RatFun) -> RatFun:
    return _rf_sum([(f.n, f.d, f.c) for f in (a, b)])


def rf_neg(a: RatFun) -> RatFun:
    return RatFun._cleared(tuple([-v for v in a.n]), a.c, a.d)


def rf_mul(a: RatFun, b: RatFun, c: Ints = (1,)) -> RatFun:
    """a * b * c for an int polynomial c, with one reduction."""
    return _ratfun(_mul(_mul(a.n, b.n), c), _mul(a.d, b.d), a.c * b.c)


def rf_scale(k, a: RatFun) -> RatFun:
    k = coeff(k)
    return _ratfun([k.numerator * v for v in a.n] if k else [], a.d, k.denominator * a.c)


def rf_shift(a: RatFun, m: int) -> RatFun:
    """sigma^m coefficient-wise, H -> H - m in n and d: no gcd (module doc)."""
    return RatFun._cleared(tuple(_shift(a.n, m)), a.c, tuple(_shift(a.d, m))) if m else a


# -- graded and localized elements ---------------------------------------


def _index(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"component index must be an int, got {n!r}")
    return int(n)


class GradedElement:
    """sum_n alpha_n(H) * v_n with polynomial coefficients, as int rows
    over their least common denominator; built from {n: scalar sequence}."""

    __slots__ = ("_rows", "_den")

    def __init__(self, components: Optional[Mapping[int, Poly]] = None):
        rows = {_index(n): _clear(p) for n, p in (components or {}).items()}
        self._den = den = lcm(*[d for _, d in rows.values()])
        self._rows = {n: tuple([v * (den // d) for v in r]) for n, (r, d) in rows.items() if r}

    @classmethod
    def _cleared(cls, rows: Dict[int, Ints], den: int) -> "GradedElement":
        self = object.__new__(cls)
        self._rows, self._den = rows, den
        return self

    @property
    def components(self) -> Dict[int, Poly]:
        return {n: _out(row, self._den) for n, row in self._rows.items()}

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other):
        return isinstance(other, GradedElement) and (self._den, self._rows) == (
            other._den, other._rows)

    def __hash__(self):
        return hash((self._den, frozenset(self._rows.items())))

    def __repr__(self):
        parts = [f"[{n}] {poly_str(p)}" for n, p in self.items()] or ["0"]
        return "<GradedElement " + " ; ".join(parts) + ">"


class LocalizedElement:
    """sum_n alpha_n(H) * v_n with rational-function coefficients, each a
    RatFun or a numerator `ratfun` takes."""

    __slots__ = ("components",)

    def __init__(self, components: Optional[Mapping[int, RatFun]] = None):
        fs = {_index(n): f if isinstance(f, RatFun) else RatFun(f)
              for n, f in (components or {}).items()}
        self.components: Dict[int, RatFun] = {n: f for n, f in fs.items() if f.n}

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other):
        out = dict(self.components)
        for n, f in other.components.items():
            out[n] = rf_add(out[n], f) if n in out else f
        return LocalizedElement(out)

    def __neg__(self):
        return LocalizedElement({n: rf_neg(f) for n, f in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return localized_mul(self, other)

    def __eq__(self, other):
        return isinstance(other, LocalizedElement) and self.components == other.components

    def __hash__(self):
        return hash(frozenset(self.components.items()))

    def __repr__(self):
        parts = [f"[{n}] {f}" for n, f in self.items()] or ["0"]
        return "<LocalizedElement " + " ; ".join(parts) + ">"


def graded_component(n: int, coeff) -> LocalizedElement:
    """Convenience constructor for alpha(H) * v_n in the localized algebra."""
    return LocalizedElement({n: coeff})


# -- conversions, degrees and the localized product ----------------------


def to_graded(a: WeylElement) -> GradedElement:
    """Rewrite sum a[i,j] Y^i X^j as graded components alpha_n(H) v_n.

    A single monomial lands in component n = j - i with

        Y^i X^j = (H+i-1)(H+i-2)...(H+1)H * X^(j-i)        for i <= j,
        Y^i X^j = (H+i-1)(H+i-2)...(H+i-j) * Y^(i-j)       for i > j.
    """
    ints, den = a._ints, a._den
    acc: Dict[int, List[int]] = {}
    for (i, j), v in ints.items():
        p = _shifted_product(0 if i <= j else i - j, i)
        row = acc.setdefault(j - i, [])
        if len(row) < len(p):
            row.extend([0] * (len(p) - len(row)))
        for k, c in enumerate(p):
            row[k] += v * c
    # the monomials of one component have distinct degrees in H and monic
    # products, so no component cancels; a's den stays the least one
    return GradedElement._cleared({n: tuple(row) for n, row in acc.items()}, den)


def from_graded(g: GradedElement) -> WeylElement:
    """Inverse of to_graded, in ints (module docstring)."""
    table = [_stirling(k) for k in range(max(map(len, g._rows.values()), default=0))]
    acc: Dict[Tuple[int, int], int] = {}
    for n, row in g._rows.items():
        m = max(0, -n)  # alpha * Y^m = Y^m * sigma^m(alpha)
        for k, p in enumerate(_shift(row, m)):
            for l, s in enumerate(table[k]):
                acc[l + m, l + m + n] = acc.get((l + m, l + m + n), 0) + p * s
    return WeylElement._cleared({k: v for k, v in acc.items() if v}, g._den)


def graded_degree(a: WeylElement) -> Union[int, float]:
    """Largest graded component present, -inf for 0: Y^i X^j sits in the
    single component j - i, so this is the weighted degree for (-1, 1)."""
    return weighted_degree(Weight(-1, 1), a)


def graded_degree_minus(a: WeylElement) -> Union[int, float]:
    """Minus the smallest graded component present; -inf for 0."""
    return weighted_degree(Weight(1, -1), a)


def supp_monoid(elems: Iterable[WeylElement]) -> set:
    """Set of graded degrees attained by the nonzero elements."""
    return {graded_degree(e) for e in elems if not e.is_zero()}


def embed(a: WeylElement) -> LocalizedElement:
    """The plain algebra inside its localization."""
    g = to_graded(a)
    return LocalizedElement({n: _ratfun(row, (1,), g._den) for n, row in g._rows.items()})


def localized_mul(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    """Exact product, in closed form for each pair of components:

        alpha v_m * beta v_n = alpha * sigma^m(beta) * c_mn(H) * v_(m+n).

    c_mn is the product of the linear factors H + k that the contractions
    X*Y = H - 1 and Y*X = H leave, k running over [max(0, -m-n), -m) for
    n > 0 and over [-m, min(-m-n, 0)) for n < 0; the run is empty, and
    c_mn = 1, unless m and n have opposite signs.  The products are formed
    unreduced, and those that land in one component are summed over one
    denominator (`_rf_sum`): one reduction per component.
    """
    parts: Dict[int, list] = {}  # m + n -> the (alpha, sigma^m(beta), c_mn) landing there
    for n, beta in b.components.items():
        for m, alpha in a.components.items():
            if n > 0:
                c = _shifted_product(max(0, -m - n), -m)
            else:
                c = _shifted_product(-m, min(-m - n, 0))
            parts.setdefault(m + n, []).append((alpha, rf_shift(beta, m), c))
    out = object.__new__(LocalizedElement)  # RatFuns only, the zeros dropped here
    out.components = {}
    for k, fs in parts.items():
        if len(fs) == 1:
            f = rf_mul(*fs[0])
        else:
            f = _rf_sum(
                [(_mul(_mul(p.n, q.n), c), tuple(_mul(p.d, q.d)), p.c * q.c) for p, q, c in fs])
        if f.n:
            out.components[k] = f
    return out


def _rf_sum(terms) -> RatFun:
    """The sum of the RatFuns n / (c * d) over (n, d, c) triples, with one
    reduction: over the lcm of the c times the product of the distinct d."""
    k = lcm(*[c for _, _, c in terms])
    dens = dict.fromkeys(d for _, d, _ in terms)
    num: List[int] = []
    den: Ints = (1,)
    for e in dens:
        den = _mul(den, e)
    for n, d, c in terms:
        for e in dens:
            n = n if e == d else _mul(n, e)
        num = _axpy(1, num, k // c, n)
    return _ratfun(num, den, k)


def in_A1(a: LocalizedElement) -> Tuple[bool, Optional[WeylElement]]:
    """Whether every reduced coefficient is polynomial; witness if so."""
    comps = a.components
    if any(len(f.d) > 1 for f in comps.values()):
        return False, None
    den = lcm(*[f.c for f in comps.values()])
    rows = {n: tuple([v * (den // f.c) for v in f.n]) for n, f in comps.items()}
    return True, from_graded(GradedElement._cleared(rows, den))
