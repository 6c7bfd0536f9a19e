"""Graded view of the algebra and its K(H)-localized extension.

Writing H = Y*X, the algebra decomposes as a direct sum of components
K[H] * v_n with v_n = X^n for n > 0, v_n = Y^(-n) for n < 0 and v_0 = 1.
The twist sigma: H -> H - 1 governs moving coefficients past the v_n:
X * p(H) = p(H - 1) * X, and the contractions X*Y = H - 1, Y*X = H.
Together they give the product of two components in closed form,

    alpha v_m * beta v_n = alpha * sigma^m(beta) * c_mn(H) * v_(m+n),

with c_mn a run of shifted linear factors H + k (see `localized_mul`),
so `localized_mul` reduces one rational function per pair of components.

Public form.  A polynomial in H (`Poly`) is a tuple of Rat coefficients,
ascending degree, zero = (); every entry is a Rat, even an integral one.
A rational function in H (`RatFun`) keeps a monic denominator and a
reduced fraction (gcd 1), so membership of a localized element in the
plain algebra is a syntactic test on denominators.

Int internals.  The arithmetic behind that form is fraction-free, as in
`core` and `linalg`: `_clear` turns a Poly into a list of Python int
coefficients over one common denominator, products, sums, divisions and
shifts run on those lists, and each coefficient of a result becomes a Rat
exactly once, on the way out (`_out`).  Gcds come from a primitive
pseudo-remainder sequence (Collins, JACM 14, 1967; Brown & Traub, JACM
18, 1971), and dividing by a primitive gcd stays exact in ints (Gauss's
lemma).  The shift H -> H - m is a ring automorphism of K[H] that keeps
leading coefficients, so a shifted reduced fraction with a monic
denominator is still reduced and monic, and `rf_shift` takes no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .core import H, WeylElement, linear_combination, monomial, powers
from .degrees import Weight, weighted_degree
from .scalars import RAT_ONE, Rat, rat, rat_str

Poly = Tuple[Rat, ...]

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (RAT_ONE,)


# -- int coefficient lists -----------------------------------------------
# An int polynomial is a list of Python ints, ascending degree, without a
# trailing zero; [] is zero.


def _clear(p: Poly) -> Tuple[List[int], int]:
    """(ints, den): den is the lcm of p's denominators, ints[k] = p[k] * den."""
    den = lcm(*[c.denominator for c in p])
    if den == 1:
        return [c.numerator for c in p], 1
    return [c.numerator * (den // c.denominator) for c in p], den


def _out(ints: List[int], den: int, f: int = 1) -> Poly:
    """The Poly f * ints / den, each coefficient a Rat built once.

    The list keeps the tuple at its exact size: a tuple built from a
    generator is allocated at a guessed size and shrunk, and each one
    freed then stays on the interpreter's tuple free list for its size.
    """
    return tuple([Rat(f * v, den) for v in ints])


def _mul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _axpy(f: int, a: List[int], g: int, b: List[int]) -> List[int]:
    """f*a + g*b."""
    if len(a) < len(b):
        f, a, g, b = g, b, f, a
    out = [f * v for v in a]
    for k, v in enumerate(b):
        out[k] += g * v
    while out and not out[-1]:
        out.pop()
    return out


def _divmod(a: List[int], b: List[int]) -> Tuple[List[int], List[int], int]:
    """(q, r, s) with s*a = q*b + r and deg r < deg b, for b != 0.

    s is the power of lc(b) that the steps needed.  A step scales by
    lc(b) only when lc(b) does not divide the leading remainder
    coefficient, so s = 1 when a primitive b divides a exactly.
    """
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


def _primitive(a: List[int]) -> List[int]:
    """a over its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [v // c for v in a]


def _gcd(a: List[int], b: List[int]) -> List[int]:
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


def _shift(a: List[int], m: int) -> List[int]:
    """a(H - m), by the Ruffini-Horner Taylor shift."""
    a = list(a)
    for i in range(len(a) - 1):
        for k in range(len(a) - 2, i - 1, -1):
            a[k] -= m * a[k + 1]
    return a


# -- dense polynomials over the rationals -------------------------------


def poly(coeffs) -> Poly:
    """Normalize a coefficient iterable (ascending degree) to a Poly."""
    out = [rat(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
    if m == 0 or len(p) < 2:
        return p
    a, den = _clear(p)
    return _out(_shift(a, m), den)


def poly_str(p: Poly, var: str = "H") -> str:
    if not p:
        return "0"
    chunks = []
    for k, c in enumerate(p):
        if not c:
            continue
        if k == 0:
            body = rat_str(abs(c))
        else:
            v = var if k == 1 else f"{var}^{k}"
            body = v if abs(c) == RAT_ONE else f"{rat_str(abs(c))}*{v}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


@lru_cache(maxsize=None)
def _shifted_product(lo: int, hi: int) -> Tuple[int, ...]:
    """Int coefficients of prod_{k=lo}^{hi-1} (H + k), 1 for hi <= lo."""
    out = [1]
    for k in range(lo, hi):
        out = _mul(out, [k, 1])
    return tuple(out)


# -- rational functions in H --------------------------------------------


@dataclass(frozen=True)
class RatFun:
    """num/den with den monic and gcd(num, den) = 1; zero is 0/1."""

    num: Poly
    den: Poly

    def is_polynomial(self) -> bool:
        return self.den == POLY_ONE

    def __str__(self):
        if self.den == POLY_ONE:
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"


RF_ZERO = RatFun(POLY_ZERO, POLY_ONE)


def _ratfun(n: List[int], d: List[int], sn: int = 1, sd: int = 1) -> RatFun:
    """The RatFun (sn/sd) * n/d for int polynomials n and d != 0: divide
    out the primitive gcd exactly, then make the denominator monic."""
    if not n:
        return RF_ZERO
    if len(n) > 1 and len(d) > 1:
        g = _gcd(n, d)
        if len(g) > 1:
            n = _divmod(n, g)[0]
            d = _divmod(d, g)[0]
    lead = d[-1]
    num = _out(n, sd * lead, sn)
    return RatFun(num, POLY_ONE if len(d) == 1 else _out(d, lead))


def ratfun(num, den=None) -> RatFun:
    num = num if isinstance(num, tuple) else poly(num)
    den = POLY_ONE if den is None else (den if isinstance(den, tuple) else poly(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    n, dn = _clear(num)
    d, dd = _clear(den)
    return _ratfun(n, d, dd, dn)


def rf_add(a: RatFun, b: RatFun) -> RatFun:
    n1, dn1 = _clear(a.num)
    n2, dn2 = _clear(b.num)
    d1, dd1 = _clear(a.den)
    d2, dd2 = _clear(b.den)
    n = _axpy(dd1 * dn2, _mul(n1, d2), dd2 * dn1, _mul(n2, d1))
    return _ratfun(n, _mul(d1, d2), 1, dn1 * dn2)


def rf_neg(a: RatFun) -> RatFun:
    return RatFun(tuple(-c for c in a.num), a.den)


def rf_mul(a: RatFun, b: RatFun, c: Tuple[int, ...] = (1,)) -> RatFun:
    """a * b * c for an int polynomial c, with one reduction."""
    n1, dn1 = _clear(a.num)
    n2, dn2 = _clear(b.num)
    d1, dd1 = _clear(a.den)
    d2, dd2 = _clear(b.den)
    n = _mul(n1, n2)
    if len(c) > 1:
        n = _mul(n, c)
    return _ratfun(n, _mul(d1, d2), dd1 * dd2, dn1 * dn2)


def rf_scale(c, a: RatFun) -> RatFun:
    c = rat(c)
    if not c:
        return RF_ZERO
    return RatFun(tuple(c * x for x in a.num), a.den)


def rf_shift(a: RatFun, m: int) -> RatFun:
    """sigma^m applied coefficient-wise: H -> H - m in num and den.

    sigma^m is a ring automorphism of K[H] that keeps leading
    coefficients, so the result is reduced and monic without a gcd.
    """
    return RatFun(poly_shift(a.num, m), poly_shift(a.den, m))


# -- graded and localized elements ---------------------------------------


class GradedElement:
    """sum_n alpha_n(H) * v_n with polynomial coefficients."""

    __slots__ = ("components",)

    def __init__(self, components: Optional[Mapping[int, Poly]] = None):
        data: Dict[int, Poly] = {}
        if components:
            for n, p in components.items():
                p = p if isinstance(p, tuple) else poly(p)
                if p:
                    data[int(n)] = p
        self.components = data

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return isinstance(other, GradedElement) and self.components == other.components

    def __hash__(self):
        return hash(frozenset(self.components.items()))

    def __repr__(self):
        if not self.components:
            return "<GradedElement 0>"
        parts = [f"[{n}] {poly_str(p)}" for n, p in self.items()]
        return "<GradedElement " + " ; ".join(parts) + ">"


class LocalizedElement:
    """sum_n alpha_n(H) * v_n with rational-function coefficients."""

    __slots__ = ("components",)

    def __init__(self, components: Optional[Mapping[int, RatFun]] = None):
        data: Dict[int, RatFun] = {}
        if components:
            for n, f in components.items():
                if f.num:
                    data[int(n)] = f
        self.components = data

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other):
        out = dict(self.components)
        for n, f in other.components.items():
            s = rf_add(out[n], f) if n in out else f
            if s.num:
                out[n] = s
            else:
                out.pop(n, None)
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
        if not self.components:
            return "<LocalizedElement 0>"
        parts = [f"[{n}] {f}" for n, f in self.items()]
        return "<LocalizedElement " + " ; ".join(parts) + ">"


def graded_component(n: int, coeff) -> LocalizedElement:
    """Convenience constructor for alpha(H) * v_n in the localized algebra."""
    f = coeff if isinstance(coeff, RatFun) else ratfun(coeff)
    return LocalizedElement({n: f})


# -- conversions ---------------------------------------------------------


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
    # products, so no component cancels and none has a trailing zero
    return GradedElement({n: _out(row, den) for n, row in acc.items()})


def _v_element(n: int) -> WeylElement:
    return monomial(0, n) if n >= 0 else monomial(-n, 0)


def from_graded(g: GradedElement) -> WeylElement:
    """Inverse of to_graded, evaluated with plain algebra arithmetic."""
    h_pows = powers(H, max(map(len, g.components.values()), default=0) - 1)
    return linear_combination(
        (1, linear_combination(zip(p, h_pows)) * _v_element(n)) for n, p in g.items()
    )


def graded_degree(a: WeylElement) -> Union[int, float]:
    """Largest graded component present; -inf for 0.

    Each monomial Y^i X^j sits in the single component j - i, so this is
    the weighted degree of weight (-1, 1).
    """
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
    return LocalizedElement({n: RatFun(p, POLY_ONE) for n, p in g.components.items()})


# -- localized multiplication --------------------------------------------


def localized_mul(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    """Exact product, in closed form for each pair of components:

        alpha v_m * beta v_n = alpha * sigma^m(beta) * c_mn(H) * v_(m+n).

    c_mn is the product of the linear factors H + k that the contractions
    X*Y = H - 1 and Y*X = H leave, k running over [max(0, -m-n), -m) for
    n > 0 and over [-m, min(-m-n, 0)) for n < 0; the run is empty, and
    c_mn = 1, unless m and n have opposite signs.
    """
    total: Dict[int, RatFun] = {}
    for n, beta in b.components.items():
        for m, alpha in a.components.items():
            if n > 0:
                c = _shifted_product(max(0, -m - n), -m)
            else:
                c = _shifted_product(-m, min(-m - n, 0))
            f = rf_mul(alpha, rf_shift(beta, m), c)
            prev = total.get(m + n)
            s = rf_add(prev, f) if prev is not None else f
            if s.num:
                total[m + n] = s
            else:
                total.pop(m + n, None)
    return LocalizedElement(total)


def in_A1(a: LocalizedElement) -> Tuple[bool, Optional[WeylElement]]:
    """Whether every reduced coefficient is polynomial; witness if so."""
    for f in a.components.values():
        if not f.is_polynomial():
            return False, None
    g = GradedElement({n: f.num for n, f in a.components.items()})
    return True, from_graded(g)
