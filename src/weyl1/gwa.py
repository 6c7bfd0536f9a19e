"""Graded view of the algebra and its K(H)-localized extension.

Writing H = Y*X, the algebra decomposes as a direct sum of components
K[H] * v_n with v_n = X^n for n > 0, v_n = Y^(-n) for n < 0 and v_0 = 1.
The twist sigma: H -> H - 1 governs moving coefficients past the v_n:
X * p(H) = p(H - 1) * X, and the contractions X*Y = H - 1, Y*X = H.

Polynomials in H are stored as tuples of rational coefficients, ascending
degree, zero = ().  Rational functions in H keep a monic denominator and
a gcd-reduced fraction, so membership of a localized element in the plain
algebra is a syntactic test on denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .core import WeylElement, linear_combination, monomial
from .scalars import NEG_INF, RAT_ONE, Rat, rat, rat_str

Poly = Tuple[Rat, ...]

POLY_ZERO: Poly = ()
POLY_ONE: Poly = (RAT_ONE,)


# -- dense polynomial arithmetic over the rationals ---------------------


def poly(coeffs) -> Poly:
    """Normalize a coefficient iterable (ascending degree) to a Poly."""
    out = [rat(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_deg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] = out[k] + c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_scale(c, p: Poly) -> Poly:
    c = rat(c)
    if not c:
        return POLY_ZERO
    return tuple(c * a for a in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return POLY_ZERO
    out = [rat(0)] * (len(p) + len(q) - 1)
    for a, ca in enumerate(p):
        if not ca:
            continue
        for b, cb in enumerate(q):
            if cb:
                out[a + b] = out[a + b] + ca * cb
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def poly_divmod(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [rat(0)] * max(0, len(p) - len(q) + 1)
    lead = rat(q[-1])  # a Rat divisor keeps every quotient exact
    while len(rem) >= len(q):
        c = rem[-1] / lead
        k = len(rem) - len(q)
        quo[k] = c
        for a, cb in enumerate(q):
            rem[k + a] = rem[k + a] - c * cb
        rem.pop()  # the top coefficient cancels exactly
        while rem and not rem[-1]:
            rem.pop()
    return poly(quo), tuple(rem)


def poly_monic(p: Poly) -> Poly:
    if not p:
        return p
    lead = rat(p[-1])
    if lead == RAT_ONE:
        return p
    return tuple(c / lead for c in p)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_shift(p: Poly, m: int) -> Poly:
    """Substitute H -> H - m (the m-fold twist sigma^m)."""
    if m == 0 or not p:
        return p
    # Horner against the linear polynomial (H - m)
    base = (rat(-m), RAT_ONE)
    out: Poly = POLY_ZERO
    for c in reversed(p):
        out = poly_add(poly_mul(out, base), (rat(c),) if c else POLY_ZERO)
    return out


def poly_eval_element(p: Poly, at: WeylElement) -> WeylElement:
    """Evaluate the polynomial at an algebra element (Horner)."""
    acc = WeylElement()
    for c in reversed(p):
        acc = acc * at + c
    return acc


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
def _shifted_product(lo: int, hi: int) -> Poly:
    """prod_{k=lo}^{hi-1} (H + k), the empty product for hi <= lo."""
    out = POLY_ONE
    for k in range(lo, hi):
        out = poly_mul(out, (rat(k), RAT_ONE))
    return out


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


RF_ZERO: "RatFun"


def ratfun(num, den=None) -> RatFun:
    num = num if isinstance(num, tuple) else poly(num)
    den = POLY_ONE if den is None else (den if isinstance(den, tuple) else poly(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return RatFun(POLY_ZERO, POLY_ONE)
    g = poly_gcd(num, den)
    if poly_deg(g) > 0:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    lead = rat(den[-1])
    if lead != RAT_ONE:
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
    return RatFun(num, den)


RF_ZERO = RatFun(POLY_ZERO, POLY_ONE)


def rf_add(a: RatFun, b: RatFun) -> RatFun:
    return ratfun(
        poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den)),
        poly_mul(a.den, b.den),
    )


def rf_neg(a: RatFun) -> RatFun:
    return RatFun(poly_neg(a.num), a.den)


def rf_mul(a: RatFun, b: RatFun) -> RatFun:
    return ratfun(poly_mul(a.num, b.num), poly_mul(a.den, b.den))


def rf_scale(c, a: RatFun) -> RatFun:
    c = rat(c)
    if not c:
        return RF_ZERO
    return RatFun(tuple(c * x for x in a.num), a.den)


def rf_shift(a: RatFun, m: int) -> RatFun:
    """sigma^m applied coefficient-wise: H -> H - m in num and den."""
    return ratfun(poly_shift(a.num, m), poly_shift(a.den, m))


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
    acc: Dict[int, Poly] = {}
    for (i, j), c in a.terms():
        n = j - i
        lo = 0 if i <= j else i - j
        p = poly_scale(c, _shifted_product(lo, i))
        if n in acc:
            s = poly_add(acc[n], p)
            if s:
                acc[n] = s
            else:
                del acc[n]
        elif p:
            acc[n] = p
    return GradedElement(acc)


def _v_element(n: int) -> WeylElement:
    return monomial(0, n) if n >= 0 else monomial(-n, 0)


def from_graded(g: GradedElement) -> WeylElement:
    """Inverse of to_graded, evaluated with plain algebra arithmetic."""
    from .core import H as H_ELEM

    return linear_combination(
        (1, poly_eval_element(p, H_ELEM) * _v_element(n)) for n, p in g.items()
    )


def graded_degree(a: WeylElement) -> Union[int, float]:
    """Largest graded component present; -inf for 0.

    Each monomial Y^i X^j sits in the single component j - i, so the
    degree reads off the support directly.
    """
    if a.is_zero():
        return NEG_INF
    return max(j - i for (i, j) in a.support())


def graded_degree_minus(a: WeylElement) -> Union[int, float]:
    """Minus the smallest graded component present; -inf for 0."""
    if a.is_zero():
        return NEG_INF
    return -min(j - i for (i, j) in a.support())


def supp_monoid(elems: Iterable[WeylElement]) -> set:
    """Set of graded degrees attained by the nonzero elements."""
    return {graded_degree(e) for e in elems if not e.is_zero()}


def embed(a: WeylElement) -> LocalizedElement:
    """The plain algebra inside its localization."""
    g = to_graded(a)
    return LocalizedElement({n: RatFun(p, POLY_ONE) for n, p in g.components.items()})


# -- localized multiplication --------------------------------------------


def _mul_v_step(components: Dict[int, RatFun], by_x: bool) -> Dict[int, RatFun]:
    """Right-multiply sum alpha_m v_m by a single X (or Y) letter.

    The one-step rules, with sigma: H -> H - 1:
        alpha v_m * X = alpha v_(m+1)              for m >= 0
        alpha v_m * X = alpha*(H-m-1) v_(m+1)      for m <= -1
        alpha v_m * Y = alpha v_(m-1)              for m <= 0
        alpha v_m * Y = alpha*(H-m) v_(m-1)        for m >= 1
    """
    out: Dict[int, RatFun] = {}
    for m, f in components.items():
        if by_x:
            tgt = m + 1
            if m < 0:
                f = rf_mul(f, RatFun((rat(-m - 1), RAT_ONE), POLY_ONE))
        else:
            tgt = m - 1
            if m > 0:
                f = rf_mul(f, RatFun((rat(-m), RAT_ONE), POLY_ONE))
        if f.num:
            prev = out.get(tgt)
            s = rf_add(prev, f) if prev is not None else f
            if s.num:
                out[tgt] = s
            else:
                out.pop(tgt, None)
    return out


def localized_mul(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    """Exact product, iterating the one-letter twist and contraction rules."""
    total: Dict[int, RatFun] = {}
    for n, beta in b.components.items():
        # a * beta(H): pull beta through each component with the twist
        cur = {}
        for m, alpha in a.components.items():
            f = rf_mul(alpha, rf_shift(beta, m))
            if f.num:
                cur[m] = f
        # then multiply by v_n one letter at a time
        for _ in range(abs(n)):
            cur = _mul_v_step(cur, by_x=n > 0)
        for m, f in cur.items():
            prev = total.get(m)
            s = rf_add(prev, f) if prev is not None else f
            if s.num:
                total[m] = s
            else:
                total.pop(m, None)
    return LocalizedElement(total)


def in_A1(a: LocalizedElement) -> Tuple[bool, Optional[WeylElement]]:
    """Whether every reduced coefficient is polynomial; witness if so."""
    for f in a.components.values():
        if not f.is_polynomial():
            return False, None
    g = GradedElement({n: f.num for n, f in a.components.items()})
    return True, from_graded(g)
