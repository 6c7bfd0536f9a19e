"""sympy as an independent oracle for the int gcds in `gwa`: a planted
factor cancels from a `RatFun`, and localized sums and `rf_mul` reduce
as sympy's `cancel` does.

sympy is used here only; the module is skipped when it is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from oracles import poly  # noqa: E402
from weyl1 import graded_component, ratfun  # noqa: E402
from weyl1.gwa import rf_mul  # noqa: E402

H = sympy.Symbol("H")

# p/q coefficients with q > 1 as well as integers, so that every
# polynomial below carries denominators into the int core
COEFFS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)),
)
POLYS = st.lists(COEFFS, max_size=4).map(poly)
NONZERO_POLYS = POLYS.filter(bool)
FACTORS = st.lists(COEFFS, min_size=2, max_size=4).map(poly).filter(lambda p: len(p) > 1)


def to_sym(p) -> "sympy.Poly":
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p)]
    return sympy.Poly(coeffs or [0], H, domain=sympy.QQ)


def from_sym(p: "sympy.Poly"):
    return poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@settings(max_examples=100, deadline=None)
@given(FACTORS, NONZERO_POLYS, NONZERO_POLYS)
def test_a_planted_factor_cancels_as_in_sympy(g, a, b):
    p, q = to_sym(g) * to_sym(a), to_sym(g) * to_sym(b)
    f = ratfun(from_sym(p), from_sym(q))
    assert f == ratfun(a, b)
    # the reduced form divides out the whole gcd, planted factor included
    assert len(f.num) == len(p.all_coeffs()) - sympy.gcd(p, q).degree()
    assert (f.num, f.den) == canceled(p.as_expr() / q.as_expr())


@settings(max_examples=100, deadline=None)
@given(POLYS, NONZERO_POLYS)
def test_ratfun_is_monic_and_coprime(num, den):
    f = ratfun(num, den)
    assert f.den[-1] == 1
    if not num:
        assert f.num == () and f.den == poly([1])
        return
    assert sympy.gcd(to_sym(f.num), to_sym(f.den)).degree() == 0
    # the same fraction: num * f.den == f.num * den
    assert to_sym(num) * to_sym(f.den) == to_sym(f.num) * to_sym(den)


def canceled(expr):
    """(num, den) of a rational expression in lowest terms, den monic."""
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    n, d = sympy.Poly(n, H, domain=sympy.QQ), sympy.Poly(d, H, domain=sympy.QQ)
    lead = d.LC()
    return from_sym(n.quo_ground(lead)), from_sym(d.quo_ground(lead))


@settings(max_examples=80, deadline=None)
@given(POLYS, NONZERO_POLYS, POLYS, NONZERO_POLYS)
def test_localized_sums_and_rf_mul_match_sympy_cancel(n1, d1, n2, d2):
    f, g = ratfun(n1, d1), ratfun(n2, d2)
    x = to_sym(n1).as_expr() / to_sym(d1).as_expr()
    y = to_sym(n2).as_expr() / to_sym(d2).as_expr()
    u, v = graded_component(0, f), graded_component(0, g)
    for el, want in ((u + v, x + y), (u - v, x - y)):
        s = el.components.get(0)
        if s is not None:
            assert (s.num, s.den) == canceled(want)
        else:
            assert sympy.simplify(want) == 0
    p = rf_mul(f, g)
    if p.num:
        assert (p.num, p.den) == canceled(x * y)
    else:
        assert not (n1 and n2)
