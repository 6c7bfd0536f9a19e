"""sympy as an independent oracle for the int gcds in `gwa`.

sympy is used here only; the module is skipped when it is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from weyl1 import ratfun  # noqa: E402
from weyl1.gwa import poly, poly_gcd, poly_mul, rf_add, rf_mul  # noqa: E402

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


def monic(p: "sympy.Poly") -> "sympy.Poly":
    return p.monic() if not p.is_zero else p


@settings(max_examples=100, deadline=None)
@given(FACTORS, NONZERO_POLYS, NONZERO_POLYS)
def test_poly_gcd_matches_sympy_on_a_planted_factor(g, a, b):
    p, q = poly_mul(g, a), poly_mul(g, b)
    got = poly_gcd(p, q)
    assert got == from_sym(monic(sympy.gcd(to_sym(p), to_sym(q))))
    assert to_sym(got).rem(to_sym(g)).is_zero  # the planted factor divides it


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
def test_rf_add_and_rf_mul_match_sympy_cancel(n1, d1, n2, d2):
    f, g = ratfun(n1, d1), ratfun(n2, d2)
    x = to_sym(n1).as_expr() / to_sym(d1).as_expr()
    y = to_sym(n2).as_expr() / to_sym(d2).as_expr()
    s, p = rf_add(f, g), rf_mul(f, g)
    if s.num:
        assert (s.num, s.den) == canceled(x + y)
    else:
        assert sympy.simplify(x + y) == 0
    if p.num:
        assert (p.num, p.den) == canceled(x * y)
    else:
        assert not (n1 and n2)
