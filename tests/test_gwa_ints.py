"""Properties of the fraction-free K[H] and K(H) arithmetic in `gwa`.

Polynomials are read out of `gwa` (`num`, `den`, `components`)
as tuples of Rat, every entry a Rat even when it is integral, whatever
int work happened inside.  Shifts keep fractions reduced without a gcd,
and the int division is exact by a planted factor.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_localized_mul, oracle_poly_shift, poly
from weyl1 import WeylElement, embed, localized_mul, ratfun, to_graded
from weyl1.gwa import (
    GradedElement,
    LocalizedElement,
    RatFun,
    _axpy,
    _divmod,
    _mul,
    graded_component,
    rf_mul,
    rf_shift,
)
from weyl1.scalars import Rat

COEFFS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)),
)
POLYS = st.lists(COEFFS, max_size=5).map(poly)
NONZERO_POLYS = POLYS.filter(bool)
RATFUNS = st.builds(ratfun, POLYS, NONZERO_POLYS)
FRACTIONS = st.builds(ratfun, NONZERO_POLYS, NONZERO_POLYS).filter(lambda f: len(f.d) > 1)
INT_POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda p: p[-1])
SHIFTS = st.integers(-4, 4)
# components in [-4, 4] with denominators != 1: embedded polynomials never
# reach the rational-function paths of localized_mul
LOCALIZED = st.dictionaries(SHIFTS, FRACTIONS, min_size=1, max_size=3).map(LocalizedElement)


def elements(max_degree=3, max_terms=4):
    key = st.integers(0, max_degree).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, max_degree - i))
    )
    return st.dictionaries(key, COEFFS, max_size=max_terms).map(WeylElement)


def all_rat(p) -> bool:
    return type(p) is tuple and all(type(c) is Rat for c in p)


def rf_is_public(f: RatFun) -> bool:
    return all_rat(f.num) and all_rat(f.den) and f.den and f.den[-1] == 1


@settings(max_examples=80, deadline=None)
@given(POLYS, NONZERO_POLYS, SHIFTS)
def test_every_poly_leaving_gwa_is_a_rat_tuple(p, q, m):
    assert all(map(all_rat, GradedElement({0: p, 1: [*p, 0]}).components.values()))
    f, g = ratfun(p, q), ratfun(q, oracle_poly_shift(q, m))
    u, v = graded_component(0, f), graded_component(0, g)
    sums = [w.components.get(0, ratfun([])) for w in (u + v, u - v, -u)]
    for out in (f, g, *sums, rf_mul(f, g), rf_shift(f, m)):
        assert rf_is_public(out), out


@settings(max_examples=60, deadline=None)
@given(elements(), elements())
def test_graded_and_localized_outputs_are_rat_tuples(a, b):
    assert all(all_rat(p) for p in to_graded(a).components.values())
    prod = localized_mul(embed(a), embed(b))
    assert all(rf_is_public(f) for f in prod.components.values())


@settings(max_examples=80, deadline=None)
@given(RATFUNS, SHIFTS)
def test_shift_keeps_a_fraction_reduced_and_monic(f, m):
    assert rf_shift(f, m) == ratfun(oracle_poly_shift(f.num, m), oracle_poly_shift(f.den, m))
    assert rf_shift(rf_shift(f, m), -m) == f


@settings(max_examples=60, deadline=None)
@given(INT_POLYS, INT_POLYS, INT_POLYS)
def test_exact_division_by_a_factor(a, b, g):
    assert _divmod(_mul(a, g), g) == (a, [], 1)
    q, r, s = _divmod(a, b)
    assert len(r) < len(b) and (not r or r[-1])
    assert _axpy(1, _mul(q, b), 1, r) == [s * v for v in a]


@settings(max_examples=40, deadline=None)
@given(RATFUNS, SHIFTS)
def test_cusp_style_products_cancel_shifted_factors(f, m):
    # f * sigma^m(f) * sigma^m(1/f) = f: the shifted factor cancels exactly,
    # as it does between the powers of the cusp element w
    assume(f.num)
    f_inv = ratfun(f.den, f.num)
    left = graded_component(0, rf_mul(f, rf_shift(f, m)))
    right = graded_component(0, rf_shift(f_inv, m))
    assert localized_mul(left, right) == graded_component(0, f)


@settings(max_examples=60, deadline=None)
@given(LOCALIZED, LOCALIZED)
def test_closed_form_product_matches_letter_by_letter(a, b):
    assert localized_mul(a, b) == oracle_localized_mul(a, b)
