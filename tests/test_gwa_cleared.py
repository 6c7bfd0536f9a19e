"""Cleared form of the graded and localized layer, property-tested.

A `RatFun` is (n / c) / d: int tuples n and d and an int c > 0, with d
primitive and of positive lead, gcd(c, content n) = 1 and gcd(n, d) = 1.
A `GradedElement` is int rows over their least common denominator.  Both
forms are canonical, so every constructor and every operation must hand
one back, and `==` and `hash` compare it.  The arithmetic builds no Rat
until `num`, `den` or `components` is read, nor does printing the
elements it hands back (`format_element`, `element_to_doc`), and
`from_graded`, the closed Stirling-number inverse of `to_graded`, must
agree with the product oracle.
"""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_format_element, oracle_from_graded, random_element
from test_gwa_ints import COEFFS, LOCALIZED, NONZERO_POLYS, POLYS, RATFUNS, SHIFTS, elements
from weyl1 import (
    H,
    X,
    Y,
    embed,
    format_element,
    from_graded,
    gwa,
    in_A1,
    localized_mul,
    ratfun,
    to_graded,
)
from weyl1.core import linear_combination, monomial
from weyl1.gwa import (
    GradedElement,
    LocalizedElement,
    RatFun,
    graded_component,
    poly,
    poly_gcd,
    rf_add,
    rf_mul,
    rf_neg,
    rf_scale,
    rf_shift,
)
from weyl1.scalars import Rat
from weyl1.serialize import element_to_doc

NONZERO_SCALARS = COEFFS.filter(bool)
# a point that is no root of any denominator drawn here: by the rational
# root theorem, 10007 would have to divide a leading coefficient
POINT = Fraction(1, 10007)


def assert_cleared(f: RatFun):
    n, c, d = f.n, f.c, f.d
    assert type(n) is tuple and type(d) is tuple and type(c) is int
    assert all(type(v) is int for v in n + d)
    assert c > 0 and d and d[-1] > 0 and gcd(*d) == 1
    if not n:
        assert (c, d) == (1, (1,))
        return
    assert n[-1] and gcd(c, *n) == 1
    assert poly_gcd(poly(n), poly(d)) == poly([1])


def at(f: RatFun, h=POINT) -> Fraction:
    """The value of f at H = h, from its cleared form."""
    num = sum(Fraction(v) * h**k for k, v in enumerate(f.n))
    return num / (f.c * sum(Fraction(v) * h**k for k, v in enumerate(f.d)))


def value(p, h=POINT) -> Fraction:
    return sum(Fraction(v) * h**k for k, v in enumerate(p))


# -- RatFun ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(POLYS, NONZERO_POLYS)
def test_ratfun_builds_the_cleared_form_of_its_value(p, q):
    f = ratfun(p, q)
    assert_cleared(f)
    assert at(f) == value(p) / value(q)
    # num / den read it back as a reduced fraction over a monic den
    assert f.den[-1] == 1 and ratfun(f.num, f.den) == f


@settings(max_examples=100, deadline=None)
@given(POLYS, NONZERO_POLYS, NONZERO_SCALARS)
def test_scaling_numerator_and_denominator_keeps_the_ratfun(p, q, k):
    f = ratfun(p, q)
    g = ratfun([k * c for c in p], [k * c for c in q])
    assert g == f and hash(g) == hash(f)
    assert (g.n, g.c, g.d) == (f.n, f.c, f.d)


@settings(max_examples=80, deadline=None)
@given(RATFUNS, RATFUNS, SHIFTS, NONZERO_SCALARS)
def test_every_ratfun_operation_returns_the_cleared_form(f, g, m, k):
    cases = [
        (rf_add(f, g), at(f) + at(g)),
        (rf_add(f, f), 2 * at(f)),
        (rf_mul(f, g), at(f) * at(g)),
        (rf_mul(f, g, (-2, 1)), at(f) * at(g) * (POINT - 2)),
        (rf_neg(f), -at(f)),
        (rf_scale(k, f), Fraction(k) * at(f)),
        (rf_scale(0, f), 0),
        (rf_shift(f, m), at(f, POINT - m)),
    ]
    for out, want in cases:
        assert_cleared(out)
        assert at(out) == want


def test_constructors_normalize_a_ratfun():
    assert RatFun((2,), (2,)) == ratfun([1]) == RatFun([1])
    assert hash(RatFun((2,), (2,))) == hash(ratfun([1]))
    assert RatFun((0, 2, 0), (0, -4)) == ratfun(["-1/2"])
    assert RatFun([], [3, 1]) == ratfun(()) and ratfun(()).d == (1,)
    with pytest.raises(ZeroDivisionError):
        RatFun([1], [0, 0])


def test_copy_and_pickle_keep_the_value():
    f = ratfun([0, -2, 1], [-3, 3])
    for x in (f, graded_component(1, f), GradedElement({1: [1, "1/2"]})):
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


# -- GradedElement -------------------------------------------------------


def test_a_zero_component_is_dropped():
    assert GradedElement({0: (Rat(0),)}) == GradedElement()
    assert GradedElement({0: (Rat(0),), 3: (0, 0)}).is_zero()


def test_trailing_zeros_and_ints_give_the_same_graded_element():
    g = GradedElement({0: (1, 0)})
    assert g == GradedElement({0: poly([1])})
    assert hash(g) == hash(GradedElement({0: poly([1])}))
    assert g == to_graded(from_graded(g))


def test_int_components_read_back_as_rats():
    g = GradedElement({0: (1, 2), -1: ("1/2",)})
    assert g.components == {0: (Rat(1), Rat(2)), -1: (Rat(1, 2),)}
    assert all(type(c) is Rat for p in g.components.values() for c in p)
    assert (g._rows, g._den) == ({0: (2, 4), -1: (1,)}, 2)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), POLYS, max_size=4), NONZERO_SCALARS)
def test_graded_elements_are_canonical(comps, k):
    g = GradedElement(comps)
    assert gcd(g._den, *(v for row in g._rows.values() for v in row)) == 1
    assert all(row and row[-1] for row in g._rows.values())
    # the same components over another denominator, as Rats or ints
    scaled = GradedElement({n: [Fraction(k) * c for c in p] for n, p in comps.items()})
    unscaled = GradedElement(
        {n: [c / Fraction(k) for c in p] for n, p in scaled.components.items()})
    assert unscaled == g and hash(unscaled) == hash(g)


@pytest.mark.parametrize("bad", [0.5, 1.9, True, False, "1", None])
def test_a_component_index_must_be_an_int(bad):
    with pytest.raises(TypeError, match="component index"):
        GradedElement({bad: poly([1])})
    with pytest.raises(TypeError, match="component index"):
        LocalizedElement({bad: ratfun([1])})
    with pytest.raises(TypeError, match="component index"):
        LocalizedElement({bad: ratfun([])})


# -- conversions ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(elements(max_degree=5, max_terms=5))
def test_to_graded_keeps_the_elements_denominator(a):
    g = to_graded(a)
    assert g._den == a._den
    assert from_graded(g) == oracle_from_graded(g) == a
    for f in embed(a).components.values():
        assert_cleared(f)
        assert f.is_polynomial()


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), POLYS, max_size=4))
def test_closed_inverse_matches_the_product_oracle(comps):
    g = GradedElement(comps)
    a = from_graded(g)
    assert a == oracle_from_graded(g)
    assert to_graded(a) == g


def test_stirling_rows_expand_the_powers_of_h():
    # S(k, l) of the second kind, with the sign (-1)^(k-l)
    assert gwa._stirling(4) == (0, -1, 7, -6, 1)
    for k in range(9):
        row = gwa._stirling(k)
        assert H**k == linear_combination((c, monomial(l, l)) for l, c in enumerate(row))


def test_in_A1_reads_the_witness_off_the_cleared_rows():
    # w = H (H-1)^-1 (H-2) X over 3: w^2 = H (H-3) X^2 / 9
    w = graded_component(1, ratfun([0, -2, 1], [-3, 3]))
    ok, witness = in_A1(localized_mul(w, w))
    assert ok and witness == Fraction(1, 9) * (Y**2 * X**4 - 4 * Y * X**3)


# -- no Rat until read ----------------------------------------------------


class CountingRat(Fraction):
    """A stand-in for gwa.Rat that counts the Rats built through it."""

    made = 0

    def __new__(cls, *args, **kwargs):
        CountingRat.made += 1
        return super().__new__(cls, *args, **kwargs)


def test_graded_and_localized_arithmetic_builds_no_rat_until_read(monkeypatch):
    # work, not time: Rats built by gwa, and Fractions built anywhere
    a = random_element(random.Random(41), max_degree=5, max_terms=6, max_den=5)
    b = random_element(random.Random(43), max_degree=5, max_terms=6, max_den=5)
    k = Fraction(3, 4)
    f = ratfun([0, -2, 1], [-1, 1])
    g = ratfun(["1/3", 2], [5, 0, 1])
    w = graded_component(1, f)
    fractions = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        fractions[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(gwa, "Rat", CountingRat)
    CountingRat.made = 0
    monkeypatch.setattr(Fraction, "__new__", counted)
    outs = [rf_add(f, g), rf_mul(f, g, (1, 1)), rf_neg(g), rf_scale(k, g),
            rf_shift(g, 3)]
    prod = localized_mul(embed(a), embed(b))
    w3 = localized_mul(localized_mul(w, w), w)
    ga = to_graded(a)
    back = from_graded(ga)
    member = in_A1(w3)
    printed = [format_element(back), element_to_doc(member[1])["terms"]]
    assert (CountingRat.made, fractions[0]) == (0, 0)
    monkeypatch.undo()
    assert back == a and member[0] and prod == embed(a * b)
    assert printed == [
        oracle_format_element(a),
        [{"y": i, "x": j, "c": str(c)} for (i, j), c in member[1].terms()],
    ]
    monkeypatch.setattr(gwa, "Rat", CountingRat)
    for out in outs + list(prod.components.values()):
        out.num, out.den
    ga.components
    assert CountingRat.made > 0


@settings(max_examples=40, deadline=None)
@given(LOCALIZED, LOCALIZED)
def test_localized_products_return_the_cleared_form(a, b):
    for f in localized_mul(a, b).components.values():
        assert_cleared(f)
