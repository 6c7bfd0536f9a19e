"""Cleared form of elements, property-tested with hypothesis.

An element holds only nonzero int numerators over their least positive
common denominator (`_ints`, `_den`); arithmetic reads and writes that
form.  Every operation must hand back the canonical cleared form, and
its value must agree with the rewrite oracle.  `==` and `hash` read the
cleared form, so both must agree between an element built from a
mapping and the same value built by arithmetic; a scalar element hashes
as its value, which it equals.  Powers, pull-backs, commutators and
`theta` of rational elements must form no Fraction until their terms are
read, and neither must printing them (`format_element`,
`element_to_doc`).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_format_element, oracle_monomial_product, oracle_mul
from test_stored_form import (
    NONZERO,
    RATIONAL_PAIR,
    SCALARS,
    TRIANGULAR,
    assert_cleared,
    cleared,
    mixed_elements,
    over,
)
from weyl1 import (
    ONE,
    EndoRecipe,
    WeylElement,
    Y,
    add_poly_x,
    add_poly_y,
    apply_endo,
    commutator,
    compile_recipe,
    d_xy,
    d_yx,
    delta_xy,
    format_element,
    monomial,
    scalar,
    theta,
)
from weyl1.core import linear_combination, powers
from weyl1.maps import ad
from weyl1.serialize import element_to_doc

# the composite pair of the canonical verify config
COMPOSITE = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1]))))
PAIRS = st.sampled_from([TRIANGULAR, RATIONAL_PAIR, COMPOSITE])
SMALL = mixed_elements(max_degree=2, max_terms=3)


# -- oracle tables: {(i, j): Fraction}, no zero values -------------------


def table(a: WeylElement) -> dict:
    return dict(a.terms())


def combo(*pairs) -> dict:
    """sum c * t over (c, table) pairs."""
    out = {}
    for c, t in pairs:
        for key, v in t.items():
            out[key] = out.get(key, 0) + Fraction(c) * v
    return {k: v for k, v in out.items() if v}


def bracket(s: dict, t: dict) -> dict:
    return combo((1, oracle_mul(s, t)), (-1, oracle_mul(t, s)))


def power(t: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = oracle_mul(out, t)
    return out


def assert_agrees(out: WeylElement, want: dict):
    """out is in cleared form and its value is the oracle's table."""
    assert_cleared(out)
    assert over(out._ints, out._den) == {k: v for k, v in want.items() if v}


@settings(max_examples=80, deadline=None)
@given(mixed_elements(), mixed_elements(), SCALARS)
def test_ring_operations_return_the_canonical_cleared_form(a, b, c):
    assert_cleared(a)
    ta, tb = table(a), table(b)
    assert_agrees(a + b, combo((1, ta), (1, tb)))
    assert_agrees(a - b, combo((1, ta), (-1, tb)))
    assert_agrees(b - a, combo((1, tb), (-1, ta)))
    assert_agrees(a - a, {})
    assert_agrees(-a, combo((-1, ta)))
    assert_agrees(a * b, oracle_mul(ta, tb))
    assert_agrees(c * a, combo((c, ta)))
    assert_agrees(a * c, combo((c, ta)))
    assert_agrees(commutator(a, b), bracket(ta, tb))
    theta_want = combo(*(
        ((-1) ** i * v, oracle_monomial_product(0, i, j, 0)) for (i, j), v in ta.items()
    ))
    assert_agrees(theta(a), theta_want)


@settings(max_examples=60, deadline=None)
@given(SMALL, SMALL, NONZERO, NONZERO, st.integers(0, 4))
def test_combinations_and_powers_return_the_canonical_cleared_form(a, b, c, d, n):
    ta, tb = table(a), table(b)
    assert_agrees(linear_combination([(c, a), (d, b)]), combo((c, ta), (d, tb)))
    assert_agrees(linear_combination([(c, a), (-c, a)]), {})
    for k, p in enumerate(powers(a, n)):
        assert_agrees(p, power(ta, k))
    assert_agrees(a**n, power(ta, n))


@settings(max_examples=40, deadline=None)
@given(SMALL, SMALL, PAIRS)
def test_pull_backs_and_map_images_return_the_canonical_cleared_form(a, b, e):
    ta, tb, tx, ty = table(a), table(b), table(e.x), table(e.y)
    endo_want = combo(*(
        (v, oracle_mul(power(ty, i), power(tx, j))) for (i, j), v in ta.items()
    ))
    assert_agrees(apply_endo(e, a), endo_want)
    for make in (ad, d_yx, d_xy, delta_xy):
        make.cache_clear()  # new maps with empty image caches
    for m, want in (
        (ad(a), bracket(ta, tb)),
        (d_yx(e), oracle_mul(bracket(ty, tb), tx)),
        (d_xy(e), oracle_mul(bracket(tx, tb), ty)),
        (delta_xy(e), bracket(tx, bracket(ty, tb))),
    ):
        assert_agrees(m(b), want)  # cold cache
        assert_agrees(m(b), want)  # warm cache
        for img in m._cache.values():
            assert_cleared(img)


@settings(max_examples=40, deadline=None)
@given(SMALL, PAIRS)
def test_grouped_pull_back_is_the_term_by_term_sum(a, e):
    # apply_endo sums y^i * (sum_j a[i,j] x^j); the term-by-term sum of
    # a[i,j] * y^i * x^j must be the identical canonical element
    ys, xs = powers(e.y, 4), powers(e.x, 4)
    want = linear_combination((c, ys[i] * xs[j]) for (i, j), c in a.terms())
    got = apply_endo(e, a)
    assert cleared(got) == cleared(want)


@settings(max_examples=80, deadline=None)
@given(mixed_elements(), mixed_elements(), NONZERO)
def test_eq_and_hash_agree_between_mappings_and_arithmetic(a, b, c):
    mapped = WeylElement(table(a))
    assert mapped == a and hash(mapped) == hash(a)
    for rebuilt in (
        (a + b) - b,
        -(-a),
        (a * c) * (1 / Fraction(c)),
        linear_combination([(1, a), (c, b), (-c, b)]),
        theta(theta(theta(theta(a)))),  # theta has order 4
        a * ONE,
    ):
        assert rebuilt == a and rebuilt == mapped
        assert hash(rebuilt) == hash(mapped)
        assert {mapped: 1}[rebuilt] == 1
    for out in (a * b, commutator(a, b), a + c):
        fresh = WeylElement(table(out))
        assert fresh == out and hash(fresh) == hash(out)
    assert (a - a) == 0 and hash(a - a) == hash(WeylElement())
    assert (a * 0 + c) == c and hash(a * 0 + c) == hash(WeylElement({(0, 0): c}))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(0), st.integers(-(10**30), 10**30), st.fractions(), SCALARS))
def test_a_scalar_element_hashes_as_the_value_it_equals(c):
    for s in (scalar(c), scalar(c) * ONE, monomial(1, 0) * c - c * Y + c):
        assert s == c and hash(s) == hash(c)
        assert len({s, c}) == 1 and {c: 1}[s] == 1


# one-term elements c * Y^i or c * X^j, the shape `**` raises directly
AXIS_MONOMIALS = st.builds(
    lambda i, c, on_y: monomial(i, 0, c) if on_y else monomial(0, i, c),
    st.integers(0, 4), SCALARS, st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(AXIS_MONOMIALS, SMALL), st.integers(0, 7))
def test_pow_is_repeated_multiplication(a, n):
    want = ONE
    for _ in range(n):
        want = want * a
    got = a**n
    assert got == want and cleared(got) == cleared(want)
    assert_cleared(got)


def test_arithmetic_forms_no_fraction_until_terms_are_read(monkeypatch):
    # work, not time: Fraction objects constructed
    a = WeylElement({(2, 1): Fraction(3, 4), (0, 2): Fraction(-5, 6), (1, 0): Fraction(7, 10)})
    b = WeylElement({(1, 2): Fraction(-2, 9), (3, 0): Fraction(1, 14), (0, 0): Fraction(5, 3)})
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    outs = [a**5, apply_endo(COMPOSITE, a), commutator(a, b), theta(a)]
    texts = [format_element(out) for out in outs]
    docs = [element_to_doc(out) for out in outs]
    assert made[0] == 0
    assert all(out._den > 1 for out in outs)
    for out in outs:
        out.terms()
    assert made[0] > 0
    monkeypatch.undo()
    assert texts == [oracle_format_element(out) for out in outs]
    assert [doc["terms"] for doc in docs] == [
        [{"y": i, "x": j, "c": str(c)} for (i, j), c in out.terms()] for out in outs
    ]
