"""Results built in one accumulator and reduced once, against oracles.

`core._mul_into` adds f * P * Q into a caller's int term map; products,
`apply_endo`, `theta` and the product-rule residual all go through it.
`theta` adds each term's X^i Y^j into one map, the printers read the
cleared form with one gcd per coefficient, and `localized_mul` sums the
products that land in one component over one denominator.  Each is
checked here against an independent reference: the rewrite oracle, the
substitution `theta`, the Rat-based printer and the letter-by-letter
localized product of `tests/oracles.py`.  The parser's signed sums are
checked in `tests/test_parsing.py`.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_format_element,
    oracle_localized_mul,
    oracle_mul,
    oracle_theta,
)
from test_stored_form import assert_cleared, elements, mixed_elements
from weyl1 import (
    ONE,
    ZERO,
    H,
    WeylElement,
    X,
    Y,
    embed,
    format_element,
    graded_component,
    localized_mul,
    parse,
    ratfun,
    theta,
)
from weyl1.core import _mul_into
from weyl1.errors import DomainError
from weyl1.scalars import rat_str
from weyl1.serialize import element_to_doc

# unit coefficients, negative leads and denominators > 1, all drawn often
PRINTED = st.one_of(
    mixed_elements(max_degree=4, max_terms=5),
    elements(4, 5, st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(-7, 6)])),
)
EXAMPLES = [
    ZERO,
    ONE,
    -ONE,
    X,
    -X,
    WeylElement({(0, 0): Fraction(-1, 2), (1, 1): 1, (0, 3): Fraction(-5, 3)}),
    WeylElement({(2, 0): -1, (0, 0): Fraction(4, 6)}),
    Fraction(3, 4) * (Y * X - X**2 + 1),
]
# w = H (H-1)^-1 (H-2) X: one component with a denominator that is not a
# polynomial, the cusp element of the arith-graded benchmark
CUSP = graded_component(1, ratfun([0, -2, 1], [-1, 1]))


def int_elements(max_degree=3, max_terms=4):
    return elements(max_degree, max_terms, st.integers(-12, 12))


def examples(test):
    """Run a one-argument hypothesis test on each of `EXAMPLES` too."""
    for a in EXAMPLES:
        test = example(a)(test)
    return test


# -- theta -------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(PRINTED)
@examples
def test_theta_is_the_substitution(a):
    got = theta(a)
    assert_cleared(got)
    assert got == oracle_theta(a)


# -- printing from the cleared form --------------------------------------


def doc_terms(a):
    """The element document's terms as they were built from Rat terms."""
    return [{"y": i, "x": j, "c": rat_str(c)} for (i, j), c in a.terms()]


@settings(max_examples=120, deadline=None)
@given(PRINTED)
@examples
def test_printers_match_the_rat_printer(a):
    text = format_element(a)
    assert text == oracle_format_element(a)
    assert element_to_doc(a)["terms"] == doc_terms(a)
    assert parse(text) == a


@pytest.mark.parametrize(
    "text,digits", [("100^4096", 8193), ("(1/100)^4096 * X", 8193), ("-3 * 100^2200", 4401)]
)
def test_a_coefficient_too_long_to_print_keeps_its_domain_error(text, digits):
    # a numerator or a denominator past Python's int print limit: both
    # printers and the element document name the same size
    a = parse(text)
    details = []
    for printer in (format_element, oracle_format_element, element_to_doc):
        with pytest.raises(DomainError) as info:
            printer(a)
        details.append(str(info.value))
    assert details[0] == details[1] == details[2]
    assert f"about {digits} digits" in details[0]


# -- the multiply-accumulate kernel ------------------------------------------


@settings(max_examples=80, deadline=None)
@given(int_elements(), int_elements(), int_elements(), st.integers(-9, 9).filter(lambda f: f != 1))
def test_mul_into_adds_f_times_the_oracle_product(acc, p, q, f):
    # into a map that already holds terms, with a factor other than 1
    out, before = dict(acc._ints), (dict(p._ints), dict(q._ints))
    _mul_into(out, p._ints, q._ints, f)
    want = dict(acc._ints)
    for key, v in oracle_mul(p._ints, q._ints).items():
        want[key] = want.get(key, 0) + f * v
    assert out == {k: v for k, v in want.items() if v}
    assert all(type(v) is int and v for v in out.values())
    assert (p._ints, q._ints) == before  # the operands are only read


# -- localized products ----------------------------------------------------


def test_cusp_products_put_several_rational_products_in_one_component():
    # embed(a) * w has components with a denominator, and times embed(b)
    # several of its products land in one component of the result
    a, b = X + Y + H, 2 * X**2 - Y + 1
    left = localized_mul(embed(a), CUSP)
    assert sum(not f.is_polynomial() for f in left.components.values()) >= 2
    got = localized_mul(left, embed(b))
    assert got == oracle_localized_mul(left, embed(b))
    assert any(not f.is_polynomial() for f in got.components.values())
    assert len(got.components) < len(left.components) * len(embed(b).components)


@settings(max_examples=40, deadline=None)
@given(mixed_elements(max_degree=2, max_terms=3), mixed_elements(max_degree=2, max_terms=3))
def test_localized_products_match_the_letter_oracle(a, b):
    left = localized_mul(embed(a), CUSP)
    assert left == oracle_localized_mul(embed(a), CUSP)
    for u, v in [(left, embed(b)), (embed(b), left), (left, left), (embed(a), embed(b))]:
        assert localized_mul(u, v) == oracle_localized_mul(u, v)
