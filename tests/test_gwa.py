"""Graded decomposition, localization, and the cusp example."""

import random

import pytest

from oracles import oracle_poly_shift, poly, random_element
from weyl1 import (
    H,
    NEG_INF,
    ONE,
    X,
    Y,
    commutator,
    embed,
    from_graded,
    graded_component,
    graded_degree,
    graded_degree_minus,
    in_A1,
    localized_mul,
    monomial,
    ratfun,
    supp_monoid,
    to_graded,
)
from weyl1.gwa import (
    GradedElement,
    LocalizedElement,
    POLY_ONE,
    _divmod,
    _gcd,
    _shift,
    poly_str,
)


def test_to_graded_landings():
    g = to_graded(Y**2 * X**2)
    assert g.components == {0: poly([0, 1, 1])}  # H(H+1) = H + H^2
    g = to_graded(Y * X**2)
    assert g.components == {1: poly([0, 1])}  # H
    g = to_graded(X)
    assert g.components == {1: POLY_ONE}
    g = to_graded(Y**2 * X)  # i > j branch: (H+1) Y
    assert g.components == {-1: poly([1, 1])}


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(200):
        a = random_element(rng, max_degree=8, max_terms=5)
        assert from_graded(to_graded(a)) == a
    assert from_graded(to_graded(monomial(0, 0, 0))) == monomial(0, 0, 0)


def test_graded_product_is_ring_isomorphism():
    rng = random.Random(29)
    for _ in range(40):
        a = random_element(rng, max_degree=4, max_terms=3)
        b = random_element(rng, max_degree=4, max_terms=3)
        assert localized_mul(embed(a), embed(b)) == embed(a * b)


def test_graded_degrees():
    assert graded_degree(X + Y) == 1
    assert graded_degree_minus(X + Y) == 1
    assert graded_degree(H**3) == 0
    assert graded_degree(Y * X**2) == 1
    assert graded_degree(monomial(0, 0, 0)) == NEG_INF
    assert graded_degree_minus(monomial(0, 0, 0)) == NEG_INF


def test_graded_degree_axioms():
    rng = random.Random(31)
    for _ in range(100):
        a = random_element(rng, max_degree=5, max_terms=3)
        b = random_element(rng, max_degree=5, max_terms=3)
        assert graded_degree(a * b) == graded_degree(a) + graded_degree(b)
        s = a + b
        if not s.is_zero():
            assert graded_degree(s) <= max(graded_degree(a), graded_degree(b))


def test_supp_monoid():
    assert supp_monoid({ONE, H, H**2}) == {0}
    assert supp_monoid({X, X**2}) == {1, 2}
    assert supp_monoid({monomial(0, 0, 0)}) == set()


def test_sigma_twist():
    rng = random.Random(37)
    got = localized_mul(embed(X), embed(H))
    assert got == graded_component(1, ratfun([-1, 1]))  # (H-1) X
    for _ in range(20):
        coeffs = [rat_ for rat_ in (rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))]
        if not any(coeffs):
            coeffs.append(1)
        p = poly(coeffs)
        p_elem = from_graded(GradedElement({0: p}))
        lhs = localized_mul(embed(X), embed(p_elem))
        rhs = LocalizedElement({1: ratfun(oracle_poly_shift(p, 1))})
        assert lhs == rhs


@pytest.fixture
def cusp_w():
    # w = H (H-1)^{-1} (H-2) X, which lies outside the plain algebra
    return graded_component(1, ratfun([0, -2, 1], [-1, 1]))


def test_example_w_not_in_A1(cusp_w):
    ok, witness = in_A1(cusp_w)
    assert not ok and witness is None


def test_example_w_squared(cusp_w):
    w2 = localized_mul(cusp_w, cusp_w)
    assert w2 == graded_component(2, ratfun([0, -3, 1]))  # H(H-3) X^2
    ok, witness = in_A1(w2)
    assert ok
    assert witness == Y**2 * X**4 - 4 * Y * X**3


def test_example_w_powers_and_eigen_relations(cusp_w):
    eH = embed(H)
    wi = cusp_w
    degrees = set()
    for i in range(2, 7):
        wi = localized_mul(wi, cusp_w)
        ok, witness = in_A1(wi)
        assert ok, f"w^{i} should lie in the algebra"
        bracket = localized_mul(eH, wi) - localized_mul(wi, eH)
        assert bracket == LocalizedElement(
            {n: ratfun([i * c for c in f.num], f.den) for n, f in wi.components.items()}
        )
        assert commutator(H, witness) == i * witness
        degrees.add(graded_degree(witness))
    assert degrees == {2, 3, 4, 5, 6}


def test_in_A1_trivial_cases():
    assert in_A1(LocalizedElement({})) == (True, monomial(0, 0, 0))
    ok, witness = in_A1(embed(H**2 + X))
    assert ok and witness == H**2 + X


def test_localized_contraction_both_signs():
    # X * Y = H - 1 and Y * X = H via the one-letter steps
    assert localized_mul(embed(X), embed(Y)) == embed(H - 1)
    assert localized_mul(embed(Y), embed(X)) == embed(H)


def test_poly_helpers():
    p = [-2, 1, 1]  # (H+2)(H-1)
    assert _divmod(p, [2, 1]) == ([-1, 1], [], 1)
    assert _gcd(p, [2, 1]) == [2, 1]
    assert _gcd([4, 2], [6, 3]) == [2, 1]  # primitive
    assert _shift([0, 0, 1], 1) == [1, -2, 1]  # (H-1)^2
    assert poly_str([0, 1, 1], 1) == "H + H^2"
    assert poly_str([-3, 0, 2], 6) == "-1/2 + 1/3*H^2"
    assert poly_str((), 1) == "0"


def test_ratfun_canonical():
    f = ratfun(poly([0, 2]), poly([0, 0, 4]))  # 2H / 4H^2 = (1/2)/H
    assert f.den == poly([0, 1])
    assert f.num == poly(["1/2"])
    with pytest.raises(ZeroDivisionError):
        ratfun(poly([1]), poly([]))
