"""Weighted degrees, generic weights and the (1,1)-leading form."""

import random

import pytest

from oracles import random_element
from weyl1 import (
    H,
    NEG_INF,
    W11,
    Weight,
    X,
    Y,
    commutator,
    find_generic_weight,
    is_generic,
    monomial,
    weighted_degree,
)
from weyl1.endos import _top


def test_weighted_degree_examples():
    assert weighted_degree(W11, H + X**3) == 3
    assert weighted_degree(W11, H**2) == 4  # H^2 = Y^2X^2 - YX
    assert weighted_degree(Weight(2, 3), Y**2 * X) == 7
    assert weighted_degree(W11, monomial(0, 0, 0)) == NEG_INF


def test_weighted_degree_accepts_arbitrary_integers():
    assert weighted_degree(Weight(2, -1), Y**2 * X) == 3
    assert weighted_degree(Weight(-1, 2), Y**2 * X) == 0


def test_degree_function_axioms():
    rng = random.Random(41)
    for w in (W11, Weight(2, 3)):
        for _ in range(200):
            a = random_element(rng, max_degree=6, max_terms=4)
            b = random_element(rng, max_degree=6, max_terms=4)
            assert weighted_degree(w, a * b) == weighted_degree(w, a) + weighted_degree(w, b)
            s = a + b
            if not s.is_zero():
                assert weighted_degree(w, s) <= max(
                    weighted_degree(w, a), weighted_degree(w, b)
                )
    assert weighted_degree(W11, monomial(0, 0, 7)) == 0  # scalars have degree 0


def test_commutator_degree_inequality():
    rng = random.Random(43)
    for w in (W11, Weight(2, 3)):
        for _ in range(200):
            a = random_element(rng, max_degree=5, max_terms=4)
            b = random_element(rng, max_degree=5, max_terms=4)
            c = commutator(a, b)
            if not c.is_zero():
                assert (
                    weighted_degree(w, c)
                    <= weighted_degree(w, a) + weighted_degree(w, b) - w.rho - w.eta
                )


def test_is_generic():
    assert is_generic(W11, H + X**3)  # unique maximizer (0, 3)
    assert not is_generic(Weight(1, 2), H + Y**3)  # tie at value 3
    assert is_generic(W11, X)
    with pytest.raises(ValueError):
        is_generic(W11, monomial(0, 0, 0))
    with pytest.raises(ValueError):
        is_generic(Weight(0, 1), X + Y)


def test_find_generic_weight_scan_order():
    assert find_generic_weight(H + X**3) == W11
    assert find_generic_weight(H + Y**3) == W11
    assert find_generic_weight(X) == W11
    # Y X^2 + Y^2: ties at (1,1)? values 3 and 2 - no; craft a tie at (1,1)
    a = Y * X**2 + Y**3  # (1,1): 3 vs 3 tie; (1,2): 5 vs 3 generic
    w = find_generic_weight(a)
    assert w == Weight(1, 2)
    assert find_generic_weight(a, bound=1) is None  # bound exhausted


def test_find_generic_weight_always_generic():
    rng = random.Random(53)
    for _ in range(50):
        a = random_element(rng, max_degree=6, max_terms=6)
        w = find_generic_weight(a)
        assert w is not None and is_generic(w, a)


def test_leading_form_is_multiplicative():
    # gr A1 = K[X, Y] is a domain: the (1,1)-leading form of a*b is the
    # top-degree part of the product of the leading forms, generic or not
    # (`endos._cut` and `checks._predicted` rely on it).
    rng = random.Random(59)
    pairs = [(X + Y, X - Y), (H + X**2 + Y**2, Y * X**2 - X * Y**2)]  # ties at (1,1)
    while len(pairs) < 42:
        a = random_element(rng, max_degree=4, max_terms=4)
        b = random_element(rng, max_degree=4, max_terms=4)
        if not (a.is_zero() or b.is_zero()):
            pairs.append((a, b))
    for a, b in pairs:
        va, vb = weighted_degree(W11, a), weighted_degree(W11, b)
        top = _top(a * b, va + vb)
        assert not top.is_zero()
        assert top == _top(_top(a, va) * _top(b, vb), va + vb)


def test_monomials_are_homogeneous():
    rng = random.Random(61)
    for _ in range(20):
        m = monomial(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 9))
        w = Weight(rng.randint(1, 4), rng.randint(1, 4))
        assert is_generic(w, m)
