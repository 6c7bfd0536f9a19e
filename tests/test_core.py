"""Normal-form arithmetic: oracle agreement, ring axioms, symmetries."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_mul, random_element, random_terms
from weyl1 import (
    H,
    ONE,
    X,
    Y,
    ZERO,
    UnverifiedEndoError,
    WeylElement,
    apply_endo,
    build_endo,
    commutator,
    identity_endo,
    monomial,
    mul,
    rat,
    scalar,
    theta,
    theta_prime,
)
from weyl1.core import _bracket_coeffs, _reorder, powers


def test_additive_identity_and_cancellation():
    assert X + ZERO == X
    assert X + (-1) * X == ZERO
    assert (X + (-1) * X).is_zero()


def test_add_normalizes_mixed_orders():
    # YX plus the normal form of XY collapses to 2YX - 1
    assert H + X * Y == 2 * H - ONE


def test_mul_forced_by_relation():
    assert X * Y == H - ONE
    assert commutator(Y, X) == ONE


def test_mul_iterated_rewrites():
    assert X**2 * Y**2 == Y**2 * X**2 - 4 * H + 2
    # y^2 x^2 = h(h+1) forces H^2 = Y^2X^2 - YX
    assert H * H == Y**2 * X**2 - H
    assert Y**2 * X**2 == H * (H + 1)


def test_mul_matches_rewrite_oracle_small_grid():
    for b in range(9):
        for c in range(9):
            got = mul(monomial(0, b), monomial(c, 0))
            want = WeylElement(oracle_mul({(0, b): 1}, {(c, 0): 1}))
            assert got == want, (b, c)


def test_mul_matches_oracle_on_random_elements():
    rng = random.Random(101)
    for _ in range(40):
        ta = random_terms(rng)
        tb = random_terms(rng)
        got = WeylElement(ta) * WeylElement(tb)
        assert got == WeylElement(oracle_mul(ta, tb))


# terms of every shape the product and bracket loops tell apart: a pair
# with X^0 or Y^0 in the middle on both sides commutes, one with it on one
# side has a single reordering side, and two mixed terms have both
_TERM_KEYS = st.one_of(
    st.tuples(st.integers(1, 4), st.just(0)),  # pure Y
    st.tuples(st.just(0), st.integers(1, 4)),  # pure X
    st.just((0, 0)),  # constant
    st.tuples(st.integers(1, 3), st.integers(1, 3)),  # mixed
)
_TERM_COEFFS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
_ELEMENTS = st.dictionaries(_TERM_KEYS, _TERM_COEFFS, max_size=5).map(WeylElement)


def _oracle_table(a):
    return dict(a.terms())


@settings(max_examples=200, deadline=None)
@given(_ELEMENTS, _ELEMENTS)
@example(Y**2 + 3, Y**3 - rat(1, 2))  # every pair commutes
@example(X**2 + 2 * Y, Y**3 + rat(2, 3) * X)  # one side per pair
@example(Y * X**2 - rat(1, 2) * Y**2 * X, 5 * Y**2 * X**3)  # both sides
@example(H, H)  # both sides, and their difference vanishes
@example(Y**2 * X**2, Y**2 * X**2)
@example(H, Y**2 * X**2)  # so does this one: Y^2 X^2 = H (H + 1)
def test_product_and_bracket_match_the_rewrite_oracle(a, b):
    ta, tb = _oracle_table(a), _oracle_table(b)
    ab, ba = oracle_mul(ta, tb), oracle_mul(tb, ta)
    assert a * b == WeylElement(ab)
    bracket = WeylElement(ab) - WeylElement(ba)
    assert commutator(a, b) == bracket
    assert commutator(b, a) == -bracket


def test_bracket_coeffs_are_the_differences_of_the_reorder_table():
    # m_k(j1, i2) - m_k(j2, i1) for k >= 1, the shorter side padded by 0
    for j1, i2, j2, i1 in itertools.product(range(1, 5), repeat=4):
        left, right = _reorder(j1, i2), _reorder(j2, i1)
        width = max(len(left), len(right))
        want = [
            (left[k] if k < len(left) else 0) - (right[k] if k < len(right) else 0)
            for k in range(1, width)
        ]
        assert list(_bracket_coeffs(j1, i2, j2, i1)) == want
    assert _bracket_coeffs(1, 1, 1, 1) == (0,)  # [YX, YX] = 0
    assert callable(_bracket_coeffs.cache_clear)


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a = random_element(rng, max_degree=5, max_terms=3)
        b = random_element(rng, max_degree=5, max_terms=3)
        c = random_element(rng, max_degree=5, max_terms=3)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    assert mul(a, ONE) == a
    assert mul(ONE, a) == a


def test_commutator_basics():
    rng = random.Random(3)
    a = random_element(rng)
    assert commutator(a, a) == ZERO
    assert commutator(H, X) == X  # [h, u] = i*u on the component of X
    assert commutator(H, X**2) == 2 * X**2


def test_pow():
    assert X**0 == ONE
    assert (Y + X) ** 3 == (Y + X) * (Y + X) * (Y + X)
    with pytest.raises(ValueError):
        X ** (-1)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_powers_are_consecutive_powers(n):
    for a in (X, Y + X, rat(1, 2) * H - 3):
        ps = powers(a, n)
        assert len(ps) == n + 1
        assert all(ps[k] == a**k for k in range(n + 1))
    assert powers(X, -1) == []


def test_theta_values():
    assert theta(H) == -H + 1
    assert theta_prime(H) == H
    assert theta(theta(X)) == -X
    assert theta(X) == Y and theta(Y) == -X
    assert theta_prime(X) == Y and theta_prime(Y) == X


def test_theta_is_multiplicative_theta_prime_reverses():
    rng = random.Random(11)
    for _ in range(50):
        a = random_element(rng, max_degree=3)
        b = random_element(rng, max_degree=3)
        assert theta(a * b) == theta(a) * theta(b)
        assert theta_prime(a * b) == theta_prime(b) * theta_prime(a)


def test_theta_involution_structure():
    rng = random.Random(13)
    for _ in range(25):
        a = random_element(rng, max_degree=3)
        assert theta(theta(theta(theta(a)))) == a
        assert theta_prime(theta_prime(a)) == a


def test_build_endo():
    assert build_endo(X, Y).verified
    assert build_endo(X, Y + X**2).verified
    rejected = build_endo(X, X)
    assert not rejected.verified
    assert rejected.defect == ZERO  # [X, X] = 0, kept for diagnosis


def test_apply_endo_examples():
    e = build_endo(X, Y + X**2)
    assert apply_endo(e, H) == H + X**3
    assert apply_endo(e, commutator(Y, X)) == ONE
    ident = identity_endo()
    rng = random.Random(17)
    a = random_element(rng)
    assert apply_endo(ident, a) == a


def test_apply_endo_refuses_unverified():
    with pytest.raises(UnverifiedEndoError):
        apply_endo(build_endo(X, X), Y)


def test_apply_endo_is_a_homomorphism():
    rng = random.Random(19)
    composite = build_endo(X + Y**2, Y + (X + Y**2) ** 2)
    assert composite.verified
    for e in (identity_endo(), build_endo(X, Y + X**2), composite):
        for _ in range(20):
            a = random_element(rng, max_degree=4, max_terms=3)
            b = random_element(rng, max_degree=4, max_terms=3)
            assert apply_endo(e, a * b) == apply_endo(e, a) * apply_endo(e, b)
            assert apply_endo(e, a + b) == apply_endo(e, a) + apply_endo(e, b)


def test_canonical_representation():
    a = WeylElement({(1, 1): rat(1, 2), (0, 0): 0})
    assert a.support() == {(1, 1)}
    assert WeylElement({}) == ZERO
    assert hash(H + ONE) == hash(ONE + H)
    assert scalar(0) == ZERO
    with pytest.raises(ValueError):
        WeylElement({(-1, 0): 1})


def test_scalar_queries():
    assert scalar(5).is_scalar()
    assert scalar(5).scalar_value() == 5
    assert not (X + ONE).is_scalar()
    with pytest.raises(ValueError):
        (X + ONE).scalar_value()
