"""The cleared form through arithmetic and linalg, property-tested with
hypothesis.

An element holds only its cleared form: nonzero int numerators over
their least positive common denominator.  linalg takes those numerators
as its rows (a matrix carries the lcm of its columns' denominators) and
hands back cleared rows (ints, den), never a Rat or a float.  The public
accessors still return Rat, and products still agree with the rewrite
oracle.  Products, commutators, scalings and linear combinations work
on the int numerators and reduce by one gcd; they are checked against
the oracle and term-by-term Fraction sums on large, pairwise coprime
denominators.  The one-pass commutator is also checked against a*b - b*a
and against the Lie identities it must satisfy.  Linear maps apply
themselves from cleared cached monomial images; that path is checked
against a linear combination of the monomial images, cold and warm.
"""

import copy

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_mul
from oracles import cleared_vector, dense, dense_matrix, solutions
from weyl1 import (
    W11,
    X,
    Y,
    EndoRecipe,
    WeylElement,
    Window,
    add_poly_x,
    add_poly_y,
    apply_endo,
    commutator,
    compile_recipe,
    compose,
    d_xy,
    d_yx,
    delta_xy,
    monomial,
    theta,
)
from weyl1.core import linear_combination, powers
from weyl1.linalg import kernel, rank, row_basis
from weyl1.maps import ad
from weyl1.scalars import Rat, integral
from weyl1.windows import map_matrix

# ints, p/q with q > 1, and integral fractions such as 4/2, which must
# come out as ints
SCALARS = st.one_of(
    st.integers(-12, 12),
    st.fractions(-6, 6, max_denominator=6),
    st.builds(lambda n, q: Fraction(n * q, q), st.integers(-5, 5), st.integers(2, 4)),
)
NONZERO = SCALARS.filter(bool)


def elements(max_degree=3, max_terms=4, scalars=SCALARS):
    key = st.integers(0, max_degree).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, max_degree - i))
    )
    return st.dictionaries(key, scalars, max_size=max_terms).map(WeylElement)


def mixed_elements(max_degree=3, max_terms=4):
    """Elements with rational coefficients or with int coefficients only
    (the int-only ones skip the clearing step of the fraction-free code)."""
    return st.one_of(
        elements(max_degree, max_terms),
        elements(max_degree, max_terms, st.integers(-12, 12)),
    )


TRIANGULAR = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]),)))
# a pair with rational coefficients, so pair-map images need clearing
RATIONAL_PAIR = compile_recipe(EndoRecipe(generators=(
    add_poly_x([0, Fraction(1, 2), Fraction(-2, 3)]), add_poly_y([0, 0, Fraction(3, 4)]),
)))


def over(ints: dict, den: int) -> dict:
    """The values of a cleared map: each numerator over den."""
    return {k: Fraction(v, den) for k, v in ints.items()}


def cleared(a: WeylElement):
    return a._ints, a._den


def assert_cleared(a: WeylElement):
    ints, den = a._ints, a._den
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in ints.values()), ints
    assert gcd(den, *ints.values()) == 1, (ints, den)  # den is 1 for zero


def assert_cleared_row(row, basis=True):
    """A cleared row (ints, den) from linalg; a basis row is primitive and
    its lead is den (its RREF row has a leading 1)."""
    ints, den = row
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in ints.values()), ints
    assert gcd(den, *ints.values()) == 1, row
    if basis:
        assert gcd(*ints.values()) == 1 and ints[min(ints)] == den, row


def assert_public_rat(a: WeylElement):
    assert all(type(c) is Rat for _, c in a.terms())
    assert all(type(a.coefficient(i, j)) is Rat for (i, j) in a.support())
    assert type(a.coefficient(99, 99)) is Rat


def oracle_product(a, b):
    return WeylElement(oracle_mul(dict(a.terms()), dict(b.terms())))


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), SCALARS)
def test_ring_operations_keep_the_stored_form(a, b, c):
    assert_cleared(a)
    assert_public_rat(a)
    for out in (a + b, a - b, -a, a * b, c * a, a * c, commutator(a, b), theta(a)):
        assert_cleared(out)
        assert_public_rat(out)
    assert a * b == oracle_product(a, b)
    assert c * a == a * c == WeylElement({(0, 0): c}) * a


@settings(max_examples=60, deadline=None)
@given(elements(max_degree=2), NONZERO)
def test_scalars_and_accumulator(a, c):
    s = WeylElement({(0, 0): c})
    assert_cleared(s)
    assert s.is_scalar()
    assert type(s.coefficient(0, 0)) is Rat and s.coefficient(0, 0) == c
    combo = linear_combination([(c, a), (-c, a), (1, a)])
    assert combo == a
    assert_cleared(combo)


@settings(max_examples=40, deadline=None)
@given(elements(max_degree=2, max_terms=3))
def test_apply_endo_keeps_the_stored_form(a):
    img = apply_endo(TRIANGULAR, a)
    assert_cleared(img)
    # an endomorphism is multiplicative; check it on a against itself
    assert apply_endo(TRIANGULAR, a * a) == img * img


@settings(max_examples=40, deadline=None)
@given(elements(max_degree=2, max_terms=3))
def test_window_kernels_keep_the_stored_form(a):
    win = Window(W11, 3)
    m = ad(a)
    mat = map_matrix(m, win, win.enlarged(m))
    # the carrier holds nonzero ints and no explicit zeros over the least
    # common denominator of its columns, and its dense view agrees
    entries = [v for row in mat.sparse for v in row.values()]
    assert all(type(v) is int and v for v in entries)
    assert type(mat.den) is int and mat.den >= 1 and gcd(mat.den, *entries) == 1
    assert [{j: v for j, v in enumerate(row) if v} for row in mat.rows] == mat.sparse
    basis = kernel(mat)
    for row in basis + row_basis(mat.sparse):
        assert_cleared_row(row)
    for ints, den in basis:
        u = win.element(ints, den)
        assert_cleared(u)
        assert commutator(a, u).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(SCALARS, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(SCALARS, min_size=4, max_size=4))
def test_solutions_keep_the_stored_form(rows, rhs):
    mat = dense_matrix(rows)
    assert all(type(v) is int and v for row in mat.sparse for v in row.values())
    assert [[Fraction(v, mat.den) for v in row] for row in mat.rows] == rows
    (sol,) = solutions(mat, [cleared_vector(rhs[: len(rows)])])
    if sol is not None:
        assert_cleared_row(sol, basis=False)
        x = dense(sol, 3)
        for row, c in zip(rows, rhs):
            assert sum(row[j] * v for j, v in enumerate(x)) == c


# large primes: every coefficient drawn below gets its own, so all the
# denominators in one example are pairwise coprime
PRIMES = (
    10007, 10009, 65537, 1000003, 1000033, 998244353, 1000000007, 1000000009,
    2147483647, 4294967291, 2305843009213693951, 2**127 - 1,
)


@st.composite
def coprime_elements(draw):
    """Three elements and one spare prime, no denominator used twice."""
    primes = iter(draw(st.permutations(PRIMES)))
    key = st.integers(0, 3).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, 3 - i)))
    out = []
    for _ in range(3):
        keys = draw(st.lists(key, min_size=1, max_size=3, unique=True))
        nums = draw(st.lists(st.integers(-9, 9).filter(bool),
                             min_size=len(keys), max_size=len(keys)))
        out.append(WeylElement({k: Fraction(n, next(primes)) for k, n in zip(keys, nums)}))
    return out, next(primes)


def fraction_sum(pairs):
    acc = {}
    for c, el in pairs:
        for key, v in el.terms():
            acc[key] = acc.get(key, 0) + Fraction(c) * Fraction(v)
    return WeylElement(acc)


@settings(max_examples=80, deadline=None)
@given(coprime_elements(), st.integers(-9, 9))
def test_fraction_free_arithmetic_on_coprime_denominators(drawn, n):
    (a, b, c), p = drawn
    for out, want in (
        (a * b, oracle_product(a, b)),
        (b * a, oracle_product(b, a)),
        (a * a, oracle_product(a, a)),
        (commutator(a, b), oracle_product(a, b) - oracle_product(b, a)),
        (Fraction(n, p) * a, fraction_sum([(Fraction(n, p), a)])),
        (a * n, fraction_sum([(n, a)])),
        (linear_combination([(Fraction(n, p), a), (2, b), (Fraction(1, 3), c)]),
         fraction_sum([(Fraction(n, p), a), (2, b), (Fraction(1, 3), c)])),
    ):
        assert out == want
        assert_cleared(out)


@settings(max_examples=150, deadline=None)
@given(mixed_elements(), mixed_elements())
def test_commutator_is_the_difference_of_both_products(a, b):
    c = commutator(a, b)
    assert c == a * b - b * a
    want = oracle_mul(dict(a.terms()), dict(b.terms()))
    for key, v in oracle_mul(dict(b.terms()), dict(a.terms())).items():
        want[key] = want.get(key, 0) - v
    assert c == WeylElement(want)
    assert_cleared(c)
    assert_public_rat(c)
    assert commutator(b, a) == -c
    assert commutator(a, a).is_zero()


@settings(max_examples=60, deadline=None)
@given(mixed_elements(max_degree=2, max_terms=3), mixed_elements(max_degree=2, max_terms=3),
       mixed_elements(max_degree=2, max_terms=3))
def test_commutator_jacobi_and_leibniz(a, b, c):
    jacobi = (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
              + commutator(c, commutator(a, b)))
    assert jacobi.is_zero()
    assert commutator(a, b * c) == commutator(a, b) * c + b * commutator(a, c)


@settings(max_examples=60, deadline=None)
@given(mixed_elements(), SCALARS)
def test_scalar_operands_commute(a, c):
    s = WeylElement({(0, 0): c})
    for u, v in ((s, a), (a, s), (WeylElement(), a), (a, WeylElement()), (c, a), (a, c)):
        assert cleared(commutator(u, v)) == ({}, 1)
    assert cleared(commutator(Y, X)) == ({(0, 0): 1}, 1)
    assert cleared(commutator(X, Y)) == ({(0, 0): -1}, 1)


@settings(max_examples=40, deadline=None)
@given(mixed_elements(max_degree=2, max_terms=3), st.integers(0, 8))
def test_pow_is_the_last_consecutive_power(a, n):
    p = a**n
    assert p == powers(a, n)[-1]
    assert_cleared(p)


def test_cancelling_denominators_give_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for out, want in (
        ((half * Y) * (2 * X), {(1, 1): 1}),
        (30 * (Fraction(1, 6) * Y + Fraction(1, 10) * X), {(1, 0): 5, (0, 1): 3}),
        ((third * X) * (Fraction(3, 5) * Y * 5), {(1, 1): 1, (0, 0): -1}),
        (linear_combination([(third, X + Y), (Fraction(2, 3), X + Y)]), {(0, 1): 1, (1, 0): 1}),
        (linear_combination([(half, X), (Fraction(-1, 2), X), (third, 3 * Y)]), {(1, 0): 1}),
    ):
        assert out._den == 1 and out._ints == want  # every coefficient an int


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(SCALARS, elements(max_degree=2)), max_size=5))
def test_linear_combination_of_a_one_shot_generator(pairs):
    out = linear_combination((c, el) for c, el in pairs)
    assert out == fraction_sum(pairs)
    assert_cleared(out)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 20), SCALARS, max_size=6))
def test_integral_round_trip(t):
    ints, den = integral(t)
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in ints.values())
    assert set(ints) == {k for k, v in t.items() if v}
    assert over(ints, den) == {k: v for k, v in t.items() if v}
    assert gcd(den, *ints.values()) == 1
    if all(type(v) is int and v for v in t.values()):
        assert ints is t and den == 1


INT_ROWS = st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(INT_ROWS, st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_linalg_leaves_int_input_rows_unchanged(rows, rhs):
    # a dependent row: some input row is always eliminated against a pivot
    rows = rows + [[2 * v for v in rows[0]]]
    assume(any(any(row) for row in rows))
    mat = dense_matrix(rows)
    before = copy.deepcopy(mat.sparse)
    row_basis(mat.sparse)
    assert mat.sparse == before
    kernel(mat)
    assert mat.sparse == before
    rank(mat)
    assert mat.sparse == before
    b = {i: v for i, v in enumerate(rhs[: len(rows)]) if v}
    solutions(mat, [(b, 1), ({0: 1}, 3)])
    assert mat.sparse == before


def _drawn_maps(a, e):
    for make in (ad, d_yx, d_xy, delta_xy):
        make.cache_clear()  # new maps with empty image caches
    return {
        "ad": ad(a),
        "d_yx": d_yx(e),
        "d_xy": d_xy(e),
        "delta_xy": delta_xy(e),
        "compose": compose(ad(a), d_yx(e)),
    }


@settings(max_examples=60, deadline=None)
@given(mixed_elements(max_degree=2, max_terms=3), mixed_elements(max_degree=3, max_terms=4),
       st.sampled_from([TRIANGULAR, RATIONAL_PAIR]))
def test_map_application_is_the_combination_of_its_monomial_images(a, b, e):
    for name, m in _drawn_maps(a, e).items():
        cold = m(b)  # every monomial image is a cache miss here
        warm = m(b)  # and a hit here
        want = linear_combination(
            (c, m(monomial(i, j))) for (i, j), c in b.terms()
        )
        assert cold == warm == want, name
        for out in (cold, warm):
            assert_cleared(out)
            assert_public_rat(out)
        for img in m._cache.values():
            assert_cleared(img)
