"""Stored form of scalars, property-tested with hypothesis.

Every coefficient an element stores, and every entry the echelon code
hands back, is an int when it is integral and a Rat with denominator > 1
otherwise, never a float.  The public accessors still return Rat, and
products still agree with the rewrite oracle.  Products, commutators,
scalings and linear combinations clear denominators to ints and divide
back once (`scalars.integral` / `over`); they are checked against the
oracle and term-by-term Fraction sums on large, pairwise coprime
denominators.  The one-pass commutator is also checked against a*b - b*a
and against the Lie identities it must satisfy.
"""

import copy

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_mul
from weyl1 import (
    W11,
    X,
    Y,
    EndoRecipe,
    WeylElement,
    Window,
    add_poly_x,
    apply_endo,
    commutator,
    compile_recipe,
    nullspace,
    rref,
    theta,
)
from weyl1.core import linear_combination, powers
from weyl1.linalg import RatMatrix, rank, solve_many
from weyl1.maps import ad
from weyl1.scalars import Rat, integral, over
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


def stored(c) -> bool:
    if type(c) is int:
        return True
    return isinstance(c, Rat) and c.denominator > 1


def assert_stored(a: WeylElement):
    assert all(stored(c) for c in a._terms.values()), a._terms


def assert_public_rat(a: WeylElement):
    assert all(type(c) is Rat for _, c in a.terms())
    assert all(type(a.coefficient(i, j)) is Rat for (i, j) in a.support())
    assert type(a.coefficient(99, 99)) is Rat


def oracle_product(a, b):
    return WeylElement(oracle_mul(dict(a.terms()), dict(b.terms())))


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), SCALARS)
def test_ring_operations_keep_the_stored_form(a, b, c):
    assert_stored(a)
    assert_public_rat(a)
    for out in (a + b, a - b, -a, a * b, c * a, a * c, commutator(a, b), theta(a)):
        assert_stored(out)
        assert_public_rat(out)
    assert a * b == oracle_product(a, b)
    assert c * a == a * c == WeylElement({(0, 0): c}) * a


@settings(max_examples=60, deadline=None)
@given(elements(max_degree=2), NONZERO)
def test_scalars_and_accumulator(a, c):
    s = WeylElement({(0, 0): c})
    assert_stored(s)
    assert type(s.scalar_value()) is Rat and s.scalar_value() == c
    combo = linear_combination([(c, a), (-c, a), (1, a)])
    assert combo == a
    assert_stored(combo)


@settings(max_examples=40, deadline=None)
@given(elements(max_degree=2, max_terms=3))
def test_apply_endo_keeps_the_stored_form(a):
    img = apply_endo(TRIANGULAR, a)
    assert_stored(img)
    # an endomorphism is multiplicative; check it on a against itself
    assert apply_endo(TRIANGULAR, a * a) == img * img


@settings(max_examples=40, deadline=None)
@given(elements(max_degree=2, max_terms=3))
def test_window_kernels_keep_the_stored_form(a):
    win = Window(W11, 3)
    m = ad(a)
    mat = map_matrix(m, win, win.enlarged(m))
    # the carrier holds no explicit zeros, and its dense view agrees
    assert all(v and stored(v) for row in mat.sparse for v in row.values())
    assert all(stored(v) for row in mat.rows for v in row if v)
    assert [{j: v for j, v in enumerate(row) if v} for row in mat.rows] == mat.sparse
    kernel = nullspace(mat)
    assert all(stored(v) for vec in kernel for v in vec if v)
    dense, _ = rref(mat)
    assert all(stored(v) for row in dense for v in row if v)
    for vec in kernel:
        u = win.element(vec)
        assert_stored(u)
        assert commutator(a, u).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(SCALARS, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(SCALARS, min_size=4, max_size=4))
def test_solutions_keep_the_stored_form(rows, rhs):
    mat = RatMatrix(rows)
    assert all(v and stored(v) for row in mat.sparse for v in row.values())
    assert mat.rows == [tuple(row) for row in rows]
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    (sol,) = solve_many(sparse, 3, [rhs[: len(rows)]])
    if sol is not None:
        assert all(stored(v) for v in sol.values())
        for row, b in zip(rows, rhs):
            assert sum(row[j] * v for j, v in sol.items()) == b


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
        assert_stored(out)


@settings(max_examples=150, deadline=None)
@given(mixed_elements(), mixed_elements())
def test_commutator_is_the_difference_of_both_products(a, b):
    c = commutator(a, b)
    assert c == a * b - b * a
    want = oracle_mul(dict(a.terms()), dict(b.terms()))
    for key, v in oracle_mul(dict(b.terms()), dict(a.terms())).items():
        want[key] = want.get(key, 0) - v
    assert c == WeylElement(want)
    assert_stored(c)
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
        assert commutator(u, v)._terms == {}
    assert commutator(Y, X)._terms == {(0, 0): 1}
    assert commutator(X, Y)._terms == {(0, 0): -1}


@settings(max_examples=40, deadline=None)
@given(mixed_elements(max_degree=2, max_terms=3), st.integers(0, 8))
def test_pow_is_the_last_consecutive_power(a, n):
    p = a**n
    assert p == powers(a, n)[-1]
    assert_stored(p)


def test_cancelling_denominators_give_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for out, want in (
        ((half * Y) * (2 * X), {(1, 1): 1}),
        (30 * (Fraction(1, 6) * Y + Fraction(1, 10) * X), {(1, 0): 5, (0, 1): 3}),
        ((third * X) * (Fraction(3, 5) * Y * 5), {(1, 1): 1, (0, 0): -1}),
        (linear_combination([(third, X + Y), (Fraction(2, 3), X + Y)]), {(0, 1): 1, (1, 0): 1}),
        (linear_combination([(half, X), (Fraction(-1, 2), X), (third, 3 * Y)]), {(1, 0): 1}),
    ):
        assert out._terms == want
        assert all(type(v) is int for v in out._terms.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(SCALARS, elements(max_degree=2)), max_size=5))
def test_linear_combination_of_a_one_shot_generator(pairs):
    out = linear_combination((c, el) for c, el in pairs)
    assert out == fraction_sum(pairs)
    assert_stored(out)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 20), SCALARS, max_size=6))
def test_integral_round_trip(t):
    ints, den = integral(t)
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in ints.values())
    assert set(ints) == {k for k, v in t.items() if v}
    assert over(ints, den) == {k: v for k, v in t.items() if v}
    assert all(stored(v) for v in over(ints, den).values())
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
    mat = RatMatrix(rows)
    before = copy.deepcopy(mat.sparse)
    rref(mat)
    assert mat.sparse == before
    nullspace(mat)
    assert mat.sparse == before
    rank(mat)
    assert mat.sparse == before
    solve_many(mat.sparse, 4, [rhs[: len(rows)], {0: 1}])
    assert mat.sparse == before
