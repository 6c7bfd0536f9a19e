"""Exact elimination: kernels, ranks, canonical bases, solving.

`linalg` takes int rows (a `RatMatrix` is int rows over one denominator)
and returns cleared rows (ints, den).  The dense helpers of `oracles`
state matrices as lists of scalars and read results back as Fractions.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the sympy comparison below is optional
    sympy = None

from oracles import (
    canonical_basis,
    cleared_vector,
    dense,
    dense_matrix,
    from_columns,
    matrix_parts,
    mul_vector,
    nullspace,
    rref,
    solutions,
    solve,
    values,
)
from test_stored_form import assert_cleared_row
from weyl1 import (
    W11,
    RatMatrix,
    Window,
    canonical_config,
    centralizer_window,
    compile_recipe,
    kernel,
    linalg,
    rank,
    rat,
    row_basis,
)
from weyl1.linalg import _echelon, _Echelon
from weyl1.serialize import recipe_from_doc


def test_nullspace_trivial_cases():
    assert kernel(dense_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == []
    assert nullspace(dense_matrix([[0, 0, 0], [0, 0, 0]])) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert kernel(RatMatrix([{}, {}], 3)) == [({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 1)]


def test_nullspace_rank_one():
    m = dense_matrix([[1, 2], [2, 4]])
    basis = kernel(m)
    assert basis == [({0: 2, 1: -1}, 2)]  # 1, -1/2: proportional to (-2, 1)
    v = dense(basis[0], 2)
    assert v[0] == 1 and v[1] == rat(-1, 2)
    assert rank(m) == 1


def test_nullspace_resubstitutes_to_zero():
    rng = random.Random(67)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = dense_matrix(
            [[rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        )
        basis = kernel(m)
        for row in basis:
            assert_cleared_row(row)
        for v in nullspace(m):
            assert all(s == 0 for s in mul_vector(m, v))
        assert len(basis) + rank(m) == ncols


def test_rref_is_canonical():
    rows, pivots = rref(dense_matrix([[0, 2, 4], [0, 1, 2], [3, 0, 0]]))
    assert pivots == [0, 1]
    assert rows == [[1, 0, 0], [0, 1, 2]]
    # leading entries are 1 and pivot columns are cleared
    again, _ = rref(dense_matrix(rows))
    assert again == rows
    assert row_basis([{1: 2, 2: 4}, {1: 1, 2: 2}, {0: 3}]) == [({0: 1}, 1), ({1: 1, 2: 2}, 1)]


def test_canonical_basis_is_span_invariant():
    b1 = canonical_basis([[1, 1, 0], [0, 1, 1]], 3)
    b2 = canonical_basis([[1, 2, 1], [2, 3, 1], [1, 1, 0]], 3)
    assert b1 == b2
    assert row_basis([{0: 1, 1: 1}, {1: 1, 2: 1}]) == row_basis(
        [{0: 1, 1: 2, 2: 1}, {0: 2, 1: 3, 2: 1}, {0: 1, 1: 1}]
    )


def test_solve_particular_and_inconsistent():
    a = dense_matrix([[1, 1], [0, 1]])
    assert solve(a, [3, 1]) == [2, 1]
    assert solutions(a, [({0: 3, 1: 1}, 1)]) == [({0: 2, 1: 1}, 1)]
    assert solve(dense_matrix([[1], [0]]), [2, 1]) is None
    # A = [[1, 1], [0, 1]] / 2 and b = (3, 1) / 5 give x = (4/5, 2/5)
    half = RatMatrix([{0: 1, 1: 1}, {1: 1}], 2, 2)
    assert solutions(half, [({0: 3, 1: 1}, 5)]) == [({0: 4, 1: 2}, 5)]


def test_solve_many_is_per_column_consistent():
    rng = random.Random(71)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [rat(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
        ]
        m = dense_matrix(rows)
        rhs = [[rat(rng.randint(-3, 3)) for _ in range(nrows)] for _ in range(3)]
        sols = solutions(m, [cleared_vector(b) for b in rhs])
        for b, s in zip(rhs, sols):
            single = solve(m, b)
            if s is None:
                assert single is None
            else:
                x = dense(s, ncols)
                assert single == x
                assert mul_vector(m, x) == [rat(v) for v in b]


def test_solution_stable_under_extra_columns():
    # appending columns on the right keeps the particular solution
    rows = [[1, 0], [0, 1]]
    wide = [[1, 0, 5], [0, 1, 7]]
    s1 = solutions(dense_matrix(rows), [({0: 2, 1: 3}, 1)])[0]
    s2 = solutions(dense_matrix(wide), [({0: 2, 1: 3}, 1)])[0]
    assert s1 == ({0: 2, 1: 3}, 1)
    assert s2 == ({0: 2, 1: 3}, 1)


def test_matrix_validation():
    import pytest

    with pytest.raises(ValueError):
        dense_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        dense_matrix([[1, 2]], 3)
    assert dense_matrix([], 3).ncols == 3
    m = from_columns([[1, 0], {1: rat(1, 2)}], 2)
    assert (m.sparse, m.ncols, m.den) == ([{0: 2}, {1: 1}], 2, 2)
    assert values(m) == [[1, 0], [0, rat(1, 2)]]
    assert m.nrows == 2 and m.rows == [(2, 0), (0, 1)]  # the numerators
    # the same numerators over another denominator are another matrix
    assert matrix_parts(m) == matrix_parts(RatMatrix([{0: 2}, {1: 1}], 2, 2))
    assert matrix_parts(m) != matrix_parts(RatMatrix([{0: 2}, {1: 1}], 2))


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(2, 4)),
)


@st.composite
def permuted_systems(draw):
    """Dense rows with duplicate and zero rows mixed in, right-hand sides
    (one consistent by construction, the others mostly not) and a
    permutation of the rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    rhs = draw(st.lists(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)),
                        max_size=2))
    rhs.append(mul_vector(dense_matrix(rows), [1] * ncols))
    return rows, ncols, rhs, draw(st.permutations(range(len(rows))))


@settings(max_examples=200, deadline=None)
@given(permuted_systems())
def test_outputs_do_not_depend_on_row_order(system):
    rows, ncols, rhs, perm = system
    shuffled = [rows[i] for i in perm]
    a, b = dense_matrix(rows), dense_matrix(shuffled)
    assert rref(b) == rref(a)
    assert rank(b) == rank(a)
    assert kernel(b) == kernel(a)
    assert canonical_basis(shuffled, ncols) == canonical_basis(rows, ncols)
    sols = solutions(a, [cleared_vector(col) for col in rhs])
    assert solutions(b, [cleared_vector([col[i] for i in perm]) for col in rhs]) == sols
    assert sols[-1] is not None
    # the order rule only saves work: rows inserted as given reach the same RREF
    as_given = _Echelon()
    for row in b.sparse:
        as_given.insert(row)
    assert as_given.cleared_rows() == _echelon(a.sparse).cleared_rows()


def test_order_rule_bounds_elimination_work(monkeypatch):
    # the composite centralizer at cap 16 (231 x 153, kernel of dimension
    # 3) takes 1 665 eliminations with rows inserted by descending lead
    # column and 4 627 with rows inserted as the window lists them
    doc = canonical_config()["endomorphisms"][2]
    e = compile_recipe(recipe_from_doc(doc))
    calls = []
    eliminate = linalg._eliminate

    def counting(row, prow, col):
        calls.append(col)
        return eliminate(row, prow, col)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert len(centralizer_window(e.h, Window(W11, 16))) == 3
    assert len(calls) <= 2000


@st.composite
def sparse_rows_in_any_order(draw):
    """Sparse int rows, duplicates and zero rows among them, with the
    width they live in, in a drawn order."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    sparse = [cleared_vector(row)[0] for row in rows] + [{}]
    return draw(st.permutations(sparse)), ncols


@settings(max_examples=200, deadline=None)
@given(sparse_rows_in_any_order())
def test_echelon_keeps_every_pivot_column_in_its_own_row_only(drawn):
    # rows arrive in any order, as the invariant-subspace echelon feeds
    # them; a new pivot must be cleared from every pivot row that holds it
    rows, ncols = drawn
    ech = _Echelon()
    for row in rows:
        ech.insert(row)
        pivots = set(ech.rows)
        for col, prow in ech.rows.items():
            assert min(prow) == col and prow[col] > 0
            assert pivots & set(prow) == {col}
    got = ech.cleared_rows()
    assert got == _echelon(rows).cleared_rows()
    for row in got:
        assert_cleared_row(row)
    if sympy is not None:
        reduced, pivots = sympy.Matrix([dense((row, 1), ncols) for row in rows]).rref()
        assert sorted(ech.rows) == list(pivots)
        want = [
            [Fraction(int(v.p), int(v.q)) for v in reduced.row(r)] for r in range(len(pivots))
        ]
        assert [dense(row, ncols) for row in got] == want
