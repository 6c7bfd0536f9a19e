"""Exact elimination: kernels, ranks, canonical bases, solving."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the sympy comparison below is optional
    sympy = None

from weyl1 import (
    W11,
    RatMatrix,
    Window,
    canonical_basis,
    canonical_config,
    centralizer_window,
    compile_recipe,
    linalg,
    nullspace,
    rank,
    rat,
    rref,
    solve,
)
from weyl1.linalg import _echelon, _Echelon, solve_many
from weyl1.scalars import demote
from weyl1.serialize import recipe_from_doc


def test_nullspace_trivial_cases():
    assert nullspace(RatMatrix.identity(3)) == []
    basis = nullspace(RatMatrix.zeros(2, 3))
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_nullspace_rank_one():
    basis = nullspace(RatMatrix([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == 1 and v[1] == rat(-1, 2)  # proportional to (-2, 1)
    assert rank(RatMatrix([[1, 2], [2, 4]])) == 1


def test_nullspace_resubstitutes_to_zero():
    rng = random.Random(67)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = RatMatrix(
            [[rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        )
        for v in nullspace(m):
            assert all(s == 0 for s in m.mul_vector(v))
        assert len(nullspace(m)) + rank(m) == ncols


def test_rref_is_canonical():
    rows, pivots = rref(RatMatrix([[0, 2, 4], [0, 1, 2], [3, 0, 0]]))
    assert pivots == [0, 1]
    assert rows == [[1, 0, 0], [0, 1, 2]]
    # leading entries are 1 and pivot columns are cleared
    again, _ = rref(RatMatrix(rows))
    assert again == rows


def test_canonical_basis_is_span_invariant():
    b1 = canonical_basis([[1, 1, 0], [0, 1, 1]], 3)
    b2 = canonical_basis([[1, 2, 1], [2, 3, 1], [1, 1, 0]], 3)
    assert b1 == b2


def test_solve_particular_and_inconsistent():
    a = RatMatrix([[1, 1], [0, 1]])
    assert solve(a, [3, 1]) == [2, 1]
    assert solve(RatMatrix([[1], [0]]), [2, 1]) is None


def test_solve_many_is_per_column_consistent():
    rng = random.Random(71)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [rat(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)
        ]
        m = RatMatrix(rows)
        rhs = [[rat(rng.randint(-3, 3)) for _ in range(nrows)] for _ in range(3)]
        sols = solve_many(m.sparse, ncols, rhs)
        for b, s in zip(rhs, sols):
            single = solve(m, b)
            if s is None:
                assert single is None
            else:
                dense = [s.get(j, rat(0)) for j in range(ncols)]
                assert single == dense
                assert m.mul_vector(dense) == [rat(v) for v in b]


def test_solution_stable_under_extra_columns():
    # appending columns on the right keeps the particular solution
    rows = [[1, 0], [0, 1]]
    wide = [[1, 0, 5], [0, 1, 7]]
    s1 = solve_many(RatMatrix(rows).sparse, 2, [[2, 3]])[0]
    s2 = solve_many(RatMatrix(wide).sparse, 3, [[2, 3]])[0]
    assert s1 == {0: 2, 1: 3}
    assert s2 == {0: 2, 1: 3}


def test_matrix_validation():
    import pytest

    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])
    m = RatMatrix.from_columns([[1, 0], [0, 1]], 2)
    assert m.column(0) == [1, 0]


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(2, 4)).map(demote),
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
    rhs.append(RatMatrix(rows).mul_vector([1] * ncols))
    return rows, ncols, rhs, draw(st.permutations(range(len(rows))))


@settings(max_examples=200, deadline=None)
@given(permuted_systems())
def test_outputs_do_not_depend_on_row_order(system):
    rows, ncols, rhs, perm = system
    shuffled = [rows[i] for i in perm]
    a, b = RatMatrix(rows), RatMatrix(shuffled)
    assert rref(b) == rref(a)
    assert rank(b) == rank(a)
    assert nullspace(b) == nullspace(a)
    assert canonical_basis(shuffled, ncols) == canonical_basis(rows, ncols)
    sols = solve_many(a.sparse, ncols, rhs)
    assert solve_many(b.sparse, ncols, [[col[i] for i in perm] for col in rhs]) == sols
    assert sols[-1] is not None
    # the order rule only saves work: rows inserted as given reach the same RREF
    as_given = _Echelon()
    for row in b.sparse:
        as_given.insert(row)
    assert as_given.normalized_rows() == _echelon(a.sparse).normalized_rows()


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
    """Sparse stored-form rows, duplicates and zero rows among them, with
    the width they live in, in a drawn order."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=8))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    sparse = RatMatrix(rows).sparse + [{}]
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
    got = ech.normalized_rows()
    assert got == _echelon(rows).normalized_rows()
    if sympy is not None:
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        reduced, pivots = sympy.Matrix(dense).rref()
        assert sorted(ech.rows) == list(pivots)
        want = [
            {j: demote(Fraction(int(v.p), int(v.q))) for j, v in enumerate(reduced.row(r)) if v}
            for r in range(len(pivots))
        ]
        assert got == want
