"""sympy as an independent oracle for the exact echelon in `linalg` and
the windowed kernels, eigenspaces, solutions, cokernel dimensions, window
slices and invariant subspaces built on it.  Every basis `linalg` hands
back is cleared rows (ints, den): primitive, with lead den, so each row
is its RREF row times den.

sympy is used here only; the module is skipped when it is not installed.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from weyl1 import (  # noqa: E402
    W11,
    EndoRecipe,
    H,
    Weight,
    WeylElement,
    Window,
    X,
    Y,
    ad,
    add_poly_x,
    add_poly_y,
    coker_window_dim,
    commutator,
    compile_recipe,
    delta_xy,
)
from weyl1.linalg import (  # noqa: E402
    RatMatrix,
    _Echelon,
    _echelon,
    _peel,
    kernel,
    rank,
    row_basis,
)
from weyl1.checks import canonical_config  # noqa: E402
from weyl1.serialize import recipe_from_doc  # noqa: E402
from weyl1.windows import (  # noqa: E402
    Coordinates,
    eigenspace,
    invariant_dim,
    map_matrix,
)
from oracles import (  # noqa: E402
    cleared_vector,
    coordinates_solve,
    dense,
    dense_matrix,
    from_columns,
    matrix_parts,
    mul_vector,
    nullspace,
    rref,
    solutions,
    values,
)
from test_endos import _GENERATORS  # noqa: E402
from test_stored_form import assert_cleared_row  # noqa: E402


def _frac(e) -> Fraction:
    return Fraction(int(e.p), int(e.q))


def _sym(rows, ncols) -> "sympy.Matrix":
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(v) for row in rows for v in row])


def _sym_rref_rows(m: "sympy.Matrix"):
    reduced, pivots = m.rref()
    return [[_frac(reduced[r, c]) for c in range(m.cols)] for r in range(len(pivots))], list(pivots)


def _column(mat, j):
    return [row[j] for row in values(mat)]


# ints and p/q with q > 1, zeros weighted up so that products of the
# factors below are sparse as well as deficient
_SCALARS = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)),
)


@st.composite
def deficient_matrices(draw):
    """An up-to-8x10 matrix B*C with inner size below both dimensions."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    inner = draw(st.integers(0, min(nrows, ncols) - 1))
    b = draw(st.lists(st.lists(_SCALARS, min_size=inner, max_size=inner),
                      min_size=nrows, max_size=nrows))
    c = draw(st.lists(st.lists(_SCALARS, min_size=ncols, max_size=ncols),
                      min_size=inner, max_size=inner))
    rows = [
        [sum((Fraction(b[i][k]) * c[k][j] for k in range(inner)), Fraction(0))
         for j in range(ncols)]
        for i in range(nrows)
    ]
    return dense_matrix(rows)


def _check_against_sympy(mat, rhs_columns):
    sym = _sym(values(mat), mat.ncols)
    reduced, pivots = rref(mat)
    want, want_pivots = _sym_rref_rows(sym)
    assert reduced == want and pivots == want_pivots
    assert rank(mat) == len(want_pivots)
    basis = row_basis(mat.sparse)
    for row in basis:
        assert_cleared_row(row)
    assert [dense(row, mat.ncols) for row in basis] == want

    sym_kernel = sym.nullspace()
    if sym_kernel:
        want_kernel, _ = _sym_rref_rows(sympy.Matrix.hstack(*sym_kernel).T)
    else:
        want_kernel = []
    for row in kernel(mat):
        assert_cleared_row(row)
    assert nullspace(mat) == want_kernel

    sols = solutions(mat, [cleared_vector(b) for b in rhs_columns])
    for b, sol in zip(rhs_columns, sols):
        col = sympy.Matrix([sympy.Rational(v) for v in b])
        consistent = sympy.Matrix.hstack(sym, col).rank() == len(want_pivots)
        assert (sol is None) == (not consistent)
        if sol is not None:
            assert_cleared_row(sol, basis=False)
            assert set(sol[0]) <= set(pivots)  # free variables are zero
            assert mul_vector(mat, dense(sol, mat.ncols)) == list(b)

    # the same matrix from sparse {row: value} columns, and the same
    # solutions for right-hand sides over another denominator
    columns = [{i: v for i, v in enumerate(_column(mat, j)) if v} for j in range(mat.ncols)]
    assert matrix_parts(from_columns(columns, mat.nrows)) == matrix_parts(mat)
    scaled = solutions(mat, [(ints, 7 * den) for ints, den in map(cleared_vector, rhs_columns)])
    assert scaled == [
        None if sol is None else cleared_vector([Fraction(v, 7) for v in dense(sol, mat.ncols)])
        for sol in sols
    ]


@settings(deadline=None)
@given(deficient_matrices(), st.data())
def test_echelon_matches_sympy(mat, data):
    xs = data.draw(st.lists(st.lists(_SCALARS, min_size=mat.ncols, max_size=mat.ncols),
                            max_size=2))
    consistent = [mul_vector(mat, x) for x in xs]  # in the column space
    free = data.draw(st.lists(st.lists(_SCALARS, min_size=mat.nrows, max_size=mat.nrows),
                              max_size=2))
    _check_against_sympy(mat, consistent + free)


def test_ad_h_window_matrix_matches_sympy():
    # the composite pair of the canonical verify config
    recipe = EndoRecipe(generators=(add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1])))
    h = compile_recipe(recipe).h
    win = Window(W11, 8)
    mat = map_matrix(ad(h), win, win.enlarged(ad(h)))
    assert mat.nrows > mat.ncols > rank(mat)
    # the constant 1 is outside this window's image, the last column inside
    unit = [1] + [0] * (mat.nrows - 1)
    assert solutions(mat, [cleared_vector(unit)]) == [None]
    _check_against_sympy(mat, [unit, _column(mat, mat.ncols - 1)])


_PEEL_VALUES = st.integers(-4, 4).filter(bool)


@st.composite
def peelable_rows(draw):
    """Sparse int rows biased toward what `_echelon` peels, in a drawn
    order, with the width they live in: singletons (several in one column,
    such as {c: 2} and {c: -3}), bidiagonal chains {c: a}, {c: b, c+1: d},
    ... whose peels cascade from either end, rows that peeling empties,
    empty rows, all-singleton matrices and no rows at all."""
    kind = draw(st.sampled_from(["mixed", "mixed", "mixed", "singletons", "none"]))
    ncols = draw(st.integers(1, 9))
    col = st.integers(0, ncols - 1)
    rows = [{draw(col): draw(_PEEL_VALUES)} for _ in range(draw(st.integers(0, 3)))]
    if rows and draw(st.booleans()):  # a second singleton in a peeled column
        (c,) = draw(st.sampled_from(rows))
        rows.append({c: draw(_PEEL_VALUES)})
    if kind == "mixed":
        for _ in range(draw(st.integers(0, 2))):
            start = draw(col)
            stop = draw(st.integers(start, ncols - 1))
            ends = (start, stop) if draw(st.booleans()) else (stop, start)
            step = 1 if ends[1] >= ends[0] else -1
            rows.append({ends[0]: draw(_PEEL_VALUES)})
            rows += [{c: draw(_PEEL_VALUES), c + step: draw(_PEEL_VALUES)}
                     for c in range(ends[0], ends[1], step)]
        wide = st.dictionaries(col, _PEEL_VALUES, min_size=min(ncols, 2), max_size=4)
        rows += draw(st.lists(wide, min_size=1, max_size=5)) + [{}]
    elif kind == "none":
        rows = []
    return draw(st.permutations(rows)), ncols


def _assert_echelon_invariants(ech):
    assert ech._cols == sorted(ech.rows)
    for col, row in ech.rows.items():
        assert min(row) == col and row[col] > 0
        assert gcd(*row.values()) == 1
        assert set(row) & set(ech.rows) == {col}


@settings(deadline=None, max_examples=300)
@given(peelable_rows(), st.lists(st.dictionaries(st.integers(0, 8), _PEEL_VALUES, max_size=4),
                                 max_size=3))
def test_peeled_echelon_matches_sympy(drawn, probes):
    rows, ncols = drawn
    before = [dict(row) for row in rows]
    ech = _echelon(rows)
    assert rows == before  # the input rows are only read
    _assert_echelon_invariants(ech)
    # peeling leaves no singleton and no peeled column in the rows it
    # passes on, and each peeled column is a unit row of the RREF
    peeled, rest = _peel(rows)
    assert all(len(row) > 1 and not set(row) & set(peeled) for row in rest)

    sym = _sym([dense((row, 1), ncols) for row in rows], ncols)
    want, pivots = _sym_rref_rows(sym)
    assert sorted(ech.rows) == pivots
    assert all(dense(({c: 1}, 1), ncols) in want for c in peeled)
    mat = RatMatrix(rows, ncols)
    assert rank(mat) == len(pivots)
    assert [dense(row, ncols) for row in row_basis(rows)] == want
    sym_kernel = sym.nullspace()
    want_kernel = _sym_rref_rows(sympy.Matrix.hstack(*sym_kernel).T)[0] if sym_kernel else []
    assert [dense(row, ncols) for row in kernel(mat)] == want_kernel

    # the echelon reduces as one built by plain inserts in the given order
    plain = _Echelon()
    for row in rows:
        plain.insert(row)
    assert ech.cleared_rows() == plain.cleared_rows()
    for probe in probes + rows:
        assert ech.reduce(probe) == plain.reduce(probe)


def _sym_rank(elems) -> int:
    """Rank of the coefficient vectors of elems over their joint support."""
    keys = sorted({key for el in elems for key, _ in el.terms()})
    rows = [[dict(el.terms()).get(key, 0) for key in keys] for el in elems]
    return _sym(rows, len(keys)).rank() if rows and keys else 0


_SMALL_ELEMENTS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    max_size=3,
).map(WeylElement)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(_SMALL_ELEMENTS, max_size=4),
    st.lists(_SMALL_ELEMENTS, max_size=3),
    st.sampled_from(["ad_h", "delta"]),
)
def test_coker_of_spanning_sets_matches_sympy(src, extras, which):
    e = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]),)))
    m = ad(e.h) if which == "ad_h" else delta_xy(e)
    imgs = [m(u) for u in src]
    tgt = imgs
    if extras:  # a target spanning set that holds the images without listing them
        tgt = extras + [img + extras[k % len(extras)] for k, img in enumerate(imgs)]
    expect = _sym_rank(tgt) - _sym_rank(imgs)
    assert coker_window_dim(m, src, tgt) == expect


# few monomials, so that parts outside a window often cancel in a combination
_POOLED_ELEMENTS = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (0, 3), (2, 2), (4, 0)]),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    max_size=3,
).map(WeylElement)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_POOLED_ELEMENTS, max_size=7),
    st.sampled_from([W11, Weight(1, 2), Weight(2, 1)]),
    st.integers(0, 4),
)
def test_window_meet_matches_sympy(elems, weight, cap):
    # span(elems) meet the window, as U.lam over the kernel of [U | -V]
    # where V holds the window's unit vectors; then RREF in window order
    win = Window(weight, cap)
    keys = list(win.monomials) + sorted(
        {key for el in elems for key in el.support()} - set(win.monomials)
    )
    u = sympy.Matrix(len(keys), len(elems), lambda r, c: sympy.Rational(
        elems[c].coefficient(*keys[r])))
    v = sympy.Matrix(len(keys), len(win.monomials), lambda r, c: int(r == c))
    meet = [u * lam[: len(elems), :] for lam in sympy.Matrix.hstack(u, -v).nullspace()]
    if meet:
        assert all(vec[r] == 0 for vec in meet for r in range(len(win.monomials), len(keys)))
        want, _ = _sym_rref_rows(sympy.Matrix.hstack(*meet)[: len(win.monomials), :].T)
    else:
        want = []
    got = [[b.coefficient(*key) for key in win.monomials] for b in win.meet(elems)]
    assert got == want


def _sym_columns(cols, monomials) -> "sympy.Matrix":
    """The coefficients of cols at monomials, one column per element."""
    return sympy.Matrix(len(monomials), len(cols), lambda r, c: sympy.Rational(
        cols[c].coefficient(*monomials[r])))


def _coefficient_rows(elems, monomials):
    return [[u.coefficient(*key) for key in monomials] for u in elems]


# coefficients with denominators up to 6, so the columns of one matrix
# carry different ones
_RATIONAL_ELEMENTS = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]),
    st.fractions(-4, 4, max_denominator=6).filter(bool),
    max_size=4,
).map(WeylElement)


@settings(deadline=None, max_examples=80)
@given(st.lists(_RATIONAL_ELEMENTS, min_size=1, max_size=7))
def test_kernel_of_columns_with_denominators_matches_sympy(cols):
    # the int matrix carries L, the lcm of the columns' denominators
    co = Coordinates(cols)
    mat = co.matrix(cols)
    assert mat.den == lcm(*(el._den for el in cols))
    assert all(type(v) is int and v for row in mat.sparse for v in row.values())
    got = kernel(mat)
    for row in got:
        assert_cleared_row(row)
    sym_kernel = _sym_columns(cols, co.monomials).nullspace()
    want = _sym_rref_rows(sympy.Matrix.hstack(*sym_kernel).T)[0] if sym_kernel else []
    assert [dense(row, len(cols)) for row in got] == want


@settings(deadline=None, max_examples=60)
@given(
    st.fractions(-3, 3, max_denominator=4).filter(lambda c: c.denominator > 1),
    st.integers(-3, 3),
    st.one_of(st.just(WeylElement()), _POOLED_ELEMENTS),
    st.integers(0, 4),
)
def test_eigenspace_at_a_fractional_shift_matches_sympy(c, k, extra, cap):
    # ad(c H) has eigenvalue c (j - i) at Y^i X^j, so lam = c k is a
    # fractional eigenvalue whenever |k| <= cap; extra perturbs a
    a = c * H + extra
    lam = c * k
    win = Window(W11, cap)
    tgt = win.enlarged(ad(a))
    shifted = [commutator(a, u) - lam * u for u in win.basis_elements()]
    sym_kernel = _sym_columns(shifted, tgt.monomials).nullspace()
    want = _sym_rref_rows(sympy.Matrix.hstack(*sym_kernel).T)[0] if sym_kernel else []
    got = eigenspace(a, lam, win)
    assert _coefficient_rows(got, win.monomials) == want
    if extra.is_zero() and abs(k) <= cap:
        assert got


@settings(deadline=None, max_examples=60)
@given(st.lists(_RATIONAL_ELEMENTS, min_size=1, max_size=5),
       st.lists(_RATIONAL_ELEMENTS, min_size=1, max_size=3), st.data())
def test_solve_with_denominators_matches_sympy(space, elems, data):
    # half the right-hand sides lie in span(space) by construction
    elems += [
        sum((Fraction(n, 5) * u for n, u in zip(data.draw(st.lists(
            st.integers(-3, 3), min_size=len(space), max_size=len(space))), space)),
            WeylElement())
        for _ in elems
    ]
    co = Coordinates(space, elems)
    sols = coordinates_solve(co, space, elems)
    a_sym = _sym_columns(space, co.monomials)
    for el, sol in zip(elems, sols):
        b = _sym_columns([el], co.monomials)
        try:
            x, params = a_sym.gauss_jordan_solve(b)
        except ValueError:  # b lies outside the column space
            assert sol is None
            continue
        # the particular solution with the free variables zero
        x = x.subs({t: 0 for t in params})
        assert sol is not None
        assert_cleared_row(sol, basis=False)
        assert dense(sol, len(space)) == [_frac(v) for v in x]


def _sym_invariant_dim(a, win) -> int:
    """Dimension of the largest ad(a)-invariant subspace of the window, by
    V_0 = W, V_(k+1) = {u in V_k : ad(a) u in V_k} until it stops shrinking.

    V_k is the column span of B in window coordinates; u = B c lies in
    V_(k+1) when A B c = E B d for some d, where A is the ad(a) matrix into
    the enlarged window and E embeds the window's coordinates there.
    """
    m = ad(a)
    tgt = win.enlarged(m)
    mat = map_matrix(m, win, tgt)
    a_sym = _sym(values(mat), mat.ncols)
    embed = sympy.Matrix(
        tgt.dimension(), win.dimension(),
        lambda r, c: int(tgt.monomials[r] == win.monomials[c]),
    )
    basis = sympy.eye(win.dimension())
    while basis.cols:
        kernel = sympy.Matrix.hstack(a_sym * basis, -embed * basis).nullspace()
        if not kernel:
            return 0
        inner = sympy.Matrix.hstack(*[basis * vec[: basis.cols, :] for vec in kernel])
        if inner.rank() == basis.cols:
            break
        basis = sympy.Matrix.hstack(*inner.columnspace())
    return basis.cols


_CANONICAL_H = {
    doc["name"]: compile_recipe(recipe_from_doc(doc)).h
    for doc in canonical_config()["endomorphisms"]
}
_CANONICAL_INVARIANT_DIMS = {  # by cap: identity, triangular-x2, composite
    6: (28, 16, 6),
    8: (45, 25, 9),
}


@pytest.mark.parametrize("cap", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("name", list(_CANONICAL_H))
def test_invariant_dim_of_the_canonical_h_matches_sympy(name, cap):
    win = Window(W11, cap)
    h = _CANONICAL_H[name]
    got = invariant_dim(h, win)
    assert got == _sym_invariant_dim(h, win)
    if cap in _CANONICAL_INVARIANT_DIMS:
        assert got == _CANONICAL_INVARIANT_DIMS[cap][list(_CANONICAL_H).index(name)]


def test_invariant_dim_of_an_invariant_window_matches_sympy():
    # ad(X^2 + Y^2) keeps the (1,1) degree, so the whole window is invariant
    win = Window(W11, 5)
    a = X**2 + Y**2
    assert invariant_dim(a, win) == win.dimension()
    assert _sym_invariant_dim(a, win) == win.dimension()


@settings(deadline=None, max_examples=15)
@given(
    st.lists(_GENERATORS, min_size=1, max_size=3),
    st.sampled_from([W11, Weight(1, 2), Weight(2, 1)]),
    st.integers(0, 3),
)
def test_invariant_dim_of_a_drawn_recipe_matches_sympy(gens, weight, cap):
    h = compile_recipe(EndoRecipe(generators=tuple(gens))).h
    win = Window(weight, cap)
    assert invariant_dim(h, win) == _sym_invariant_dim(h, win)
