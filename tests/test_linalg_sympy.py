"""sympy as an independent oracle for the exact echelon in `linalg` and
the windowed cokernel dimensions, window slices and invariant subspaces
built on it.

sympy is used here only; the module is skipped when it is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from weyl1 import (  # noqa: E402
    W11,
    EndoRecipe,
    Weight,
    WeylElement,
    Window,
    X,
    Y,
    ad,
    add_poly_x,
    add_poly_y,
    coker_window_dim,
    compile_recipe,
    delta_xy,
)
from weyl1.linalg import (  # noqa: E402
    RatMatrix,
    canonical_basis,
    nullspace,
    rank,
    rref,
    solve_many,
)
from weyl1.scalars import demote  # noqa: E402
from weyl1.checks import canonical_config  # noqa: E402
from weyl1.serialize import recipe_from_doc  # noqa: E402
from weyl1.windows import _ad_window_matrix, _invariant_dim, map_matrix  # noqa: E402
from test_endos import _GENERATORS  # noqa: E402


def _frac(e) -> Fraction:
    return Fraction(int(e.p), int(e.q))


def _sym(rows, ncols) -> "sympy.Matrix":
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(v) for row in rows for v in row])


def _sym_rref_rows(m: "sympy.Matrix"):
    reduced, pivots = m.rref()
    return [[_frac(reduced[r, c]) for c in range(m.cols)] for r in range(len(pivots))], list(pivots)


def _sparse(mat: RatMatrix):
    return [{j: v for j, v in enumerate(row) if v} for row in mat.rows]


# scalars in the stored form: ints, and p/q with q > 1, zeros weighted up
# so that products of the factors below are sparse as well as deficient
_SCALARS = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)).map(demote),
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
        [demote(sum((Fraction(b[i][k]) * c[k][j] for k in range(inner)), Fraction(0)))
         for j in range(ncols)]
        for i in range(nrows)
    ]
    return RatMatrix(rows)


def _check_against_sympy(mat: RatMatrix, rhs_columns):
    sym = _sym(mat.rows, mat.ncols)
    dense, pivots = rref(mat)
    want, want_pivots = _sym_rref_rows(sym)
    assert dense == want and pivots == want_pivots
    assert rank(mat) == len(want_pivots)
    assert canonical_basis(_sparse(mat), mat.ncols) == want

    kernel = sym.nullspace()
    if kernel:
        want_kernel, _ = _sym_rref_rows(sympy.Matrix.hstack(*kernel).T)
    else:
        want_kernel = []
    assert nullspace(mat) == want_kernel

    sols = solve_many(_sparse(mat), mat.ncols, rhs_columns)
    for b, sol in zip(rhs_columns, sols):
        col = sympy.Matrix([sympy.Rational(v) for v in b])
        consistent = sympy.Matrix.hstack(sym, col).rank() == len(want_pivots)
        assert (sol is None) == (not consistent)
        if sol is not None:
            assert set(sol) <= set(pivots)  # free variables are zero
            x = [sol.get(j, 0) for j in range(mat.ncols)]
            assert mat.mul_vector(x) == list(b)

    # the same matrix from sparse {row: value} columns, and the same
    # solutions for sparse right-hand sides
    columns = [{i: v for i, v in enumerate(mat.column(j)) if v} for j in range(mat.ncols)]
    assert RatMatrix.from_columns(columns, mat.nrows) == mat
    sparse_rhs = [{i: v for i, v in enumerate(b) if v} for b in rhs_columns]
    assert solve_many(mat.sparse, mat.ncols, sparse_rhs) == sols


@settings(deadline=None)
@given(deficient_matrices(), st.data())
def test_echelon_matches_sympy(mat, data):
    xs = data.draw(st.lists(st.lists(_SCALARS, min_size=mat.ncols, max_size=mat.ncols),
                            max_size=2))
    consistent = [mat.mul_vector(x) for x in xs]  # in the column space
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
    assert solve_many(_sparse(mat), mat.ncols, [unit]) == [None]
    _check_against_sympy(mat, [unit, mat.column(mat.ncols - 1)])


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
    a_sym = _sym(mat.rows, mat.ncols)
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
    got = _invariant_dim(win, _ad_window_matrix(h, win))
    assert got == _sym_invariant_dim(h, win)
    if cap in _CANONICAL_INVARIANT_DIMS:
        assert got == _CANONICAL_INVARIANT_DIMS[cap][list(_CANONICAL_H).index(name)]


def test_invariant_dim_of_an_invariant_window_matches_sympy():
    # ad(X^2 + Y^2) keeps the (1,1) degree, so the whole window is invariant
    win = Window(W11, 5)
    a = X**2 + Y**2
    assert _invariant_dim(win, _ad_window_matrix(a, win)) == win.dimension()
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
    assert _invariant_dim(win, _ad_window_matrix(h, win)) == _sym_invariant_dim(h, win)
