"""Windowed eigenspaces, centralizers, closures, chains, cokernels."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weyl1 import (
    ChainBasisError,
    EndoRecipe,
    H,
    ONE,
    W11,
    Weight,
    WeylElement,
    WindowEscapeError,
    Window,
    X,
    Y,
    ad,
    add_poly_x,
    add_poly_y,
    build_chain_basis,
    build_endo,
    centralizer_window,
    coker_window_dim,
    commutator,
    compile_recipe,
    compose,
    delta_xy,
    eigenspace,
    eigenvalue_scan,
    format_element,
    identity_endo,
    map_matrix,
    nilpotent_closure_window,
    rat,
)
from oracles import from_columns, matrix_parts, window_meet
from test_endos import _GENERATORS
from test_fake_pairs import FAKE_PAIRS
from weyl1 import canonical_config, linalg, windows
from weyl1.core import powers
from weyl1.linalg import rank
from weyl1.maps import LinearMap, nilpotency_degree
from weyl1.serialize import recipe_from_doc
from weyl1.windows import Coordinates, _ad_window_matrix, invariant_dim

IDENT = identity_endo()


def test_window_basis_order():
    win = Window(W11, 2)
    assert win.monomials == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    win = Window(Weight(2, 3), 6)
    assert all(2 * i + 3 * j <= 6 for (i, j) in win.monomials)
    with pytest.raises(ValueError):
        Window(Weight(0, 1), 3)


def test_map_matrix_ad_h_is_diagonal():
    win = Window(W11, 2)
    mat = map_matrix(ad(H), win, win)
    monos = win.monomials
    for c, (i, j) in enumerate(monos):
        for r, (k, l) in enumerate(monos):
            expect = (j - i) if (k, l) == (i, j) else 0
            assert mat.rows[r][c] == expect
    # the [H, YX] column is identically zero
    col = monos.index((1, 1))
    assert all(mat.rows[r][col] == 0 for r in range(win.dimension()))


def test_map_matrix_ad_x_lowers():
    win = Window(W11, 2)
    mat = map_matrix(ad(X), win, win)
    monos = win.monomials
    weight_of = {k: i + j for k, (i, j) in enumerate(monos)}
    for c in range(win.dimension()):
        for r in range(win.dimension()):
            if mat.rows[r][c]:
                assert weight_of[r] <= weight_of[c] - 1


def test_map_matrix_zero_map():
    win = Window(W11, 2)
    mat = map_matrix(compose(ad(ONE)), win, win)
    assert all(v == 0 for row in mat.rows for v in row)


def test_map_matrix_window_escape():
    win = Window(W11, 2)
    with pytest.raises(WindowEscapeError):
        map_matrix(ad(Y**3), win, win)  # raises degree, image escapes


_CANONICAL_PAIRS = {
    doc["name"]: compile_recipe(recipe_from_doc(doc))
    for doc in canonical_config()["endomorphisms"]
}


def _column_by_column(m, win, tgt):
    """The reference construction: apply m to each window monomial."""
    return tgt.matrix([m(u) for u in win.basis_elements()])


def _from_coordinate_columns(m, win, tgt):
    """The same matrix from the images' rational coordinates, cleared by
    the dense test helper."""
    imgs = [m(u) for u in win.basis_elements()]
    cols = [{r: Fraction(v, img._den) for r, v in tgt.coords(img).items()} for img in imgs]
    return from_columns(cols, tgt.dimension())


@pytest.mark.parametrize("cap", range(9))
@pytest.mark.parametrize("name", list(_CANONICAL_PAIRS))
def test_map_matrix_matches_the_column_by_column_construction(name, cap):
    h = _CANONICAL_PAIRS[name].h
    win = Window(W11, cap)
    tgt = win.enlarged(ad(h))
    mat = map_matrix(ad(h), win, tgt)
    got = matrix_parts(mat)
    assert got == matrix_parts(_column_by_column(ad(h), win, tgt))
    assert got == matrix_parts(_from_coordinate_columns(ad(h), win, tgt))
    assert (mat.nrows, mat.ncols) == (tgt.dimension(), win.dimension())


@pytest.mark.parametrize("cap", range(2, 9))
@pytest.mark.parametrize("name", list(_CANONICAL_PAIRS))
def test_map_matrix_into_a_target_one_cap_too_small_escapes(name, cap):
    m = ad(_CANONICAL_PAIRS[name].h)
    win = Window(W11, cap)
    small = Window(W11, win.enlarged(m).cap - 1)
    with pytest.raises(WindowEscapeError, match=rf"window \(weight \(1,1\), cap {small.cap}\)"):
        map_matrix(m, win, small)


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.one_of(st.integers(-5, 5), st.fractions(-4, 4, max_denominator=3)),
        max_size=3,
    ).map(WeylElement),
    st.sampled_from([W11, Weight(1, 2), Weight(2, 1)]),
    st.integers(0, 4),
)
def test_map_matrix_matches_the_column_by_column_construction_on_drawn_elements(
    a, weight, cap
):
    win = Window(weight, cap)
    for m in (ad(a), compose(ad(a), ad(X))):
        tgt = win.enlarged(m)
        got = matrix_parts(map_matrix(m, win, tgt))
        assert got == matrix_parts(_column_by_column(m, win, tgt))
        assert got == matrix_parts(_from_coordinate_columns(m, win, tgt))
        assert matrix_parts(map_matrix(m, win, tgt)) == got  # from the warm cache


def test_map_matrix_makes_one_product_per_monomial_and_no_combination(monkeypatch):
    # composite's cap-12 ad(h) window, from an emptied memo: one bracket
    # per window monomial and no linear combination; a second matrix from
    # the same map makes neither, nor does the map of an equal h formed
    # separately, which is the same map
    pair = _CANONICAL_PAIRS["composite"]
    h, h2 = pair.h, pair.y * pair.x
    assert h2 is not h and h2 == h
    ad.cache_clear()
    calls = {"_bracket": 0, "linear_combination": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(sys.modules["weyl1.core"], name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("weyl1") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name, original))
    m = ad(h)
    win = Window(W11, 12)
    tgt = win.enlarged(m)
    first = matrix_parts(map_matrix(m, win, tgt))
    assert calls == {"_bracket": win.dimension(), "linear_combination": 0}
    assert matrix_parts(map_matrix(m, win, tgt)) == first
    assert calls == {"_bracket": win.dimension(), "linear_combination": 0}
    assert ad(h2) is m
    assert matrix_parts(map_matrix(ad(h2), win, tgt)) == first
    assert calls == {"_bracket": win.dimension(), "linear_combination": 0}


def test_eigenspace_examples():
    win = Window(W11, 4)
    assert eigenspace(H, 1, win) == [X, Y * X**2]  # X and HX
    zero_space = eigenspace(H, 0, win)
    assert zero_space == win.basis([ONE, H, H**2])
    assert eigenspace(H, rat(1, 2), win) == []


def test_eigenvalue_scan_h():
    win = Window(W11, 3)
    cands = [rat(k) for k in range(-3, 4)] + [rat(1, 2), rat(-1, 2), rat(1, 3), rat(-1, 3)]
    report = eigenvalue_scan(H, win, cands)
    assert [lam for lam, _ in report.found] == [rat(k) for k in (-3, -2, -1, 0, 1, 2, 3)]
    for lam, basis in report.found:
        for u in basis:
            assert commutator(H, u) == lam * u
        # dimensions match the graded count of h^k v_i in the window
        i = int(lam)
        base = abs(i)
        count = len([k for k in range(4) if base + 2 * k <= 3])
        assert len(basis) == count


def _assert_scan_matches_fresh_eigenspaces(a, win, cands=None):
    # each candidate must get exactly the eigenspace a fresh computation
    # gives, including the candidates after the scan stopped
    report = eigenvalue_scan(a, win, cands)
    fresh = [(lam, eigenspace(a, lam, win)) for lam in report.candidates]
    assert report.found == [(lam, basis) for lam, basis in fresh if basis]
    return report


def test_eigenvalue_scan_matches_eigenspace_per_candidate():
    # the scan builds the ad(h) matrix once and stops once the eigenspaces
    # fill the invariant subspace
    e = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1]))))
    win = Window(W11, 4)
    cands = [rat(k) for k in range(-4, 5)] + [rat(1, 2), rat(-3, 2)]
    report = _assert_scan_matches_fresh_eigenspaces(e.h, win, cands)
    assert [lam for lam, _ in report.found] == [rat(k) for k in (-1, 0, 1, 2)]


_SCAN_WEIGHTS = [W11, Weight(1, 2), Weight(2, 1)]

_ELEMENTS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(-4, 4, max_denominator=3),
    max_size=3,
).map(WeylElement)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(_GENERATORS, min_size=1, max_size=3),
    st.sampled_from(_SCAN_WEIGHTS),
    st.integers(0, 4),
)
def test_eigenvalue_scan_matches_eigenspace_on_drawn_recipes(gens, weight, cap):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    _assert_scan_matches_fresh_eigenspaces(e.h, Window(weight, cap))


@pytest.mark.parametrize("weight", _SCAN_WEIGHTS, ids=["11", "12", "21"])
@pytest.mark.parametrize(
    "a", [X, X + Y**2, X**2 + Y**2, ONE], ids=["X", "X+Y^2", "X^2+Y^2", "1"]
)
def test_eigenvalue_scan_matches_eigenspace_past_the_invariant_subspace(a, weight):
    # X, X + Y^2 and X^2 + Y^2 have eigenspaces that never fill the
    # invariant subspace, so every candidate is tried; 1 fills it at once
    win = Window(weight, 4)
    report = _assert_scan_matches_fresh_eigenspaces(a, win)
    assert [lam for lam, _ in report.found] == [0]
    fills = sum(len(basis) for _, basis in report.found) == invariant_dim(a, win)
    assert fills == (a == ONE)


def test_eigenvalue_scan_refuses_eigenspaces_beyond_the_invariant_subspace(monkeypatch):
    # an internal bound that is too small is a bug, not a verdict
    monkeypatch.setattr(windows, "invariant_dim", lambda a, win: 1)
    with pytest.raises(AssertionError, match="invariant subspace"):
        eigenvalue_scan(H, Window(W11, 3))  # the 0-eigenspace holds 1 and H


@pytest.mark.parametrize(
    "a", [_CANONICAL_PAIRS["composite"].h, X + Y**2], ids=["composite h", "X+Y^2"]
)
def test_the_memoized_ad_window_matrix_is_only_read(a):
    # a scan over the default candidates shifts it once per candidate it
    # tries (X + Y^2 never fills V, so all 33) and dim V eliminates its
    # rows; afterwards it still equals a freshly built matrix
    _ad_window_matrix.cache_clear()
    invariant_dim.cache_clear()
    win = Window(W11, 6)
    eigenvalue_scan(a, win)
    invariant_dim(a, win)
    assert _ad_window_matrix.cache_info().misses == 1
    m = ad(a)
    tgt = win.enlarged(m)
    mat, mat_tgt = _ad_window_matrix(a, win)
    assert mat_tgt == tgt
    assert matrix_parts(mat) == matrix_parts(map_matrix(m, win, tgt))


def test_an_equal_element_hits_the_window_memos():
    pair = _CANONICAL_PAIRS["composite"]
    h, h2 = pair.h, pair.y * pair.x
    assert h2 is not h and h2 == h
    _ad_window_matrix.cache_clear()
    invariant_dim.cache_clear()
    first, dim = _ad_window_matrix(h, Window(W11, 5)), invariant_dim(h, Window(W11, 5))
    assert _ad_window_matrix(h2, Window(W11, 5)) is first
    assert invariant_dim(h2, Window(W11, 5)) == dim
    # (hits, misses): dim V of h read the matrix once more
    assert invariant_dim.cache_info()[:2] == (1, 1)
    assert _ad_window_matrix.cache_info()[:2] == (2, 1)
    # another window or another element is another entry
    assert _ad_window_matrix(h, Window(W11, 4)) is not first
    assert _ad_window_matrix(h + 1, Window(W11, 5)) is not first
    assert _ad_window_matrix.cache_info().misses == 3


def test_cache_clear_empties_the_window_memos():
    win = Window(W11, 3)
    first = _ad_window_matrix(H, win)
    invariant_dim(H, win)
    for memo in (_ad_window_matrix, invariant_dim):
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
    again = _ad_window_matrix(H, win)
    assert again is not first and again[1] == first[1]
    assert matrix_parts(again[0]) == matrix_parts(first[0])
    assert _ad_window_matrix.cache_info()[:2] == (0, 1)



def test_the_default_candidates_are_built_once_per_cap(monkeypatch):
    windows.default_eigen_candidates.cache_clear()
    built = []
    make = windows.rat
    monkeypatch.setattr(windows, "rat", lambda *args: built.append(args) or make(*args))
    first = windows.default_eigen_candidates(6)
    assert built
    built.clear()
    assert windows.default_eigen_candidates(6) is first
    assert windows.eigen_candidates(6, None) is first
    assert built == []


def test_the_default_candidates_are_the_rationals_p_over_q_up_to_the_cap():
    for cap in range(30):
        want = {Fraction(p, q) for p in range(-cap, cap + 1) for q in range(1, 5)}
        assert windows.default_eigen_candidates(cap) == tuple(sorted(want)), cap


def test_eigenvalue_scan_x_and_scalar():
    win = Window(W11, 3)
    report = eigenvalue_scan(X, win, [rat(k) for k in range(-2, 3)])
    assert [lam for lam, _ in report.found] == [rat(0)]
    report = eigenvalue_scan(ONE, win, [rat(k) for k in range(-1, 2)])
    assert [lam for lam, _ in report.found] == [rat(0)]
    assert len(report.found[0][1]) == win.dimension()


def test_centralizer_windows():
    win = Window(W11, 10)
    assert centralizer_window(H, win) == win.basis([H**k for k in range(6)])
    assert centralizer_window(X, Window(W11, 6)) == [X**k for k in range(7)]
    assert len(centralizer_window(ONE, Window(W11, 2))) == 6


@pytest.mark.parametrize(
    "name, cap, dim, inserts, eliminations",
    [("triangular-x2", 20, 7, 30, 80), ("composite", 16, 3, 110, 700)],
    ids=["triangular-x2", "composite"],
)
def test_peeling_bounds_the_rows_a_centralizer_eliminates(
    monkeypatch, name, cap, dim, inserts, eliminations
):
    # singleton rows are peeled before elimination, so with the ad(h)
    # matrix already memoized the triangular-x2 centralizer at cap 20
    # inserts 27 rows and eliminates 65 times (260 and 676 unpeeled), the
    # composite one at cap 16 inserts 102 and eliminates 663 (234, 1 665)
    h = _CANONICAL_PAIRS[name].h
    win = Window(W11, cap)
    _ad_window_matrix(h, win)
    calls = {"insert": 0, "_eliminate": 0}
    insert, eliminate = linalg._Echelon.insert, linalg._eliminate

    def counting_insert(self, row):
        calls["insert"] += 1
        return insert(self, row)

    def counting_eliminate(row, prow, col):
        calls["_eliminate"] += 1
        return eliminate(row, prow, col)

    monkeypatch.setattr(linalg._Echelon, "insert", counting_insert)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    assert len(centralizer_window(h, win)) == dim
    assert calls["insert"] <= inserts
    assert calls["_eliminate"] <= eliminations


def test_nilpotent_closure_windows():
    win = Window(W11, 4)
    assert len(nilpotent_closure_window(ad(X), win, 8)) == win.dimension()
    win3 = Window(W11, 3)
    closure = nilpotent_closure_window(compose(ad(X), ad(Y)), win3, 8)
    assert len(closure) == win3.dimension()
    # ad(H) is semisimple: its closure is just the kernel
    closure = nilpotent_closure_window(ad(H), win, 6)
    assert closure == centralizer_window(H, win)
    with pytest.raises(ValueError):
        nilpotent_closure_window(ad(X), win, 0)


def _plain(m):
    """m's image rule with no marks: every monomial is iterated."""
    return LinearMap(m._image, m._shift, m.describe())


def _fresh(m):
    """A copy of m with its marks and no index found yet."""
    factors = m.factors and tuple(_fresh(f) for f in m.factors)
    return LinearMap(m._image, m._shift, m.describe(), m.derivation, factors)


def _largest_index(m, win, limit):
    """The largest nilpotency index of a window monomial under m, or None
    when one exceeds limit."""
    found = [nilpotency_degree(m, u, limit) for u in win.basis_elements()]
    return None if None in found else max(found)


def _assert_closures_match_iteration(maps, win, limit=24, fallback=(1, 2, 3)):
    # every closure must equal that of the unmarked map, at one below, at
    # and one above each map's largest index, where the Leibniz bound of
    # an automorphism's ad(x) and ad(y) is tight; the maps run in order,
    # so a delta listed before its factors finds none of their indices
    max_iters = set()
    for m in maps:
        top = _largest_index(_plain(m), win, limit)
        max_iters.update(fallback if top is None else (top - 1, top, top + 1))
    for n in sorted(k for k in max_iters if k >= 1):
        for m in maps:
            expect = nilpotent_closure_window(_plain(m), win, n)
            assert nilpotent_closure_window(m, win, n) == expect, (m, win, n)


def _check_order(e):
    """delta, ad(x), ad(y), delta again, all fresh; delta's factors are the
    ad(x) and ad(y) of the list when it has any."""
    dl = _fresh(delta_xy(e))
    ax, ay = dl.factors or (_fresh(ad(e.x)), _fresh(ad(e.y)))
    return [dl, ax, ay, dl]


@pytest.mark.parametrize("weight", _SCAN_WEIGHTS, ids=["11", "12", "21"])
@pytest.mark.parametrize("name", list(_CANONICAL_PAIRS))
def test_certified_closure_matches_iteration_on_canonical_pairs(name, weight):
    _assert_closures_match_iteration(_check_order(_CANONICAL_PAIRS[name]), Window(weight, 4))


@pytest.mark.parametrize("max_iter, dim", [(16, 14), (17, 15), (18, 15)])
def test_certified_closure_at_the_bound_of_composite_ad_y(max_iter, dim):
    # nu(X) = 5 and nu(Y) = 3, so X^4 has the bound 4 * 4 + 1 = 17 and
    # dies at exactly 17 steps: at 16 it is the one monomial left out
    e = _CANONICAL_PAIRS["composite"]
    m, win = _fresh(ad(e.y)), Window(W11, 4)
    nilpotent_closure_window(m, win, 17)  # finds nu(X) and nu(Y)
    closure = nilpotent_closure_window(m, win, max_iter)
    assert closure == nilpotent_closure_window(_plain(m), win, max_iter)
    assert len(closure) == dim


@settings(deadline=None, max_examples=15)
@given(
    st.lists(_GENERATORS, min_size=1, max_size=3),
    st.sampled_from(_SCAN_WEIGHTS),
    st.integers(0, 3),
)
def test_certified_closure_matches_iteration_on_drawn_recipes(gens, weight, cap):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    # an automorphism's delta has factors, the ad(x) and ad(y) of the memo
    # as it is now, also after the memo has dropped the maps delta saw
    delta_xy(e)
    ad.cache_clear()
    assert delta_xy(e).factors == (ad(e.x), ad(e.y))
    _assert_closures_match_iteration(_check_order(e), Window(weight, cap))


@settings(deadline=None, max_examples=40)
@given(_ELEMENTS, st.sampled_from(_SCAN_WEIGHTS), st.integers(0, 3), st.integers(1, 6))
def test_certified_closure_matches_iteration_on_drawn_elements(a, weight, cap, max_iter):
    # most drawn ad(a) are not nilpotent: X or Y never dies, and only the
    # monomials whose bound needs no missing index are certified
    m = _fresh(ad(a))
    assert m.derivation and ad(a).derivation
    _assert_closures_match_iteration([m, m], Window(weight, cap), 8, (max_iter,))


@pytest.mark.parametrize("name", list(FAKE_PAIRS))
def test_certified_closure_matches_iteration_on_fake_pairs(name):
    # delta carries its factors only where [x, y] is a scalar, whatever
    # `verified` says: (X^2, Y) and (X^2, Y^2) have none
    e = FAKE_PAIRS[name]
    factors = delta_xy(e).factors
    assert (factors is not None) == commutator(e.x, e.y).is_scalar()
    _assert_closures_match_iteration(_check_order(e), Window(W11, 3), 12)


def test_certified_closure_matches_iteration_on_other_maps():
    # ad(H) is a derivation that is not nilpotent; a composition carries
    # no mark and is iterated throughout
    both = compose(ad(X), ad(Y))
    assert not both.derivation and both.factors is None
    for m in (_fresh(ad(H)), both):
        _assert_closures_match_iteration([m, m], Window(W11, 4), 12)


def test_closure_applies_the_map_only_along_the_orbits_of_x_and_y(monkeypatch):
    # composite ad(y) at cap 4 and max_iter 17 applied the map 135 times
    # when every monomial was iterated; the certificate iterates only X
    # (nu = 5) and Y (nu = 3), each from its cached first image, so 4 + 2
    # applications, and then delta reads its factors' indices: at
    # max_iter 9 only ad(x)'s bounds (at most 9) certify delta, so delta
    # must take the least of its factors' bounds
    e = _CANONICAL_PAIRS["composite"]
    win = Window(W11, 4)
    calls = []
    apply = LinearMap.__call__
    monkeypatch.setattr(LinearMap, "__call__", lambda m, a: calls.append(m) or apply(m, a))
    assert nilpotent_closure_window(ad(e.y), win, 17) == win.basis_elements()
    assert len(calls) <= 6
    dl, ax, ay, _ = _check_order(e)
    for m, max_iter, count in ((ay, 17, 6), (ay, 17, 0), (ax, 17, 3), (dl, 17, 0), (dl, 9, 0)):
        calls.clear()
        assert nilpotent_closure_window(m, win, max_iter) == win.basis_elements()
        assert len(calls) == count
    assert ay._orders == {(0, 1): 5, (1, 0): 3}


def test_delta_reads_the_indices_of_factors_the_ad_memo_rebuilt(monkeypatch):
    # delta is built, then the ad memo drops ad(x) and ad(y); the closures
    # of the rebuilt maps find nu(X) and nu(Y), and delta must read them:
    # composite at cap 4 and max_iter 17 applied delta 49 times when it
    # kept the maps it was built with
    e = _CANONICAL_PAIRS["composite"]
    win = Window(W11, 4)
    ad.cache_clear()
    delta_xy.cache_clear()
    dl = delta_xy(e)
    ad.cache_clear()
    for m in (ad(e.x), ad(e.y)):
        assert nilpotent_closure_window(m, win, 17) == win.basis_elements()
    calls = []
    apply = LinearMap.__call__
    monkeypatch.setattr(LinearMap, "__call__", lambda m, a: calls.append(m) or apply(m, a))
    assert nilpotent_closure_window(dl, win, 17) == win.basis_elements()
    assert calls == []



def test_a_closure_whose_final_images_all_vanish_takes_no_kernel(monkeypatch):
    # composite ad(y) is locally nilpotent: at max_iter 17 every final
    # image on the cap 4 window is 0 and the closure is the window; ad(H)
    # keeps its non-central monomials, and the closure is a kernel
    kernels = []
    take = windows.kernel
    monkeypatch.setattr(windows, "kernel", lambda mat: kernels.append(mat) or take(mat))
    e = _CANONICAL_PAIRS["composite"]
    win = Window(W11, 4)
    for m in (ad(e.y), _plain(ad(e.y)), delta_xy(e)):
        assert nilpotent_closure_window(m, win, 17) == win.basis_elements()
    assert kernels == []
    closure = nilpotent_closure_window(ad(H), win, 6)
    assert len(kernels) == 1
    assert closure == centralizer_window(H, win)


def test_chain_basis_identity_delta():
    dl = delta_xy(IDENT)
    chain = build_chain_basis(dl, [ONE, H, H**2, H**3])
    assert chain[0] == ONE
    assert chain[1] == -H
    assert chain[2] == rat(1, 4) * Y**2 * X**2  # equals (H^2 + H)/4
    assert chain[2] == rat(1, 4) * (H**2 + H)
    assert chain[3] == rat(-1, 36) * Y**3 * X**3
    assert chain[3] == rat(-1, 36) * H * (H + 1) * (H + 2)
    for prev, cur in zip(chain, chain[1:]):
        assert dl(cur) == prev
    assert dl(chain[0]).is_zero()


@pytest.mark.parametrize(
    "recipe,expected",
    [
        (
            EndoRecipe(),
            ["X", "-1/2*Y*X^2", "1/12*Y^2*X^3", "-1/144*Y^3*X^4"],
        ),
        (
            EndoRecipe(generators=(add_poly_x([0, 0, 1]),)),
            [
                "X",
                "-1/2*Y*X^2 - 1/2*X^4",
                "-1/6*X^4 + 1/12*Y^2*X^3 + 1/6*Y*X^5 + 1/12*X^7",
            ],
        ),
    ],
    ids=["identity", "triangular-x2"],
)
def test_chain_basis_with_non_scalar_kernel(recipe, expected):
    # on span{x h^k} the kernel of delta is K x, not the scalars
    e = compile_recipe(recipe)
    dl = delta_xy(e)
    chain = build_chain_basis(dl, [e.x * e.h**k for k in range(len(expected))])
    assert [format_element(c) for c in chain] == expected
    assert dl(chain[0]).is_zero()
    for prev, cur in zip(chain, chain[1:]):
        assert dl(cur) == prev
        assert cur.coefficient(0, 1) == 0  # pinned at e_0's leading monomial X


def test_chain_basis_failures():
    with pytest.raises(ChainBasisError):
        build_chain_basis(delta_xy(IDENT), [])
    with pytest.raises(ChainBasisError):
        # zero map on a 2-dimensional span: kernel too large
        build_chain_basis(compose(ad(ONE)), [ONE, H])
    with pytest.raises(ChainBasisError):
        # ad(H) does not preserve span{X}
        build_chain_basis(ad(Y), [X])
    with pytest.raises(ChainBasisError, match="unsolvable"):
        # ad(H) kills 1 and fixes X: 1 is not an image
        build_chain_basis(ad(H), [ONE, X])


def test_chain_basis_of_a_dependent_rational_spanning_set():
    # dependent elements with denominators span the same chain
    dl = delta_xy(IDENT)
    want = build_chain_basis(dl, [ONE, H, H**2, H**3])
    elems = [rat(1, 3) * ONE, rat(2, 5) * H, H + rat(1, 7) * H**2, rat(-5, 2) * H**2, H**3 - H]
    assert build_chain_basis(dl, elems) == want


# few monomials, so that parts outside a window often cancel in a combination
_SLICED_ELEMENTS = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (0, 3), (2, 2), (4, 0), (3, 1)]),
    st.fractions(-4, 4, max_denominator=3).filter(bool),
    max_size=3,
).map(WeylElement)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(_SLICED_ELEMENTS, max_size=8),
    st.sampled_from([W11, Weight(1, 2), Weight(2, 1)]),
    st.integers(0, 4),
)
@example([X**3 + X, X**3 - rat(1, 2) * Y, Y**4], W11, 1)  # outside parts cancel
@example([X**3, Y**4 + H], W11, 2)  # nothing is left in the window
@example([], W11, 2)
def test_window_meet_matches_the_three_step_oracle(elems, weight, cap):
    win = Window(weight, cap)
    assert win.meet(elems) == window_meet(win, elems)


@pytest.mark.parametrize("cap", [4, 6])
@pytest.mark.parametrize("name", ["triangular-x2", "composite"])
def test_window_meet_takes_one_echelon(monkeypatch, name, cap):
    # the slice check_kernel_delta cuts: the kernel of the outside parts,
    # then the basis of the combinations, took three
    made = []
    init = linalg._Echelon.__init__

    def counting(self):
        made.append(self)
        init(self)

    e = _CANONICAL_PAIRS[name]
    elems = powers(e.x, 2 * cap) + powers(e.y, 2 * cap)[1:]
    win = Window(W11, cap)
    monkeypatch.setattr(linalg._Echelon, "__init__", counting)
    got = win.meet(elems)
    assert len(made) == 1
    monkeypatch.undo()
    assert got == window_meet(win, elems)


@pytest.mark.parametrize("length", [2, 5, 9])
def test_chain_basis_takes_one_echelon_whatever_its_length(monkeypatch, length):
    # one elimination of the graph of m serves every chain step: [h^k,
    # k < 9] on the composite pair took 12 when each step solved anew
    made = []
    init = linalg._Echelon.__init__

    def counting(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(linalg._Echelon, "__init__", counting)
    e = _CANONICAL_PAIRS["composite"]
    chain = build_chain_basis(delta_xy(e), [e.h**k for k in range(length)])
    assert len(chain) == length
    assert len(made) == 1


def test_coker_window_dims():
    dl = delta_xy(IDENT)
    for j in range(1, 7):
        src = [H**k for k in range(j + 1)]
        tgt = [H**k for k in range(j)]
        assert coker_window_dim(dl, src, tgt) == 0
    win1 = Window(W11, 1)  # three-dimensional
    assert coker_window_dim(compose(ad(ONE)), win1, win1) == 3
    win2 = Window(W11, 2)
    assert coker_window_dim(ad(H), win2, win2) == 2  # = dim of the kernel here


@pytest.mark.parametrize("cap", range(7))
@pytest.mark.parametrize("name", list(_CANONICAL_PAIRS))
def test_coker_of_a_window_target_agrees_with_its_spanning_set(name, cap):
    e = _CANONICAL_PAIRS[name]
    win = Window(W11, cap)
    for m in (ad(e.h), delta_xy(e), ad(e.x)):
        tgt = win.enlarged(m)
        spanning = tgt.basis_elements()
        assert coker_window_dim(m, win, tgt) == coker_window_dim(m, win, spanning)
        assert coker_window_dim(m, win.basis_elements(), tgt) == coker_window_dim(
            m, win.basis_elements(), spanning
        )


def test_coker_escape():
    with pytest.raises(WindowEscapeError):
        coker_window_dim(ad(Y**3), Window(W11, 2), Window(W11, 2))
    with pytest.raises(WindowEscapeError):
        coker_window_dim(ad(X), [Y], [X])  # [X, Y] = -1 is not in span{X}


def test_coordinates_escape():
    with pytest.raises(WindowEscapeError, match=r"Y\^1\*X\^0"):
        Coordinates([X]).coords(Y)
    with pytest.raises(WindowEscapeError, match=r"window \(weight \(1,1\), cap 1\)"):
        Window(W11, 1).coords(Y**2)


def test_window_is_the_coordinates_of_its_monomials():
    win = Window(W11, 3)
    assert win == Window(W11, 3) and hash(win) == hash(Window(W11, 3))
    elems = win.basis_elements()
    assert Coordinates(elems).monomials == list(win.monomials)
    assert win.coords(3 * H - X**2) == {win.index[(1, 1)]: 3, win.index[(0, 2)]: -1}
    assert win.element(win.coords(3 * H - X**2)) == 3 * H - X**2


@settings(deadline=None, max_examples=40)
@given(_ELEMENTS, st.integers(0, 4))
def test_coker_window_dim_is_target_dimension_minus_matrix_rank(a, cap):
    m = ad(a)
    win = Window(W11, cap)
    tgt = win.enlarged(m)
    expect = tgt.dimension() - rank(map_matrix(m, win, tgt))
    assert coker_window_dim(m, win, tgt) == expect


def test_exactness_of_window_bases():
    e = build_endo(X, Y + X**2)
    win = Window(W11, 6)
    for u in centralizer_window(e.h, win):
        assert commutator(e.h, u).is_zero()
        assert not u.is_zero()
