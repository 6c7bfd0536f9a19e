"""Map evaluation, drops, drop laws, and locally nilpotent iteration."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_element
from test_endos import _GENERATORS
from weyl1 import (
    H,
    NEG_INF,
    ONE,
    W11,
    UnverifiedEndoError,
    Weight,
    X,
    Y,
    EndoRecipe,
    LinearMap,
    ad,
    build_endo,
    canonical_config,
    commutator,
    compile_recipe,
    compose,
    d_xy,
    d_yx,
    delta_xy,
    drop,
    drop_profile,
    identity_endo,
    monomial,
    nilpotency_degree,
    parse,
    run_suite,
    weighted_degree,
)

IDENT = identity_endo()


def test_eval_map_examples():
    dl = delta_xy(IDENT)
    assert dl(X * Y) == -ONE  # delta(x^i y^j) = -ij x^(i-1) y^(j-1)
    d = d_yx(IDENT)
    assert d(Y**2 * X**2) == 2 * Y**2 * X**2
    assert ad(H)(ONE).is_zero()


def test_delta_on_xiyj_family():
    dl = delta_xy(IDENT)
    for i in range(1, 4):
        for j in range(1, 4):
            u = X**i * Y**j
            assert dl(u) == -i * j * (X ** (i - 1) * Y ** (j - 1))


def test_delta_on_twisted_xiyj_family():
    e = build_endo(X, Y + X**2)
    dl = delta_xy(e)
    for i in range(1, 4):
        for j in range(1, 4):
            u = e.x**i * e.y**j
            assert dl(u) == -i * j * (e.x ** (i - 1) * e.y ** (j - 1))


def test_ad_leibniz_rule():
    rng = random.Random(73)
    for _ in range(50):
        a = random_element(rng, max_degree=3)
        b = random_element(rng, max_degree=3)
        c = random_element(rng, max_degree=3)
        m = ad(a)
        assert m(b * c) == m(b) * c + b * m(c)


def test_ad_examples():
    assert ad(X)(Y**3) == -3 * Y**2
    assert ad(H)(X**2) == 2 * X**2
    assert ad(ONE)(H + X) == 0


def test_delta_equals_composition_of_inner_derivations():
    rng = random.Random(79)
    for e in (IDENT, build_endo(X, Y + X**2)):
        dl = delta_xy(e)
        comp = compose(ad(e.x), ad(e.y))
        for _ in range(20):
            a = random_element(rng)
            assert dl(a) == comp(a)


def test_drop_examples():
    dl = delta_xy(IDENT)
    assert drop(dl, W11, H) == -2
    assert dl(H**2) == -4 * H + 1
    assert drop(dl, W11, H**2) == -2
    assert drop(d_yx(IDENT), W11, H**2) == 0
    with pytest.raises(ValueError):
        drop(dl, W11, monomial(0, 0, 0))


def test_drop_minus_infinity_on_kernel():
    assert drop(ad(X), W11, X**3) == NEG_INF


def test_drop_composition_law():
    # v-additivity: drop of (m1 m2) at a = drop of m1 at m2(a) + drop of m2 at a
    rng = random.Random(83)
    m1, m2 = d_yx(IDENT), d_xy(IDENT)
    both = compose(m1, m2)
    checked = 0
    while checked < 30:
        a = random_element(rng)
        mid = m2(a)
        if mid.is_zero() or m1(mid).is_zero():
            continue
        assert drop(both, W11, a) == drop(m1, W11, mid) + drop(m2, W11, a)
        checked += 1


def test_drop_additivity_on_centralizer_powers():
    # d and d' both have drop 0 on powers of h; the composition d d'
    # equals delta(.)h, which forces the drop of delta to be -v(h)
    d, dp, dl = d_yx(IDENT), d_xy(IDENT), delta_xy(IDENT)
    vh = weighted_degree(W11, H)
    for k in range(1, 7):
        hk = H**k
        assert drop(d, W11, hk) == 0
        assert drop(dp, W11, hk) == 0
        assert drop(compose(d, dp), W11, hk) == 0
        assert d(dp(hk)) == dl(hk) * H  # d d' = delta(.) h
        assert drop(dl, W11, hk) == -vh


def test_derivation_drop_laws_on_commutative_samples():
    # for a derivation on a commutative subalgebra:
    # drop(ab) <= max(drop(a), drop(b)) and drop(a^n) = drop(a)
    dl = delta_xy(IDENT)
    rng = random.Random(89)
    powers = [H**k for k in range(1, 5)]
    for a in powers:
        for b in powers:
            ab = a * b
            assert drop(dl, W11, ab) <= max(drop(dl, W11, a), drop(dl, W11, b))
    for a in powers:
        for n in range(1, 5):
            assert drop(dl, W11, a**n) == drop(dl, W11, a)


def test_power_degree_identity_for_d_maps():
    # v(d(a^n)) = v(a^(n-1) d(a)) for both pair maps, including weights
    # with one negative entry (only rho + eta > 0 is required)
    rng = random.Random(97)
    for w in (W11, Weight(2, -1)):
        for maker in (d_yx, d_xy):
            d = maker(IDENT)
            checked = 0
            while checked < 25:
                a = random_element(rng, max_degree=3, max_terms=3)
                if d(a).is_zero():
                    continue
                for n in range(1, 5):
                    lhs = d(a**n)
                    rhs = a ** (n - 1) * d(a)
                    assert not lhs.is_zero()
                    assert weighted_degree(w, lhs) == weighted_degree(w, rhs)
                checked += 1


def test_drop_profile():
    report = drop_profile(delta_xy(IDENT), W11, [H, H**2, H**3])
    assert report.constant and report.drop_value == -2
    report = drop_profile(d_yx(IDENT), W11, [H, H**2, H**3])
    assert report.constant and report.drop_value == 0
    report = drop_profile(ad(X), W11, [Y])
    assert report.constant and report.drop_value == -1  # v([X, Y]) - v(Y) = 0 - 1
    report = drop_profile(ad(X), W11, [X, X**2])
    assert report.constant and report.drop_value is None  # all in the kernel
    mixed = drop_profile(ad(H), W11, [X, H + X])  # drops 0 and -1
    assert not mixed.constant and mixed.drop_value is None
    with pytest.raises(ValueError):
        drop_profile(ad(X), W11, [])


def test_nilpotency_degree():
    assert nilpotency_degree(ad(X), Y**3, 10) == 4
    assert nilpotency_degree(ad(X), X**5, 10) == 1
    assert nilpotency_degree(ad(H), X, 10) is None  # eigenvector, never nilpotent
    assert nilpotency_degree(ad(X), monomial(0, 0, 0), 10) == 0


def test_nilpotency_degree_at_its_bound():
    # ad(X)^3(Y^3) = -6 and ad(X)^4(Y^3) = 0: degree 4 is found with
    # max_iter 4 and not with 3, so the bound is exact on both sides
    assert nilpotency_degree(ad(X), Y**3, 3) is None
    assert nilpotency_degree(ad(X), Y**3, 4) == 4
    assert nilpotency_degree(ad(X), ONE, 0) is None
    assert nilpotency_degree(ad(X), monomial(0, 0, 0), 0) == 0


def test_degree_shift_bounds_hold():
    rng = random.Random(101)
    e = build_endo(X, Y + X**2)
    for m in (ad(H), ad(X + Y**3), d_yx(e), d_xy(e), delta_xy(e)):
        bound = m.degree_shift(W11)
        for _ in range(20):
            a = random_element(rng, max_degree=4)
            img = m(a)
            if not img.is_zero():
                assert (
                    weighted_degree(W11, img) <= weighted_degree(W11, a) + bound
                )


@pytest.mark.parametrize("maker", [d_yx, d_xy, delta_xy])
def test_pair_maps_refuse_an_unverified_pair(maker):
    e = build_endo(X, 2 * Y)  # [2Y, X] = 2
    assert not e.verified
    with pytest.raises(UnverifiedEndoError):
        maker(e)


def test_compose_degree_shift_is_the_sum_of_the_parts():
    e = build_endo(X, Y + X**2)
    parts = (ad(H), ad(ONE), d_yx(e), d_xy(e), delta_xy(e))
    zero_map = ad(monomial(0, 0, 0))  # v(0) = -inf, so its bound is -inf
    for w in (W11, Weight(2, -1), Weight(1, 3)):
        assert compose(*parts).degree_shift(w) == sum(m.degree_shift(w) for m in parts)
        assert ad(ONE).degree_shift(w) == -w.rho - w.eta  # v(1) = 0
        assert zero_map.degree_shift(w) == NEG_INF
        assert compose(parts[2], zero_map, parts[0]).degree_shift(w) == NEG_INF
    # v(h) = 2, v(x) = 1, v(y) = 2: ad(H) 0, ad(ONE) -2, d and d' 1, delta -1
    assert compose(*parts).degree_shift(W11) == -1
    with pytest.raises(ValueError):
        compose()


def test_describe_names_each_map():
    # these strings go into the nilclosure and drop reports
    e = build_endo(X, Y + X**2)
    assert ad(H + X).describe() == "ad(X + Y*X)"
    assert d_yx(e).describe() == "[y, .]*x"
    assert d_xy(e).describe() == "[x, .]*y"
    assert delta_xy(e).describe() == "ad(x) ad(y)"
    assert compose(d_yx(e), ad(X), delta_xy(e)).describe() == "[y, .]*x o ad(X) o ad(x) ad(y)"
    assert repr(ad(Y)) == "<map ad(Y)>"


_MONOMIALS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4, unique=True
)


@settings(deadline=None, max_examples=25)
@given(st.lists(_GENERATORS, min_size=1, max_size=3), _MONOMIALS)
def test_monomial_images_equal_the_public_brackets_cold_and_warm(gens, keys):
    # the maps bracket monomials with their fixed elements cleared once;
    # each image must be what commutator and the product give, whether the
    # map is new (cold) or has already formed other images (warm)
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    a = e.y * e.x + e.x
    expected = {
        "ad": lambda u: commutator(a, u),
        "d_yx": lambda u: commutator(e.y, u) * e.x,
        "d_xy": lambda u: commutator(e.x, u) * e.y,
        "delta_xy": lambda u: commutator(e.x, commutator(e.y, u)),
    }
    makers = {"ad": (ad, a), "d_yx": (d_yx, e), "d_xy": (d_xy, e), "delta_xy": (delta_xy, e)}
    for name, (make, arg) in makers.items():
        warm = make(arg)
        for i, j in keys + keys[:1]:
            u = monomial(i, j)
            want = expected[name](u)
            make.cache_clear()  # the constructors share maps; this one is new
            cold = make(arg)
            assert cold is not warm
            assert cold(u) == want, (name, i, j)
            assert warm(u) == want, (name, i, j)
            assert warm._cached_image((i, j)) == want, (name, i, j)


def test_equal_fixed_elements_and_pairs_share_one_map():
    # the constructors are memoized by value: an equal element or pair
    # built separately gets the same map, and with it the images formed
    a = H + X**2
    assert ad(a) is ad(parse(str(a)))
    assert ad(a) is not ad(a + ONE)
    e = build_endo(X, Y + X**2)
    twin = build_endo(parse(str(e.x)), parse(str(e.y)))
    assert twin is not e and twin == e
    for make in (d_yx, d_xy, delta_xy):
        assert make(e) is make(twin)
        assert make(e) is not make(IDENT)
    assert d_yx(e) is not d_xy(e)



def test_a_pair_whose_h_was_read_keys_the_memos_as_a_fresh_pair():
    # h is kept outside the fields: equality and the hash, which key the
    # pair maps' memos, do not see it
    e = build_endo(X, Y + X**3)
    assert e.h is e.h and e.h == e.y * e.x
    twin = build_endo(parse(str(e.x)), parse(str(e.y)))
    assert "h" in vars(e) and "h" not in vars(twin)
    assert twin == e and hash(twin) == hash(e)
    for make in (d_yx, d_xy, delta_xy):
        make.cache_clear()
        assert make(twin) is make(e)


def test_a_non_element_is_refused_as_before_with_an_equal_scalar_map_cached():
    # typed memo keys: ad(3) must not hit the entry of the equal element 3
    three = ONE * 3
    assert three == 3 and hash(three) == hash(3)
    assert ad(three)(X) == 0
    for bad in (3, "X"):
        for _ in range(2):
            with pytest.raises(AttributeError, match="_ints"):
                ad(bad)


def test_an_unverified_pair_is_refused_on_every_call():
    # an exception is not memoized: each call checks the pair again
    e = build_endo(X**2, Y)
    assert not e.verified
    for make in (d_yx, d_xy, delta_xy):
        for _ in range(3):
            with pytest.raises(UnverifiedEndoError):
                make(e)


def test_a_canonical_run_forms_each_monomial_image_of_a_map_once(monkeypatch):
    # every check and window of one run_suite shares the maps of its fixed
    # elements and pairs, so no (map, monomial) image is computed twice
    for make in (ad, d_yx, d_xy, delta_xy):
        make.cache_clear()
    formed = Counter()
    original = LinearMap._monomial_image

    def counted(self, i, j):
        formed[self, i, j] += 1
        return original(self, i, j)

    monkeypatch.setattr(LinearMap, "_monomial_image", counted)
    assert all(r.passed for r in run_suite(canonical_config()))
    assert formed and max(formed.values()) == 1
