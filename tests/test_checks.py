"""The windowed verification suite over the canonical pairs."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coordinates_solve, direct_eigvec_problems, direct_klein_problems
from test_endos import _GENERATORS
from test_fake_pairs import FAKE_PAIRS
from weyl1 import (
    H,
    ONE,
    W11,
    X,
    Y,
    CheckResult,
    EndoPair,
    EndoRecipe,
    Window,
    WeylElement,
    add_poly_y,
    apply_endo,
    canonical_config,
    check_centralizer_theorem,
    check_eigen_theorem,
    check_eigvec_tables,
    check_kernel_delta,
    check_klein_basis,
    check_nilpotent_closure,
    check_product_rules,
    check_propagation,
    compile_recipe,
    linear,
    rat,
    run_suite,
    weighted_degree,
)
from weyl1 import checks, core, endos, windows
from weyl1.windows import Coordinates
from weyl1.serialize import recipe_from_doc

PAIRS = [
    (doc["name"], compile_recipe(recipe_from_doc(doc)))
    for doc in canonical_config()["endomorphisms"]
]


def test_canonical_pairs_are_the_documented_ones():
    names = [name for name, _ in PAIRS]
    assert names == ["identity", "triangular-x2", "composite"]
    assert PAIRS[1][1].x == X and PAIRS[1][1].y == Y + X**2
    assert PAIRS[2][1].x == X + Y**2


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_centralizer_check(name, e):
    res = check_centralizer_theorem(e, 8)
    assert res.passed, res.witness


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_eigen_check(name, e):
    res = check_eigen_theorem(e, 5)
    assert res.passed, res.witness


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_klein_check(name, e):
    res = check_klein_basis(e, 6)
    assert res.passed, res.witness


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_product_rules_check(name, e):
    res = check_product_rules(e, 10)
    assert res.passed, res.witness
    assert res.params["localized"] == (name == "identity")


def test_product_samples_are_drawn_once_per_suite():
    # from an emptied memo: the first pair draws, the other two read the
    # draw, and it is the draw of the configured (samples, seed)
    memo = checks._product_samples
    memo.cache_clear()
    config = canonical_config()
    assert all(r.passed for r in run_suite(config))
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 2)
    params = config["params"]
    memo(params["product_samples"], params["seed"])
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 3)
    assert check_product_rules(PAIRS[1][1], 3, 7).passed
    assert memo.cache_info().misses == 2


@pytest.mark.parametrize("samples,seed", [(3, 7), (20, 20260809)])
def test_memoized_product_samples_are_a_fresh_draw(samples, seed):
    # the memo returns what random.Random(seed) draws, with each product
    rng, fresh = random.Random(seed), []
    while len(fresh) < samples:
        a, b = checks._random_element(rng), checks._random_element(rng)
        if not a.is_zero() and not b.is_zero():
            fresh.append((a, b, a * b))
    checks._product_samples.cache_clear()
    drawn = checks._product_samples(samples, seed)
    assert drawn == tuple(fresh)
    assert checks._product_samples(samples, seed) is drawn


# the problem lists of the unshared check, recorded before the samples and
# their products were shared: (rule, failing samples, failing localized)
_MUTANT_FAILURES = {
    ("d_yx", "identity"): ("d", [1, 4], [1, 4]),
    ("d_yx", "triangular-x2"): ("d", [0, 1, 2, 3, 4], []),
    ("d_yx", "composite"): ("d", [0, 1, 2, 3, 4], []),
    ("d_xy", "identity"): ("d'", [0, 2, 3, 4], [0, 2, 3, 4]),
    ("d_xy", "triangular-x2"): ("d'", [0, 1, 2, 3, 4], []),
    ("d_xy", "composite"): ("d'", [0, 1, 2, 3, 4], []),
}


@pytest.mark.parametrize("mutant,name", sorted(_MUTANT_FAILURES))
def test_product_rules_fail_where_a_map_is_replaced(monkeypatch, mutant, name):
    # d = [y, .]x replaced by ad(y), or d' = [x, .]y by ad(x): every rule
    # the check compares must still see its own m(ab), m(a) b, a m(b)
    from weyl1.maps import ad

    left = {"d_yx": lambda e: ad(e.y), "d_xy": lambda e: ad(e.x)}[mutant]
    monkeypatch.setattr(checks, mutant, left)
    rule, plain, localized = _MUTANT_FAILURES[mutant, name]
    res = check_product_rules(dict(PAIRS)[name], 5)
    assert not res.passed
    assert res.witness["problems"] == [
        f"{rule} product rule fails on sample {k}" for k in plain
    ] + [f"localized {rule} rule fails on sample {k}" for k in localized]


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_kernel_delta_check(name, e):
    res = check_kernel_delta(e, 4)
    assert res.passed, res.witness


def test_kernel_delta_raises_its_generator_bound():
    # for the composite pair y - x^2 (degree 1) needs y and x^2 (degree 4),
    # so at cap 1 the default bound 2*cap is doubled once
    res = check_kernel_delta(PAIRS[2][1], 1)
    assert res.passed, res.witness
    assert res.params["span_bound"] == 4


def test_kernel_delta_doubles_to_its_last_bound_before_failing():
    # (X^2, Y) is no automorphism: its kernel window stays larger than
    # the (K[x]+K[y]) window through bounds 10, 20 and 40 = 8*cap
    res = check_kernel_delta(EndoPair(x=X**2, y=Y, verified=True), 5)
    assert not res.passed
    assert res.params == {"cap": 5, "span_bound": 40, "weight": "(1,1)"}
    assert res.witness == {"problems": [
        "kernel window (dim 11) differs from the (K[x]+K[y]) window "
        "(dim 8) within span_bound 40"
    ]}


def test_kernel_delta_fails_when_kernel_meets_centralizer_beyond_scalars():
    # x = y = H: delta = ad(H)^2 has the kernel K[H], which K[x] + K[y]
    # matches, but K[H] is also the centralizer of h = H^2
    res = check_kernel_delta(EndoPair(x=H, y=H, verified=True), 2)
    assert not res.passed
    assert res.params == {"cap": 2, "span_bound": 4, "weight": "(1,1)"}
    assert res.witness == {"problems": ["kernel meet centralizer is not the scalars"]}


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_nilpotent_closure_check(name, e):
    res = check_nilpotent_closure(e, 3)
    assert res.passed, res.witness
    assert res.params["max_iter"] == 13 and res.params["slack"] == 21


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_propagation_check(name, e):
    res = check_propagation(e, apply_endo(e, Y**2 * X**3), 2)
    assert res.passed, res.witness


@pytest.mark.parametrize("n,batch", [(0, 1), (1, 2)])
def test_propagation_pulls_each_distinct_element_back_once(monkeypatch, n, batch):
    # at n = 0, (d d')^0(a) is a itself; the batch [a, a] pulled it back
    # through psi twice (2.3 s of the check on the hard pair deep4)
    e = dict(PAIRS)["composite"]
    sizes = []
    pull = endos.MembershipSolver._pull_back
    monkeypatch.setattr(
        endos.MembershipSolver, "_pull_back", lambda s, b: sizes.append(len(b)) or pull(s, b)
    )
    res = check_propagation(e, apply_endo(e, Y**2 * X**3), n)
    assert res.passed, res.witness
    assert sizes == [batch]


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_eigvec_tables_check(name, e):
    res = check_eigvec_tables(e, 3, 3)
    assert res.passed, res.witness


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# eigenspaces computed by the cap-6 eigen check: the scan stops once they
# fill the window's largest ad(h)-invariant subspace (a full scan is 33)
EIGENSPACE_BOUND = {"identity": 13, "triangular-x2": 13, "composite": 6}


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_eigen_check_stops_once_the_eigenspaces_fill_the_invariant_subspace(
    name, e, monkeypatch
):
    calls = _count_calls(monkeypatch, windows, "eigenspace")
    res = check_eigen_theorem(e, 6)
    assert res.passed and res.params["candidates"] == 33
    assert calls[0] <= EIGENSPACE_BOUND[name]


def test_centralizer_check_computes_no_invariant_dimension():
    windows.invariant_dim.cache_clear()
    for _, e in PAIRS:
        assert check_centralizer_theorem(e, 6).passed
    info = windows.invariant_dim.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_eigen_dimensions_match_graded_count():
    # windowed eigenspace dimensions equal the count of h^k v_i' inside
    # the window, computed from degrees alone (inside the check); a
    # deliberately wrong candidate set must not invent eigenvalues
    e = PAIRS[1][1]
    res = check_eigen_theorem(e, 5, candidates=["1/2", "-1/2", "0", "1", "-1"])
    assert res.passed


def test_run_suite_canonical_all_pass():
    results = run_suite(canonical_config())
    assert results, "suite must produce results"
    assert all(r.passed for r in results)
    assert len(results) == 3 * 8
    lines = [r.line() for r in results]
    assert all(line.startswith("PASS ") for line in lines)


def test_checkresult_failure_carries_witness():
    # an intentionally undersized closure bound cannot kill the window,
    # so the closure is a proper subspace and the check reports it
    e = PAIRS[2][1]
    res = check_nilpotent_closure(e, 3, max_iter=1, slack=21)
    assert not res.passed
    assert res.witness == {
        "problems": [
            "ad_x closure (dim 2) != membership window (dim 10) within max_iter 1 and slack 21",
            "ad_y closure (dim 1) != membership window (dim 10) within max_iter 1 and slack 21",
            "delta closure (dim 3) != membership window (dim 10) within max_iter 1 and slack 21",
        ]
    }
    assert res.line().startswith("FAIL ")


# flagged verified, but [y, x] = 2
COMMUTATOR_TWO = EndoPair(x=X, y=2 * Y, verified=True)


@pytest.mark.parametrize(
    "check",
    [
        lambda e: check_eigen_theorem(e, 4),
        # ad(h) X = 2X here, so the predicted eigenvalue 1 has no eigenvector
        lambda e: check_eigen_theorem(e, 4, candidates=["1"]),
        lambda e: check_klein_basis(e, 3),
        lambda e: check_eigvec_tables(e, 2, 2),
    ],
    ids=["eigen_theorem", "eigen_theorem-missing", "klein_basis", "eigvec_tables"],
)
def test_checks_fail_on_a_pair_with_commutator_two(check):
    res = check(COMMUTATOR_TWO)
    assert not res.passed
    assert res.witness and res.witness["problems"]
    assert res.line().startswith("FAIL ")


# -- the eigen certificate: a PASS from dim V, else the scan ---------------


def _certifies(e, cap):
    """The certificate's verdict on the cap's window, over the default
    candidates' prediction."""
    predicted = checks._predicted(e, cap, windows.eigen_candidates(cap, None))
    return checks._eigen_certificate(e.h, Window(W11, cap), predicted)


def _certified_and_scanned(e, cap, candidates=None):
    """(line, witness) of the eigen check as it runs, and with the
    certificate off, so that only the candidate scan decides."""
    res = check_eigen_theorem(e, cap, candidates)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_eigen_certificate", lambda *a: False)
        scan = check_eigen_theorem(e, cap, candidates)
    return (res.line(), res.witness), (scan.line(), scan.witness)


@pytest.mark.parametrize("cap", range(2, 9))
@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_certified_eigen_record_equals_the_scan_record(name, e, cap):
    assert _certifies(e, cap)
    certified, scanned = _certified_and_scanned(e, cap)
    assert certified == scanned and certified[0].startswith("PASS ")


@settings(deadline=None, max_examples=15)
@given(st.lists(_GENERATORS, min_size=1, max_size=3), st.integers(2, 6))
def test_certified_eigen_record_equals_the_scan_record_on_drawn_recipes(gens, cap):
    # a drawn recipe is an automorphism, so the certificate must hold
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    assert _certifies(e, cap)
    certified, scanned = _certified_and_scanned(e, cap)
    assert certified == scanned


# x and y of degree 3: at cap 2 only the eigenvalue 0 is predicted, with
# the span of 1, and only dim V tells that H = YX is another eigenvector
DEGREE_THREE = EndoPair(x=X**3, y=Y**3, verified=True)


@pytest.mark.parametrize("cap", range(2, 7))
@pytest.mark.parametrize(
    "e",
    [*FAKE_PAIRS.values(), COMMUTATOR_TWO, DEGREE_THREE],
    ids=[*FAKE_PAIRS, "commutator two", "(X^3, Y^3)"],
)
def test_fake_pairs_give_the_scan_record(e, cap):
    assert not _certifies(e, cap)
    certified, scanned = _certified_and_scanned(e, cap)
    assert certified == scanned and certified[0].startswith("FAIL ")


def test_a_declined_certificate_shares_the_matrix_and_dim_v_with_the_scan(monkeypatch):
    # (X^3, Y^3) at cap 2 is declined at the last step, the dim V
    # comparison; the scan then reuses that ad(h) matrix and dim V, from
    # emptied memos: one matrix formed and one dim V computed
    windows._ad_window_matrix.cache_clear()
    windows.invariant_dim.cache_clear()
    matrices = _count_calls(monkeypatch, windows, "map_matrix")
    res = check_eigen_theorem(DEGREE_THREE, 2)
    assert (matrices[0], windows.invariant_dim.cache_info().misses) == (1, 1)
    assert res.line() == "FAIL eigen_theorem (candidates=13, cap=2, weight=(1,1))"
    assert res.witness == {"problems": ["eigenvalue 0: dimension 2 != expected 1"]}


@pytest.mark.parametrize(
    "e,cap,certified",
    [(PAIRS[0][1], 6, True), (DEGREE_THREE, 2, False), (FAKE_PAIRS["(X^2, Y^2)"], 4, False)],
    ids=["identity", "(X^3, Y^3)", "(X^2, Y^2)"],
)
def test_the_eigen_check_forms_its_prediction_once(e, cap, certified, monkeypatch):
    # the certificate and the scan read one prediction: powers of h, x and
    # y are formed once per check, certified or not (the scan formed them
    # again after a declined certificate: 6 and 5 calls)
    assert _certifies(e, cap) == certified
    calls = _count_calls(monkeypatch, checks, "powers")
    check_eigen_theorem(e, cap)
    assert calls[0] == 3


@settings(deadline=None, max_examples=15)
@given(st.lists(_GENERATORS, min_size=1, max_size=3), st.integers(0, 8))
def test_the_prediction_is_the_h_k_v_i_inside_the_window(gens, cap):
    # h^k v_i', k = 0, 1, ..., taken while the product's own degree is at
    # most the cap, for each integer candidate i
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    predicted = checks._predicted(e, cap, windows.eigen_candidates(cap, None))
    assert list(predicted) == list(range(-cap, cap + 1))
    for a, sign in ((e.x, 1), (e.y, -1)):
        vi = ONE
        for n in range(cap + 1):
            expect, u = [], vi
            while weighted_degree(W11, u) <= cap:
                expect.append(u)
                u = e.h * u
            assert predicted[sign * n] == expect, sign * n
            if expect:  # past the cap every later list is empty too
                vi = vi * a


@pytest.mark.parametrize("candidates", [["1/2", "-1/2", "0", "1", "-1"], ["1"]])
@pytest.mark.parametrize(
    "e",
    [*(e for _, e in PAIRS), COMMUTATOR_TWO],
    ids=[*(n for n, _ in PAIRS), "commutator two"],
)
def test_candidate_subsets_give_the_scan_record(e, candidates):
    certified, scanned = _certified_and_scanned(e, 5, candidates)
    assert certified == scanned


@pytest.mark.parametrize(
    "e,problems",
    [
        (EndoPair(x=ONE, y=Y, verified=True), [
            "eigenvalue -4: dimension 0 != expected 1",
            "eigenvalue -3: dimension 0 != expected 2",
            "eigenvalue -2: dimension 0 != expected 3",
            "eigenvalue -1: dimension 0 != expected 4",
            "eigenvalue 1: dimension 0 != expected 5",
            "eigenvalue 2: dimension 0 != expected 5",
            "eigenvalue 3: dimension 0 != expected 5",
            "eigenvalue 4: dimension 0 != expected 5",
        ]),
        (EndoPair(x=X, y=ONE, verified=True), [
            "eigenvalue -4: dimension 0 != expected 5",
            "eigenvalue -3: dimension 0 != expected 5",
            "eigenvalue -2: dimension 0 != expected 5",
            "eigenvalue -1: dimension 0 != expected 5",
            "eigenvalue 1: dimension 0 != expected 4",
            "eigenvalue 2: dimension 0 != expected 3",
            "eigenvalue 3: dimension 0 != expected 2",
            "eigenvalue 4: dimension 0 != expected 1",
        ]),
    ],
    ids=["(1, Y)", "(X, 1)"],
)
def test_a_scalar_component_declines_the_certificate(e, problems):
    # v(x) = 0 or v(y) = 0: the certificate declines, and the scan's FAIL
    # record is the one the scan gave before there was a certificate
    assert not _certifies(e, 4)
    res = check_eigen_theorem(e, 4)
    assert res.line() == "FAIL eigen_theorem (candidates=23, cap=4, weight=(1,1))"
    assert res.witness == {"problems": problems}


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_cap6_eigen_check_computes_no_eigenspace(name, e, monkeypatch):
    # the scan computed 13 / 12 / 6 eigenspaces here
    spaces = _count_calls(monkeypatch, windows, "eigenspace")
    windows.invariant_dim.cache_clear()
    assert check_eigen_theorem(e, 6).passed
    assert (spaces[0], windows.invariant_dim.cache_info().misses) == (0, 1)
    monkeypatch.setattr(checks, "_eigen_certificate", lambda *a: False)
    assert check_eigen_theorem(e, 6).passed
    assert 0 < spaces[0] <= EIGENSPACE_BOUND[name]


def test_run_suite_evaluates_the_pair_free_identities_once_per_call(monkeypatch):
    klein = _count_calls(monkeypatch, checks, "_klein_problems")
    eigvec = _count_calls(monkeypatch, checks, "_eigvec_problems")
    for runs in (1, 2):  # no cache outlives a call
        assert all(r.passed for r in run_suite(canonical_config()))
        assert klein[0] == eigvec[0] == runs
    e = PAIRS[2][1]
    assert check_klein_basis(e, 3).passed and check_eigvec_tables(e, 2, 2).passed
    assert klein[0] == eigvec[0] == 3


def test_run_suite_builds_one_certificate_per_pair(monkeypatch):
    # [y, x] of a pair, or of one of its generators or their inverses, is
    # formed by compile_recipe, by the certificate's premise and by
    # certify's replay: three times per pair, and by nothing else
    operands = []
    for doc in canonical_config()["endomorphisms"]:
        recipe = recipe_from_doc(doc)
        pairs = [compile_recipe(recipe)]
        for g in recipe.generators:
            pairs += [g.pair(), g.inverse().pair()]
        operands += [(p.y, p.x) for p in pairs]
    forms, certificates = [0], [0]
    commutator, init = core.commutator, endos.MembershipSolver.__init__

    def counted(a, b):
        forms[0] += any(a == y and b == x for y, x in operands)
        return commutator(a, b)

    def counted_init(self, e):
        certificates[0] += 1
        init(self, e)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "weyl1" and vars(mod).get("commutator") is commutator:
            monkeypatch.setattr(mod, "commutator", counted)
    monkeypatch.setattr(endos.MembershipSolver, "__init__", counted_init)
    endos.certificate.cache_clear()  # the canonical pairs' memo is emptied
    assert all(r.passed for r in run_suite(canonical_config()))
    assert forms[0] <= 9
    assert certificates[0] == 3
    # a second suite reads the three from the memo
    assert all(r.passed for r in run_suite(canonical_config()))
    assert certificates[0] == 3


def test_the_eight_checks_of_a_fresh_pair_build_one_certificate(monkeypatch):
    # every check reads the pair's certificate from the memo, none builds
    # its own: a pair that no other test uses, at small params
    e = compile_recipe(EndoRecipe(generators=(add_poly_y([0, 0, 0, 2]), linear(1, 1, 0, 1))))
    built = _count_calls(monkeypatch, endos, "MembershipSolver")
    endos.certificate.cache_clear()
    results = [
        check_centralizer_theorem(e, 4),
        check_eigen_theorem(e, 3),
        check_klein_basis(e, 2),
        check_product_rules(e, 3),
        check_kernel_delta(e, 2),
        check_nilpotent_closure(e, 2),
        check_propagation(e, apply_endo(e, Y * X), 1),
        check_eigvec_tables(e, 2, 2),
    ]
    assert all(r.passed for r in results), [r.witness for r in results]
    assert built[0] == 1


def test_checks_module_holds_exactly_the_suite_checks(monkeypatch):
    # bench/workloads.py times every module-level check_* callable of
    # weyl1.checks as one op of a verify pass, so each must be one that
    # run_suite runs, once per pair
    names = {n for n, f in vars(checks).items() if n.startswith("check_") and callable(f)}
    called = []
    for n in names:
        monkeypatch.setattr(
            checks, n, lambda *a, _n=n, **k: called.append(_n) or CheckResult(_n, {}, True)
        )
    run_suite(canonical_config())
    assert len(names) == 8
    assert sorted(called) == sorted(list(names) * 3)


def test_span_helpers():
    co = Coordinates([H, ONE, X])
    assert co.basis([H, ONE]) == co.basis([H + 1, ONE])
    assert co.basis([H]) != co.basis([X])
    space = [ONE, H, H**2]
    want = [({0: -1, 1: 1, 2: 3}, 1)]
    assert coordinates_solve(Coordinates(space), space, [3 * H**2 + H - 1]) == want
    # a right-hand side over 2 gives a solution over 2
    half = rat(1, 2) * (3 * H**2 + H - 1)
    assert coordinates_solve(Coordinates(space), space, [half]) == [({0: -1, 1: 1, 2: 3}, 2)]
    assert coordinates_solve(Coordinates([ONE, H, X]), [ONE, H], [X]) == [None]
    co = Coordinates([H, ONE])
    assert co.basis([H, 2 * H, ONE + H]) == co.basis([ONE, H])
    space = [ONE, H]
    co = Coordinates(space, [3 * H - 1, X])
    assert coordinates_solve(co, space, [3 * H - 1, X]) == [({0: -1, 1: 3}, 1), None]


# -- the identity checks: premise on the pair, identities on (X, Y) --------


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_direct_oracles_hold_on_the_canonical_pairs(name, e):
    # the suite no longer forms these products (composite: up to y^8 x^4),
    # so the per-pair identities at the canonical params are kept here
    params = canonical_config()["params"]
    assert direct_klein_problems(e, params["klein_imax"]) == []
    assert direct_eigvec_problems(e, params["eigvec_imax"], params["eigvec_nmax"]) == []


@pytest.mark.parametrize(
    "label,e",
    [*FAKE_PAIRS.items(), ("commutator two", COMMUTATOR_TWO)],
    ids=[*FAKE_PAIRS, "commutator two"],
)
def test_identity_checks_agree_with_the_direct_oracles(label, e):
    assert check_klein_basis(e, 2).passed == (direct_klein_problems(e, 2) == [])
    assert check_eigvec_tables(e, 2, 2).passed == (
        direct_eigvec_problems(e, 2, 2) == []
    )


@settings(deadline=None, max_examples=10)
@given(st.lists(_GENERATORS, min_size=1, max_size=3))
def test_identity_checks_agree_with_the_direct_oracles_on_drawn_recipes(gens):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    assert check_klein_basis(e, 3).passed == (direct_klein_problems(e, 3) == [])
    assert check_eigvec_tables(e, 2, 2).passed == (
        direct_eigvec_problems(e, 2, 2) == []
    )


def test_identity_checks_multiply_few_term_pairs(monkeypatch):
    # work, not time: sum of |a| * |b| over the element products formed.
    # Evaluating the identities on the composite pair itself took 44 831.
    pairs = [0]
    mul = WeylElement.__mul__

    def counted(a, b):
        if isinstance(b, WeylElement):
            pairs[0] += a.monomial_count() * b.monomial_count()
        return mul(a, b)

    e = PAIRS[2][1]
    endos.certificate(e)  # the memo is filled before products are counted
    monkeypatch.setattr(WeylElement, "__mul__", counted)
    assert check_klein_basis(e, 8).passed and check_eigvec_tables(e, 4, 4).passed
    assert pairs[0] < 2_000


@pytest.mark.parametrize(
    "check",
    [
        lambda e: check_klein_basis(e, 3),
        lambda e: check_eigvec_tables(e, 2, 2),
        # at imax = 0 next to nothing is checked, but the premise still is
        lambda e: check_klein_basis(e, 0),
        lambda e: check_eigvec_tables(e, 0, 0),
    ],
    ids=["klein_basis", "eigvec_tables", "klein_basis-imax0", "eigvec_tables-imax0"],
)
def test_identity_checks_fail_on_the_premise_alone(check):
    res = check(COMMUTATOR_TWO)
    assert res.witness == {"problems": ["premise fails: [y, x] = 2"]}


def test_identity_checks_recompute_the_premise_and_ignore_verified():
    # a genuine pair flagged unverified PASSes: the premise is recomputed
    e = PAIRS[2][1]
    unflagged = EndoPair(x=e.x, y=e.y, verified=False)
    assert check_klein_basis(unflagged, 3).passed
    assert check_eigvec_tables(unflagged, 2, 2).passed


def test_a_suite_forms_each_pairs_h_once(monkeypatch):
    # h = y*x is kept on its pair: several checks read it, the centralizer
    # check twice, and formed as a plain property it took five products
    pairs = []
    compile_pair = checks.compile_recipe
    monkeypatch.setattr(
        checks, "compile_recipe", lambda r: pairs.append(compile_pair(r)) or pairs[-1]
    )
    formed = [0] * 3
    mul = WeylElement.__mul__

    def counted(a, b):
        for k, e in enumerate(pairs):
            if a is e.y and b is e.x:
                formed[k] += 1
        return mul(a, b)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    assert all(r.passed for r in run_suite(canonical_config()))
    assert len(pairs) == 3 and formed == [1, 1, 1]
