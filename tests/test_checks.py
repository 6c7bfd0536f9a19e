"""The windowed verification suite over the canonical pairs."""

import pytest

from weyl1 import (
    H,
    ONE,
    X,
    Y,
    CheckResult,
    EndoPair,
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
    run_suite,
)
from weyl1 import checks
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


@pytest.mark.parametrize("name,e", PAIRS, ids=[n for n, _ in PAIRS])
def test_eigvec_tables_check(name, e):
    res = check_eigvec_tables(e, 3, 3)
    assert res.passed, res.witness


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
            "ad_x closure (dim 2) != membership window (dim 10)",
            "ad_y closure (dim 1) != membership window (dim 10)",
            "delta closure (dim 3) != membership window (dim 10)",
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
    assert Coordinates(space).solve(space, [3 * H**2 + H - 1]) == [{0: -1, 1: 1, 2: 3}]
    assert Coordinates([ONE, H, X]).solve([ONE, H], [X]) == [None]
    co = Coordinates([H, ONE])
    assert co.basis([H, 2 * H, ONE + H]) == co.basis([ONE, H])
    space = [ONE, H]
    co = Coordinates(space, [3 * H - 1, X])
    assert co.solve(space, [3 * H - 1, X]) == [{0: -1, 1: 3}, None]
