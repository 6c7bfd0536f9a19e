"""Every suite check can FAIL: each is run on pairs flagged verified
whose commutator [y, x] is not 1.

A check that PASSes on all of them is either vacuous or insensitive to
[y, x] = 1.  Such a check must be on ALLOWED_TO_PASS with the reason;
an allowed check that starts to FAIL must leave the list.

Membership refuses these pairs, since they have no decomposition, so the
checks built on it FAIL with the refusal.  To see what those checks
compare, some tests set the slack oracle, which trusts `verified`, as
`checks.certificate`.
"""

import pytest

from oracles import SlackMembershipSolver
from weyl1 import (
    ONE,
    W11,
    EndoPair,
    MembershipSolver,
    UnverifiedEndoError,
    Window,
    WeylElement,
    X,
    Y,
    apply_endo,
    checks,
    commutator,
    format_element,
    rat,
)

FAKE_PAIRS = {
    "(X, 2Y)": EndoPair(x=X, y=2 * Y, verified=True),
    "(X^2, Y)": EndoPair(x=X**2, y=Y, verified=True),
    "(X+Y^2, 3Y)": EndoPair(x=X + Y**2, y=3 * Y, verified=True),
    "(X^2, Y^2)": EndoPair(x=X**2, y=Y**2, verified=True),
}

# each check called with run_suite's argument shapes, at small caps
CALLS = {
    "centralizer_theorem": lambda e: checks.check_centralizer_theorem(e, 4),
    "eigen_theorem": lambda e: checks.check_eigen_theorem(e, 3),
    "klein_basis": lambda e: checks.check_klein_basis(e, 2),
    "product_rules": lambda e: checks.check_product_rules(e, 3, 20260809),
    "kernel_delta": lambda e: checks.check_kernel_delta(e, 2),
    "nilpotent_closure": lambda e: checks.check_nilpotent_closure(
        e, 2, None, None
    ),
    "propagation": lambda e: checks.check_propagation(
        e, apply_endo(e, Y**2 * X**3), 1, 4
    ),
    "eigvec_tables": lambda e: checks.check_eigvec_tables(e, 2, 2),
}

ALLOWED_TO_PASS = {
    "product_rules": (
        "its rule m(ab) = m(a)b + a m(b) + [left, a][b, right] is an identity "
        "of the commutator for any x and y"
    ),
}
# propagation FAILs on these pairs only through the membership refusal.
# On genuine pairs it is vacuous: the suite passes phi(Y^2 X^3) = y^2 x^3,
# a member at every slack, so the implication cannot fail there.


def test_the_pairs_are_fake():
    for e in FAKE_PAIRS.values():
        assert commutator(e.y, e.x) != ONE


def test_calls_cover_every_suite_check():
    names = {
        n[len("check_"):] for n, f in vars(checks).items()
        if n.startswith("check_") and callable(f)
    }
    assert set(CALLS) == names
    assert set(ALLOWED_TO_PASS) < names


@pytest.mark.parametrize("name", sorted(CALLS))
def test_fake_pair_verdicts(name):
    results = {label: CALLS[name](e) for label, e in FAKE_PAIRS.items()}
    for res in results.values():
        assert res.name == name
        assert res.passed == (res.witness is None)
        if not res.passed:
            assert res.witness["problems"] and res.line().startswith("FAIL ")
    failed = sorted(label for label, res in results.items() if not res.passed)
    if name in ALLOWED_TO_PASS:
        assert not failed, f"{name} FAILs on {failed}: take it off ALLOWED_TO_PASS"
    else:
        assert failed, f"{name} PASSes on every fake pair"


def test_centralizer_witness_names_the_extra_dimension():
    # Y^2 X^2 commutes with YX, so the window holds more than powers of h
    res = CALLS["centralizer_theorem"](FAKE_PAIRS["(X^2, Y^2)"])
    assert res.witness == {"problems": ["eigenvalue 0: dimension 3 != expected 2"]}


def test_propagation_fails_for_a_chosen_element(monkeypatch):
    # d'(X) = [X^2, X] Y^2 = 0 is a member, X is not: the check can FAIL
    # when the element is not an image to begin with
    monkeypatch.setattr(checks, "certificate", SlackMembershipSolver)
    res = checks.check_propagation(FAKE_PAIRS["(X^2, Y^2)"], X, 1)
    assert not res.passed
    assert res.witness["problems"]


def test_eigen_witness_names_a_basis_outside_the_predicted_span():
    # with x and y swapped, h = XY: each eigenspace has the predicted
    # dimension but lies in the span of h^k v_(-i)', not of h^k v_i'
    res = checks.check_eigen_theorem(EndoPair(x=Y, y=X, verified=True), 4, range(-3, 4))
    assert res.witness == {
        "problems": [
            f"eigenvalue {k}: basis not inside span of h^k v_i'"
            for k in (-3, -2, -1, 1, 2, 3)
        ]
    }


def test_closure_witness_compares_spans_not_dimensions(monkeypatch):
    # the delta closure has the dimension of the membership window but
    # another span, so the comparison must be one of spans; each line
    # names the bounds it holds within
    monkeypatch.setattr(checks, "certificate", SlackMembershipSolver)
    res = checks.check_nilpotent_closure(FAKE_PAIRS["(X^2, Y^2)"], 2, None, None)
    assert res.witness == {
        "problems": [
            "ad_x closure (dim 6) != membership window (dim 3) within max_iter 9 and slack 14",
            "ad_y closure (dim 6) != membership window (dim 3) within max_iter 9 and slack 14",
            "delta closure (dim 3) != membership window (dim 3) within max_iter 9 and slack 14",
        ]
    }


def test_fake_pairs_get_no_inverse_before_any_product(monkeypatch):
    # [y, x] is recomputed, not read from `verified`: the pair is refused
    # before the degree reduction multiplies anything
    products = []
    for name in ("__mul__", "__pow__"):
        fn = getattr(WeylElement, name)
        monkeypatch.setattr(
            WeylElement, name,
            lambda a, b, fn=fn, name=name: products.append(name) or fn(a, b),
        )
    for e in FAKE_PAIRS.values():
        refusal = MembershipSolver(e).refusal
        assert isinstance(refusal, UnverifiedEndoError) and "no decomposition" in str(refusal)
    assert products == []


@pytest.mark.parametrize("name", ["nilpotent_closure", "propagation"])
def test_membership_checks_fail_with_the_refusal(name):
    for e in FAKE_PAIRS.values():
        res = CALLS[name](e)
        defect = commutator(e.y, e.x)
        assert res.witness == {
            "problems": [f"no decomposition: [y, x] = {format_element(defect)}"]
        }


@pytest.mark.parametrize("label", sorted(FAKE_PAIRS))
def test_a_fake_pairs_certificate_raises_its_refusal_on_use(label):
    e = FAKE_PAIRS[label]
    cert = MembershipSolver(e)  # built without raising
    message = f"no decomposition: [y, x] = {format_element(commutator(e.y, e.x))}"
    assert cert.premise == commutator(e.y, e.x) and cert.recipe is None
    for use in (lambda: cert.solve([X], 4), lambda: cert.solve([], 4)):
        with pytest.raises(UnverifiedEndoError) as err:
            use()
        assert err.value is cert.refusal and str(err.value) == message


# member flags of the cap-2 window monomials 1, X, Y, X^2, YX, Y^2 at
# slacks 0 and 4, which the slack oracle decides
FAKE_MEMBERS = {
    "(X, 2Y)": ("111111", "111111"),
    "(X^2, Y)": ("101101", "101101"),
    "(X+Y^2, 3Y)": ("101001", "111111"),
    "(X^2, Y^2)": ("100101", "100101"),
}


@pytest.mark.parametrize("label", sorted(FAKE_PAIRS))
def test_fake_pairs_keep_their_membership_verdicts(label):
    monos = Window(W11, 2).basis_elements()
    cert = MembershipSolver(FAKE_PAIRS[label])
    with pytest.raises(UnverifiedEndoError):
        cert.solve(monos, 0)
    solver = SlackMembershipSolver(FAKE_PAIRS[label])
    flags = tuple(
        "".join("1" if m.member else "0" for m in solver.solve(monos, slack))
        for slack in (0, 4)
    )
    assert flags == FAKE_MEMBERS[label]
    if label == "(X+Y^2, 3Y)":
        verdict = solver.solve([X], 4)[0]
        assert list(verdict.witness.items()) == [((0, 1), 1), ((2, 0), rat(-1, 9))]
