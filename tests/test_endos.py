"""Recipes, compilation, the decomposition of a pair into a recipe and
slack-bounded subalgebra membership."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SlackMembershipSolver
from weyl1 import (
    ONE,
    W11,
    DomainError,
    EndoPair,
    EndoRecipe,
    MembershipSolver,
    UnverifiedEndoError,
    Weight,
    Window,
    WeylElement,
    X,
    Y,
    add_poly_x,
    add_poly_y,
    apply_endo,
    build_endo,
    canonical_config,
    commutator,
    compile_recipe,
    endos,
    linalg,
    linear,
    rat,
    subalgebra_membership,
    theta,
    windows,
)
from weyl1.degrees import weighted_degree
from weyl1.endos import _cut, certify, decompose
from weyl1.serialize import recipe_from_doc


def test_compile_triangular():
    pair = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]),)))
    assert pair.verified
    assert pair.x == X and pair.y == Y + X**2


def test_compile_composite_left_to_right():
    pair = compile_recipe(
        EndoRecipe(generators=(add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1])))
    )
    assert pair.verified
    assert pair.x == X + Y**2
    assert pair.y == Y + (X + Y**2) ** 2


def test_compile_linear_rotation():
    pair = compile_recipe(EndoRecipe(generators=(linear(0, 1, -1, 0),)))
    assert pair.verified
    assert pair.x == Y and pair.y == -X
    # matches the grading-reversing automorphism on the generators
    assert pair.x == theta(X) and pair.y == theta(Y)


def test_compile_identity_and_raw():
    assert compile_recipe(EndoRecipe()).is_identity()
    pair = compile_recipe(EndoRecipe(raw=(X, Y + X**3)))
    assert pair.verified
    with pytest.raises(UnverifiedEndoError):
        compile_recipe(EndoRecipe(raw=(X, X)))


def test_linear_generator_needs_determinant_one():
    with pytest.raises(ValueError):
        linear(1, 1, 1, 1).pair()


def test_membership_of_images():
    e = build_endo(X, Y + X**2)
    a = apply_endo(e, Y**3 * X)
    verdict = subalgebra_membership(e, a, slack=4)
    assert verdict.member
    assert verdict.witness == {(3, 1): rat(1)}


def test_membership_trivial_scalar():
    e = build_endo(X, Y + X**2)
    verdict = subalgebra_membership(e, X * 0 + 1, slack=0)
    assert verdict.member and verdict.witness == {(0, 0): rat(1)}


def test_membership_of_Y_found_at_small_slack():
    # Y = (Y + X^2) - X^2, both pieces within degree 1 + 4
    e = build_endo(X, Y + X**2)
    verdict = subalgebra_membership(e, Y, slack=4)
    assert verdict.member
    assert verdict.witness == {(1, 0): rat(1), (0, 2): rat(-1)}


def test_membership_false_at_small_slack_true_later():
    # Y^5 needs the basis monomial y^5 of degree 10 > 5 + 4
    e = build_endo(X, Y + X**2)
    low = subalgebra_membership(e, Y**5, slack=4)
    assert not low.member and low.witness is None
    high = subalgebra_membership(e, Y**5, slack=5)
    assert high.member


def test_membership_monotone_and_stable():
    e = build_endo(X, Y + X**2)
    for a in (Y, Y**2 + X, apply_endo(e, Y * X**2)):
        base = subalgebra_membership(e, a, slack=4)
        wider = subalgebra_membership(e, a, slack=8)
        if base.member:
            assert wider.member
            assert wider.witness == base.witness  # stable particular solution
    e2 = build_endo(X + Y**2, Y + (X + Y**2) ** 2)
    verdict = subalgebra_membership(e2, e2.x**2, slack=0)
    assert verdict.member and verdict.witness == {(0, 2): rat(1)}


def test_membership_witness_recombines():
    e = build_endo(X + Y**2, Y + (X + Y**2) ** 2)
    solver = MembershipSolver(e)
    for a in (apply_endo(e, Y * X), apply_endo(e, Y**2 + X**3)):
        verdict = solver.solve([a], 4)[0]
        assert verdict.member
        acc = 0 * X
        for (i, j), c in verdict.witness.items():
            acc = acc + c * (e.y**i * e.x**j)
        assert acc == a


def test_membership_requires_verified_pair():
    with pytest.raises(UnverifiedEndoError):
        subalgebra_membership(build_endo(X, X), Y)


def test_membership_refuses_a_pair_with_a_scalar_component():
    # a degree-0 y would keep candidate_pairs adding powers of y forever;
    # its [y, x] = 0 refuses it before
    cert = MembershipSolver(EndoPair(x=X**2, y=ONE, verified=True))
    with pytest.raises(DomainError, match=r"no decomposition: \[y, x\] = 0"):
        cert.solve([Y], 4)


def test_membership_refuses_a_negative_slack():
    solver = MembershipSolver(build_endo(X, Y + X**2))
    with pytest.raises(ValueError, match="slack"):
        solver.solve([Y], -1)
    assert solver.solve([X], 0)[0].member


def test_membership_zero_element():
    e = build_endo(X, Y + X**2)
    verdict = subalgebra_membership(e, 0 * X, slack=0)
    assert verdict.member and verdict.witness == {}


def test_basis_products_are_y_powers_times_x_powers():
    e = compile_recipe(EndoRecipe(generators=(add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1]))))
    solver = SlackMembershipSolver(e)
    # ask out of order, so rows are both started and extended
    for i, j in [(2, 3), (0, 0), (2, 1), (0, 4), (3, 0), (1, 2)]:
        assert solver.basis_product(i, j) == e.y**i * e.x**j


# -- the certified decomposition against the slack oracle -----------------

CANONICAL = {
    doc["name"]: compile_recipe(recipe_from_doc(doc))
    for doc in canonical_config()["endomorphisms"]
}
RAW = compile_recipe(EndoRecipe(raw=(X + 3 * Y**2 - 1, Y + 2)))
# v(x) = 6, v(y) = 12; its inverse has degrees (12, 12)
DEEP4 = compile_recipe(EndoRecipe(generators=(
    add_poly_x([0, 1, 1]),
    add_poly_y([0, 0, 1]),
    add_poly_x([0, 0, 0, 1]),
    linear(2, 1, 1, 1),
)))


def _inverse(recipe):
    """psi = phi^-1 for the pair the recipe compiles to: the inverse
    generators in reverse order."""
    return compile_recipe(EndoRecipe(tuple(g.inverse() for g in reversed(recipe.generators))))


def _records(solver, elements, slack):
    """Membership records with the witness as an ordered item list."""
    return [
        (m, None if m.witness is None else list(m.witness.items()))
        for m in solver.solve(elements, slack)
    ]


def _assert_paths_agree(e, elements, slacks):
    psi = _inverse(decompose(e))
    for a in (X, Y):  # psi after phi and phi after psi are the identity
        assert apply_endo(psi, apply_endo(e, a)) == a
        assert apply_endo(e, apply_endo(psi, a)) == a
    fast = MembershipSolver(e)
    slow = SlackMembershipSolver(e)
    for slack in slacks:
        assert _records(fast, elements, slack) == _records(slow, elements, slack)
        for a in elements:  # alone or in a batch, the same record
            assert _records(fast, [a], slack) == _records(slow, [a], slack)


def _queries(e, cap):
    monos = Window(W11, cap).basis_elements()
    return monos + [apply_endo(e, m) for m in monos] + [0 * X, X**3 - 2 * Y]


@pytest.mark.parametrize("name", sorted(CANONICAL) + ["raw"])
def test_inverse_path_matches_slack_path(name):
    e = RAW if name == "raw" else CANONICAL[name]
    _assert_paths_agree(e, _queries(e, 2), (0, 2, 4, 9, 28))


def test_composite_inverse_and_a_non_member():
    e = CANONICAL["composite"]
    psi = _inverse(decompose(e))
    assert psi.y == Y - X**2
    assert psi.x == X - (Y - X**2) ** 2
    # psi(X) uses y^2 of degree 8 > v(X) + 4, so X is not a member there
    verdict = MembershipSolver(e).solve([X], 4)[0]
    assert not verdict.member and verdict.degree_bound == 5


def test_decompositions_of_the_canonical_and_raw_pairs():
    assert decompose(CANONICAL["identity"]) == EndoRecipe(())
    assert decompose(CANONICAL["triangular-x2"]) == EndoRecipe((add_poly_x([0, 0, 1]),))
    composite = decompose(CANONICAL["composite"])  # its config recipe
    assert composite == EndoRecipe((add_poly_x([0, 0, 1]), add_poly_y([0, 0, 1])))
    assert [composite] == [
        recipe_from_doc(doc)
        for doc in canonical_config()["endomorphisms"]
        if doc["name"] == "composite"
    ]
    rec = decompose(RAW)  # ends at an affine pair other than (X, Y)
    assert rec == EndoRecipe((
        add_poly_y([0, 0, 3]), add_poly_y([-13]), add_poly_x([2]), linear(1, -12, 0, 1),
    ))
    assert certify(RAW, rec) is rec
    psi = _inverse(rec)
    assert apply_endo(psi, RAW.x) == X and apply_endo(psi, RAW.y) == Y


@pytest.mark.parametrize(
    "a,b,c",
    [
        (Y**2 + 3 * X, 2 * Y + 1, rat(1, 4)),
        (3 * Y**2 + 6 * Y * X + 3 * X**2 + X, 2 * Y + 2 * X + 1, rat(3, 4)),
        (rat(2, 3) * Y**2 * X**2 + Y, rat(6, 5) * Y * X + X, rat(25, 54)),
    ],
)
def test_a_cut_reads_the_ratio_of_the_leading_forms(a, b, c):
    va, vb = weighted_degree(W11, a), weighted_degree(W11, b)
    k = va // vb
    assert _cut("y", a, va, b, vb) == ("y", c, k)
    assert weighted_degree(W11, a - c * b**k) < va


@pytest.mark.parametrize(
    "a,b",
    [
        (Y**2 + Y * X + X**2, Y + X),  # same support, not proportional
        (Y * X, Y + 1),  # lead(b)^2 = Y^2 lacks the monomial Y*X
        (Y**2 + X, Y * X + X),  # lead(b)^1 = Y*X lacks Y^2
        (Y**3, Y**2 + X),  # v(a) = 3 is no multiple of v(b) = 2
    ],
)
def test_no_cut_unless_one_leading_form_is_a_multiple_of_a_power(a, b):
    assert _cut("x", a, weighted_degree(W11, a), b, weighted_degree(W11, b)) is None


@pytest.mark.parametrize("field", ["c", "k"])
def test_a_changed_step_is_refused_and_gets_no_verdict(field, monkeypatch):
    e = CANONICAL["composite"]
    rec = decompose(e)
    first, rest = rec.generators[0], rec.generators[1:]
    assert first == add_poly_x([0, 0, 1])  # y <- y - 1*x^2
    changed = add_poly_x([0, 0, 2]) if field == "c" else add_poly_x([0, 0, 0, 1])
    bad = EndoRecipe((changed,) + rest)
    with pytest.raises(DomainError, match="does not replay"):
        certify(e, bad)
    psi = _inverse(bad)  # what the solver would pull back along
    assert (apply_endo(psi, e.x), apply_endo(psi, e.y)) != (X, Y)
    monkeypatch.setattr(endos, "_reduce", lambda pair, premise: bad)
    with pytest.raises(DomainError, match="does not replay"):
        MembershipSolver(e).solve([X], 4)


def test_an_affine_pair_must_be_affine_and_commute_to_one():
    e = CANONICAL["identity"]
    for x, y in ((X, 2 * Y), (X + Y**2, Y)):
        with pytest.raises(DomainError, match="does not replay"):
            certify(EndoPair(x=x, y=y, verified=True), EndoRecipe())
    assert certify(e, EndoRecipe()).generators == ()


def test_a_linear_generator_without_determinant_one_does_not_replay():
    # compiling raises ValueError; certify reports it as the refusal
    e = compile_recipe(EndoRecipe((linear(2, 0, 0, rat(1, 2)),)))
    with pytest.raises(DomainError, match="does not replay"):
        certify(e, EndoRecipe((linear(2, 0, 0, 1),)))


def test_a_raw_override_is_no_certificate():
    # a raw pair compiles to itself, but gives the solver nothing to pull back
    with pytest.raises(DomainError, match="does not replay"):
        certify(RAW, EndoRecipe(raw=(RAW.x, RAW.y)))


@pytest.mark.parametrize(
    "gen",
    [add_poly_x([1, -2, rat(1, 3)]), add_poly_y([0, 2, 0, -1]), linear(2, 1, 3, 2)],
    ids=["add_poly_x", "add_poly_y", "linear"],
)
def test_a_generator_inverse_undoes_it(gen):
    assert type(gen.inverse()) is type(gen)
    for first, then in ((gen, gen.inverse()), (gen.inverse(), gen)):
        pair = compile_recipe(EndoRecipe((first, then)))
        assert (pair.x, pair.y) == (X, Y)


def test_a_stall_names_the_degrees_and_leading_forms(monkeypatch):
    # no commutator-one pair is known to stall (that would answer
    # Dixmier's problem), so the premise [y, x] = 1 is faked here
    monkeypatch.setattr(endos, "commutator", lambda a, b: ONE)
    e = EndoPair(x=X**2 + Y, y=Y**2 * X + X, verified=True)
    with pytest.raises(DomainError) as err:
        decompose(e)
    assert str(err.value) == (
        "degree reduction stalls at v(x) = 2, v(y) = 3, leading forms X^2 and Y^2*X"
    )


def test_a_pair_without_commutator_one_is_refused():
    e = EndoPair(x=X**2, y=Y**2, verified=True)
    cert = MembershipSolver(e)
    with pytest.raises(UnverifiedEndoError, match=r"\[y, x\]"):
        cert.solve([X], 4)


_RATS = st.fractions(-2, 2, max_denominator=3)
_COEFFS = st.lists(_RATS, min_size=1, max_size=3)
_GENERATORS = st.one_of(
    _COEFFS.map(add_poly_x),
    _COEFFS.map(add_poly_y),
    st.tuples(st.sampled_from([1, -1, 2, rat(1, 2)]), _RATS, _RATS).map(
        lambda t: linear(t[0], t[1], t[2], (1 + t[1] * t[2]) / t[0])
    ),
)
_NON_MEMBERS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _RATS, min_size=1, max_size=3
).map(WeylElement)


@settings(deadline=None, max_examples=15)
@given(st.lists(_GENERATORS, min_size=1, max_size=3))
def test_a_drawn_pair_decomposes_to_a_recipe_that_compiles_back(gens):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    rec = decompose(e)
    pair = compile_recipe(rec)
    assert (pair.x, pair.y) == (e.x, e.y)
    psi = _inverse(rec)
    for a in (X, Y):  # psi after phi and phi after psi are the identity
        assert apply_endo(psi, apply_endo(e, a)) == a
        assert apply_endo(e, apply_endo(psi, a)) == a


@settings(deadline=None, max_examples=15)
@given(st.lists(_GENERATORS, min_size=1, max_size=3), _NON_MEMBERS)
def test_inverse_path_matches_slack_path_on_drawn_recipes(gens, other):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    _assert_paths_agree(e, _queries(e, 2) + [other], (0, 2, 4, 9))


@settings(deadline=None, max_examples=30)
@given(_GENERATORS)
def test_a_generator_pair_and_its_inverse_commute_to_one(gen):
    # the generators build their pairs unchecked, as verified
    for p in (gen.pair(), gen.inverse().pair()):
        assert p.verified and commutator(p.y, p.x) == ONE


@settings(deadline=None, max_examples=15)
@given(st.lists(_GENERATORS, min_size=1, max_size=3), _NON_MEMBERS, _NON_MEMBERS)
def test_expand_is_psi_on_drawn_recipes(gens, a, b):
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    cert = MembershipSolver(e)
    assert cert.refusal is None and cert.premise == ONE
    assert apply_endo(e, cert.expand(a)) == a  # phi after psi
    assert cert.expand(apply_endo(e, b)) == b  # psi after phi


def test_pairs_tried_counts_each_elements_own_pairs():
    e = build_endo(X, Y + X**2)
    for solver in (MembershipSolver(e), SlackMembershipSolver(e)):
        assert solver.solve([Y], 4)[0].pairs_tried == 12
        batch = solver.solve([Y, Y**6, 0 * X], 4)
        assert [m.pairs_tried for m in batch] == [12, 36, 0]
        assert solver.solve([0 * X], 4)[0].pairs_tried == 0


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 60))
def test_pairs_tried_in_closed_form_counts_the_window_monomials(vy, vx, bound):
    # the pairs (i, j) with i*vy + j*vx <= bound are the monomials Y^i X^j
    # of the (vy, vx) window of that cap
    want = len(Window(Weight(vy, vx), bound).monomials)
    assert endos._pairs_within(vy, vx, bound) == want


def test_inverse_path_builds_no_basis_product_and_solves_nothing(monkeypatch):
    # every elimination, the slack oracle's solve included, runs through
    # linalg._echelon (windows imports it by name)
    calls = {"basis_product": 0, "eliminations": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        SlackMembershipSolver, "basis_product",
        counted("basis_product", SlackMembershipSolver.basis_product),
    )
    eliminate = counted("eliminations", linalg._echelon)
    monkeypatch.setattr(linalg, "_echelon", eliminate)
    monkeypatch.setattr(windows, "_echelon", eliminate)
    e = CANONICAL["composite"]
    monos = Window(W11, 4).basis_elements()
    assert not hasattr(MembershipSolver, "basis_product")
    assert all(MembershipSolver(e).solve(monos, 28))
    assert calls == {"basis_product": 0, "eliminations": 0}
    # the counters see the slack oracle: 81 pairs with 4i + 2j <= 32
    assert all(SlackMembershipSolver(e).solve(monos, 28))
    assert calls == {"basis_product": 81, "eliminations": 1}


def test_deep_recipe_membership_multiplies_few_term_pairs(monkeypatch):
    # work, not time: sum of |a| * |b| over the element products formed.
    # Certifying an inverse by substituting it into powers of (x, y) and
    # expanding psi(a) over powers of psi(X), psi(Y) took 857 114 here.
    pairs = [0]
    mul = WeylElement.__mul__

    def counted(a, b):
        if isinstance(b, WeylElement):
            pairs[0] += a.monomial_count() * b.monomial_count()
        return mul(a, b)

    monkeypatch.setattr(WeylElement, "__mul__", counted)
    verdicts = MembershipSolver(DEEP4).solve(Window(W11, 4).basis_elements(), 28)
    assert [m.member for m in verdicts] == [True] + [False] * 14
    assert pairs[0] < 250_000


# a polynomial generator of degree 2-3 whose only nonzero coefficient is
# the top one, or one of six linear generators
_DRAWN_GENERATORS = st.one_of(
    st.tuples(
        st.sampled_from([add_poly_x, add_poly_y]),
        st.integers(2, 3),
        st.sampled_from([1, -1, 2, -2]),
    ).map(lambda t: t[0]([0] * t[1] + [t[2]])),
    st.sampled_from([(1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1), (1, 2, 1, 3), (0, 1, -1, 0),
                     (1, -1, 1, 0)]).map(lambda t: linear(*t)),
)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(_DRAWN_GENERATORS, min_size=1, max_size=3),
    st.lists(
        st.one_of(
            st.tuples(st.just(False), _NON_MEMBERS),
            st.tuples(st.just(True), _NON_MEMBERS),  # its image under phi
            st.tuples(st.just(False), st.just(0 * X)),
        ),
        max_size=5,
    ),
    st.integers(0, 9),
)
def test_a_batch_gets_the_verdicts_of_its_elements_alone(gens, drawn, slack):
    # the batch shares each inverse generator's powers, up to the largest
    # exponents any of its elements holds; every verdict is still the
    # element's own
    e = compile_recipe(EndoRecipe(generators=tuple(gens)))
    batch = [apply_endo(e, a) if image else a for image, a in drawn]
    solver = MembershipSolver(e)
    together = _records(solver, batch, slack)
    assert len(together) == len(batch)
    for a, (m, witness) in zip(batch, together):
        [(alone, alone_witness)] = _records(solver, [a], slack)
        assert (m.member, witness, m.degree_bound, m.pairs_tried) == (
            alone.member, alone_witness, alone.degree_bound, alone.pairs_tried
        )
        assert m.member == (alone_witness is not None)


def test_a_batch_forms_each_inverse_generators_powers_once(monkeypatch):
    # work, not time, of the solve alone (the solvers are built first).
    # Pulling back each element on its own formed 136 products and 1 109
    # term pairs for the composite window, and 172 216 term pairs for DEEP4
    counts = [0, 0]
    mul = WeylElement.__mul__

    def counted(a, b):
        if isinstance(b, WeylElement):
            counts[0] += 1
            counts[1] += a.monomial_count() * b.monomial_count()
        return mul(a, b)

    monos = Window(W11, 4).basis_elements()
    composite, deep = MembershipSolver(CANONICAL["composite"]), MembershipSolver(DEEP4)
    monkeypatch.setattr(WeylElement, "__mul__", counted)
    assert all(composite.solve(monos, 28))
    assert counts[0] <= 80 and counts[1] <= 650
    counts[:] = [0, 0]
    verdicts = deep.solve(monos, 28)
    assert [m.member for m in verdicts] == [True] + [False] * 14
    assert counts[1] < 130_000
