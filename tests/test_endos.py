"""Recipes, compilation, and slack-bounded subalgebra membership."""

import pytest

from weyl1 import (
    ONE,
    DomainError,
    EndoPair,
    EndoRecipe,
    MembershipSolver,
    UnverifiedEndoError,
    X,
    Y,
    add_poly_x,
    add_poly_y,
    apply_endo,
    build_endo,
    compile_recipe,
    linear,
    rat,
    subalgebra_membership,
    theta,
)


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
    # a degree-0 y would keep candidate_pairs adding powers of y forever
    with pytest.raises(DomainError, match="scalar component"):
        MembershipSolver(EndoPair(x=X**2, y=ONE, verified=True))


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
    solver = MembershipSolver(e)
    # ask out of order, so rows are both started and extended
    for i, j in [(2, 3), (0, 0), (2, 1), (0, 4), (3, 0), (1, 2)]:
        assert solver.basis_product(i, j) == e.y**i * e.x**j
