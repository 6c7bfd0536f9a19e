"""The graded view A = sum K[H] v_n, and a cusp hiding in a localization.

Components are indexed by n = (X-degree) - (Y-degree); coefficients are
polynomials in H = Y*X.  Inverting polynomials in H gives a localized
algebra where the element w = H (H-1)^{-1} (H-2) X lives: w itself is
not in the plain algebra, but every power w^i with i >= 2 is, and those
powers realize the coordinate ring of the cusp s^2 = t^3 inside the
algebra.
"""

from weyl1 import (
    H,
    X,
    Y,
    commutator,
    embed,
    from_graded,
    graded_component,
    graded_degree,
    graded_degree_minus,
    in_A1,
    localized_mul,
    ratfun,
    supp_monoid,
    to_graded,
)

print("Graded components of a few elements:")
for el, label in ((Y**2 * X**2, "Y^2*X^2"), (Y * X**2, "Y*X^2"), (X + Y, "X + Y")):
    print(f"  {label:10} -> {to_graded(el)}")

print("\nGraded degrees v (top component) and v_ (minus bottom component):")
print("  v(X + Y) =", graded_degree(X + Y), "  v_(X + Y) =", graded_degree_minus(X + Y))
print("  v(H^3)   =", graded_degree(H**3))

print("\nThe twist: moving a polynomial in H past X shifts its argument:")
print("  X * H =", localized_mul(embed(X), embed(H)), " (that is, (H-1) X)")

w = graded_component(1, ratfun([0, -2, 1], [-1, 1]))
print("\nThe localized element w = H (H-1)^{-1} (H-2) X:")
print("  w =", w)
print("  w in the plain algebra?", in_A1(w)[0])

wi = w
powers = []
for i in range(2, 7):
    wi = localized_mul(wi, w)
    member, witness = in_A1(wi)
    powers.append(witness)
    bracket = localized_mul(embed(H), wi) - localized_mul(wi, embed(H))
    print(f"  w^{i} in the algebra? {member};  as an element: {witness}")
    print(f"      [H, w^{i}] = {i} * w^{i}?",
          commutator(H, witness) == i * witness)

print("\nGraded degrees attained by {w^2, ..., w^6}:", sorted(supp_monoid(set(powers))))
print("The degree 1 is missing: these powers generate the monoid <2, 3>,")
print("which is why the algebra they span is the cusp, not a polynomial ring.")
print("\nRound trip through the graded view is exact:",
      from_graded(to_graded(Y**3 * X + H)) == Y**3 * X + H)
