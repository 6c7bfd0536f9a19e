"""The verification suite over the canonical commutator-one pairs.

Three pairs are exercised: the identity, the triangular twist
(X, Y + X^2), and the double twist (X + Y^2, Y + (X + Y^2)^2).  Every
check is an exact windowed statement with its parameters recorded in
the result, so a report line is reproducible on its own.
"""

from weyl1 import (
    Y,
    canonical_config,
    compile_recipe,
    run_suite,
    subalgebra_membership,
)
from weyl1.serialize import recipe_from_doc

pairs = {
    doc["name"]: compile_recipe(recipe_from_doc(doc))
    for doc in canonical_config()["endomorphisms"]
}
print("Canonical pairs:")
for name, e in pairs.items():
    print(f"  {name:14} x = {e.x}")
    print(f"  {'':14} y = {e.y}")

print("\nMembership in the image subalgebra is slack-bounded and explicit:")
e = pairs["triangular-x2"]
for el, label, slack in ((Y, "Y", 4), (Y**5, "Y^5", 4), (Y**5, "Y^5", 5)):
    verdict = subalgebra_membership(e, el, slack)
    print(f"  {label:4} at slack {slack}: member = {verdict.member}"
          + (f", witness pairs {sorted(verdict.witness)}" if verdict.witness else ""))
print("  (Y = y - x^2 is found immediately; Y^5 needs the basis monomial y^5,")
print("   whose degree 10 only fits once the slack reaches 5)")

print("\nRunning the full suite on the canonical configuration:")
results = run_suite(canonical_config())
for r in results:
    print(" ", r.line())
print("\nAll passed:", all(r.passed for r in results))
