"""Weighted degrees, generic weights, and drops.

A weight (rho, eta) grades Y^i X^j by rho*i + eta*j.  A weight is
generic for an element when a single support point attains the degree,
which makes the leading term a monomial.  The drop of a linear map at a
is v(image) - v(a); for the maps attached to a commutator-one pair the
drops on powers of h = y*x are constant.
"""

from weyl1 import (
    H,
    W11,
    Weight,
    X,
    Y,
    ad,
    build_endo,
    d_xy,
    d_yx,
    delta_xy,
    drop,
    drop_profile,
    find_generic_weight,
    identity_endo,
    nilpotency_degree,
    weighted_degree,
)

a = H + X**3
print("a = Y*X + X^3")
print("  v_(1,1)(a) =", weighted_degree(W11, a))
print("  v_(2,3)(Y^2*X) =", weighted_degree(Weight(2, 3), Y**2 * X))
print("  (1,1) generic? ->", find_generic_weight(a) == W11)

print("\nDrops of the three maps attached to the identity pair, on powers of H:")
ident = identity_endo()
for label, m in (("delta = ad(X)ad(Y)", delta_xy(ident)),
                 ("d  = [Y,.]X", d_yx(ident)),
                 ("d' = [X,.]Y", d_xy(ident))):
    report = drop_profile(m, W11, [H**k for k in range(1, 6)])
    print(f"  {label:18} constant drop: {report.constant}, value {report.drop_value}")

print("\nThe same story for a twisted pair (X, Y + X^2):")
e = build_endo(X, Y + X**2)
w = find_generic_weight(e.h)
print("  generic weight for h:", (w.rho, w.eta), " v(h) =", weighted_degree(w, e.h))
print("  drop of delta on h^3:", drop(delta_xy(e), w, e.h**3), " (= -v(h))")
print("  drop of d on h^3:   ", drop(d_yx(e), w, e.h**3))

print("\nLocally nilpotent behaviour witnessed by iteration:")
print("  ad(X) kills Y^3 after", nilpotency_degree(ad(X), Y**3, 10), "steps")
print("  ad(H) never kills X:", nilpotency_degree(ad(H), X, 10), "(None = bound exceeded)")
