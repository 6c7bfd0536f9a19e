"""Exact windowed linear algebra: eigenspaces, centralizers, chains.

A window is the finite span of the monomials with bounded weighted
degree.  Restricting ad(a) to a window turns eigenvector and
centralizer questions into exact kernels of int matrices (the
coefficients' numerators over one denominator), and the answers are
re-verified in the full algebra.
"""

from weyl1 import (
    H,
    ONE,
    W11,
    Window,
    X,
    Y,
    build_chain_basis,
    centralizer_window,
    coker_window_dim,
    delta_xy,
    eigenvalue_scan,
    identity_endo,
    nilpotent_closure_window,
    ad,
    compose,
    rat,
)

win = Window(W11, 4)
print(f"Window at weight (1,1), cap 4: dimension {win.dimension()}")

print("\nEigenvalue scan of ad(H) over integers and small fractions:")
report = eigenvalue_scan(H, win)
for lam, basis in report.found:
    print(f"  lambda = {lam}: dimension {len(basis)}, basis {[str(u) for u in basis]}")
print("  (only integers appear; lambda = i is spanned by H^k X^i or H^k Y^-i)")

print("\nCentralizer windows:")
print("  of H at cap 10:", [str(u) for u in centralizer_window(H, Window(W11, 10))])
print("  of X at cap 6: ", [str(u) for u in centralizer_window(X, Window(W11, 6))])

print("\nNilpotent closures inside the cap-4 window:")
print("  ad(X):", len(nilpotent_closure_window(ad(X), win, 8)), "of", win.dimension())
print("  ad(H):", len(nilpotent_closure_window(ad(H), win, 8)), "(= its kernel: ad(H) is semisimple)")
print("  ad(X)ad(Y):", len(nilpotent_closure_window(compose(ad(X), ad(Y)), Window(W11, 3), 8)),
      "of", Window(W11, 3).dimension())

print("\nThe chain basis of K[H] under delta = ad(X)ad(Y):")
chain = build_chain_basis(delta_xy(identity_endo()), [H**k for k in range(5)])
for i, el in enumerate(chain):
    print(f"  e_{i} =", el)
print("  each satisfies delta(e_i) = e_(i-1); e_i = (-1)^i Y^i X^i / (i!)^2")

print("\nWindowed surjectivity of delta on K[H] (zero cokernels):")
dl = delta_xy(identity_endo())
dims = [coker_window_dim(dl, [H**m for m in range(k + 1)], [H**m for m in range(k)])
        for k in range(1, 6)]
print("  coker dims for k = 1..5:", dims, " -> index = dim ker - dim coker = 1")
