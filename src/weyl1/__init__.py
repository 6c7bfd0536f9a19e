"""Exact computation kernel for the first Weyl algebra.

The algebra K<X, Y | Y*X - X*Y = 1> over the exact rationals, with:
normal-form arithmetic and commutators; the graded decomposition over
K[H] (H = Y*X) and its K(H)-localization; weighted degree functions,
Newton polygons and leading terms; linear maps, drops and locally
nilpotent iteration; exact windowed eigenspaces, centralizers, chain
bases and cokernel dimensions; numerical-semigroup bookkeeping; an
endomorphism-pair verification suite; and a parser/printer plus a CLI.
"""

from .core import (
    H,
    ONE,
    X,
    Y,
    ZERO,
    EndoPair,
    WeylElement,
    add,
    apply_endo,
    build_endo,
    commutator,
    format_element,
    identity_endo,
    monomial,
    mul,
    scalar,
    theta,
    theta_prime,
)
from .degrees import (
    Polygon,
    W11,
    Weight,
    find_generic_weight,
    is_generic,
    leading_term,
    newton_polygon,
    weighted_degree,
)
from .endos import (
    AddPolyX,
    AddPolyY,
    EndoRecipe,
    LinearGen,
    Membership,
    MembershipSolver,
    add_poly_x,
    add_poly_y,
    compile_recipe,
    linear,
    subalgebra_membership,
)
from .errors import (
    ChainBasisError,
    DomainError,
    HorizonError,
    NonGenericWeightError,
    UnverifiedEndoError,
    WindowEscapeError,
)
from .gwa import (
    GradedElement,
    LocalizedElement,
    RatFun,
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
from .linalg import RatMatrix, kernel, rank, row_basis
from .maps import (
    DropReport,
    LinearMap,
    ad,
    compose,
    d_xy,
    d_yx,
    delta_xy,
    drop,
    drop_profile,
    nilpotency_degree,
)
from .parsing import ParseError, parse, print_element
from .scalars import NEG_INF, Rat, rat
from .semigroup import SemigroupData, semigroup_analyze
from .windows import (
    EigenReport,
    Window,
    build_chain_basis,
    centralizer_window,
    coker_window_dim,
    default_eigen_candidates,
    eigenspace,
    eigenvalue_scan,
    map_matrix,
    nilpotent_closure_window,
)
from .checks import (
    CheckResult,
    canonical_config,
    check_centralizer_theorem,
    check_eigen_theorem,
    check_eigvec_tables,
    check_kernel_delta,
    check_klein_basis,
    check_nilpotent_closure,
    check_product_rules,
    check_propagation,
    run_suite,
)

__version__ = "0.1.0"
