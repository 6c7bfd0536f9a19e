"""Filtration windows and exact windowed linear algebra.

A window is the finite-dimensional space spanned by the monomials
Y^i X^j with rho*i + eta*j <= cap for a positive weight (rho, eta).  The
interesting maps restrict to matrices between windows; eigenspaces,
centralizers, nilpotent closures, chain bases and cokernel dimensions
are all computed exactly from those matrices.

Every returned basis is canonical: coordinates in the window's monomial
order, reduced row echelon form, first nonzero coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import ONE, WeylElement, commutator, linear_combination, monomial
from .degrees import Weight
from .errors import ChainBasisError, WindowEscapeError
from .linalg import RatMatrix, canonical_basis, nullspace, rank, solve_many
from .maps import LinearMap, ad
from .scalars import NEG_INF, Rat, coeff, exact_div, rat


@dataclass(frozen=True)
class Window:
    """Ordered monomial basis {Y^i X^j : rho*i + eta*j <= cap}."""

    weight: Weight
    cap: int

    def __post_init__(self):
        if not self.weight.is_positive():
            raise ValueError("windows need positive weights")
        if self.cap < 0:
            raise ValueError("windows need a nonnegative cap")

    def monomials(self) -> Tuple[Tuple[int, int], ...]:
        return _window_monomials(self.weight.rho, self.weight.eta, self.cap)

    def dimension(self) -> int:
        return len(self.monomials())

    def index(self) -> Dict[Tuple[int, int], int]:
        return _window_index(self.weight.rho, self.weight.eta, self.cap)

    def contains(self, a: WeylElement) -> bool:
        idx = self.index()
        return all(key in idx for key in a.support())

    def coords(self, a: WeylElement) -> List[Rat]:
        """Dense coordinates of a; raises WindowEscapeError if it escapes."""
        idx = self.index()
        vec = [0] * len(idx)
        for (key, c) in a._terms.items():
            pos = idx.get(key)
            if pos is None:
                raise WindowEscapeError(
                    f"monomial Y^{key[0]}*X^{key[1]} escapes the window "
                    f"(weight ({self.weight.rho},{self.weight.eta}), cap {self.cap})"
                )
            vec[pos] = c
        return vec

    def sparse_coords(self, a: WeylElement) -> Dict[int, Rat]:
        idx = self.index()
        out = {}
        for (key, c) in a._terms.items():
            pos = idx.get(key)
            if pos is None:
                raise WindowEscapeError(
                    f"monomial Y^{key[0]}*X^{key[1]} escapes the window "
                    f"(weight ({self.weight.rho},{self.weight.eta}), cap {self.cap})"
                )
            out[pos] = c
        return out

    def element(self, vec: Sequence) -> WeylElement:
        monos = self.monomials()
        return WeylElement(
            {monos[k]: v for k, v in enumerate(vec) if v}
        )

    def basis_elements(self) -> List[WeylElement]:
        return [monomial(i, j) for (i, j) in self.monomials()]

    def enlarged(self, m: LinearMap) -> "Window":
        """Window guaranteed to hold images of this one under m."""
        shift = m.degree_shift(self.weight)
        extra = 0 if shift == NEG_INF else max(0, int(shift))
        return Window(self.weight, self.cap + extra)


@lru_cache(maxsize=None)
def _window_monomials(rho: int, eta: int, cap: int) -> Tuple[Tuple[int, int], ...]:
    out = []
    for i in range(cap // rho + 1):
        rest = cap - rho * i
        for j in range(rest // eta + 1):
            out.append((i, j))
    out.sort(key=lambda p: (rho * p[0] + eta * p[1], p[0]))
    return tuple(out)


@lru_cache(maxsize=None)
def _window_index(rho: int, eta: int, cap: int) -> Dict[Tuple[int, int], int]:
    return {m: k for k, m in enumerate(_window_monomials(rho, eta, cap))}


def map_matrix(m: LinearMap, src: Window, tgt: Window) -> RatMatrix:
    """Matrix of m from src to tgt, columns indexed by src monomials."""
    columns = []
    for (i, j) in src.monomials():
        columns.append(m(monomial(i, j)))
    return _columns_matrix(columns, tgt)


def _columns_matrix(columns: Sequence[WeylElement], tgt: Window) -> RatMatrix:
    mat = RatMatrix.zeros(tgt.dimension(), len(columns))
    for c, img in enumerate(columns):
        for pos, v in tgt.sparse_coords(img).items():
            mat.rows[pos][c] = v
    return mat


def _vectors_to_elements(vectors: Sequence[Sequence], win: Window) -> List[WeylElement]:
    return [win.element(vec) for vec in vectors]


def eigenspace(
    a: WeylElement,
    lam,
    win: Window,
    ad_matrix: Optional[Tuple[RatMatrix, Window]] = None,
) -> List[WeylElement]:
    """Basis of {u in the window : [a, u] = lam * u}, exactly.

    Computed as the kernel of the matrix of ad(a) - lam restricted to the
    window (target enlarged to hold the images).  The returned elements
    satisfy the eigen equation in the full algebra, not merely modulo the
    window.  ad_matrix, when given, must be _ad_window_matrix(a, win); it
    is left unchanged, so one matrix serves every candidate of a scan.
    """
    lam = coeff(lam)
    mat, tgt = ad_matrix if ad_matrix is not None else _ad_window_matrix(a, win)
    if lam:
        mat = mat.copy()
        tgt_idx = tgt.index()
        for c, key in enumerate(win.monomials()):
            pos = tgt_idx[key]
            mat.rows[pos][c] = mat.rows[pos][c] - lam
    basis = _vectors_to_elements(nullspace(mat), win)
    for u in basis:  # exactness re-check in plain arithmetic
        if commutator(a, u) != lam * u:
            raise AssertionError("eigenvector failed exact re-verification")
    return basis


def _ad_window_matrix(a: WeylElement, win: Window) -> Tuple[RatMatrix, Window]:
    """Matrix of ad(a) from the window into the enlargement holding its images."""
    m = ad(a)
    tgt = win.enlarged(m)
    return map_matrix(m, win, tgt), tgt


def centralizer_window(a: WeylElement, win: Window) -> List[WeylElement]:
    """Basis of the window slice of the centralizer of a."""
    return eigenspace(a, 0, win)


@dataclass
class EigenReport:
    """Nonzero eigenspaces of ad(a) found in a window, by eigenvalue."""

    a: WeylElement
    window: Window
    candidates: Tuple[Rat, ...]
    found: List[Tuple[Rat, List[WeylElement]]]


@dataclass
class CentralizerReport:
    a: WeylElement
    window: Window
    basis: List[WeylElement]


def default_eigen_candidates(cap: int, max_den: int = 4) -> Tuple[Rat, ...]:
    """Integers in [-cap, cap] plus the fractions +-p/q, q <= max_den, p <= cap."""
    vals = {rat(k) for k in range(-cap, cap + 1)}
    for q in range(2, max_den + 1):
        for p in range(1, cap + 1):
            vals.add(rat(p, q))
            vals.add(rat(-p, q))
    return tuple(sorted(vals))


def eigenvalue_scan(
    a: WeylElement,
    win: Window,
    candidates: Optional[Sequence] = None,
) -> EigenReport:
    """Try each candidate eigenvalue; record the nonempty eigenspaces.

    The ad(a) window matrix is built once and shifted per candidate.
    """
    if candidates is None:
        candidates = default_eigen_candidates(win.cap)
    cands = tuple(sorted({rat(c) for c in candidates}))
    ad_matrix = _ad_window_matrix(a, win)
    found = []
    for lam in cands:
        basis = eigenspace(a, lam, win, ad_matrix)
        if basis:
            found.append((lam, basis))
    return EigenReport(a=a, window=win, candidates=cands, found=found)


def centralizer_report(a: WeylElement, win: Window) -> CentralizerReport:
    return CentralizerReport(a=a, window=win, basis=centralizer_window(a, win))


def nilpotent_closure_window(
    m: LinearMap, win: Window, max_iter: int
) -> List[WeylElement]:
    """Basis of {u in the window : m^k(u) = 0 for some k <= max_iter}.

    Kernels of successive powers are nested, so this is the kernel of
    m^max_iter on the window.  Images are iterated as exact elements, so
    no window bound on the iterates is needed.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    finals = []
    for (i, j) in win.monomials():
        cur = monomial(i, j)
        for _ in range(max_iter):
            if cur.is_zero():
                break
            cur = m(cur)
        finals.append(cur)
    # common coordinates for whatever monomials survived
    keys = sorted(
        {key for el in finals for key in el.support()},
        key=lambda p: (p[0] + p[1], p[0]),
    )
    pos = {key: r for r, key in enumerate(keys)}
    mat = RatMatrix.zeros(len(keys), len(finals))
    for c, el in enumerate(finals):
        for key, v in el._terms.items():
            mat.rows[pos[key]][c] = v
    return _vectors_to_elements(nullspace(mat), win)


def build_chain_basis(
    m: LinearMap, elems: Sequence[WeylElement]
) -> List[WeylElement]:
    """Basis e_0, e_1, ... of span(elems) with m(e_i) = e_(i-1), m(e_0) = 0.

    Requires m to restrict to span(elems) and act on it as a locally
    nilpotent map with one-dimensional kernel; otherwise ChainBasisError.
    When the kernel is the scalars, e_0 is normalized to the constant 1,
    and each later e_i is pinned by zeroing its coordinate at e_0's
    leading monomial.
    """
    elems = [e for e in elems if not e.is_zero()]
    if not elems:
        raise ChainBasisError("no nonzero elements to span a chain")
    keys = sorted(
        {key for el in elems for key in el.support()}
        | {key for el in elems for key in m(el).support()},
        key=lambda p: (p[0] + p[1], p[0]),
    )
    pos = {key: r for r, key in enumerate(keys)}
    dim_amb = len(keys)

    def coords(el: WeylElement) -> List[Rat]:
        vec = [0] * dim_amb
        for key, v in el._terms.items():
            p = pos.get(key)
            if p is None:
                raise ChainBasisError("image leaves the span of the input")
            vec[p] = v
        return vec

    basis_vecs = canonical_basis([coords(el) for el in elems], dim_amb)
    dim = len(basis_vecs)
    basis_elems = [
        WeylElement({keys[k]: v for k, v in enumerate(vec) if v})
        for vec in basis_vecs
    ]
    # matrix of m on the span, in the canonical-basis coordinates
    images = [m(b) for b in basis_elems]
    span_rows = [
        {k: v for k, v in enumerate(vec) if v} for vec in zip(*basis_vecs)
    ] if basis_vecs else []
    # solve span-coordinates for each image: columns are basis vectors
    sols = solve_many(span_rows, dim, [coords(img) for img in images])
    if any(s is None for s in sols):
        raise ChainBasisError("the map does not preserve the span of the input")
    mat = RatMatrix.zeros(dim, dim)
    for c, s in enumerate(sols):
        for r, v in s.items():
            mat.rows[r][c] = v
    kernel = nullspace(mat)
    if len(kernel) != 1:
        raise ChainBasisError(
            f"kernel on the span has dimension {len(kernel)}, expected 1"
        )
    e0_coords = kernel[0]
    e0 = linear_combination(zip(e0_coords, basis_elems))
    if e0.is_scalar():
        e0 = ONE
        e0_coords = _span_coords(span_rows, dim, coords(e0))
    # leading coordinate of e0 in the span basis pins later representatives
    lead = next(k for k, v in enumerate(e0_coords) if v)
    chain_coords = [e0_coords]
    chain = [e0]
    mat_rows_sparse = [
        {j: v for j, v in enumerate(row) if v} for row in mat.rows
    ]
    for _ in range(dim - 1):
        target = chain_coords[-1]
        sol = solve_many(mat_rows_sparse, dim, [target])[0]
        if sol is None:
            raise ChainBasisError("chain equation m(e_i) = e_(i-1) is unsolvable")
        vec = [sol.get(k, 0) for k in range(dim)]
        # remove the kernel component so the choice is deterministic
        scale = exact_div(vec[lead], e0_coords[lead])
        if scale:
            vec = [v - scale * k0 for v, k0 in zip(vec, e0_coords)]
        chain_coords.append(vec)
        chain.append(linear_combination(zip(vec, basis_elems)))
    return chain


def _span_coords(span_rows, dim, dense_target) -> List[Rat]:
    sol = solve_many(span_rows, dim, [dense_target])[0]
    if sol is None:
        raise ChainBasisError("element unexpectedly outside the span")
    return [sol.get(k, 0) for k in range(dim)]


def coker_window_dim(
    m: LinearMap,
    src: Union[Window, Sequence[WeylElement]],
    tgt: Union[Window, Sequence[WeylElement], int],
) -> int:
    """dim(target space) - rank(m restricted from src into it).

    src and tgt may be windows or explicit spanning sets; an integer tgt
    is a cap reusing src's weight (src must then be a window).  Images
    must lie in the target span, else WindowEscapeError.
    """
    if isinstance(src, Window):
        src_elems = src.basis_elements()
        if isinstance(tgt, int):
            tgt = Window(src.weight, tgt)
    else:
        src_elems = list(src)
        if isinstance(tgt, int):
            raise ValueError("an integer target cap needs a Window source")
    if isinstance(tgt, Window):
        tgt_elems = tgt.basis_elements()
    else:
        tgt_elems = list(tgt)

    imgs = [m(el) for el in src_elems]
    keys = sorted(
        {k for el in tgt_elems + imgs for k in el.support()},
        key=lambda p: (p[0] + p[1], p[0]),
    )
    pos = {key: r for r, key in enumerate(keys)}
    amb = len(keys)

    def coords(el):
        vec = [0] * amb
        for key, v in el._terms.items():
            vec[pos[key]] = v
        return vec

    tgt_basis = canonical_basis([coords(el) for el in tgt_elems], amb)
    tgt_dim = len(tgt_basis)
    span_rows = [
        {j: v for j, v in enumerate(col) if v} for col in zip(*tgt_basis)
    ] if tgt_basis else [{} for _ in range(amb)]
    sols = solve_many(span_rows, tgt_dim, [coords(img) for img in imgs])
    if any(s is None for s in sols):
        raise WindowEscapeError("image escapes the target span")
    img_mat = RatMatrix.zeros(tgt_dim, len(sols))
    for c, s in enumerate(sols):
        for r, v in s.items():
            img_mat.rows[r][c] = v
    return tgt_dim - rank(img_mat)
