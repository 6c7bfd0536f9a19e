"""Filtration windows and exact windowed linear algebra.

One class, `Coordinates`, turns elements into vectors and back.  Its
subclass `Window` is the coordinates of a window: the finite-dimensional
space spanned by the monomials Y^i X^j with rho*i + eta*j <= cap for a
positive weight (rho, eta).  The interesting maps restrict to matrices
between windows.  Eigenspaces, centralizers, nilpotent closures, window
slices of spans, chain bases and cokernel dimensions are all computed
exactly from those matrices.

`eigenvalue_scan` stops once the eigenspaces it has found fill V, the
largest ad(a)-invariant subspace of the window; every later candidate is
then empty, over any field extension:
  - an eigenvector spans an invariant line, so it lies in V;
  - eigenspaces of distinct eigenvalues are independent;
  - so their dimensions sum to at most dim V, and once the sum is dim V
    no other eigenvalue has a nonzero eigenspace.

The ad(a) window matrix and dim V are memoized by (a, window), at most
64 each, as the map constructors are: an eigenspace, a scan and the eigen
check's certificate share them, and only read the matrix.  The default
eigenvalue candidates are memoized by cap, at most 64.

`nilpotent_closure_window` iterates a monomial only when no bound proves
it dies within max_iter.  With nu(u) the least n such that m^n(u) = 0:
  - a derivation D has D^(p+q-1)(uv) = sum_k C(p+q-1, k) D^k(u)
    D^(p+q-1-k)(v) = 0 when D^p u = 0 and D^q v = 0, so under ad(a)
    nu(Y^i X^j) <= i(nu(Y) - 1) + j(nu(X) - 1) + 1;
  - when [x, y], recomputed, is a scalar, [ad x, ad y] = ad [x, y] = 0,
    so delta^n = ad(x)^n ad(y)^n and nu_delta <= min(nu_ad(x), nu_ad(y)).

Every returned basis is canonical: coordinates in the window's monomial
order, reduced row echelon form, first nonzero coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .core import ZERO, WeylElement, commutator
from .degrees import Weight
from .errors import ChainBasisError, WindowEscapeError
from .linalg import RatMatrix, kernel, rank, row_basis
from .linalg import _Echelon, _echelon
from .maps import LinearMap, ad
from .scalars import NEG_INF, Rat, rat


class Coordinates:
    """Coordinates on an ordered basis of monomials.

    An element's coordinates are its int numerators keyed by position
    (`coords`): the element is them over its own denominator.  Where
    elements are rows (`basis`), that denominator drops, because scaling a
    row keeps its row space.  Where they are columns (`matrix`), the
    matrix is cleared to L, the lcm of their denominators, and carries
    L.  Cleared rows from `linalg` come back as elements through
    `element` with no division.  Built from groups of elements, the basis
    is the union of their supports sorted by (i+j, i) as in a (1,1) window,
    so every element of the groups has coordinates here; a monomial
    outside the basis raises WindowEscapeError.
    """

    def __init__(self, *groups: Sequence[WeylElement]):
        keys = {key for group in groups for el in group for key in el._ints}
        self.monomials = sorted(keys, key=lambda p: (p[0] + p[1], p[0]))
        self.index = {key: r for r, key in enumerate(self.monomials)}

    def _scope(self) -> str:
        return f"the {self.dimension()} coordinate monomials"

    def dimension(self) -> int:
        return len(self.monomials)

    def coords(self, a: WeylElement) -> Dict[int, int]:
        idx = self.index
        try:
            return {idx[key]: c for key, c in a._ints.items()}
        except KeyError as exc:
            i, j = exc.args[0]
            raise WindowEscapeError(
                f"monomial Y^{i}*X^{j} escapes {self._scope()}"
            ) from None

    def basis(self, elems: Sequence[WeylElement]) -> List[WeylElement]:
        """Canonical basis of span(elems), as elements."""
        return [self.element(*row) for row in row_basis([self.coords(el) for el in elems])]

    def matrix(self, columns: Sequence[WeylElement]) -> RatMatrix:
        """Matrix whose c-th column holds the coordinates of columns[c],
        over L, the lcm of their denominators: column c is its numerators
        times L / den."""
        den = lcm(*(el._den for el in columns))
        sparse: List[Dict[int, int]] = [{} for _ in self.monomials]
        for c, el in enumerate(columns):
            scale = den // el._den
            for r, v in self.coords(el).items():
                sparse[r][c] = v * scale
        return RatMatrix(sparse, len(columns), den)

    def element(self, ints: Dict[int, int], den: int = 1) -> WeylElement:
        """The element with numerators ints (keyed by position) over den."""
        monos = self.monomials
        return WeylElement._cleared({monos[k]: v for k, v in ints.items()}, den)


@dataclass(frozen=True)
class Window(Coordinates):
    """Coordinates on the monomials {Y^i X^j : rho*i + eta*j <= cap}."""

    weight: Weight
    cap: int
    monomials: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    index: Dict[Tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weight.is_positive():
            raise ValueError("windows need positive weights")
        if self.cap < 0:
            raise ValueError("windows need a nonnegative cap")
        rho, eta = self.weight.rho, self.weight.eta
        object.__setattr__(self, "monomials", _window_monomials(rho, eta, self.cap))
        object.__setattr__(self, "index", _window_index(rho, eta, self.cap))

    def _scope(self) -> str:
        return f"the window (weight ({self.weight.rho},{self.weight.eta}), cap {self.cap})"

    def basis_elements(self) -> List[WeylElement]:
        return [WeylElement._cleared({key: 1}) for key in self.monomials]

    def meet(self, elems: Sequence[WeylElement]) -> List[WeylElement]:
        """Canonical basis of span(elems) cut to the window.

        One echelon, as in `build_chain_basis`: each element's numerators
        are keyed with the monomials outside the window first and the
        window's own after them, in window order.  A row of the reduced
        echelon form whose lead lies in the window block is zero outside
        the window, and those rows are the reduced echelon form of the
        slice: its canonical basis.
        """
        index = self.index
        far: Dict[Tuple[int, int], int] = {}  # outside monomial -> column
        for el in elems:
            for key in el._ints:
                if key not in index:
                    far.setdefault(key, len(far))
        n = len(far)
        rows = [
            {far[k] if k in far else n + index[k]: v for k, v in el._ints.items()}
            for el in elems
        ]
        return [
            self.element({k - n: v for k, v in row.items()}, p)
            for row, p in _echelon(rows).cleared_rows()
            if min(row) >= n
        ]

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
    """Matrix of m from src to tgt; column c is m's cached image of the
    c-th src monomial."""
    return tgt.matrix([m._cached_image(key) for key in src.monomials])


def eigenspace(a: WeylElement, lam, win: Window) -> List[WeylElement]:
    """Basis of {u in the window : [a, u] = lam * u}, exactly.

    Computed as the kernel of the matrix of ad(a) - lam restricted to the
    window (target enlarged to hold the images).  With A'' the numerators
    of the ad(a) matrix over L and lam = p/q, that matrix is A''/L - lam on
    the window's own rows; those rows are scaled by q L to q A'' - p L and
    the others stay A'', since scaling a row keeps the kernel.  An
    integer lam has q = 1, and its shifted rows are plain copies, with no
    scaling.  The ad(a) matrix is the memoized `_ad_window_matrix(a,
    win)`, shared by every candidate of a scan: the shifted rows are
    copies, and `kernel` only reads the rows it is given (peeling rebuilds
    a row that loses a column, elimination copies every row it reduces).
    Every returned element is re-checked with `commutator`: it satisfies
    the eigen equation in the full algebra, not merely modulo the window.
    """
    lam = rat(lam)
    mat, tgt = _ad_window_matrix(a, win)
    if lam:
        q, shift = lam.denominator, lam.numerator * mat.den
        sparse = list(mat.sparse)
        tgt_idx = tgt.index
        for c, key in enumerate(win.monomials):
            r = tgt_idx[key]
            row = dict(sparse[r]) if q == 1 else {k: q * v for k, v in sparse[r].items()}
            v = row.get(c, 0) - shift
            if v:
                row[c] = v
            else:
                del row[c]
            sparse[r] = row
        mat = RatMatrix(sparse, mat.ncols)
    basis = [win.element(*row) for row in kernel(mat)]
    for u in basis:  # exactness re-check in plain arithmetic
        if commutator(a, u) != lam * u:
            raise AssertionError("eigenvector failed exact re-verification")
    return basis


@lru_cache(maxsize=64, typed=True)
def _ad_window_matrix(a: WeylElement, win: Window) -> Tuple[RatMatrix, Window]:
    """Matrix of ad(a) from the window into the enlargement holding its
    images, memoized by (a, win); its readers leave it unchanged."""
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


@lru_cache(maxsize=64)
def default_eigen_candidates(cap: int) -> Tuple[Rat, ...]:
    """The rationals p/q with |p| <= cap and q <= 4: the integers in
    [-cap, cap] plus the fractions +-p/q, 2 <= q <= 4, 1 <= p <= cap;
    memoized by cap, at most 64."""
    return tuple(sorted({rat(p, q) for q in (1, 2, 3, 4) for p in range(-cap, cap + 1)}))


def eigen_candidates(cap: int, candidates: Optional[Sequence]) -> Tuple[Rat, ...]:
    """The distinct candidates, sorted, as rationals; by default those of
    `default_eigen_candidates(cap)`."""
    if candidates is None:
        return default_eigen_candidates(cap)
    return tuple(sorted({rat(c) for c in candidates}))


def eigenvalue_scan(
    a: WeylElement, win: Window, candidates: Optional[Sequence] = None
) -> EigenReport:
    """Try each candidate eigenvalue; record the nonempty eigenspaces.

    Every candidate shifts the one memoized ad(a) window matrix.
    Candidates are tried integers first, by (denominator, |lam|, -lam), and
    the scan stops once the eigenspaces found fill V, the largest
    ad(a)-invariant subspace of the window (`invariant_dim`):
      - an eigenvector spans an invariant line, so it lies in V;
      - eigenspaces of distinct eigenvalues are independent, so their
        dimensions sum to at most dim V;
      - once the sum is dim V, no other lam has a nonzero eigenspace, over
        any field extension.
    dim V is used only when there is more than one candidate; a single
    candidate is bounded by the window's dimension.  `found` is sorted by
    eigenvalue.
    """
    cands = eigen_candidates(win.cap, candidates)
    room = invariant_dim(a, win) if len(cands) > 1 else win.dimension()
    found = []
    for lam in sorted(cands, key=lambda q: (q.denominator, abs(q), -q)):
        if not room:
            break
        basis = eigenspace(a, lam, win)
        if basis:
            found.append((lam, basis))
            room -= len(basis)
            if room < 0:
                raise AssertionError("eigenspaces exceed the invariant subspace")
    found.sort(key=lambda item: item[0])
    return EigenReport(a=a, window=win, candidates=cands, found=found)


@lru_cache(maxsize=64, typed=True)
def invariant_dim(a: WeylElement, win: Window) -> int:
    """Dimension of the largest ad(a)-invariant subspace V of the window,
    memoized by (a, win).

    Split the rows of the ad(a) window matrix into O, the rows at target
    monomials outside the window, and I, the square block at the window's
    own.  V is the intersection of the kernels of O I^j, j >= 0 (the
    unobservable subspace, after Kalman).  One echelon takes the rows of O,
    then the product with I of each row that added a pivot, until no row
    adds one: its row space is then closed under I.  The matrix is only
    read: the echelon copies every row it reduces.
    """
    mat, tgt = _ad_window_matrix(a, win)
    own = [tgt.index[key] for key in win.monomials]
    block = [mat.sparse[r] for r in own]
    inside = set(own)
    queue = [row for r, row in enumerate(mat.sparse) if row and r not in inside]
    queue.sort(key=min, reverse=True)
    ech = _Echelon()
    for row in queue:  # grows while it is read
        lead = ech.insert(row)
        if lead is not None:
            product: Dict[int, int] = {}
            for r, v in ech.rows[lead].items():
                for c, w in block[r].items():
                    product[c] = product.get(c, 0) + v * w
            product = {c: v for c, v in product.items() if v}
            if product:
                queue.append(product)
    return win.dimension() - len(ech.rows)


def nilpotent_closure_window(
    m: LinearMap, win: Window, max_iter: int
) -> List[WeylElement]:
    """Basis of {u in the window : m^k(u) = 0 for some k <= max_iter}.

    Kernels of successive powers are nested, so this is the kernel of
    m^max_iter on the window: the kernel of the final images m^max_iter(u)
    of the window monomials u.  Images are iterated as exact elements, so
    no window bound on the iterates is needed; each starts at m's cached
    image of its monomial.

    A monomial whose index nu (least n with m^n(u) = 0) is bounded by at
    most max_iter gets the final image 0 with no iteration
    (`_leibniz_bound`):
      - for a derivation D with D^p u = 0 and D^q v = 0, D^(p+q-1)(uv) =
        sum_k C(p+q-1, k) D^k(u) D^(p+q-1-k)(v) = 0, so nu(Y^i X^j) <=
        i(nu(Y) - 1) + j(nu(X) - 1) + 1;
      - for delta = ad(x) ad(y) with [x, y] a scalar, recomputed when the
        map is built, ad x and ad y commute, so delta^n = ad(x)^n ad(y)^n
        = ad(y)^n ad(x)^n and nu_delta <= min(nu_ad(x), nu_ad(y)).
    nu(X) and nu(Y) come from the orbits of X and Y, which the window
    order iterates before every monomial that needs them; they are kept
    on the derivation.  delta's factors are read once, as a closure
    starts, through the `ad` memo (`maps.delta_xy`): the maps whose
    closures record the indices, also after the memo has rebuilt them.
    A monomial whose bound needs an index not found within its orbit's
    max_iter steps is iterated.  Other maps are iterated throughout.
    When every final image is 0 the closure is the whole window, and its
    canonical basis is the window monomials, with no kernel to take.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    bounded = m.factors or ((m,) if m.derivation else ())  # once per closure
    finals = []
    for key in win.monomials:
        if any(_leibniz_bound(f, key) <= max_iter for f in bounded):
            finals.append(ZERO)
            continue
        cur, n = m._cached_image(key), 1  # read, never changed
        while n < max_iter and not cur.is_zero():
            cur, n = m(cur), n + 1
        if m.derivation and key in ((0, 1), (1, 0)) and cur.is_zero():
            m._orders[key] = n
        finals.append(cur)
    if not any(finals):
        return win.basis_elements()
    # common coordinates for whatever monomials survived
    return [win.element(*row) for row in kernel(Coordinates(finals).matrix(finals))]


def _leibniz_bound(m: LinearMap, key: Tuple[int, int]) -> Union[int, float]:
    """Upper bound for the index of Y^i X^j, key = (i, j), under the
    derivation m: i(nu(Y) - 1) + j(nu(X) - 1) + 1 (see
    `nilpotent_closure_window`); inf where an index it needs is not known.
    """
    i, j = key
    nu_y = m._orders.get((1, 0), inf) if i else 1
    nu_x = m._orders.get((0, 1), inf) if j else 1
    return i * (nu_y - 1) + j * (nu_x - 1) + 1


def build_chain_basis(
    m: LinearMap, elems: Sequence[WeylElement]
) -> List[WeylElement]:
    """Basis e_0, e_1, ... of span(elems) with m(e_i) = e_(i-1), m(e_0) = 0.

    Requires m to restrict to span(elems) and act on it as a locally
    nilpotent map with one-dimensional kernel; otherwise ChainBasisError.
    e_0 is the kernel vector with coefficient 1 at its leading (first)
    monomial, so the constant 1 when the kernel is the scalars, and each
    later e_i is pinned by zeroing its coefficient at that monomial.

    One echelon serves the whole chain.  Its rows are (m(e), e) for e in
    elems, image coordinates left of the element's, so they span the
    graph of m on span(elems): its rank is dim span(elems), and its rows
    whose image part is zero are ker m in reduced echelon form.  Reducing
    (e_(i-1), 0, 1), with a marker column last, leaves s (0, -u, 1) with
    m(u) = e_(i-1) and s > 0, or a nonzero image part when there is no u.
    """
    elems = [e for e in elems if not e.is_zero()]
    if not elems:
        raise ChainBasisError("no nonzero elements to span a chain")
    images = [m(el) for el in elems]
    co = Coordinates(elems, images)
    n = co.dimension()
    graph = []
    for img, el in zip(images, elems):
        row = {r: v * el._den for r, v in co.coords(img).items()}
        row.update((n + r, v * img._den) for r, v in co.coords(el).items())
        graph.append(row)
    ech = _echelon(graph)
    kernel_basis = [
        co.element({k - n: v for k, v in row.items()}, p)
        for row, p in ech.cleared_rows()
        if min(row) >= n
    ]
    if len(kernel_basis) != 1:
        raise ChainBasisError(
            f"kernel on the span has dimension {len(kernel_basis)}, expected 1"
        )
    e0 = kernel_basis[0]
    lead = co.monomials[min(co.coords(e0))]
    chain = [e0]
    for _ in range(len(ech.rows) - 1):
        prev = chain[-1]
        row = ech.reduce({**co.coords(prev), 2 * n: prev._den})
        if min(row) < n:
            raise ChainBasisError("chain equation m(e_i) = e_(i-1) is unsolvable")
        s = row.pop(2 * n)
        e = co.element({k - n: -v for k, v in row.items()}, s)
        # remove the kernel component so the choice is deterministic
        chain.append(e - e.coefficient(*lead) * e0)
    return chain


def coker_window_dim(
    m: LinearMap,
    src: Union[Window, Sequence[WeylElement]],
    tgt: Union[Window, Sequence[WeylElement]],
) -> int:
    """dim(target span) - rank(m restricted from src into it).

    src and tgt are windows or explicit spanning sets.  Images must lie
    in the target span, else WindowEscapeError.  A window target takes one
    rank; a spanning set two more, one of them to detect an escape.  A
    window source's images are m's cached monomial images, as in
    `map_matrix`; a spanning set is mapped element by element.
    """
    if isinstance(src, Window):
        imgs = [m._cached_image(key) for key in src.monomials]
    else:
        imgs = [m(el) for el in src]
    if isinstance(tgt, Window):
        return tgt.dimension() - rank(tgt.matrix(imgs))
    tgt_elems = list(tgt)
    co = Coordinates(tgt_elems, imgs)
    dim = rank(co.matrix(tgt_elems))
    if rank(co.matrix(tgt_elems + imgs)) != dim:
        raise WindowEscapeError("image escapes the target span")
    return dim - rank(co.matrix(imgs))
