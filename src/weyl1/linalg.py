"""Exact linear algebra over the rationals.

The carrier is a matrix of sparse rows: each row is a {column: value}
dict holding no explicit zeros, which is what the windowed maps produce
and what elimination reads, so no dense matrix is built on the way in.
A dense `rows` view is kept for tests and display.  Vectors handed to
`RatMatrix.from_columns`, `canonical_basis` and `solve_many` may be dense
sequences or {index: value} dicts.  Everything returned in reduced row
echelon form is canonical: leading entries are 1, pivot columns are
cleared, rows are ordered by pivot column.  No floating point is used
anywhere.

Elimination is fraction-free, after Bareiss (Math. Comp. 22, 1968), with
content removal in place of his exact divisions: a row entering the
echelon is scaled by the lcm of its denominators (`scalars.integral`, the
helper `core` clears its products with), and every row it holds
is a primitive int row (content 1, positive lead).  Rows are combined as
(p/g)*row - (c/g)*prow with g = gcd(c, p), so no Rat is touched until a
result is read.  Results (`rows`, `rref`, `nullspace`, `solve`, ...) come
back in the stored form of `scalars`: each pivot row is scaled to a
leading 1 with `exact_div`, so an entry is an int when integral and a Rat
with denominator > 1 otherwise.

Every entry of a pivot row lies at or right of its pivot, so only the
pivot rows left of a new row's lead can hold its lead column; the echelon
keeps its pivot columns sorted and back-substitutes into those rows
alone.  Every entry point inserts rows in one order: descending lead
(leftmost nonzero) column, ties in the given order.  A new pivot column
then lies left of the pivot rows already held, so there are few such
rows and fill stays small (pivot where fill is least, after Markowitz,
Management Sci. 3, 1957).  No result depends on the order: a row space
has exactly one reduced row echelon form.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .scalars import Rat, coeff, demote, exact_div, integral

SparseRow = Dict[int, Rat]
Vector = Union[Sequence, Dict[int, object]]


def _entries(vec: Vector) -> SparseRow:
    """A dense or {index: value} vector as a sparse row in stored form."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    out = {}
    for k, v in items:
        v = coeff(v)
        if v:
            out[k] = v
    return out


class RatMatrix:
    """Rectangular matrix of exact rationals, held as sparse rows."""

    __slots__ = ("nrows", "ncols", "sparse")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        width = widths.pop() if widths else ncols or 0
        if ncols is not None and ncols != width:
            raise ValueError("ncols disagrees with row length")
        self.sparse = [_entries(row) for row in rows]
        self.nrows, self.ncols = len(self.sparse), width

    @classmethod
    def _stored(cls, sparse: List[SparseRow], ncols: int) -> "RatMatrix":
        # internal: rows already sparse and in stored form
        m = object.__new__(cls)
        m.sparse, m.nrows, m.ncols = sparse, len(sparse), ncols
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls._stored([{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._stored([{k: 1} for k in range(n)], n)

    def copy(self) -> "RatMatrix":
        return RatMatrix._stored([dict(row) for row in self.sparse], self.ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], nrows: int) -> "RatMatrix":
        sparse: List[SparseRow] = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            for i, v in _entries(col).items():
                sparse[i][j] = v
        return cls._stored(sparse, len(columns))

    @property
    def rows(self) -> List[Tuple]:
        """Read-only dense view: one tuple per row."""
        cols = range(self.ncols)
        return [tuple(row.get(j, 0) for j in cols) for row in self.sparse]

    def column(self, j: int) -> List[Rat]:
        return [row.get(j, 0) for row in self.sparse]

    def mul_vector(self, vec: Sequence) -> List[Rat]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.sparse:
            s = 0
            for j, a in row.items():
                if vec[j]:
                    s = s + a * vec[j]
            out.append(demote(s))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.ncols == other.ncols
            and self.sparse == other.sparse
        )

    def __repr__(self):
        return f"<RatMatrix {self.nrows}x{self.ncols}>"


def _primitive(row: Dict[int, int], lead: int) -> Dict[int, int]:
    """An int row divided by its content, signed so its lead is positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: Dict[int, int], prow: Dict[int, int], col: int) -> Dict[int, int]:
    """(p/g)*row - (c/g)*prow with c, p their entries at col, g = gcd(c, p).

    The result holds no entry at col, and p > 0 keeps the sign of row's
    lead.  row may be updated in place.
    """
    c, p = row[col], prow[col]
    g = gcd(c, p)
    a, b = p // g, c // g
    if a != 1:
        row = {k: a * v for k, v in row.items()}
    for k, v in prow.items():
        nv = row.get(k, 0) - b * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    return row


class _Echelon:
    """Incremental reduced row echelon form over sparse integer rows.

    `rows` maps each pivot column to its row: primitive ints (content 1)
    with a positive lead, holding no other pivot column.  A new lead
    column is cleared only from the pivot rows left of it (`_cols` keeps
    the pivots sorted; module docstring).  No Rat enters elimination;
    `normalized_rows` scales to leading 1s for the results.  `_echelon`
    inserts rows by descending lead column, ties in the given order, to
    keep fill small (Markowitz 1957); the RREF reached is unique whatever
    the order.
    """

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}
        self._cols: List[int] = []  # the pivot columns, ascending

    def insert(self, row: SparseRow) -> Optional[int]:
        """Reduce and absorb; returns the new pivot column or None."""
        ints, _ = integral(row)
        # integral hands an all-int row back uncopied, and elimination
        # updates rows in place and keeps them as pivot rows
        row = dict(ints) if ints is row else ints
        rows = self.rows
        # pivot rows hold no other pivot column, so elimination never adds
        # one: a single pass over the row's own pivot columns reduces it
        for col in [k for k in row if k in rows]:
            row = _eliminate(row, rows[col], col)
        if not row:
            return None
        lead = min(row)
        row = _primitive(row, lead)
        cols = self._cols
        at = bisect_left(cols, lead)
        for col in cols[:at]:
            prow = rows[col]
            if lead in prow:
                rows[col] = _primitive(_eliminate(prow, row, lead), col)
        cols.insert(at, lead)
        rows[lead] = row
        return lead

    def normalized_rows(self) -> List[SparseRow]:
        """Pivot rows by pivot column, scaled to a leading 1 (stored form)."""
        return [
            {k: exact_div(v, row[col]) for k, v in row.items()}
            for col, row in sorted(self.rows.items())
        ]


def _echelon(rows: Sequence[SparseRow]) -> _Echelon:
    ech = _Echelon()
    for row in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
        ech.insert(row)
    return ech


def _dense_rref(ech: _Echelon, ncols: int) -> List[List[Rat]]:
    return [[row.get(j, 0) for j in range(ncols)] for row in ech.normalized_rows()]


def rref(matrix: RatMatrix) -> Tuple[List[List[Rat]], List[int]]:
    """Reduced row echelon form (dense rows) and the pivot columns."""
    ech = _echelon(matrix.sparse)
    return _dense_rref(ech, matrix.ncols), sorted(ech.rows)


def rank(matrix: RatMatrix) -> int:
    return len(_echelon(matrix.sparse).rows)


def nullspace(matrix: RatMatrix) -> List[List[Rat]]:
    """Canonical basis of the exact kernel.

    The kernel vectors are themselves brought to reduced echelon form
    (viewed as rows), so the basis is unique for the subspace: each
    vector's first nonzero coordinate is 1 and is cleared from the rest.
    """
    ech = _echelon(matrix.sparse)
    vectors = []
    for f in range(matrix.ncols):
        if f in ech.rows:
            continue
        vec = {f: 1}
        for col, row in ech.rows.items():
            c = row.get(f)
            if c:
                vec[col] = exact_div(-c, row[col])
        vectors.append(vec)
    return _dense_rref(_echelon(vectors), matrix.ncols)


def canonical_basis(vectors: Sequence[Vector], ncols: int) -> List[List[Rat]]:
    """RREF a spanning set of vectors; unique basis of their span."""
    return _dense_rref(_echelon([_entries(vec) for vec in vectors]), ncols)


def solve_many(
    matrix_rows: Sequence[SparseRow],
    ncols: int,
    rhs_columns: Sequence[Vector],
) -> List[Optional[Dict[int, Rat]]]:
    """Solve A x = b for several right-hand sides with one elimination.

    Rows are given sparsely; each rhs column is a dense sequence of length
    len(matrix_rows) or a {row: value} dict.  The solution, when it exists,
    is the particular one with all free variables zero (pivot columns are
    chosen left to right, so the answer is stable when extra columns are
    appended on the right).
    Returns, per rhs, a sparse {column: value} dict or None.
    """
    nrhs = len(rhs_columns)
    # augmented columns sit to the right of the real ones, so a row can
    # only pivot there when its coefficient part reduced to zero; such
    # constraint rows encode the inconsistent right-hand sides
    aug = [dict(row) for row in matrix_rows]
    for r, col in enumerate(rhs_columns):
        for i, v in _entries(col).items():
            aug[i][ncols + r] = v
    ech = _echelon(aug)
    solutions: List[Optional[Dict[int, Rat]]] = []
    for aug_col in range(ncols, ncols + nrhs):
        # inconsistent iff some fully-reduced constraint row hits this rhs
        if any(col >= ncols and aug_col in row for col, row in ech.rows.items()):
            solutions.append(None)
            continue
        solutions.append({
            col: exact_div(row[aug_col], row[col])
            for col, row in sorted(ech.rows.items())
            if aug_col in row
        })
    return solutions


def solve(matrix: RatMatrix, rhs: Sequence) -> Optional[List[Rat]]:
    """Particular solution of A x = b with free variables zero, or None."""
    sols = solve_many(matrix.sparse, matrix.ncols, [rhs])
    if sols[0] is None:
        return None
    return [sols[0].get(j, 0) for j in range(matrix.ncols)]
