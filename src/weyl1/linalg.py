"""Exact linear algebra over the rationals.

The public carrier is a dense matrix of exact rationals; elimination is
done internally on sparse rows (column -> value dicts), which is what the
windowed maps produce.  Everything returned in reduced row echelon form
is canonical: leading entries are 1, pivot columns are cleared, rows are
ordered by pivot column.  No floating point is used anywhere.

Entries are held in the stored form of `scalars` (int when integral, else
a Rat with denominator > 1), so matrices of integer-coefficient maps
eliminate in int arithmetic until a pivot forces a fraction.  Results
(`rows`, `rref`, `nullspace`, `solve`, ...) may therefore hold ints where
earlier versions held equal-valued Rats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import Rat, coeff, demote, exact_div

SparseRow = Dict[int, Rat]


class RatMatrix:
    """Dense rectangular matrix of exact rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.rows = [[coeff(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            self.ncols = ncols or 0

    @classmethod
    def _stored(cls, rows: List[list], ncols: int) -> "RatMatrix":
        # internal: rows already rectangular and in stored form
        m = object.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls._stored([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        m = cls.zeros(n, n)
        for k in range(n):
            m.rows[k][k] = 1
        return m

    def copy(self) -> "RatMatrix":
        return RatMatrix._stored([row[:] for row in self.rows], self.ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int) -> "RatMatrix":
        m = cls.zeros(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                m.rows[i][j] = coeff(v)
        return m

    def column(self, j: int) -> List[Rat]:
        return [r[j] for r in self.rows]

    def mul_vector(self, vec: Sequence) -> List[Rat]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            s = 0
            for a, b in zip(row, vec):
                if a and b:
                    s = s + a * b
            out.append(demote(s))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"<RatMatrix {self.nrows}x{self.ncols}>"


def _to_sparse(rows: Sequence[Sequence]) -> List[SparseRow]:
    out = []
    for row in rows:
        out.append({j: v for j, v in enumerate(row) if v})
    return out


class _Echelon:
    """Incremental reduced row echelon form over sparse rows."""

    def __init__(self):
        self.pivots: List[Tuple[int, SparseRow]] = []  # sorted by pivot column

    def reduce(self, row: SparseRow) -> SparseRow:
        row = dict(row)
        for col, prow in self.pivots:
            c = row.get(col)
            if c:
                for k, v in prow.items():
                    newv = row.get(k, 0) - c * v
                    if newv:
                        row[k] = newv
                    else:
                        row.pop(k, None)
        return row

    def insert(self, row: SparseRow) -> Optional[int]:
        """Reduce and absorb; returns the new pivot column or None."""
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        piv = row[lead]
        if piv == 1:
            row = {k: demote(v) for k, v in row.items()}
        else:
            row = {k: exact_div(v, piv) for k, v in row.items()}
        for _, prow in self.pivots:
            c = prow.get(lead)
            if c:
                for k, v in row.items():
                    newv = prow.get(k, 0) - c * v
                    if newv:
                        prow[k] = demote(newv)
                    else:
                        prow.pop(k, None)
        self.pivots.append((lead, row))
        self.pivots.sort(key=lambda p: p[0])
        return lead

    def pivot_columns(self) -> List[int]:
        return [c for c, _ in self.pivots]


def rref(matrix: RatMatrix) -> Tuple[List[List[Rat]], List[int]]:
    """Reduced row echelon form (dense rows) and the pivot columns."""
    ech = _Echelon()
    for row in _to_sparse(matrix.rows):
        ech.insert(row)
    dense = []
    for col, row in ech.pivots:
        dense.append([row.get(j, 0) for j in range(matrix.ncols)])
    return dense, ech.pivot_columns()


def rank(matrix: RatMatrix) -> int:
    ech = _Echelon()
    for row in _to_sparse(matrix.rows):
        ech.insert(row)
    return len(ech.pivots)


def nullspace(matrix: RatMatrix) -> List[List[Rat]]:
    """Canonical basis of the exact kernel.

    The kernel vectors are themselves brought to reduced echelon form
    (viewed as rows), so the basis is unique for the subspace: each
    vector's first nonzero coordinate is 1 and is cleared from the rest.
    """
    ech = _Echelon()
    for row in _to_sparse(matrix.rows):
        ech.insert(row)
    pivot_cols = ech.pivot_columns()
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(matrix.ncols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        vec = {f: 1}
        for col, row in ech.pivots:
            c = row.get(f)
            if c:
                vec[col] = -c
        vectors.append(vec)
    return canonical_basis(vectors, matrix.ncols)


def canonical_basis(vectors: Sequence, ncols: int) -> List[List[Rat]]:
    """RREF a spanning set of vectors; unique basis of their span."""
    ech = _Echelon()
    for vec in vectors:
        row = vec if isinstance(vec, dict) else {j: v for j, v in enumerate(vec) if v}
        ech.insert(row)
    return [[row.get(j, 0) for j in range(ncols)] for _, row in ech.pivots]


def solve_many(
    matrix_rows: Sequence[SparseRow],
    ncols: int,
    rhs_columns: Sequence[Sequence],
) -> List[Optional[Dict[int, Rat]]]:
    """Solve A x = b for several right-hand sides with one elimination.

    Rows are given sparsely; each rhs column is a dense sequence of length
    len(matrix_rows).  The solution, when it exists, is the particular one
    with all free variables zero (pivot columns are chosen left to right,
    so the answer is stable when extra columns are appended on the right).
    Returns, per rhs, a sparse {column: value} dict or None.
    """
    nrhs = len(rhs_columns)
    ech = _Echelon()
    # augmented columns sit to the right of the real ones, so a row can
    # only pivot there when its coefficient part reduced to zero; such
    # constraint rows encode the inconsistent right-hand sides
    for i, row in enumerate(matrix_rows):
        aug = dict(row)
        for r in range(nrhs):
            v = rhs_columns[r][i]
            if v:
                aug[ncols + r] = coeff(v)
        ech.insert(aug)
    solutions: List[Optional[Dict[int, Rat]]] = []
    for r in range(nrhs):
        aug_col = ncols + r
        # inconsistent iff some fully-reduced constraint row hits this rhs
        ok = True
        for col, row in ech.pivots:
            if col >= ncols and row.get(aug_col):
                ok = False
                break
        if not ok:
            solutions.append(None)
            continue
        sol: Dict[int, Rat] = {}
        for col, row in ech.pivots:
            if col < ncols:
                v = row.get(aug_col)
                if v:
                    sol[col] = v
        solutions.append(sol)
    return solutions


def solve(matrix: RatMatrix, rhs: Sequence) -> Optional[List[Rat]]:
    """Particular solution of A x = b with free variables zero, or None."""
    sols = solve_many(_to_sparse(matrix.rows), matrix.ncols, [list(rhs)])
    if sols[0] is None:
        return None
    return [sols[0].get(j, 0) for j in range(matrix.ncols)]
