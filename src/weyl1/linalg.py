"""Exact linear algebra over the rationals.

The public carrier is a dense matrix of exact rationals; elimination is
done internally on sparse rows (column -> value dicts), which is what the
windowed maps produce.  Everything returned in reduced row echelon form
is canonical: leading entries are 1, pivot columns are cleared, rows are
ordered by pivot column.  No floating point is used anywhere.

Elimination is fraction-free, after Bareiss (Math. Comp. 22, 1968), with
content removal in place of his exact divisions: a row entering the
echelon is scaled by the lcm of its denominators, and every row it holds
is a primitive int row (content 1, positive lead).  Rows are combined as
(p/g)*row - (c/g)*prow with g = gcd(c, p), so no Rat is touched until a
result is read.  Results (`rows`, `rref`, `nullspace`, `solve`, ...) come
back in the stored form of `scalars`: each pivot row is scaled to a
leading 1 with `exact_div`, so an entry is an int when integral and a Rat
with denominator > 1 otherwise.
"""

from __future__ import annotations

from math import gcd, lcm
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


def _primitive(row: Dict[int, int], lead: int) -> Dict[int, int]:
    """An int row divided by its content, signed so its lead is positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _integral(row: SparseRow) -> Dict[int, int]:
    """The nonzero entries of row times the lcm of their denominators."""
    den = 1
    for v in row.values():
        if type(v) is not int:
            den = lcm(den, v.denominator)
    if den == 1:
        return {k: int(v) for k, v in row.items() if v}
    # int() keeps gmpy2's mpz out of the rows: mpz / mpz is not exact
    return {
        k: int(v.numerator) * (den // int(v.denominator))
        for k, v in row.items()
        if v
    }


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
    with a positive lead, holding no other pivot column.  No Rat enters
    elimination; `normalized_rows` scales to leading 1s for the results.
    """

    def __init__(self):
        self.rows: Dict[int, Dict[int, int]] = {}

    def insert(self, row: SparseRow) -> Optional[int]:
        """Reduce and absorb; returns the new pivot column or None."""
        row = _integral(row)
        rows = self.rows
        # pivot rows hold no other pivot column, so elimination never adds
        # one: a single pass over the row's own pivot columns reduces it
        for col in [k for k in row if k in rows]:
            row = _eliminate(row, rows[col], col)
        if not row:
            return None
        lead = min(row)
        row = _primitive(row, lead)
        for col, prow in rows.items():
            if lead in prow:
                rows[col] = _primitive(_eliminate(prow, row, lead), col)
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
    for row in rows:
        ech.insert(row)
    return ech


def rref(matrix: RatMatrix) -> Tuple[List[List[Rat]], List[int]]:
    """Reduced row echelon form (dense rows) and the pivot columns."""
    ech = _echelon(_to_sparse(matrix.rows))
    dense = [
        [row.get(j, 0) for j in range(matrix.ncols)] for row in ech.normalized_rows()
    ]
    return dense, sorted(ech.rows)


def rank(matrix: RatMatrix) -> int:
    return len(_echelon(_to_sparse(matrix.rows)).rows)


def nullspace(matrix: RatMatrix) -> List[List[Rat]]:
    """Canonical basis of the exact kernel.

    The kernel vectors are themselves brought to reduced echelon form
    (viewed as rows), so the basis is unique for the subspace: each
    vector's first nonzero coordinate is 1 and is cleared from the rest.
    """
    ech = _echelon(_to_sparse(matrix.rows))
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
    return canonical_basis(vectors, matrix.ncols)


def canonical_basis(vectors: Sequence, ncols: int) -> List[List[Rat]]:
    """RREF a spanning set of vectors; unique basis of their span."""
    ech = _echelon(
        [vec if isinstance(vec, dict) else dict(enumerate(vec)) for vec in vectors]
    )
    return [[row.get(j, 0) for j in range(ncols)] for row in ech.normalized_rows()]


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
    sols = solve_many(_to_sparse(matrix.rows), matrix.ncols, [list(rhs)])
    if sols[0] is None:
        return None
    return [sols[0].get(j, 0) for j in range(matrix.ncols)]
