"""Exact linear algebra on cleared rows.

Rows come in as sparse {column: int} dicts holding no zeros: the int
numerators of elements in their cleared form (`core`), re-keyed to
positions by `windows.Coordinates`.  A `RatMatrix` is such rows over one
positive denominator `den`, so the matrix it stands for is sparse / den.
Scaling a row, or the whole matrix, keeps its row space, its kernel and
its rank, so no entry point here reads `den` (`windows.eigenspace` does,
to shift by an eigenvalue).  No floating point is used, no Rat is built.

Results leave as cleared rows: (ints, den) with nonzero int numerators,
den >= 1 and gcd(den, *ints) = 1, the form `WeylElement._cleared` takes.
A basis (`row_basis`, `kernel`) is the reduced row echelon form of its
span, rows ordered by pivot column, so it depends only on the span.  Its
rows come with no division: a primitive pivot row r with positive lead
p is the cleared form of the RREF row r / p.

Elimination is fraction-free, after Bareiss (Math. Comp. 22, 1968), with
content removal in place of his exact divisions: every row the echelon
holds is a primitive int row (content 1, positive lead).  Rows are
combined as (p/g)*row - (c/g)*prow with g = gcd(c, p).

Every entry of a pivot row lies at or right of its pivot, so only the
pivot rows left of a new row's lead can hold its lead column; the echelon
keeps its pivot columns sorted and back-substitutes into those rows
alone.  Every entry point inserts rows in one order: descending lead
(leftmost nonzero) column, ties in the given order.  A new pivot column
then lies left of the pivot rows already held, so there are few such
rows and fill stays small (pivot where fill is least, after Markowitz,
Management Sci. 3, 1957).  No result depends on the order: a row space
has exactly one reduced row echelon form.

Before any row is inserted, `_echelon` peels singleton rows, the first
step of structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
'90).  A row {c: v} puts the unit vector e_c in the row space, so it
becomes the pivot row {c: 1} and c is deleted from every other row, which
subtracts a multiple of e_c and keeps the row space; a deletion may leave
another singleton, and peeling repeats until none is left.  The RREF row
at a peeled pivot c is e_c itself (it differs from e_c by a row-space
vector that is zero at every pivot), so only the rows left are
eliminated and the RREF reached is the same.  In the ad(h) window
matrices most columns are peeled: 203 of 231 in the triangular-x2
centralizer at cap 20.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

SparseRow = Dict[int, int]
Cleared = Tuple[SparseRow, int]


class RatMatrix:
    """A rational matrix: sparse int rows over one positive denominator."""

    __slots__ = ("nrows", "ncols", "sparse", "den")

    def __init__(self, sparse: List[SparseRow], ncols: int, den: int = 1):
        self.sparse, self.ncols, self.den = sparse, ncols, den
        self.nrows = len(sparse)

    @property
    def rows(self) -> List[Tuple[int, ...]]:
        """Dense view of the numerators: one tuple per row."""
        cols = range(self.ncols)
        return [tuple(row.get(j, 0) for j in cols) for row in self.sparse]


def _primitive(row: SparseRow, lead: int) -> SparseRow:
    """An int row divided by its content, signed so its lead is positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _eliminate(row: SparseRow, prow: SparseRow, col: int) -> SparseRow:
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
    """Incremental reduced row echelon form over sparse int rows.

    `rows` maps each pivot column to its row: primitive ints (content 1)
    with a positive lead, holding no other pivot column.  A new lead
    column is cleared only from the pivot rows left of it (`_cols` keeps
    the pivots sorted; module docstring).  `_echelon` inserts rows by
    descending lead column, ties in the given order, to keep fill small
    (Markowitz 1957), after it has set the unit rows of peeled columns
    (module docstring); the RREF reached is unique whatever the order.
    """

    def __init__(self):
        self.rows: Dict[int, SparseRow] = {}
        self._cols: List[int] = []  # the pivot columns, ascending

    def reduce(self, row: SparseRow) -> SparseRow:
        """A copy of row with every pivot column cleared from it.

        It is row times a positive int minus a combination of pivot rows:
        elimination scales by p/g > 0 and never divides.
        """
        rows = self.rows
        row = dict(row)  # elimination updates rows in place
        # pivot rows hold no other pivot column, so elimination never adds
        # one: a single pass over the row's own pivot columns reduces it
        for col in [k for k in row if k in rows]:
            row = _eliminate(row, rows[col], col)
        return row

    def insert(self, row: SparseRow) -> Optional[int]:
        """Reduce and absorb; returns the new pivot column or None."""
        row = self.reduce(row)
        if not row:
            return None
        lead = min(row)
        row = _primitive(row, lead)
        rows, cols = self.rows, self._cols
        at = bisect_left(cols, lead)
        for col in cols[:at]:
            prow = rows[col]
            if lead in prow:
                rows[col] = _primitive(_eliminate(prow, row, lead), col)
        cols.insert(at, lead)
        rows[lead] = row
        return lead

    def cleared_rows(self) -> List[Cleared]:
        """The RREF rows by pivot column, each as (pivot row, its lead)."""
        return [(row, row[col]) for col, row in sorted(self.rows.items())]


def _peel(rows: Sequence[SparseRow]) -> Tuple[List[int], List[SparseRow]]:
    """The columns that singleton rows force to zero, peeled until no row
    is a singleton, and the rows left with those columns deleted.

    Each row keeps the count and the sum of its columns not yet peeled, so
    at count 1 the sum is the column left; each column keeps the rows that
    hold it, so a peel touches only those.  A row that lost a column is
    rebuilt once, at the end; the others are passed on as they are.
    """
    count = [len(row) for row in rows]
    total = [sum(row) for row in rows]
    where: Dict[int, List[int]] = defaultdict(list)
    for k, row in enumerate(rows):
        for c in row:
            where[c].append(k)
    stack = [k for k, n in enumerate(count) if n == 1]
    peeled = set()
    while stack:
        k = stack.pop()
        if count[k] != 1:  # emptied by an earlier peel of its column
            continue
        col = total[k]
        peeled.add(col)
        for i in where[col]:
            count[i] -= 1
            total[i] -= col
            if count[i] == 1:
                stack.append(i)
    rest = [
        row if n == len(row) else {c: v for c, v in row.items() if c not in peeled}
        for row, n in zip(rows, count)
        if n
    ]
    return sorted(peeled), rest


def _echelon(rows: Sequence[SparseRow]) -> _Echelon:
    """The echelon of rows: the unit rows of the peeled columns, then the
    rows left inserted by descending lead column (module docstring)."""
    cols, rest = _peel(rows)
    ech = _Echelon()
    ech.rows = {c: {c: 1} for c in cols}
    ech._cols = cols
    for row in sorted(rest, key=min, reverse=True):
        ech.insert(row)
    return ech


def rank(matrix: RatMatrix) -> int:
    return len(_echelon(matrix.sparse).rows)


def row_basis(rows: Sequence[SparseRow]) -> List[Cleared]:
    """Canonical basis of the span of int rows, as cleared rows."""
    return _echelon(rows).cleared_rows()


def kernel(matrix: RatMatrix) -> List[Cleared]:
    """Canonical basis of the exact kernel, as cleared rows.

    The kernel vector of a free column f is L at f and -c * (L / p) at
    the pivot column of each pivot row with entry c at f and lead p, L
    the lcm of those leads.  The vectors are then brought to reduced
    echelon form (viewed as rows), so the basis is unique for the
    subspace: each vector's first nonzero coordinate is 1 and is cleared
    from the rest.
    """
    rows = _echelon(matrix.sparse).rows
    vectors = []
    for f in range(matrix.ncols):
        if f in rows:
            continue
        touching = [(col, row[col], row[f]) for col, row in rows.items() if f in row]
        big = lcm(*(p for _, p, _ in touching))
        vec = {f: big}
        for col, p, c in touching:
            vec[col] = -c * (big // p)
        vectors.append(vec)
    return row_basis(vectors)

