"""Independent oracles for the test suite.

The normal-ordering oracle works on words in the letters X and Y and
knows only the single rewrite step XY -> YX - 1.  It never touches the
closed-form coefficients used by the package, so agreement between the
two is meaningful evidence.

The slack membership solver expands elements over the products y^i x^j
of a pair by one linear elimination.  It never decomposes the pair, so it
is the differential reference for `MembershipSolver`, which pulls
elements back through the inverse generators of the pair's certified
recipe, the one `decompose` returns; it also decides membership for the
suite's fake pairs, which have no decomposition.

The direct identity checks evaluate the Klein-basis and eigenvector-table
identities on the pair itself, forming products such as y^8 x^4 for the
composite pair.  The suite checks them once on (X, Y) and carries them
over by phi under the premise [y, x] = 1; these are the per-pair
reference for that argument, and they keep the large products under test.

The product inverse of the graded view sums each graded component over
the powers of H = Y*X and multiplies by X^n or Y^m in the algebra, the
reference for the closed Stirling-number inverse in `gwa.from_graded`.

The substitution `theta` and the Rat-based printer are the references
for `core.theta` and `core.format_element`, which read the cleared form
with no intermediate element or Rat per term.

The dense matrix surface turns rational rows and vectors into the
cleared rows `linalg` takes and reads its cleared results back as dense
Fraction rows, so tests can state matrices as lists and compare with
sympy.  It lives here because nothing in the package needs it.

So does solving A x = b against a column space (`solutions`,
`coordinates_solve`): the package reduces against one echelon instead, and
only the slack membership solver and the linear-algebra tests use it.

The three-step window slice (`window_meet`) takes a kernel of the parts
outside the window and a basis of the combinations it gives; the
reference for `Window.meet`, which reads the slice off one echelon.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def normal_order_word(word):
    """Normal form of a word as {(i, j): int}, by XY -> YX - 1 steps."""
    for k in range(len(word) - 1):
        if word[k] == "X" and word[k + 1] == "Y":
            swapped = word[:k] + ("Y", "X") + word[k + 2 :]
            dropped = word[:k] + word[k + 2 :]
            out = dict(normal_order_word(swapped))
            for key, c in normal_order_word(dropped).items():
                v = out.get(key, 0) - c
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
            return out
    return {(word.count("Y"), word.count("X")): 1}


def oracle_monomial_product(i1, j1, i2, j2):
    """Y^i1 X^j1 * Y^i2 X^j2 normal ordered, as {(i, j): int}.

    Only the middle X^j1 Y^i2 can rewrite; the outer letters shift the
    exponents, which keeps the memo small without changing the steps.
    """
    middle = normal_order_word(("X",) * j1 + ("Y",) * i2)
    out = {}
    for (a, b), c in middle.items():
        out[(i1 + a, b + j2)] = c
    return out


def oracle_mul(ta, tb):
    """Product of two {(i, j): coeff} tables via the rewrite oracle."""
    out = {}
    for (i1, j1), ca in ta.items():
        for (i2, j2), cb in tb.items():
            for key, m in oracle_monomial_product(i1, j1, i2, j2).items():
                v = out.get(key, 0) + ca * cb * m
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return out


def random_terms(rng, max_degree=4, max_terms=4, max_num=9, max_den=3):
    """Random sparse coefficient table, never empty."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            i = rng.randint(0, max_degree)
            j = rng.randint(0, max_degree - i)
            num = rng.randint(-max_num, max_num)
            if num:
                terms[(i, j)] = terms.get((i, j), Fraction(0)) + Fraction(
                    num, rng.randint(1, max_den)
                )
        terms = {k: v for k, v in terms.items() if v}
    return terms


def random_element(rng, max_degree=4, max_terms=4, max_num=9, max_den=3):
    from weyl1 import WeylElement

    return WeylElement(random_terms(rng, max_degree, max_terms, max_num, max_den))


def oracle_localized_mul(a, b):
    """Product of two LocalizedElements, multiplying by v_n one letter at
    a time.  With sigma: H -> H - 1 the one-step rules are

        alpha v_m * X = alpha v_(m+1)              for m >= 0
        alpha v_m * X = alpha*(H-m-1) v_(m+1)      for m <= -1
        alpha v_m * Y = alpha v_(m-1)              for m <= 0
        alpha v_m * Y = alpha*(H-m) v_(m-1)        for m >= 1

    and beta(H) moves left past v_m as sigma^m(beta).
    """
    from weyl1.gwa import LocalizedElement, ratfun, rf_mul, rf_shift

    total = LocalizedElement()
    for n, beta in b.components.items():
        cur = {m: rf_mul(alpha, rf_shift(beta, m)) for m, alpha in a.components.items()}
        for _ in range(abs(n)):
            step = {}
            for m, f in cur.items():
                if n > 0 and m < 0:
                    f = rf_mul(f, ratfun([-m - 1, 1]))
                elif n < 0 and m > 0:
                    f = rf_mul(f, ratfun([-m, 1]))
                step[m + (1 if n > 0 else -1)] = f
            cur = step
        total = total + LocalizedElement(cur)
    return total


def oracle_from_graded(g):
    """The element sum_n alpha_n(H) * v_n of a GradedElement, by products
    in the algebra: each alpha_n is summed over the powers of H = Y*X and
    multiplied by v_n = X^n or Y^(-n).  The package inverts to_graded in
    closed form instead (Stirling numbers of the second kind)."""
    from weyl1 import H
    from weyl1.core import linear_combination, monomial, powers

    comps = g.components
    h_pows = powers(H, max(map(len, comps.values()), default=0) - 1)
    return linear_combination(
        (1, linear_combination(zip(p, h_pows)) * (monomial(0, n) if n >= 0 else monomial(-n, 0)))
        for n, p in sorted(comps.items())
    )


def oracle_theta(a):
    """theta(a) by substitution: each term c Y^i X^j becomes c (-X)^i Y^j,
    formed by powers and a product.  The package adds each term's
    X^i Y^j straight into one map instead."""
    from weyl1 import X, Y
    from weyl1.core import linear_combination

    return linear_combination((c, (-X) ** i * Y**j) for (i, j), c in a.terms())


def oracle_format_element(a):
    """The canonical text of an element, built from its Rat terms: the
    reference for `core.format_element`, which reads the cleared form."""
    from weyl1.scalars import rat_str

    chunks = []
    for (i, j), c in a.terms():
        powers = [f"{v}^{n}" if n > 1 else v for v, n in (("Y", i), ("X", j)) if n]
        mono = "*".join(powers)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{rat_str(mag)}*{mono}"
        else:
            body = rat_str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) or "0"


class SlackMembershipSolver:
    """Membership in K<x, y> by elimination, with `MembershipSolver`'s
    interface and records: a batch is expanded over the y^i x^j with
    i*v(y) + j*v(x) <= max v11(a) + slack, and each element is a member
    when its expansion stays within its own bound v11(a) + slack.  The
    witness lists its pairs in column order, which is the scan order of
    `candidate_pairs`.  It trusts `verified` and never checks [y, x] = 1.
    A test that sets it as `checks.certificate` makes the membership checks
    use it in place of the pair's certificate.
    """

    def __init__(self, e):
        from weyl1 import ONE, W11, DomainError, UnverifiedEndoError, weighted_degree

        if not e.verified:
            raise UnverifiedEndoError("membership needs a verified pair")
        self.x, self.y = e.x, e.y
        self.vx, self.vy = weighted_degree(W11, e.x), weighted_degree(W11, e.y)
        if self.vx < 1 or self.vy < 1:
            raise DomainError("membership needs v(x), v(y) >= 1")
        self._y_pows = [ONE]
        self._rows = {}

    def basis_product(self, i, j):
        """y^i x^j, cached by rows: row i starts at y^i, and each entry is
        its left neighbour times x."""
        row = self._rows.get(i)
        if row is None:
            while len(self._y_pows) <= i:
                self._y_pows.append(self._y_pows[-1] * self.y)
            row = self._rows[i] = [self._y_pows[i]]
        while len(row) <= j:
            row.append(row[-1] * self.x)
        return row[j]

    def candidate_pairs(self, bound):
        from weyl1 import Weight, Window

        return Window(Weight(self.vy, self.vx), bound).monomials

    def solve(self, elements, slack):
        from weyl1 import NEG_INF, W11, Membership, weighted_degree
        from weyl1.windows import Coordinates

        if slack < 0:
            raise ValueError(f"membership slack must be >= 0, got {slack}")
        degrees = [weighted_degree(W11, a) for a in elements]
        finite = [d for d in degrees if d != NEG_INF]
        sols = [None] * len(elements)
        if finite:
            pairs = self.candidate_pairs(max(finite) + slack)
            columns = [self.basis_product(i, j) for (i, j) in pairs]
            sols = coordinates_solve(Coordinates(columns, elements), columns, elements)
        vy, vx = self.vy, self.vx
        out = []
        for deg, sol in zip(degrees, sols):
            if deg == NEG_INF:
                out.append(Membership(True, {}, slack, deg, 0))
                continue
            bound = deg + slack
            tried = len(self.candidate_pairs(bound))
            witness = None if sol is None else {
                pairs[c]: Fraction(v, sol[1]) for c, v in sorted(sol[0].items())
            }
            if witness is None or any(i * vy + j * vx > bound for (i, j) in witness):
                out.append(Membership(False, None, slack, bound, tried))
            else:
                out.append(Membership(True, witness, slack, bound, tried))
        return out


def solutions(matrix, rhs):
    """Solve A x = b for several right-hand sides with one elimination.

    A is a RatMatrix, and each b a cleared column (ints keyed by row, den).
    The solution, when it exists, is the particular one with all free
    variables zero (pivot columns are chosen left to right, so the answer
    is stable when extra columns are appended on the right).  With A'' the
    numerators over L = matrix.den and b'' over d, A'' y = b'' gives
    x = y * L / d.  Returns, per rhs, a cleared row keyed by column, or
    None.
    """
    from weyl1.linalg import _echelon

    ncols = matrix.ncols
    # augmented columns sit to the right of the real ones, so a row can
    # only pivot there when its coefficient part reduced to zero; such
    # constraint rows encode the inconsistent right-hand sides
    aug = [dict(row) for row in matrix.sparse]
    for r, (ints, _) in enumerate(rhs):
        for i, v in ints.items():
            aug[i][ncols + r] = v
    rows = _echelon(aug).rows
    out = []
    for r, (_, den) in enumerate(rhs):
        aug_col = ncols + r
        hits = [(col, row[col], row[aug_col]) for col, row in rows.items() if aug_col in row]
        if any(col >= ncols for col, _, _ in hits):
            out.append(None)
            continue
        big = lcm(*(p for _, p, _ in hits))
        ints = {col: v * (big // p) * matrix.den for col, p, v in hits}
        den *= big
        g = gcd(den, *ints.values())
        out.append(({k: v // g for k, v in ints.items()}, den // g))
    return out


def coordinates_solve(co, space, elems):
    """Per element, its expansion over the list space as a cleared row
    (ints keyed by position in space, den; free variables zero), or None
    when it lies outside span(space), in the coordinates co; one
    elimination serves every element."""
    return solutions(co.matrix(space), [(co.coords(el), el._den) for el in elems])


def window_meet(win, elems):
    """Canonical basis of span(elems) cut to the window win, in three
    steps: the kernel of the elements' parts outside the window, the
    combinations of elems it gives, and the canonical basis of their
    span.  The reference for `Window.meet`, which takes one echelon."""
    from weyl1.core import WeylElement, linear_combination
    from weyl1.linalg import kernel
    from weyl1.windows import Coordinates

    outside = [
        WeylElement._cleared({k: v for k, v in el._ints.items() if k not in win.index}, el._den)
        for el in elems
    ]
    combos = kernel(Coordinates(outside).matrix(outside))
    return win.basis([
        linear_combination((v, elems[k]) for k, v in ints.items()) for ints, _ in combos
    ])


def direct_klein_problems(e, imax):
    """The Klein-basis identities evaluated on the pair (x, y) itself:
    y^i x^i and x^i y^i as products of shifted h's, and the delta chain
    delta(u_i) = -i^2 u_(i-1).  Returns the problems found."""
    from weyl1 import ONE
    from weyl1.maps import delta_xy

    x, y, h = e.x, e.y, e.h
    dl = delta_xy(e)
    problems = []
    yixi_prev = xiyi_prev = rising = falling = ONE
    for i in range(1, imax + 1):
        yixi = y * yixi_prev * x
        xiyi = x * xiyi_prev * y
        rising = rising * (h + (i - 1))
        falling = falling * (h - i)
        if yixi != rising:
            problems.append(f"y^{i}x^{i} != h(h+1)...(h+{i}-1)")
        if xiyi != falling:
            problems.append(f"x^{i}y^{i} != (h-1)...(h-{i})")
        if dl(yixi) != -i * i * yixi_prev:
            problems.append(f"delta chain fails at i={i} on y^i x^i")
        if dl(xiyi) != -i * i * xiyi_prev:
            problems.append(f"delta chain fails at i={i} on x^i y^i")
        yixi_prev, xiyi_prev = yixi, xiyi
    return problems


def direct_eigvec_problems(e, imax, nmax):
    """The six eigenvector families of d = [y, .]x and d' = [x, .]y,
    evaluated on the pair (x, y) itself.  Returns the problems found."""
    from weyl1.core import powers
    from weyl1.maps import d_xy, d_yx

    d = d_yx(e)
    dp = d_xy(e)
    x, y = e.x, e.y
    problems = []
    x_pows = powers(x, imax + nmax)
    y_pows = powers(y, imax + nmax)
    for i in range(0, imax + 1):
        yixi = y_pows[i] * x_pows[i]
        xiyi = x_pows[i] * y_pows[i]
        if d(yixi) != i * yixi:
            problems.append(f"d(y^{i}x^{i}) != {i} y^{i}x^{i}")
        if dp(xiyi) != -i * xiyi:
            problems.append(f"d'(x^{i}y^{i}) != -{i} x^{i}y^{i}")
        for n in range(1, nmax + 1):
            u = y_pows[n + i] * x_pows[i]
            if d(u) != i * u:
                problems.append(f"d(y^{n} y^{i}x^{i}) != {i} u")
            u = y_pows[i] * x_pows[i + n]
            if d(u) != (i + n) * u:
                problems.append(f"d(y^{i}x^{i} x^{n}) != {i + n} u")
            u = x_pows[i] * y_pows[i + n]
            if dp(u) != -(i + n) * u:
                problems.append(f"d'(x^{i}y^{i} y^{n}) != -({i}+{n}) u")
            u = x_pows[n + i] * y_pows[i]
            if dp(u) != -i * u:
                problems.append(f"d'(x^{n} x^{i}y^{i}) != -{i} u")
    return problems


# -- the dense matrix surface ---------------------------------------------


def cleared_vector(vec):
    """A dense or {index: scalar} vector as a cleared row (ints, den)."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    vals = {k: Fraction(v) for k, v in items if v}
    den = lcm(*(v.denominator for v in vals.values()))
    return {k: int(v * den) for k, v in vals.items()}, den


def dense(row, ncols):
    """A cleared row (ints, den) as a dense list of Fractions."""
    ints, den = row
    return [Fraction(ints.get(j, 0), den) for j in range(ncols)]


def dense_matrix(rows, ncols=None):
    """A RatMatrix from dense rows of scalars, cleared to one denominator."""
    from weyl1.linalg import RatMatrix

    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("ragged rows")
    width = widths.pop() if widths else ncols or 0
    if ncols is not None and ncols != width:
        raise ValueError("ncols disagrees with row length")
    den = lcm(*(Fraction(v).denominator for row in rows for v in row))
    sparse = [{j: int(Fraction(v) * den) for j, v in enumerate(row) if v} for row in rows]
    return RatMatrix(sparse, width, den)


def from_columns(columns, nrows):
    """A RatMatrix whose j-th column is the dense or {row: scalar} columns[j]."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in enumerate(dense(cleared_vector(col), nrows)):
            rows[i][j] = v
    return dense_matrix(rows, len(columns))


def matrix_parts(mat):
    """What a RatMatrix is made of: its width, its denominator and its
    sparse numerator rows.  Two matrices are the same when these agree; the
    package compares none, so the comparison lives here."""
    return mat.ncols, mat.den, mat.sparse


def values(mat):
    """The matrix a RatMatrix stands for, as dense rows of Fractions."""
    return [dense((row, mat.den), mat.ncols) for row in mat.sparse]


def mul_vector(mat, vec):
    """The product of the matrix a RatMatrix stands for with a dense vector."""
    return [
        sum((v * Fraction(x) for v, x in zip(row, vec)), Fraction(0)) for row in values(mat)
    ]


def nullspace(mat):
    """Canonical kernel basis of a RatMatrix as dense rows."""
    from weyl1.linalg import kernel

    return [dense(row, mat.ncols) for row in kernel(mat)]


def rref(mat):
    """Reduced row echelon form of a RatMatrix (dense rows) and its pivots."""
    from weyl1.linalg import row_basis

    basis = row_basis(mat.sparse)
    return [dense(row, mat.ncols) for row in basis], [min(ints) for ints, _ in basis]


def canonical_basis(vectors, ncols):
    """Canonical basis of the span of dense or {index: scalar} vectors."""
    from weyl1.linalg import row_basis

    return [dense(row, ncols) for row in row_basis([cleared_vector(v)[0] for v in vectors])]


def solve(mat, rhs):
    """Particular solution of A x = b (free variables zero, dense), or None."""
    (sol,) = solutions(mat, [cleared_vector(rhs)])
    return None if sol is None else dense(sol, mat.ncols)
