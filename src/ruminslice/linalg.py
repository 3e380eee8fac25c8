"""Small dense exact linear algebra over Fraction matrices.

Matrices are lists of row lists.  Sizes here are tiny (dimensions of
blade spaces), so plain Gaussian elimination is plenty: :func:`rref` is
the one Gauss-Jordan routine, and :func:`solve`, :func:`invert` and
:func:`nullspace` read their answers off its output.  :func:`det` expands
the k x k minors of a simplex's edges (k <= 2n+1).  The Rumin
operators multiply by mostly-zero matrices (the Lefschetz middle inverse
and the primitive projection), so they keep them as :func:`sparse_rows`
and multiply with :func:`sparse_mat_vec`, which gives the same Fractions
as the dense :func:`mat_vec`.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction_rows(rows):
    return [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]


def rref(rows, ncols=None):
    """Gauss-Jordan elimination; return (reduced rows, pivot columns).

    Pivots are sought in columns ``0..ncols-1`` (every column by
    default), left to right; each is the first row at or below the
    current one with a nonzero entry in that column.  The pivot row is
    scaled to 1 and the column is cleared in every other row; the
    operations act on whole rows, so columns past ``ncols`` (an
    augmented right-hand side) are carried along.  The input is not
    modified.
    """
    work = _as_fraction_rows(rows)
    m = len(work)
    if ncols is None:
        ncols = len(work[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [v - factor * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def solve(rows, rhs):
    """Solve A x = b exactly; return a particular solution or None.

    Free variables are set to zero.  ``None`` means the system is
    inconsistent.
    """
    n = len(rows[0]) if rows else 0
    work, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in work[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(work, pivots):
        x[c] = row[n]
    return x


def invert(rows):
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(rows)
    work, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(rows)], n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in work]


def det(rows):
    """Determinant of a small square matrix, by cofactors along the first row."""
    size = len(rows)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return sum((-1) ** j * rows[0][j] * det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(size) if rows[0][j] != 0)


def mat_vec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def sparse_rows(rows) -> tuple:
    """Each row as a tuple of (column, value) pairs for its nonzero entries."""
    return tuple(tuple((i, v) for i, v in enumerate(row) if v) for row in rows)


def sparse_mat_vec(rows, vec) -> list:
    """:func:`mat_vec` on :func:`sparse_rows` output; zero entries of vec are skipped."""
    out = []
    for row in rows:
        total = Fraction(0)
        for i, a in row:
            v = vec[i]
            if v:
                total += a * v
        out.append(total)
    return out


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def column_space_projection(columns):
    """Orthogonal projection matrix onto span of the given column vectors.

    ``columns`` is a list of equal-length vectors assumed linearly
    independent; returns P = B (B^T B)^(-1) B^T as Fraction rows.
    """
    if not columns:
        return None
    b = transpose(columns)  # rows: ambient dim, cols: len(columns)
    bt = columns  # transpose of b, conveniently
    gram = mat_mul(bt, b)
    gram_inv = invert(gram)
    return mat_mul(mat_mul(b, gram_inv), bt)


def nullspace(rows, ncols):
    """Basis of the kernel of the matrix; handles the zero-row case."""
    work, pivots = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(work, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return basis
