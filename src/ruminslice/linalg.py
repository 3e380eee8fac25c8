"""Small dense exact linear algebra over Fraction matrices.

Matrices are lists of row lists.  Sizes here are tiny (dimensions of
blade spaces), so plain Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction_rows(rows):
    return [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]


def solve(rows, rhs):
    """Solve A x = b exactly; return a particular solution or None.

    Free variables are set to zero.  ``None`` means the system is
    inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(_as_fraction_rows(rows), rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_index, c in enumerate(pivots):
        x[c] = aug[row_index][n]
    return x


def invert(rows):
    """Exact inverse of a square matrix; raises on singular input."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_as_fraction_rows(rows))]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def mat_vec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


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
    m = len(rows)
    if m == 0:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    work = [list(r) for r in _as_fraction_rows(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
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
        if r == m:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row_index, c in enumerate(pivots):
            vec[c] = -work[row_index][f]
        basis.append(vec)
    return basis

