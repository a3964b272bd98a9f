"""Reference Gauss-Jordan elimination and matrix product with the field's own arithmetic.

Over the rationals this is elimination in ``Fraction`` (or gmpy2)
arithmetic, entry by entry: the slow, obviously exact route that the
multimodular engine of ``derring.linalg`` is tested against.  The
product ``matmul`` is likewise the entry-by-entry reference for the
integer-array products of ``derring``, such as the Gram matrix of a code.
The rank helpers at the end are conveniences of the tests, on the
engine's ``Matrix.rank``.
"""

from typing import List, Optional, Sequence, Tuple

from derring.linalg import Field, Matrix


def dot(field: Field, a: Sequence, b: Sequence):
    """The sum of a[i] b[i] in the field, for entries that are field elements or ints."""
    acc = field.zero()
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def matmul(field: Field, a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    """The product a b of two matrices given as rows, entry by entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch in matrix product")
    cols = list(zip(*b))
    return [[dot(field, row, col) for col in cols] for row in a]


def gauss_jordan(field: Field, data: Sequence[Sequence]) -> Tuple[List[List], Tuple[int, ...]]:
    """Reduced row echelon form (all rows kept) and pivot columns, first-nonzero pivoting."""
    F = field
    m = [[F.coerce(x) for x in row] for row in data]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    zero = F.zero()
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        row_r = m[r]
        for i in range(nrows):
            factor = m[i][c]
            if i != r and factor != zero:
                m[i] = [F.sub(a, F.mul(factor, b)) for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, tuple(pivots)


def solve(field: Field, data: Sequence[Sequence], rhs: Sequence) -> Optional[List]:
    """The particular solution of data x = rhs read off ``gauss_jordan`` of [data | rhs]:
    zero off the pivots, the last column at each pivot.  None when inconsistent."""
    if len(rhs) != len(data):
        raise ValueError("rhs length must equal the number of rows")
    ncols = len(data[0]) if data else 0
    reduced, pivots = gauss_jordan(field, [list(row) + [b] for row, b in zip(data, rhs)])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for row, pc in zip(reduced, pivots):
        x[pc] = row[ncols]
    return x


def rows_rank(field: Field, rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return Matrix(field, rows).rank()


def same_row_space(field: Field, rows_a: Sequence[Sequence], rows_b: Sequence[Sequence]) -> bool:
    ra = rows_rank(field, rows_a)
    rb = rows_rank(field, rows_b)
    if ra != rb:
        return False
    return rows_rank(field, list(rows_a) + list(rows_b)) == ra
