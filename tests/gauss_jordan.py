"""Reference Gauss-Jordan elimination with the field's own arithmetic.

Over the rationals this is elimination in ``Fraction`` (or gmpy2)
arithmetic, entry by entry: the slow, obviously exact route that the
multimodular engine of ``derring.linalg`` is tested against.
"""

from typing import List, Sequence, Tuple

from derring.linalg import Field


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
