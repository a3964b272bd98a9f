"""Exact linear algebra over prime fields GF(p) and the rationals.

Scalars are plain Python ints (always reduced mod p) for GF(p) and
arbitrary-precision rationals for the rational field, so every result in
the toolkit is exact; there is no floating point anywhere.  Row reduction
is Gauss-Jordan with first-nonzero pivoting.  For prime fields with
(p - 1)^2 < 2^63 there is a numpy-backed fast path that still works on
exact machine integers mod p.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

try:  # gmpy2 rationals are a drop-in speedup over Fraction
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rat


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class Field:
    """GF(p) for a prime p, or the rationals when constructed with p=0."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p != 0 and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def zero(self):
        return 0 if self.p else _rat(0)

    def one(self):
        return 1 if self.p else _rat(1)

    def coerce(self, x):
        """Normalize ints, rationals or 'a/b' strings into this field."""
        if isinstance(x, str):
            x = x.strip()
            if "/" in x:
                num, den = x.split("/")
                return self.div(self.coerce(int(num)), self.coerce(int(den)))
            x = int(x)
        if self.p:
            if isinstance(x, int):
                return x % self.p
            num = getattr(x, "numerator", None)
            den = getattr(x, "denominator", None)
            if num is None or den is None:
                raise TypeError(f"cannot coerce {x!r} into GF({self.p})")
            return (int(num) % self.p) * pow(int(den), -1, self.p) % self.p
        return _rat(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return 1 / _rat(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"


QQ = Field(0)

_gf_cache: dict = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


def parse_field(spec) -> Field:
    """Parse a field tag: 'GF(7)', 'gf2', 7, 'Q', 'QQ' or 'rational'."""
    if isinstance(spec, Field):
        return spec
    if isinstance(spec, int):
        return GF(spec)
    s = str(spec).strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    for prefix in ("gf(", "f(", "gf", "f"):
        if s.startswith(prefix):
            digits = s[len(prefix):].strip("()")
            if digits.isdigit():
                return GF(int(digits))
    raise ValueError(f"cannot parse field spec {spec!r}")


# numpy RREF mod p is only worth its setup cost on larger systems
_NUMPY_RREF_THRESHOLD = 2048
# largest p whose products of two residues, (p - 1)^2, fit in int64
_NUMPY_RREF_MAX_P = math.isqrt(2 ** 63 - 1) + 1


class Matrix:
    """Dense row-major matrix over a single exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence], coerce: bool = True):
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0]) if self.rows else 0
        if coerce:
            c = field.coerce
            self.data = [[c(x) for x in row] for row in data]
        else:
            self.data = [list(row) for row in data]
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], coerce=False)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        zero = field.zero()
        m = cls(field, [[zero] * cols for _ in range(rows)], coerce=False)
        m.cols = cols
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)], coerce=False)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.data == self.data)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(x == zero for row in self.data for x in row)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.cols != other.rows:
            raise ValueError("dimension or field mismatch in matrix product")
        F = self.field
        out = []
        bt = other.transpose().data
        for row in self.data:
            out.append([_dot(F, row, col) for col in bt])
        return Matrix(F, out, coerce=False)

    def mul_vec(self, vec: Sequence) -> List:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        F = self.field
        return [_dot(F, row, vec) for row in self.data]

    # -- row reduction ----------------------------------------------------

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        p = self.field.p
        if p and p <= _NUMPY_RREF_MAX_P and self.rows * self.cols >= _NUMPY_RREF_THRESHOLD:
            return self._rref_numpy()
        return self._rref_python()

    def _rref_python(self) -> Tuple["Matrix", Tuple[int, ...]]:
        F = self.field
        m = [row[:] for row in self.data]
        nrows, ncols = self.rows, self.cols
        pivots: List[int] = []
        r = 0
        zero = F.zero()
        for c in range(ncols):
            pivot_row = None
            for i in range(r, nrows):
                if m[i][c] != zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            lead = m[r][c]
            if lead != F.one():
                inv = F.inv(lead)
                m[r] = [F.mul(inv, x) for x in m[r]]
            row_r = m[r]
            for i in range(nrows):
                if i == r:
                    continue
                factor = m[i][c]
                if factor != zero:
                    row_i = m[i]
                    m[i] = [F.sub(row_i[j], F.mul(factor, row_r[j])) for j in range(ncols)]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return Matrix(F, m, coerce=False), tuple(pivots)

    def _rref_numpy(self) -> Tuple["Matrix", Tuple[int, ...]]:
        p = self.field.p
        a = np.array(self.data, dtype=np.int64) % p
        pivots = rref_mod_p(a, p)
        out = Matrix(self.field, a.tolist(), coerce=False)
        return out, tuple(pivots)

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

    def kernel_basis(self) -> List[List]:
        """Basis of the right nullspace, one vector per free column."""
        F = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        zero, one = F.zero(), F.one()
        basis = []
        for f in free:
            v = [zero] * self.cols
            v[f] = one
            for r_idx, pc in enumerate(pivots):
                v[pc] = F.neg(R.data[r_idx][f])
            basis.append(v)
        return basis

    def solve(self, rhs: Sequence) -> Optional[List]:
        """A particular solution of M x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("rhs length must equal the number of rows")
        F = self.field
        aug = Matrix(F, [list(row) + [F.coerce(b)] for row, b in zip(self.data, rhs)],
                     coerce=False)
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [F.zero()] * self.cols
        for r_idx, pc in enumerate(pivots):
            x[pc] = R.data[r_idx][self.cols]
        return x


def _dot(field: Field, a: Sequence, b: Sequence):
    acc = field.zero()
    for x, y in zip(a, b):
        if x != 0 and y != 0:
            acc += x * y
    return acc % field.p if field.p else acc


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


def rows_full_rank(field: Field, rows: Sequence[Sequence], expected: int) -> bool:
    """Whether the rows have rank `expected`.

    Over the rationals, integer rows whose reduction mod a small prime
    already has full rank are certified without exact elimination (the
    rational rank can only be larger); otherwise falls back to the exact
    path.
    """
    if not rows:
        return expected == 0
    if expected > min(len(rows), len(rows[0])):
        return False
    if not field.p:
        ints = _as_int_rows(rows)
        if ints is not None:
            a = np.array(ints, dtype=np.int64) % 3
            if len(rref_mod_p(a, 3)) == expected:
                return True
    return rows_rank(field, rows) == expected


def _as_int_rows(rows) -> Optional[List[List[int]]]:
    out = []
    for row in rows:
        new = []
        for x in row:
            den = getattr(x, "denominator", 1)
            if den != 1:
                return None
            new.append(int(x))
        out.append(new)
    return out


def rref_mod_p(a: "np.ndarray", p: int) -> List[int]:
    """In-place RREF of an int64 numpy array mod p; returns pivot columns.

    Exact only while (p - 1)^2 fits in int64; larger p is refused.
    """
    if p > _NUMPY_RREF_MAX_P:
        raise ValueError(f"rref_mod_p needs (p - 1)^2 < 2^63, got p = {p}")
    nrows, ncols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        lead = int(a[r, c])
        if lead != 1:
            a[r] = (a[r] * pow(lead, -1, p)) % p
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            a[hit] = (a[hit] - np.outer(a[hit, c], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots


# -- sparse rank helpers --------------------------------------------------
#
# The pair-constraint systems solved by the derivation oracle have a few
# nonzero entries per row but thousands of rows, so a dict-of-columns
# elimination beats dense reduction by a wide margin.  Integer rows keep
# exact rank over the rationals by fraction-free elimination.

def sparse_rank_gf(rows: Iterable[dict], p: int) -> int:
    pivots: dict = {}
    rank_ = 0
    for raw in rows:
        row = {c: v % p for c, v in raw.items() if v % p}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in row.items()}
                rank_ += 1
                break
            factor = row[c]
            for k, v in pivot.items():
                nv = (row.get(k, 0) - factor * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
        # empty row: redundant constraint
    return rank_


def _gcd_many(values) -> int:
    from math import gcd
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            break
    return g


def sparse_rank_int(rows: Iterable[dict]) -> int:
    """Exact rank over the rationals of sparse integer rows."""
    from math import gcd
    pivots: dict = {}
    rank_ = 0
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                g = _gcd_many(row.values())
                if row[c] < 0:
                    g = -g
                if g != 1:
                    row = {k: v // g for k, v in row.items()}
                pivots[c] = row
                rank_ += 1
                break
            a, b = pivot[c], row[c]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            new = {}
            for k, v in row.items():
                new[k] = ma * v
            for k, v in pivot.items():
                nv = new.get(k, 0) - mb * v
                if nv:
                    new[k] = nv
                elif k in new:
                    del new[k]
            row = new
    return rank_


def sparse_rank(field: Field, rows: Iterable[dict]) -> int:
    """Rank of sparse rows over `field`; integer entries required over QQ."""
    if field.p:
        return sparse_rank_gf(rows, field.p)
    return sparse_rank_int(rows)
