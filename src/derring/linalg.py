"""Exact linear algebra over prime fields GF(p) and the rationals.

Scalars are plain Python ints (always reduced mod p) for GF(p) and
arbitrary-precision rationals for the rational field, so every result in
the toolkit is exact; there is no floating point anywhere.

Every row reduction runs one kernel: Gauss-Jordan mod a prime on integer
rows, first-nonzero pivoting.  It is numpy int64 arithmetic for systems of
at least ``_NUMPY_RREF_THRESHOLD`` entries while (p - 1)^2 < 2^63, and a
Python-int loop otherwise.  Over GF(p) that is the whole story.  Over the
rationals each row is scaled to integers (which keeps the RREF), reduced
mod 2^31 - 1, and the entries at the free columns are recovered by
rational reconstruction, combining further primes (taken downward) by CRT
while reconstruction or the certificate fails.  The certificate is the
exact integer product A K = 0, K the kernel vectors read off the
candidate RREF.  K is the identity on the non-pivot columns, so it has
full rank n - r_p and A K = 0 gives rank A <= r_p; a rank mod p never
exceeds the rational rank, so the two are equal, K spans the rational
kernel, and the pivots and the RREF are the rational ones.  The loop has
no cap: unlucky primes divide some nonzero minor, so there are finitely
many, and the CRT modulus grows until every entry reconstructs.  A rank
mod p equal to min(rows, cols) is already exact and needs no lift.
"""

from __future__ import annotations

import math
import sys
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
        """Normalize ints, rationals or 'a/b' strings into this field.

        A literal whose denominator is 0 in this field is refused with a
        ValueError that names it.
        """
        if isinstance(x, str):
            num, slash, den = x.strip().partition("/")
            if slash:
                num, den = int(num), int(den)
                if den % self.p == 0 if self.p else den == 0:
                    why = (f"{den} is a multiple of {self.p}, so it is 0 there" if self.p
                           else "is 0")
                    raise ValueError(f"{x.strip()!r} is not in {self!r}: its denominator "
                                     f"{why} and has no inverse")
                return self.div(self.coerce(num), self.coerce(den))
            x = int(num)
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
    """Dense row-major matrix over a single exact field.

    Over QQ the entries may be ints as well as rationals; the RREF, and
    so every kernel vector and solution, holds rationals.
    """

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
        """Reduced row echelon form and its pivot columns (see the module notes)."""
        p = self.field.p
        if p:
            data, pivots = _rref_mod(self.data, self.cols, p)
        else:
            data, pivots = _rref_rational(self.data, self.cols)
        return Matrix(self.field, data, coerce=False), tuple(pivots)

    def rank(self) -> int:
        if not self.field.p and self.rows:
            # r_p <= r_QQ <= min(rows, cols), so a full rank mod p needs no lift
            _, pivots = _rref_mod(_integer_rows(self.data), self.cols, _FIRST_PRIME)
            if len(pivots) == min(self.rows, self.cols):
                _log_rational((self.rows, self.cols), len(pivots), 1, lifted=False)
                return len(pivots)
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
                x = R.data[r_idx][f]
                if x:
                    v[pc] = F.neg(x)
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
    """Whether the rows, lists of field elements (or ints over QQ), have rank `expected`."""
    if not rows:
        return expected == 0
    return Matrix(field, rows, coerce=False).rank() == expected


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


def _rref_python_mod(m: List[List[int]], p: int) -> List[int]:
    """In-place RREF of rows of residues mod p; returns pivot columns.

    Each elimination step touches only the nonzero columns of the pivot row.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = next((i for i in range(r, nrows) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        row = m[r]
        inv = pow(row[c], -1, p)
        nonzero = [(j, row[j] * inv % p) for j in range(c, ncols) if row[j]]
        for j, v in nonzero:
            row[j] = v
        for i in range(nrows):
            other = m[i]
            f = other[c]
            if f and i != r:
                for j, v in nonzero:
                    other[j] = (other[j] - f * v) % p
        pivots.append(c)
        r += 1
    return pivots


def _rref_mod(rows: Sequence[Sequence[int]], ncols: int,
              p: int) -> Tuple[List[List[int]], List[int]]:
    """RREF mod p of integer rows (left unchanged) and its pivots.

    numpy runs systems of at least ``_NUMPY_RREF_THRESHOLD`` entries while
    (p - 1)^2 < 2^63; the Python-int loop runs the rest.
    """
    m = [[x % p for x in row] for row in rows]
    if p <= _NUMPY_RREF_MAX_P and len(m) * ncols >= _NUMPY_RREF_THRESHOLD:
        a = np.array(m, dtype=np.int64)
        pivots = rref_mod_p(a, p)
        return a.tolist(), pivots
    return m, _rref_python_mod(m, p)


# the first prime of the rational engine; further primes are taken below it
_FIRST_PRIME = 2 ** 31 - 1


def _engine_primes():
    """2^31 - 1, then every prime below it in decreasing order."""
    p = _FIRST_PRIME
    yield p
    while p > 2:
        p -= 2
        if is_prime(p):
            yield p


def _integer_rows(data: Sequence[Sequence]) -> List[List[int]]:
    """Each row times the lcm of its denominators, as Python ints.

    Scaling a row by a nonzero constant keeps the RREF.  gmpy2 numerators
    become ints here, before any of them reaches numpy.
    """
    out = []
    for row in data:
        if set(map(type, row)) <= {int}:
            out.append(list(row))
        else:
            lcm = math.lcm(*{int(x.denominator) for x in row})
            out.append([int(x.numerator) * (lcm // int(x.denominator)) for x in row])
    return out


def _reconstruct(x: int, modulus: int, bound: int) -> Optional[Tuple[int, int]]:
    """The n/d with n = d x mod modulus, |n|, d <= bound, gcd 1 (Wang), or None."""
    if x <= bound:
        return x, 1
    if modulus - x <= bound:
        return x - modulus, 1
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _kernel_vanishes(ints: List[List[int]], ncols: int, pivots: List[int],
                     free: List[int], values: List[List[Tuple[int, int]]]) -> bool:
    """Whether A K = 0 exactly, K the kernel vectors read off the candidate RREF.

    Column k of K, scaled to integers by the lcm L of its denominators, is
    L at free[k] and -L n/d at pivot i, n/d being the RREF entry
    (i, free[k]).  The product runs in int64 when each row's sum of |A|
    times the largest |K| entry is below 2^63, so that no partial sum can
    overflow, and over Python ints otherwise.
    """
    lcms = [math.lcm(1, *(row[k][1] for row in values)) for k in range(len(free))]
    kernel = [[0] * len(free) for _ in range(ncols)]
    for k, (f, lcm) in enumerate(zip(free, lcms)):
        kernel[f][k] = lcm
    for pc, row in zip(pivots, values):
        kernel[pc] = [-n * (lcm // d) for (n, d), lcm in zip(row, lcms)]
    kmax = max(max(map(abs, row)) for row in kernel)
    amax = max(sum(map(abs, row)) for row in ints)
    dtype = np.int64 if amax * kmax < 2 ** 63 else object
    return not (np.array(ints, dtype=dtype) @ np.array(kernel, dtype=dtype)).any()


def _rref_rational(data: Sequence[Sequence], ncols: int) -> Tuple[List[List], List[int]]:
    """The RREF over QQ by the multimodular engine (see the module notes)."""
    ints = _integer_rows(data)
    nrows = len(ints)
    if not nrows:
        return [], []
    pivots: Optional[List[int]] = None
    for primes, p in enumerate(_engine_primes(), 1):
        reduced, found = _rref_mod(ints, ncols, p)
        if pivots is not None and found != pivots:
            # a mod-p rank profile never beats the rational one: keep the better
            if (len(found), [-c for c in found]) < (len(pivots), [-c for c in pivots]):
                continue
            pivots = None
        if pivots is None:
            pivots, modulus = found, 1
            taken = set(pivots)
            free = [c for c in range(ncols) if c not in taken]
            residues = [[0] * len(free) for _ in pivots]
        # CRT: fold the residues mod p into those mod the running modulus
        step = pow(modulus, -1, p)
        for old, row in zip(residues, reduced):
            for k, f in enumerate(free):
                old[k] += modulus * ((row[f] - old[k]) * step % p)
        modulus *= p
        bound = math.isqrt(modulus // 2)
        values = [[_reconstruct(x, modulus, bound) for x in row] for row in residues]
        if all(v is not None for row in values for v in row) and (
                not free or _kernel_vanishes(ints, ncols, pivots, free, values)):
            break
    zero, one = _rat(0), _rat(1)
    out = []
    for pc, row in zip(pivots, values):
        full = [zero] * ncols
        full[pc] = one
        for f, (n, d) in zip(free, row):
            if n:
                full[f] = _rat(n, d)
        out.append(full)
    out.extend([zero] * ncols for _ in range(nrows - len(pivots)))
    _log_rational((nrows, ncols), len(pivots), primes, lifted=bool(free and pivots))
    return out, pivots


def _log_rational(shape, rank: int, primes: int, lifted: bool) -> None:
    """One DEBUG record per rational elimination on the ``derring.linalg`` logger.

    derring does not import ``logging`` itself: a process that has not
    imported it has set no level or handler, so there is nothing to record.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return
    log = logging.getLogger("derring.linalg")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("QQ elimination %dx%d: rank %d, %d prime(s), %s", shape[0], shape[1],
                  rank, primes, "lift" if lifted else "no lift",
                  extra={"shape": tuple(shape), "rank": rank, "primes": primes,
                         "lifted": lifted})


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
