"""Exact linear algebra over prime fields GF(p) and the rationals.

Scalars are plain Python ints (always reduced mod p) for GF(p) and
arbitrary-precision rationals for the rational field, so every result in
the toolkit is exact; there is no floating point anywhere.

An elimination of integer rows, one array, has one entry point,
``echelon``: its pivots, free columns and RREF entries there as integers
over their column's lcm, read whole by ``integer_rref`` (over one
denominator) and ``integer_kernel``.  No solve path builds a rational
RREF; ``Matrix`` is the API edge, where integers become field elements.

Every row reduction runs one kernel, ``rref_mod_p``: Gauss-Jordan mod a
prime on rows of residues, first-nonzero pivoting, in Python ints, so it
is exact for every p.  Each step touches only the nonzero columns of the
pivot row, and the systems derring builds are sparse.  Over GF(p) that
is the whole story.  Over the rationals the integer rows (which keep
the RREF) are reduced mod 2^31 - 1, and the entries at the free columns
are recovered by rational reconstruction, combining further primes
(taken downward) by CRT while reconstruction or the certificate fails.
The certificate is Cabay's bound (S. Cabay, "Exact solution of linear
equations", SYMSAC 1971): K, the kernel vectors read off the candidate
RREF and scaled to integers, is a multiple of the kernel mod p at every
prime of the CRT modulus M, so A K = 0 mod M, and no entry of A K
exceeds w max|K|, w the largest sum of |entries| of a row of A; so
w max|K| < M proves A K = 0 with no product, and a loose bound costs one
more prime.  K is the identity on the non-pivot columns, so it has full
rank n - r_p and A K = 0 gives rank A <= r_p; a rank mod p never exceeds
the rational rank, so the two are equal, K spans the rational kernel,
and the pivots and the RREF are the rational ones.  The loop has no
cap: unlucky primes divide some nonzero minor, so there are finitely
many, and M grows until every entry reconstructs and the bound holds.
A rank (``rank_only``) reads the pivots alone, with no residue array over
GF(p) and over QQ no lift when a rank mod p is min(rows, cols).

Sparse rows, one (cols, vals) block, have one entry point too,
``sparse_echelon(field, block, seed)``, which returns ``echelon``'s
triple; it runs the same kernel and the same lift (``_lift``), and only
the mod-p step differs.  The rows stream in chunks through K, the kernel
mod p of the rows before them: a chunk times K is row-reduced by the
kernel above and updates K.  K starts from a seed (ncols, roots,
levels), always given, which describes K0 and does not hold it: the
identity at the root rows, walked (``walk``) along levels of row
additions (dst, a, b), so K0 has no negative entry and its columns span
the kernel of the rows e_dst - e_a - e_b (``identity_seed(ncols)`` walks
nothing).  K is then K0 times the kernel of the rows times K0; at the
roots it is the identity on the free columns and minus the RREF at the
pivots, so over GF(p) the triple is read off it, and over QQ the lift
reconstructs it and certifies A K0 K = 0, a row of A K0 summing at most
the rows' largest sum of |vals| times K0's row weight.  ``sparse_rank``
counts the pivots from the identity seed, ``sparse_nullity`` the free
columns, and ``sparse_kernel_basis`` walks the kernel from the roots into
the canonical form of ``Matrix.kernel_basis`` by one ``integer_rref``.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

try:  # gmpy2 rationals are a drop-in speedup over Fraction
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as _rat


# Miller-Rabin on the primes to 37 is exact below psi_12, the least strong
# pseudoprime to all twelve bases (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Exact primality by Miller-Rabin below ``_MILLER_RABIN_LIMIT`` (about 3.2e23).

    Larger numbers with no factor up to 37 are refused with a ValueError.
    """
    if p < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    if p >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"primality of {p} >= {_MILLER_RABIN_LIMIT} is not decided here")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
        ValueError that names it; a float, in every field, with a TypeError.
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
        if isinstance(x, float):  # no floats: 0.1 is not 1/10
            raise TypeError(f"cannot coerce {x!r} into QQ")
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


class Matrix:
    """Dense row-major matrix over a single exact field: the API edge of the
    integer elimination (``echelon``, ``integer_rref``).

    Over GF(p) the entries are residues in [0, p), reduced by ``coerce``
    or already so with ``coerce=False``.  Over QQ the entries may be ints
    as well as rationals; every entry of the RREF is a rational.
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

    # -- row reduction ----------------------------------------------------

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form, zero rows kept, and its pivot columns: ``integer_rref``."""
        pivots, rows, den = integer_rref(self.field, self._integers())
        rows = np.vstack([rows, np.zeros((self.rows - len(pivots), self.cols), dtype=rows.dtype)])
        return Matrix(self.field, _field_rows(self.field, rows, den), coerce=False), tuple(pivots)

    def rank(self) -> int:
        """The rank: the number of ``echelon``'s pivots, with no RREF built."""
        return len(echelon(self.field, self._integers(), rank_only=True)[0])

    def kernel_basis(self) -> List[List]:
        """One vector per free column: a column of ``integer_kernel`` over its lcm."""
        K, lcms = integer_kernel(self.field, self._integers())
        return [_values(self.field, col, lcm) for col, lcm in zip(K.T, lcms.tolist())]

    def _integers(self) -> np.ndarray:
        """The rows in one array: over GF(p) the residues (``sum_dtype``), over QQ
        each row over its own denominator, in Python ints."""
        p = self.field.p
        rows = self.data if p else [integer_scale(row)[0] for row in self.data]
        return np.array(rows, dtype=sum_dtype(0, p) if p else object).reshape(self.rows, self.cols)


def _values(field: Field, ints: np.ndarray, den: int) -> List:
    """The field elements x / den of an integer array; its ints themselves when den is 1."""
    if den == 1:
        return ints.tolist()
    inv = field.inv(field.coerce(den))
    return [field.mul(inv, x) for x in ints.tolist()]


def _field_rows(field: Field, rows: np.ndarray, den: int) -> List[List]:
    """Integer rows over den as field elements: residues over GF(p), rationals over QQ."""
    if field.p:
        return rows.tolist()
    zero = _rat(0)
    return [[_rat(x, den) if x else zero for x in row] for row in rows.tolist()]


def dense_block(field: Field, cols: np.ndarray, vals: np.ndarray, ncols: int) -> np.ndarray:
    """The rows of one (cols, vals) block as an array.

    Row i adds vals[i, j] at column cols[i, j]; over GF(p) each entry is
    reduced into the field, over QQ the integers are exact entries.  An
    entry is at most a row's sum of |vals|, which picks the dtype.
    """
    dense = np.zeros((len(cols), ncols), dtype=sum_dtype(row_weight(vals), 1, field.p))
    np.add.at(dense, (np.arange(len(cols))[:, None], cols), vals.astype(dense.dtype, copy=False))
    if field.p:
        dense %= field.p
    return dense


def rref_mod_p(m: List[List[int]], p: int) -> List[int]:
    """In-place RREF of rows of residues mod p; returns pivot columns.

    Python ints, so exact for every prime p.  Each elimination step
    touches only the nonzero columns of the pivot row.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
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


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def integer_scale(values: Sequence) -> Tuple[List[int], int]:
    """Ints or rationals as integers over their common denominator L, and L.

    Each value is its integer over L, L the lcm of the denominators (1 for
    ints).  gmpy2 numerators become ints here, before any of them reaches
    numpy.
    """
    if set(map(type, values)) <= {int}:
        return list(values), 1
    nums, dens = list(map(_numerator, values)), list(map(_denominator, values))
    lcm = math.lcm(*map(int, set(dens)))
    if lcm == 1:
        return list(map(int, nums)), 1
    return [int(n) * (lcm // int(d)) for n, d in zip(nums, dens)], lcm


def _reconstruct(x: int, modulus: int, bound: int) -> Optional[Tuple[int, int]]:
    """The n/d with n = d x mod modulus, |n|, d <= bound, gcd 1 (Wang), or None."""
    r0, r1, t0, t1 = modulus, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or math.gcd(r1, t1) != 1:
        return None
    return r1, t1


def _integer_kernel(residues: np.ndarray, modulus: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """K, the kernel vectors of the candidate RREF scaled to integers, as its
    rows at the pivots and its diagonal L at the free columns; or None.

    Entry (pivot i, free column k) of the kernel, minus the RREF's, is the
    reconstruction n/d of ``residues[i, k]``, read at once as n/1 where the
    symmetric residue is within the bound and by ``_reconstruct`` elsewhere;
    None when one fails.  Column k of K, scaled by the lcm L[k] of its
    denominators, is L[k] at free column k, L[k] n/d at pivot i, else 0.
    """
    bound = math.isqrt(modulus // 2)
    num = np.where(residues > modulus // 2, residues - modulus, residues)
    den = np.ones_like(num)
    for i, k in zip(*np.nonzero(abs(num) > bound)):
        value = _reconstruct(int(residues[i, k]), modulus, bound)
        if value is None:
            return None
        num[i, k], den[i, k] = value
    lcms = ([math.lcm(1, *col) for col in den.T.tolist()] if (den != 1).any()
            else [1] * residues.shape[1])
    dtype = sum_dtype(max(lcms, default=1), bound)
    lcms = np.array(lcms, dtype=dtype)
    return num.astype(dtype) * (lcms // den.astype(dtype)), lcms


def row_weight(rows) -> int:
    """The largest sum of |entries| over a row of integer rows, exact.

    numpy sums only where no row's sum can reach 2^63, since an int64 sum
    past it wraps; otherwise the sums are Python ints.
    """
    rows = np.asarray(rows)
    if not rows.size:
        return 0
    if rows.dtype != object:
        top = max(int(rows.max()), -int(rows.min()))
        if top * rows.shape[1] < 2 ** 63:
            return int(np.abs(rows).sum(axis=1).max())
    return max(sum(map(abs, map(int, row))) for row in rows.tolist())


def sum_dtype(weight: int, top: int, p: int = 0, extra: int = 0):
    """The dtype of exact integer work on sums of terms c x, then reduced mod p.

    Every partial sum is at most weight top + extra, where the |c| of a
    sum add up to at most ``weight``, |x| <= ``top`` and ``extra`` bounds
    whatever else is added; int64 while that, top itself (a zero weight
    still holds the x) and p stay below 2^63, else Python ints (numpy
    ``object``).
    """
    return np.int64 if max(weight * top + extra, top, p) < 2 ** 63 else object


def _lift(modp, weight: int) -> Tuple[List[int], List[int], Tuple[np.ndarray, np.ndarray], int]:
    """The rational RREF of an integer system A by the multimodular loop (see the module notes).

    ``modp(p)`` gives the pivots, the free columns and the kernel mod p at
    the pivots, minus the RREF there, an int64 array with a row per pivot;
    ``weight`` bounds the sum of |entries| of every row of A.  Returns the
    pivots, the free columns, K (``_integer_kernel``) and the primes used.
    Column k of K is L (e_f + sum n_i / d_i e_(P_i)), f = free[k], and
    n_i (L / d_i) = L x_i mod p for the residue x_i at each prime p of the
    CRT modulus M: K is L times the kernel mod p, so A K = 0 mod M, and
    weight max|K| < M proves A K = 0 (Cabay's bound).
    """
    pivots: Optional[List[int]] = None
    for primes, p in enumerate(_engine_primes(), 1):
        found, found_free, reduced = modp(p)
        if pivots is not None and found != pivots:
            # a mod-p rank profile never beats the rational one: keep the better
            if (len(found), [-c for c in found]) < (len(pivots), [-c for c in pivots]):
                continue
            pivots = None
        if pivots is None:
            pivots, free, modulus, residues = found, found_free, 1, 0
        if modulus * p >= 2 ** 63:
            residues, reduced = np.asarray(residues, dtype=object), reduced.astype(object)
        # CRT: fold the residues mod p into those mod the running modulus
        residues = residues + modulus * ((reduced - residues) % p * pow(modulus, -1, p) % p)
        modulus *= p
        kernel = _integer_kernel(residues, modulus)
        if kernel is not None and weight * max(int(abs(part).max(initial=0))
                                               for part in kernel) < modulus:
            return pivots, free, kernel, primes


def echelon(field: Field, ints: np.ndarray, rank_only: bool = False):
    """The pivots, the free columns and (rows, lcms) of integer rows, one array:
    the RREF's entry at (pivot i, free column k) is -rows[i, k] / lcms[k], over
    GF(p) of residues over 1, over QQ the lift's, with one DEBUG record (see
    the module notes).  With ``rank_only``, (rows, lcms) may be None."""
    if field.p:
        pivots, free, rows = _rref_residues(ints, field.p, rank_only)
        return pivots, free, None if rank_only else (rows, np.ones(len(free), dtype=rows.dtype))
    first = _rref_residues(ints, _FIRST_PRIME)
    pivots, free, kernel, primes = *first[:2], None, 1
    if not rank_only or len(pivots) < min(ints.shape):
        # the lift starts from the elimination already done at the first prime
        pivots, free, kernel, primes = _lift(
            lambda p: first if p == _FIRST_PRIME else _rref_residues(ints, p), row_weight(ints))
    _log_rational(ints.shape, len(pivots), primes,
                  lifted=kernel is not None and bool(free and pivots))
    return pivots, free, kernel


def integer_rref(field: Field, ints: np.ndarray) -> Tuple[List[int], np.ndarray, int]:
    """The RREF of integer rows, one array, read off ``echelon``: its pivots,
    its rows at them as integers over one denominator L, and L, the lcm of
    the denominators of its entries (1 over GF(p), where they are residues)."""
    pivots, free, (rows, lcms) = echelon(field, ints)
    den = math.lcm(1, *lcms.tolist())
    dtype = sum_dtype(den, int(abs(rows).max(initial=0)), field.p)
    out = np.zeros((len(pivots), ints.shape[1]), dtype=dtype)
    out[np.arange(len(pivots)), pivots] = den
    out[:, free] = -rows.astype(dtype) * np.array([den // l for l in lcms.tolist()], dtype=dtype)
    return pivots, out % field.p if field.p else out, den


def _rref_residues(ints: np.ndarray, p: int, rank_only: bool = False):
    """The pivots and free columns of ``rref_mod_p`` of integer rows and, unless
    ``rank_only``, the kernel mod p at the pivots: minus the RREF's residues."""
    reduced = (ints % p).tolist()
    pivots = rref_mod_p(reduced, p)
    free = sorted(set(range(ints.shape[1])) - set(pivots))
    if rank_only:
        return pivots, free, None
    rows = np.array(reduced[:len(pivots)], dtype=sum_dtype(0, p))
    return pivots, free, -rows.reshape(len(pivots), ints.shape[1])[:, free] % p


def integer_kernel(field: Field, ints: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel of integer rows, one array, as K and lcms: column k of K over
    lcms[k] is the ``Matrix.kernel_basis`` vector of free column k, in lowest
    terms; over GF(p) residues over 1 (``echelon``)."""
    return _kernel_columns(*echelon(field, ints))


def _kernel_columns(pivots: Sequence[int], free: Sequence[int],
                    kernel: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """(K, lcms) of a kernel (rows, lcms) as ``echelon`` gives it: K is rows at
    the pivots and lcms at the free columns, one each."""
    rows, lcms = kernel
    K = np.zeros((len(pivots) + len(free), len(free)), dtype=rows.dtype)
    K[free, np.arange(len(free))], K[pivots] = lcms, rows
    return K, lcms


def debug_record(logger: str, message: str, *args, **fields) -> None:
    """One DEBUG record on the named logger, ``fields`` as record attributes.

    derring does not import ``logging`` itself: a process that has not
    imported it has set no level or handler, so there is nothing to record.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return
    log = logging.getLogger(logger)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(message, *args, extra=fields)


def _log_rational(shape, rank: int, primes: int, lifted: bool) -> None:
    """One DEBUG record per rational elimination on the ``derring.linalg`` logger."""
    debug_record("derring.linalg", "QQ elimination %dx%d: rank %d, %d prime(s), %s",
                 shape[0], shape[1], rank, primes, "lift" if lifted else "no lift",
                 shape=tuple(shape), rank=rank, primes=primes, lifted=lifted)


# -- sparse systems ---------------------------------------------------------
#
# The derivation oracle's pair-constraint systems have |X| |G|^2 rows of
# three entries over |G|^2 columns: the product rule at the pairs G x X,
# X the generators, which decide it at every pair (the induction of
# ``groups.first_failing_pair``).  They reach their rank long before
# their last row.  Streaming them through the kernel makes a row that
# depends on the rows before it cost one gather, as wide as that kernel;
# seeded by the kernel of its spanning-tree rows, that kernel is
# (|X| + 1)|G| wide from the first row, not |G|^2.

# each chunk's gathered rows hold about this many entries
_SPARSE_CHUNK = 2 ** 12


def _gather(cols: np.ndarray, vals: np.ndarray, K: np.ndarray, p: int, each: bool) -> np.ndarray:
    """The rows (cols, vals) times K mod p: the sum over j of vals[:, j] K[cols[:, j]],
    reduced after every term when ``each``."""
    out = vals[:, :1] * K[cols[:, 0]]
    for j in range(1, cols.shape[1]):
        if each:
            out %= p
        out += vals[:, j:j + 1] * K[cols[:, j]]
    return out % p


def walk(levels, table: np.ndarray) -> np.ndarray:
    """``table`` walked in place: level by level, its rows dst set to its rows a plus b."""
    for dst, a, b in levels:
        table[dst] = table[a] + table[b]
    return table


def identity_seed(ncols: int):
    """The seed of no rows: every one of the ncols columns a root, nothing walked."""
    return ncols, np.arange(ncols), ()


def _from_roots(seed, rows, dtype) -> np.ndarray:
    """K0 times ``rows``, in ``dtype``: the rows put at a seed's roots, zero elsewhere, walked."""
    ncols, roots, levels = seed
    out = np.zeros((ncols, *np.shape(rows)[1:]), dtype=dtype)
    out[roots] = rows
    return walk(levels, out)


def _seed_weight(seed) -> int:
    """K0's row weight: the largest entry of the walk of 1 at every root (K0 is nonnegative)."""
    return int(_from_roots(seed, 1, np.int64).max(initial=0))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for arrays of residues mod p.

    In int64 the product is exact while a.shape[1] (p - 1)^2 < 2^63; past
    that b is split into 16-bit halves, exact while a.shape[1] 2^48 < 2^63,
    which holds for the pivots of one chunk (fewer than ``_SPARSE_CHUNK``).
    """
    if a.dtype == object or a.shape[1] * (p - 1) ** 2 < 2 ** 63:
        return a @ b % p
    return (((a @ (b >> 16)) % p << 16) + a @ (b & 0xFFFF)) % p


def _sparse_kernel(cols: np.ndarray, vals: np.ndarray, p: int,
                   seed) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel mod p of the sparse rows (cols, vals): K, ncols x nfree, and
    the free columns, by position among the seed's roots.

    The seed (ncols, roots, levels) describes K0: the identity at the rows
    ``roots`` (increasing) walked along levels of row additions (dst, a, b)
    that read rows set before their level, of row weight below 2^63.  K0 has
    full column rank and spans the kernel of the seed's rows
    e_dst - e_a - e_b over every field, so the kernel of the rows and the
    seed's rows (the rows' own when the seed's rows are among them) is K0
    times the kernel of the rows times K0, its free columns among the
    roots.  K starts as K0, walked in K's dtype and reduced mod p in place.
    Each chunk of rows is multiplied into K, R = rows K, a gather of K's
    rows by column index, and the nonzero rows of R, as lists, are
    row-reduced by ``rref_mod_p``; with P the pivots of R and N its RREF, K
    becomes K - K[:, P] N without the columns P.  N is zero left of each
    pivot, so each column of K stays supported (at the roots) on its free
    column and the pivots left of it: at the roots K is the identity on the
    free columns and minus the RREF, at the pivots, of the rows times K0,
    with its first-nonzero pivots.  K is int64 while (p - 1)^2 < 2^63
    (``sum_dtype``), and Python ints past that; a gather is reduced after
    every term when a row's sum of |vals| (symmetric residues) times p - 1
    could reach 2^63.  Rows stop being read once the kernel is 0.
    """
    dtype, free = sum_dtype(p - 1, p - 1), np.arange(len(seed[1]))
    K = _from_roots(seed, np.eye(len(free), dtype=np.int64), dtype)
    K %= p
    # int64 values are reduced in Python ints when p itself is past int64
    vals = (vals if p < 2 ** 63 else vals.astype(object)) % p
    vals[vals > p // 2] -= p
    vals = vals.astype(dtype, copy=False)
    each = dtype is np.int64 and int(abs(vals).sum(axis=1).max(initial=0)) * (p - 1) >= 2 ** 63
    start = 0
    while start < len(cols) and len(free):
        step = max(1, _SPARSE_CHUNK // len(free))
        R = _gather(cols[start:start + step], vals[start:start + step], K, p, each)
        start += step
        R = R[R.any(axis=1)]
        if not len(R):
            continue
        N = R.tolist()
        P = rref_mod_p(N, p)
        if not P:
            continue
        keep = np.ones(len(free), dtype=bool)
        keep[P] = False
        KP, K, N = K[:, P], K[:, keep], np.array(N[:len(P)], dtype=dtype)[:, keep]
        hit = np.flatnonzero(KP.any(axis=1))
        for rows in np.array_split(hit, max(1, len(hit) * K.shape[1] // _SPARSE_CHUNK)):
            K[rows] = (K[rows] - _matmul_mod(KP[rows], N, p)) % p
        free = free[keep]
    return K, free


def sparse_echelon(field: Field, block: Tuple[np.ndarray, np.ndarray], seed):
    """``echelon`` of the sparse rows of one (cols, vals) block times a seed's K0.

    Row i of the block has the entries vals[i, j] at the columns cols[i, j]
    (two (m, w) arrays, vals int64 or numpy ``object`` Python ints); a
    column repeated in a row adds.  The seed meets ``_sparse_kernel``'s
    precondition.  The pivots, the free columns and (rows, lcms) are those
    of the rows times K0, by position among the roots: over GF(p) residues
    over 1, read off ``_sparse_kernel``, over QQ its ``_lift``, with one
    DEBUG record, whose certificate weight, a row's largest sum of |vals|
    times K0's (``_seed_weight``), bounds a row of the rows times K0.
    """
    cols, vals = block
    ncols, roots, _ = seed

    def modp(p):
        K, free = _sparse_kernel(cols, vals, p, seed)
        pivots = np.delete(np.arange(len(roots)), free)
        return pivots.tolist(), free.tolist(), K[roots[pivots]]

    if field.p:
        pivots, free, rows = modp(field.p)
        return pivots, free, (rows, np.ones(len(free), dtype=rows.dtype))
    pivots, free, kernel, primes = _lift(modp, row_weight(vals) * _seed_weight(seed))
    _log_rational((len(cols), ncols), ncols - len(free), primes, lifted=bool(free and pivots))
    return pivots, free, kernel


def sparse_rank(field: Field, block) -> int:
    """Rank over ``field`` of one (cols, vals) block: the number of ``sparse_echelon``'s
    pivots from the ``identity_seed`` of ncols, one past the block's largest column."""
    cols, vals = block
    seed = identity_seed(int(np.max(cols, initial=-1)) + 1)
    return len(sparse_echelon(field, (cols, vals), seed)[0])


def sparse_nullity(field: Field, block, seed) -> int:
    """Dimension over ``field`` of the kernel of one (cols, vals) block, seeded:
    the number of ``sparse_echelon``'s free columns, with no kernel vector built."""
    return len(sparse_echelon(field, block, seed)[1])


def sparse_kernel_basis(field: Field, block, seed) -> List[List]:
    """The kernel basis of one (cols, vals) block, seeded, as ``Matrix.kernel_basis``
    gives it for the same rows dense: one vector per free column, in order.

    The kernel is K0 times ``sparse_echelon``'s, column k over lcms[k]
    (``_kernel_columns``): those columns walked from the roots
    (``_from_roots``), exact, int64 while K0's row weight times the largest
    |entry|, and p, are below 2^63.  The canonical basis is the kernel's
    RREF with the columns reversed, then each vector and their order
    reversed: the vector of a free column f is 1 at f and 0 at every other
    free column, and nonzero only left of f.  So it is one ``integer_rref``
    of those vectors, whatever basis they are.
    """
    K, _ = _kernel_columns(*sparse_echelon(field, block, seed))
    if not K.shape[1]:
        return []
    dtype = sum_dtype(_seed_weight(seed), int(abs(K).max(initial=0)), field.p)
    _, R, den = integer_rref(field, _from_roots(seed, K, dtype).T[:, ::-1])
    return [vec[::-1] for vec in reversed(_field_rows(field, R, den))]
