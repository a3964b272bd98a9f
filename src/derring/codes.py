"""IDD codes: linear codes spanned by images of a twisted derivation.

Row i of the derivation matrix B is the coefficient vector of D(g_i) in
the frozen group listing, so a subset T of group elements with
independent images spans an [n, |T|] code.

Every code report rests on one exact weight enumeration.  Of the code
(q^k codewords) and its dual (q^(n-k) codewords), only the smaller side
is enumerated, the code itself on a tie.  The enumeration meets in the
middle on bit planes: the codewords of one half of the rows are held as
b = bit_length(q - 1) planes of ceil(n/64) uint64 words, for any n, and
every codeword's weight is a popcount of XORs against the other half's,
in blocks of at most ``_BLOCK_WORDS`` (2^16) words, with exact int64
counts up to the cap.  The other side's weight distribution follows by the
MacWilliams identity, computed exactly as integer Kravchuk sums; both
distributions are checked to have the right number of codewords.  A
code whose smaller side exceeds ``ENUMERATION_CAP`` is refused.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .derivations import TwistedDerivation
from .errors import DependentSubset, EnumerationTooLarge
from .linalg import Field, Matrix, _values, debug_record, rref_mod_p, sum_dtype

# most codewords enumerated for one weight distribution
ENUMERATION_CAP = 3 ** 16


def derivation_matrix(D: TwistedDerivation) -> Matrix:
    """The |G| x |G| matrix whose row i is the coefficient vector of D(g_i), read
    off D's integer table."""
    n, flat = D.group.order, _values(D.field, *D.integer_table())
    return Matrix(D.field, [flat[i:i + n] for i in range(0, n * n, n)], coerce=False)


@dataclass
class LinearCode:
    field: Field
    n: int
    k: int
    generator: Matrix
    source: Dict = dataclass_field(default_factory=dict)

    def codeword(self, message: Sequence) -> List:
        return encode(self, message)


def idd_code(D: TwistedDerivation, subset: Sequence[int]) -> LinearCode:
    """The code spanned by D(g) for g in the subset, rows in given order.

    Rejects an entry that is not an int index in range(|G|), and (with a
    dependency witness) images that are linearly dependent.  Codes are
    stated over prime fields.
    """
    F = D.field
    if not F.p:
        raise ValueError("codes are constructed over prime fields")
    G = D.group
    subset = list(subset)
    for g in subset:
        if isinstance(g, bool) or not isinstance(g, int) or not 0 <= g < G.order:
            raise ValueError(f"subset entry {g!r} is not an element index in range({G.order})")
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(subset) >= G.order:
        raise ValueError("subset must be a proper subset of the group")
    # rows of D's integer table: residues, over the denominator 1
    gen = Matrix(F, D.integer_table()[0].reshape(G.order, -1)[subset].tolist(), coerce=False)
    if gen.rank() != len(subset):
        witness = gen.transpose().kernel_basis()[0]
        names = [G.names[g] for g in subset]
        raise DependentSubset(
            f"images of {names} are linearly dependent", witness=witness)
    source = {
        "group": G.describe(),
        "sigma": D.sigma.describe(),
        "derivation": D.provenance,
        "subset": [G.names[g] for g in subset],
        "subset_indices": list(subset),
    }
    return LinearCode(F, G.order, len(subset), gen, source)


def encode(code: LinearCode, message: Sequence) -> List:
    """message * generator matrix."""
    F = code.field
    msg = [F.coerce(x) for x in message]
    if len(msg) != code.k:
        raise ValueError(f"message length must be {code.k}")
    out = [F.zero()] * code.n
    for coef, row in zip(msg, code.generator.data):
        if coef == F.zero():
            continue
        for j, x in enumerate(row):
            out[j] = F.add(out[j], F.mul(coef, x))
    return out


# -- weight enumeration (internal) -------------------------------------------

# most uint64 words in one block's XOR, and most entries in one block's
# residue table of prefix codewords
_BLOCK_WORDS = 2 ** 16


def _span_planes(gen: np.ndarray, start: int, stop: int, q: int) -> np.ndarray:
    """Bit planes of the codewords of messages start..stop-1 over the rows of gen.

    Message x has the base-q digits of x, least significant first.  The
    result is (b, stop - start, ceil(n/64)) uint64, b = bit_length(q - 1):
    plane i packs bit i of every residue, little-endian.
    """
    b = (q - 1).bit_length()
    words = -(-gen.shape[1] // 64)
    digits = np.arange(start, stop, dtype=np.int64)[:, None] // q ** np.arange(
        len(gen), dtype=np.int64) % q
    table = digits @ gen % q
    if b > 1:
        table = table >> np.arange(b, dtype=np.int64)[:, None, None] & 1
    packed = np.packbits(table.reshape(b, stop - start, -1), axis=-1, bitorder="little")
    planes = np.zeros((b, stop - start, 8 * words), dtype=np.uint8)
    planes[:, :, :packed.shape[2]] = packed
    return planes.view(np.uint64)


def _weight_counts(rows: List[List[int]], q: int) -> List[int]:
    """Exact weight distribution of the span of rows over GF(q).

    Meet in the middle: every codeword is s - p, with p spanned by the
    first ceil(k/2) rows and s by the other floor(k/2) (the span of p is
    closed under negation), and coordinate j of s - p is zero exactly
    when s_j = p_j.  The q^floor(k/2) codewords s are held as
    b = bit_length(q - 1) bit planes S_i of ceil(n/64) uint64 words, for
    any n; the codewords p are built and packed the same way, block by
    block, so wt(s - p) = popcount(OR_i (S_i XOR P_i)) summed over the
    words, each block's XOR at most ``_BLOCK_WORDS`` words.  Residue
    tables and counts are int64: with q^k within
    ``ENUMERATION_CAP`` (checked by the caller), q < 2^26 and each
    message-times-rows sum is below 2^52, so the counts are exact.  They
    include the zero codeword, and the total is checked to be q^k.
    """
    k = len(rows)
    n = len(rows[0])
    gen = np.array(rows, dtype=np.int64) % q
    hi = (k + 1) // 2
    suffix = _span_planes(gen[hi:], 0, q ** (k - hi), q)
    planes, size, words = suffix.shape
    step = max(1, _BLOCK_WORDS // (words * max(size, 64)))
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, q ** hi, step):
        prefix = _span_planes(gen[:hi], start, min(start + step, q ** hi), q)
        # bit 1 at the nonzero coordinates of every s - p
        nonzero = prefix[0][:, None] ^ suffix[0]
        for plane in range(1, planes):
            nonzero |= prefix[plane][:, None] ^ suffix[plane]
        weights = np.bitwise_count(nonzero[..., 0]).astype(np.intp)
        for word in range(1, words):
            weights += np.bitwise_count(nonzero[..., word])
        counts += np.bincount(weights.ravel(), minlength=n + 1)
    if int(counts.sum()) != q ** k:
        raise AssertionError("weight enumeration lost codewords")
    return counts.tolist()


@lru_cache(maxsize=64)
def _kravchuk_matrix(n: int, q: int) -> Tuple[Tuple[int, ...], ...]:
    """Row j holds the Kravchuk values K_j(i) for i = 0..n."""
    return tuple(
        tuple(sum((-1) ** l * (q - 1) ** (j - l) * math.comb(i, l) * math.comb(n - i, j - l)
                  for l in range(max(0, j - (n - i)), min(i, j) + 1))
              for i in range(n + 1))
        for j in range(n + 1))


def _transform_counts(dual_counts: List[int], n: int, q: int, dual_size: int) -> List[int]:
    """Weight distribution of a code from its dual's, exactly in integers."""
    out = []
    for row in _kravchuk_matrix(n, q):
        total = sum(map(operator.mul, dual_counts, row))
        if total % dual_size:
            raise AssertionError("dual weight transform is not integral")
        out.append(total // dual_size)
    if sum(out) * dual_size != q ** n:
        raise AssertionError("dual weight transform lost codewords")
    return out


def weight_distribution(code: LinearCode) -> Tuple[List[int], List[int]]:
    """Exact weight distributions of the code and of its dual.

    Enumerates only the smaller of the two (the code itself on a tie) and
    obtains the other by the MacWilliams transform.  Refused with
    ``EnumerationTooLarge`` (a ``ValueError``) when the smaller side has
    more than ``ENUMERATION_CAP`` codewords.  Otherwise writes one DEBUG
    record on the ``derring.codes`` logger: the side enumerated (code or
    dual), q, its dimension k and its q^k codewords.
    """
    q = code.field.p
    n, k = code.n, code.k
    if k < 1:
        raise ValueError("weight distribution needs dimension k >= 1")
    small_k = min(k, n - k)
    if q ** small_k > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"weight enumeration too large: the smaller of the code and its dual "
            f"has {q}^{small_k} codewords, above the enumeration cap")
    side = "code" if k <= n - k else "dual"
    debug_record("derring.codes", "weight enumeration of the %s: %d^%d = %d codewords",
                 side, q, small_k, q ** small_k, side=side, q=q, k=small_k,
                 codewords=q ** small_k)
    if k <= n - k:
        counts = _weight_counts(code.generator.data, q)
        # the zero codeword is counted q^(k - rank) times
        if counts[0] != 1:
            raise ValueError(f"generator rank is not k = {k}")
        return counts, _transform_counts(counts, n, q, q ** k)
    kernel = code.generator.kernel_basis()
    if len(kernel) != n - k:
        raise ValueError(f"generator rank is not k = {k}")
    dual_counts = _weight_counts(kernel, q) if kernel else [1] + [0] * n
    return _transform_counts(dual_counts, n, q, q ** (n - k)), dual_counts


def _first_weight(counts: List[int]) -> int:
    for w in range(1, len(counts)):
        if counts[w]:
            return w
    raise AssertionError("code of dimension >= 1 has no nonzero codeword")


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over all nonzero codewords, by exact enumeration.

    The first nonzero weight of ``weight_distribution``; refused as too
    large under the same cap.
    """
    return _first_weight(weight_distribution(code)[0])


def dual_code(code: LinearCode) -> LinearCode:
    """The standard nullspace dual, generated by a kernel basis."""
    kernel = code.generator.kernel_basis()
    if kernel:
        gen = Matrix(code.field, kernel, coerce=False)
    else:
        gen = Matrix.zeros(code.field, 0, code.n)
    source = dict(code.source)
    source["dual_of"] = source.pop("subset", None)
    return LinearCode(code.field, code.n, code.n - code.k, gen, source)


def _gram(code: LinearCode) -> np.ndarray:
    """The Gram matrix G G^T mod q of the generator G, exactly.

    An entry sums n products of residues, so it is at most n (q - 1)^2:
    int64 while that and q stay below 2^63 (``sum_dtype``), Python ints past.
    """
    q, gen = code.field.p, code.generator
    dtype = sum_dtype(gen.cols * (q - 1), q - 1, q)
    rows = np.array(gen.data, dtype=dtype).reshape(gen.rows, gen.cols)
    return rows @ rows.T % q


def is_lcd(code: LinearCode) -> bool:
    """Linear complementary dual: the generator Gram matrix is nonsingular."""
    return len(rref_mod_p(_gram(code).tolist(), code.field.p)) == code.k


def is_self_orthogonal(code: LinearCode) -> bool:
    """Self-orthogonal: every pair of generator rows is orthogonal."""
    return not _gram(code).any()


@dataclass
class CodeReport:
    n: int
    k: int
    d: int
    dual_n: int
    dual_k: int
    dual_d: int
    lcd: bool
    self_orthogonal: bool
    source: Dict

    @property
    def params(self) -> Tuple[int, int, int]:
        return (self.n, self.k, self.d)

    @property
    def dual_params(self) -> Tuple[int, int, int]:
        return (self.dual_n, self.dual_k, self.dual_d)

    def to_json_dict(self) -> Dict:
        src = {key: self.source.get(key) for key in ("group", "sigma", "derivation", "subset")}
        return {
            "n": self.n, "k": self.k, "d": self.d,
            "dual": {"n": self.dual_n, "k": self.dual_k, "d": self.dual_d},
            "lcd": self.lcd, "self_orthogonal": self.self_orthogonal,
            "source": src,
        }


def linear_code_report(code: LinearCode) -> CodeReport:
    """Full parameter row of a code of length n and dimension 1 <= k < n."""
    if not 1 <= code.k < code.n:
        raise ValueError("a code report needs dimension 1 <= k < n")
    counts, dual_counts = weight_distribution(code)
    gram = _gram(code)
    return CodeReport(
        n=code.n, k=code.k, d=_first_weight(counts),
        dual_n=code.n, dual_k=code.n - code.k, dual_d=_first_weight(dual_counts),
        lcd=len(rref_mod_p(gram.tolist(), code.field.p)) == code.k,
        self_orthogonal=not gram.any(),
        source=code.source)


def code_report(D: TwistedDerivation, subset: Sequence[int]) -> CodeReport:
    """Full parameter row for the code spanned by D over the subset."""
    return linear_code_report(idd_code(D, subset))


def subset_sweep(D: TwistedDerivation, k: int,
                 max_candidates: int = 4096) -> List[CodeReport]:
    """Ranked reports over k-subsets of elements with nonzero image.

    Exhaustive when the candidate pool allows, otherwise a seeded random
    sample of max_candidates subsets; ranking is by descending distance
    with the subset itself as the tiebreak, so output is deterministic.
    """
    pool = np.flatnonzero(D.integer_table()[0].reshape(D.group.order, -1).any(axis=1)).tolist()
    if k < 1 or k > len(pool):
        return []
    total = math.comb(len(pool), k)
    if total <= max_candidates:
        candidates = combinations(pool, k)
    else:
        rng = random.Random(20240601)
        chosen = set()
        while len(chosen) < max_candidates:
            chosen.add(tuple(sorted(rng.sample(pool, k))))
        candidates = sorted(chosen)
    reports = []
    for subset in candidates:
        try:
            reports.append(code_report(D, list(subset)))
        except DependentSubset:
            continue
    reports.sort(key=lambda r: (-r.d, tuple(r.source["subset_indices"])))
    return reports


def matrix_text(matrix: Matrix) -> str:
    """Space-separated digit rows, one matrix row per line."""
    return "\n".join(" ".join(str(x) for x in row) for row in matrix.data)
