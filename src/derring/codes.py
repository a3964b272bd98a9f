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
counts up to the cap.  It visits one codeword per line, since c and
lambda c (lambda in GF(q)*) have the same weight: one half's messages
are 0 and one message per line of the others, each such row counted
q - 1 times, so the counts stay exact and the work falls from q^k pairs
to (1 + (q^h - 1)/(q - 1)) q^(k - h), h = ceil(k/2).  The other side's
weight distribution follows by the MacWilliams identity, computed
exactly as integer Kravchuk sums; both distributions are checked to have
the right number of codewords.  A code whose smaller side exceeds
``ENUMERATION_CAP`` is refused.  A code eliminates its generator once
(``LinearCode.echelon``): ``idd_code``'s refusal of dependent images and
the dual's basis read the same elimination.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .derivations import TwistedDerivation
from .errors import DependentSubset, EnumerationTooLarge
from .linalg import Field, Matrix, _kernel_columns, _values, debug_record, echelon, sum_dtype

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

    @cached_property
    def integers(self) -> np.ndarray:
        """The generator's residues, one array: its elimination, enumeration and Gram read it."""
        return self.generator._integers()

    @cached_property
    def echelon(self):
        """``linalg.echelon`` of the generator: one elimination for the rank check and the dual."""
        return echelon(self.field, self.integers)

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix G G^T mod q of the generator G, exactly, for both flags.

        An entry sums n products of residues, so it is at most n (q - 1)^2:
        int64 while that and q stay below 2^63 (``sum_dtype``), Python ints past.
        """
        q = self.field.p
        rows = self.integers.astype(sum_dtype(self.n * (q - 1), q - 1, q))
        return rows @ rows.T % q

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
    source = {
        "group": G.describe(),
        "sigma": D.sigma.describe(),
        "derivation": D.provenance,
        "subset": [G.names[g] for g in subset],
        "subset_indices": list(subset),
    }
    code = LinearCode(F, G.order, len(subset), gen, source)
    if len(code.echelon[0]) != len(subset):
        witness = gen.transpose().kernel_basis()[0]
        names = [G.names[g] for g in subset]
        raise DependentSubset(
            f"images of {names} are linearly dependent", witness=witness)
    return code


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


@lru_cache(maxsize=64)
def _line_messages(q: int, h: int) -> np.ndarray:
    """Message 0, then one message of every line of nonzero messages in GF(q)^h.

    The representative of a line is its message whose most significant
    nonzero base-q digit is 1: the ranges [q^j, 2 q^j) for j < h, so
    1 + (q^h - 1)/(q - 1) messages, and for q = 2 every message below 2^h.
    """
    messages = np.concatenate([np.zeros(1, dtype=np.int64)] + [
        np.arange(q ** j, 2 * q ** j, dtype=np.int64) for j in range(h)])
    messages.flags.writeable = False
    return messages


def _span_planes(gen: np.ndarray, messages: np.ndarray, q: int) -> np.ndarray:
    """Bit planes of the codewords of the given messages over the rows of gen.

    Message x has the base-q digits of x, least significant first.  The
    result is (b, len(messages), ceil(n/64)) uint64, b = bit_length(q - 1):
    plane i packs bit i of every residue, little-endian.
    """
    b = (q - 1).bit_length()
    words = -(-gen.shape[1] // 64)
    digits = messages[:, None] // q ** np.arange(len(gen), dtype=np.int64) % q
    table = digits @ gen % q
    if b > 1:
        table = table >> np.arange(b, dtype=np.int64)[:, None, None] & 1
    packed = np.packbits(table.reshape(b, len(messages), -1), axis=-1, bitorder="little")
    planes = np.zeros((b, len(messages), 8 * words), dtype=np.uint8)
    planes[:, :, :packed.shape[2]] = packed
    return planes.view(np.uint64)


def _bincount_pairs(weights: np.ndarray, n: int) -> np.ndarray:
    """``np.bincount(weights, minlength=n + 1)`` of weights in [0, n], two per index.

    uint8 weights (n < 256) are read in neighbouring pairs as one uint16
    index lo + 256 hi, so one bincount of 256 (n + 1) bins over half as
    many indices, folded back along both axes (the fold is symmetric, so
    the byte order does not matter).  The fold is a pass over the bins, so
    this pays only from four weights per bin on; otherwise, and for wider
    weights, they are counted one by one.
    """
    if weights.dtype != np.uint8 or len(weights) < 4 * 256 * (n + 1):
        return np.bincount(weights, minlength=n + 1)
    even = len(weights) & ~1
    pairs = np.bincount(weights[:even].view(np.uint16), minlength=256 * (n + 1))
    pairs = pairs.reshape(n + 1, 256)
    counts = pairs.sum(axis=0)[:n + 1] + pairs.sum(axis=1)
    if even < len(weights):
        counts[weights[-1]] += 1
    return counts


def _weight_counts(rows: Sequence[Sequence[int]], q: int) -> List[int]:
    """Exact weight distribution of the span of rows over GF(q).

    Meet in the middle: every codeword is s - p, with p spanned by the
    first h = ceil(k/2) rows and s by the other floor(k/2) (the span of p
    is closed under negation), and coordinate j of s - p is zero exactly
    when s_j = p_j.  One codeword per line is enough, since c and lambda c
    have the same weight for every lambda in GF(q)*: the prefixes p are
    those of ``_line_messages``, message 0 and one message per line of
    the others, and every suffix s is taken.  The row of prefix 0 is
    counted once; every other row stands for the q - 1 messages
    lambda (prefix, suffix), suffix running over all of them, and is
    counted q - 1 times, so the counts are exact, and a generator of rank
    r still shows q^(k - r) zero codewords.  The q^floor(k/2) codewords
    s are held as
    b = bit_length(q - 1) bit planes S_i of ceil(n/64) uint64 words, for
    any n; the codewords p are built and packed the same way, block by
    block, so wt(s - p) = popcount(OR_i (S_i XOR P_i)) summed over the
    words, each block's XOR at most ``_BLOCK_WORDS`` words.  Residue
    tables and counts are int64: with q^k within
    ``ENUMERATION_CAP`` (checked by the caller), q < 2^26 and each
    message-times-rows sum is below 2^52, and no count, times q - 1 or
    not, passes q^k, so the counts are exact.  They include the zero
    codeword, and the total is checked to be q^k.
    """
    k = len(rows)
    n = len(rows[0])
    gen = np.array(rows, dtype=np.int64) % q
    hi = (k + 1) // 2
    suffix = _span_planes(gen[hi:], np.arange(q ** (k - hi), dtype=np.int64), q)
    planes, size, words = suffix.shape
    step = max(1, _BLOCK_WORDS // (words * max(size, 64)))
    messages = _line_messages(q, hi)
    # a weight is at most n: one byte each while n < 256
    dtype = np.uint8 if n < 256 else np.intp
    counts = np.zeros(n + 1, dtype=np.int64)
    lines = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, len(messages), step):
        prefix = _span_planes(gen[:hi], messages[start:start + step], q)
        # bit 1 at the nonzero coordinates of every s - p
        nonzero = prefix[0][:, None] ^ suffix[0]
        for plane in range(1, planes):
            nonzero |= prefix[plane][:, None] ^ suffix[plane]
        weights = np.bitwise_count(nonzero[..., 0]).astype(dtype, copy=False)
        for word in range(1, words):
            weights += np.bitwise_count(nonzero[..., word])
        if not start:
            # prefix 0 is a line of its own
            counts += np.bincount(weights[0], minlength=n + 1)
            weights = weights[1:]
        lines += _bincount_pairs(weights.ravel(), n)
    counts += (q - 1) * lines
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


def _dual_basis(code: LinearCode) -> List[List[int]]:
    """``code.generator.kernel_basis()``, read off ``code.echelon``."""
    return _kernel_columns(*code.echelon)[0].T.tolist()


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
        counts = _weight_counts(code.integers, q)
        # the zero codeword is counted q^(k - rank) times
        if counts[0] != 1:
            raise ValueError(f"generator rank is not k = {k}")
        return counts, _transform_counts(counts, n, q, q ** k)
    kernel = _dual_basis(code)
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
    kernel = _dual_basis(code)
    if kernel:
        gen = Matrix(code.field, kernel, coerce=False)
    else:
        gen = Matrix.zeros(code.field, 0, code.n)
    source = dict(code.source)
    source["dual_of"] = source.pop("subset", None)
    return LinearCode(code.field, code.n, code.n - code.k, gen, source)


def is_lcd(code: LinearCode) -> bool:
    """Linear complementary dual: the generator Gram matrix is nonsingular."""
    return len(echelon(code.field, code.gram, rank_only=True)[0]) == code.k


def is_self_orthogonal(code: LinearCode) -> bool:
    """Self-orthogonal: every pair of generator rows is orthogonal."""
    return not code.gram.any()


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
    return CodeReport(
        n=code.n, k=code.k, d=_first_weight(counts),
        dual_n=code.n, dual_k=code.n - code.k, dual_d=_first_weight(dual_counts),
        lcd=is_lcd(code), self_orthogonal=is_self_orthogonal(code), source=code.source)


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
