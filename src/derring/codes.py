"""IDD codes: linear codes spanned by images of a twisted derivation.

Row i of the derivation matrix B is the coefficient vector of D(g_i) in
the frozen group listing, so a subset T of group elements with
independent images spans an [n, |T|] code.

Every code report rests on one exact weight enumeration.  Of the code
(q^k codewords) and its dual (q^(n-k) codewords), only the smaller side
is enumerated, the code itself on a tie, by numpy-blocked integer
arithmetic mod q.  The other side's weight distribution follows from it
by the MacWilliams identity, computed exactly as integer Kravchuk sums;
both distributions are checked to have the right number of codewords.
A code whose smaller side exceeds ``ENUMERATION_CAP`` is refused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .derivations import TwistedDerivation
from .errors import DependentSubset
from .groupring import GroupRingElement
from .linalg import Field, Matrix

# most codewords enumerated for one weight distribution
ENUMERATION_CAP = 3 ** 16


def derivation_matrix(D: TwistedDerivation) -> Matrix:
    """The |G| x |G| matrix whose row i is the coefficient vector of D(g_i)."""
    return Matrix(D.field, [list(D.table[g].coeffs) for g in range(D.group.order)],
                  coerce=False)


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

    Rejects (with a dependency witness) when the images are linearly
    dependent.  Codes are stated over prime fields.
    """
    F = D.field
    if not F.p:
        raise ValueError("codes are constructed over prime fields")
    G = D.group
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(subset) >= G.order:
        raise ValueError("subset must be a proper subset of the group")
    rows = [list(D.table[g].coeffs) for g in subset]
    gen = Matrix(F, rows, coerce=False)
    if gen.rank() != len(subset):
        witness = gen.transpose().kernel_basis()[0]
        names = [G.names[g] for g in subset]
        raise DependentSubset(
            f"images of {names} are linearly dependent", witness=witness)
    source = {
        "group": G.describe(),
        "sigma": getattr(D.sigma, "describe", lambda: "algebra-endo")(),
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


def encode_via_derivation(code: LinearCode, D: TwistedDerivation,
                          message: Sequence) -> List:
    """Codeword through the derivation itself (cross-check path)."""
    F = code.field
    indices = code.source["subset_indices"]
    alpha = GroupRingElement.zero(D.group, F)
    for coef, g in zip(message, indices):
        alpha.coeffs[g] = F.add(alpha.coeffs[g], F.coerce(coef))
    return list(D(alpha).coeffs)


# -- weight enumeration (internal) -------------------------------------------

def _weight_counts(rows: List[List[int]], q: int) -> List[int]:
    """Exact weight distribution of the span of rows over GF(q).

    Enumerates all q^k messages with blocked numpy integer arithmetic.
    Counts include the zero codeword; the total is exactly q^k.
    """
    k = len(rows)
    n = len(rows[0])
    gen = np.array(rows, dtype=np.int64) % q
    # tables hold residues mod q, and the sum of two residues before the mod
    dtype = np.min_scalar_type(2 * (q - 1))

    def span_table(sub: np.ndarray) -> np.ndarray:
        table = np.zeros((1, n), dtype=dtype)
        for row in sub:
            shifts = (np.arange(q, dtype=np.int64)[:, None] * row[None, :]) % q
            table = (table[None, :, :] + shifts[:, None, :].astype(dtype)) % q
            table = table.reshape(-1, n)
        return table

    k_lo = 0
    while k_lo < k and q ** (k_lo + 1) <= 65536:
        k_lo += 1
    suffix = span_table(gen[k - k_lo:])
    prefix = span_table(gen[:k - k_lo])
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = max(1, (1 << 25) // max(1, suffix.shape[0] * n))
    for start in range(0, prefix.shape[0], chunk):
        block = (prefix[start:start + chunk, None, :] + suffix[None, :, :]) % q
        weights = np.count_nonzero(block, axis=2)
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
        total = sum(ai * kji for ai, kji in zip(dual_counts, row) if ai)
        if total % dual_size:
            raise AssertionError("dual weight transform is not integral")
        out.append(total // dual_size)
    if sum(out) * dual_size != q ** n:
        raise AssertionError("dual weight transform lost codewords")
    return out


def _int_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    return [[int(x) for x in row] for row in rows]


def weight_distribution(code: LinearCode) -> Tuple[List[int], List[int]]:
    """Exact weight distributions of the code and of its dual.

    Enumerates only the smaller of the two (the code itself on a tie) and
    obtains the other by the MacWilliams transform.  Refused as too large
    when the smaller side has more than ``ENUMERATION_CAP`` codewords.
    """
    q = code.field.p
    n, k = code.n, code.k
    if k < 1:
        raise ValueError("weight distribution needs dimension k >= 1")
    small_k = min(k, n - k)
    if q ** small_k > ENUMERATION_CAP:
        raise ValueError(
            f"weight enumeration too large: the smaller of the code and its dual "
            f"has {q}^{small_k} codewords, above the enumeration cap")
    if k <= n - k:
        counts = _weight_counts(_int_rows(code.generator.data), q)
        return counts, _transform_counts(counts, n, q, q ** k)
    kernel = code.generator.kernel_basis()
    if len(kernel) != n - k:
        raise ValueError(f"generator rank is not k = {k}")
    dual_counts = _weight_counts(_int_rows(kernel), q) if kernel else [1] + [0] * n
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


def _gram(code: LinearCode) -> Matrix:
    return code.generator * code.generator.transpose()


def is_lcd(code: LinearCode) -> bool:
    """Linear complementary dual: the generator Gram matrix is nonsingular."""
    return _gram(code).rank() == code.k


def is_self_orthogonal(code: LinearCode) -> bool:
    """Self-orthogonal: every pair of generator rows is orthogonal."""
    return _gram(code).is_zero()


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
        lcd=is_lcd(code), self_orthogonal=is_self_orthogonal(code),
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
    pool = [g for g in range(D.group.order) if not D.table[g].is_zero()]
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
