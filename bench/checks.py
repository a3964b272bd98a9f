"""Correctness checks that do not go through derring's own algorithms.

Every function here reads plain data (a multiplication table as a list
of rows, endomorphisms as image lists, coefficient vectors) and returns
a list of problems; an empty list means the output passed.  Nothing is
compared against a saved copy of derring's output: the expected values
come from the table itself, from the paper's theorems, or from the
published code tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence


def _identity(mul: Sequence[Sequence[int]]) -> int:
    n = len(mul)
    return next(e for e in range(n) if all(mul[e][g] == g for g in range(n)))


def _inverses(mul: Sequence[Sequence[int]]) -> List[int]:
    e = _identity(mul)
    return [row.index(e) for row in mul]


def twisted_class_count(mul, sigma, tau) -> int:
    """Number of orbits of x -> sigma(g) x tau(g)^-1, read off the table."""
    n = len(mul)
    inv = _inverses(mul)
    seen = [False] * n
    r = 0
    for x in range(n):
        if seen[x]:
            continue
        r += 1
        for g in range(n):
            seen[mul[mul[sigma[g]][x]][inv[tau[g]]]] = True
    return r


def dimension_problems(order: int, char: int, r: int, dim: int,
                       predicted_outer: Optional[bool] = None) -> List[str]:
    """The paper's bounds on the derivation dimension.

    When char F does not divide |G| every derivation is inner, so the
    dimension is exactly |G| - r.  Otherwise it is at least |G| - r, and
    a strict excess (outer derivations) must match the closed-form
    verdict when one exists.
    """
    inner_dim = order - r
    if char == 0 or order % char:
        if dim != inner_dim:
            return [f"dimension {dim} != |G| - r = {inner_dim} although char {char} "
                    f"does not divide |G| = {order}"]
        return []
    if dim < inner_dim:
        return [f"dimension {dim} < |G| - r = {inner_dim}"]
    if predicted_outer is not None and (dim > inner_dim) != predicted_outer:
        return [f"outer derivations {'exist' if dim > inner_dim else 'absent'} "
                f"(dim {dim}, |G| - r = {inner_dim}) but the closed form says "
                f"outer={predicted_outer}"]
    return []


def exact(x, p: int):
    """A field scalar as a Python int mod p, or as a Fraction over QQ."""
    if p:
        return int(x) % p
    return Fraction(int(x.numerator), int(x.denominator))


def _reduce(vec: List, p: int) -> List:
    return [v % p for v in vec] if p else vec


def product_rule_problems(mul, sigma, tau, table, p: int) -> List[str]:
    """D(gh) = D(g) tau(h) + sigma(g) D(h) on every pair, by index arithmetic.

    ``table[g]`` is the coefficient vector of D(g), already in exact form.
    """
    n = len(mul)
    for g in range(n):
        Dg, sg = table[g], sigma[g]
        for h in range(n):
            th, Dh = tau[h], table[h]
            rhs = [0] * n
            for x, c in enumerate(Dg):
                if c:
                    rhs[mul[x][th]] += c
            for x, c in enumerate(Dh):
                if c:
                    rhs[mul[sg][x]] += c
            if _reduce(rhs, p) != list(table[mul[g][h]]):
                return [f"product rule fails at pair ({g}, {h})"]
    return []


def inner_image(mul, sigma, tau, beta, g: int, p: int) -> List:
    """Coefficients of beta tau(g) - sigma(g) beta."""
    out = [0] * len(mul)
    tg, sg = tau[g], sigma[g]
    for x, c in enumerate(beta):
        if c:
            out[mul[x][tg]] += c
            out[mul[sg][x]] -= c
    return _reduce(out, p)


def witness_problems(mul, sigma, tau, table, beta, p: int) -> List[str]:
    """The inner derivation of the witness beta must reproduce D."""
    for g in range(len(mul)):
        if inner_image(mul, sigma, tau, beta, g, p) != list(table[g]):
            return [f"witness does not reproduce D at element {g}"]
    return []


def code_problems(n: int, subset_size: int, got, published=None) -> List[str]:
    """A code row (k, d, lcd, dual_k, dual_d) against its properties.

    k must equal the subset size, k + k_dual = n, and both distances must
    respect the Singleton bound.  A published row, when given, must match
    exactly in every entry it publishes (None marks one it leaves out).
    """
    k, d, lcd, dual_k, dual_d = got
    problems = []
    if k != subset_size:
        problems.append(f"k = {k} but the subset has {subset_size} elements")
    if k + dual_k != n:
        problems.append(f"k + k_dual = {k} + {dual_k} != n = {n}")
    if not 1 <= d <= n - k + 1:
        problems.append(f"d = {d} outside 1..n-k+1 = {n - k + 1}")
    if not 1 <= dual_d <= n - dual_k + 1:
        problems.append(f"dual d = {dual_d} outside 1..n-k_dual+1 = {n - dual_k + 1}")
    if published is not None and any(
            want is not None and have != want for have, want in zip(got, published)):
        problems.append(f"(k, d, lcd, k_dual, d_dual) = {tuple(got)} but the table "
                        f"publishes {tuple(published)}")
    return problems


def _weight(vec) -> int:
    return sum(1 for v in vec if v)


def min_distance_k2(rows, q: int) -> int:
    """Minimum weight of the span of two rows over GF(q), exhaustively.

    Every nonzero codeword is a nonzero multiple of r2 or of r1 + l*r2 for
    some l in GF(q), and scaling keeps the weight, so these q + 1 words
    cover all q^2 - 1 nonzero codewords.
    """
    r1, r2 = rows
    best = _weight([v % q for v in r2])
    for lam in range(q):
        best = min(best, _weight([(a + lam * b) % q for a, b in zip(r1, r2)]))
    return best


def dual_distance_k2(rows, q: int) -> int:
    """Least number of linearly dependent columns of a 2 x n generator.

    This is the minimum distance of the dual code.  A zero column gives 1,
    two proportional columns give 2, and any three columns of a 2-row
    matrix are dependent.
    """
    cols = [(a % q, b % q) for a, b in zip(*rows)]
    if any(c == (0, 0) for c in cols):
        return 1
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            (a, b), (c, d) = cols[i], cols[j]
            if (a * d - b * c) % q == 0:
                return 2
    return 3
