"""Reference group constructions, checks and twisted orbits, entry by entry.

Everything here reads a multiplication table as a list of rows and loops
over it in plain Python: the family tables built one entry at a time,
the identity and inverse searches, Light's associativity loop, the
breadth-first normal forms and the tree relators read off them.  It is
the slow, obviously exact route that the array construction of
``derring.groups`` is tested against, and the refusal messages are the
ones ``FiniteGroup`` gives.  The twisted action sigma(g) x tau(g)^-1 is
listed the same way, for the orbits and stabilizers that
``derring.conjugacy`` reads off one gathered table.
"""

from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple

from derring.groups import parse_word

Table = List[List[int]]


def cyclic(n: int):
    """Names, table, generators and relators of C_n."""
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return names, mul, [("x", 1 % n)], [parse_word(f"x^{n}")]


def dihedral(n: int):
    """Names, table, generators and relators of the dihedral group of order 2n."""
    def idx(i: int, j: int) -> int:
        return (j % 2) * n + (i % n)

    names = []
    for j in (0, 1):
        for i in range(n):
            rot = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            ref = "b" if j else ""
            names.append("1" if not rot and not ref else
                         rot if not ref else ref if not rot else f"{rot}*{ref}")
    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for i1, j1, i2, j2 in product(range(n), (0, 1), range(n), (0, 1)):
        i = i1 + (i2 if j1 == 0 else -i2)
        mul[idx(i1, j1)][idx(i2, j2)] = idx(i, j1 ^ j2)
    relators = [parse_word(f"a^{n}"), parse_word("b^2"), parse_word("a*b*a*b")]
    return names, mul, [("a", 1), ("b", n)], relators


def abelian(factors: Sequence[int]):
    """Names, table, generators and relators of the product of the C_f."""
    k = len(factors)
    tuples = list(product(*[range(f) for f in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    names = ["*".join(f"x{i+1}" if c == 1 else f"x{i+1}^{c}" for i, c in enumerate(t) if c)
             or "1" for t in tuples]
    mul = [[index[tuple((a + b) % f for a, b, f in zip(t1, t2, factors))]
            for t2 in tuples] for t1 in tuples]
    gens = [(f"x{i+1}", index[tuple((1 if j == i else 0) % f for j, f in enumerate(factors))])
            for i in range(k)]
    relators = [parse_word(f"x{i+1}^{factors[i]}") for i in range(k)]
    relators += [parse_word(f"x{i+1}^-1*x{j+1}^-1*x{i+1}*x{j+1}")
                 for i in range(k) for j in range(i + 1, k)]
    return names, mul, gens, relators


def identity_of(mul: Table) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][g] == g and mul[g][e] == g for g in range(n)):
            return e
    raise ValueError("multiplication table has no identity")


def inverses(mul: Table, names: Sequence[str]) -> List[int]:
    """inv[g], the first h with g h = h g = 1."""
    e, n = identity_of(mul), len(mul)
    inv = []
    for g in range(n):
        h = next((h for h in range(n) if mul[g][h] == e and mul[h][g] == e), None)
        if h is None:
            raise ValueError(f"element {names[g]} has no inverse")
        inv.append(h)
    return inv


def normal_forms(mul: Table, names: Sequence[str],
                 generators: Sequence[Tuple[str, int]]) -> list:
    """Breadth-first words over the generators, plain letter before its inverse."""
    inv = inverses(mul, names)
    moves = [move for name, s in generators for move in (((name, 1), s), ((name, -1), inv[s]))]
    words: list = [None] * len(mul)
    words[identity_of(mul)] = ()
    frontier = [identity_of(mul)]
    while frontier:
        nxt = []
        for g in frontier:
            for letter, s in moves:
                h = mul[g][s]
                if words[h] is None:
                    words[h] = words[g] + (letter,)
                    nxt.append(h)
        frontier = nxt
    missing = [names[i] for i, w in enumerate(words) if w is None]
    if missing:
        raise ValueError(f"given elements do not generate the group; missed {missing}")
    return words


def light_failure(mul: Table, names: Sequence[str],
                  generators: Sequence[Tuple[str, int]]) -> Optional[Tuple[int, int, int]]:
    """The first (x, s, y) with (x s) y != x (s y), s over the generators and
    their inverses in ascending order, then x, then y; None when there is none."""
    inv = inverses(mul, names)
    gens = {s for _, s in generators}
    for s in sorted(gens | {inv[s] for s in gens}):
        for x in range(len(mul)):
            for y in range(len(mul)):
                if mul[mul[x][s]][y] != mul[x][mul[s][y]]:
                    return x, s, y
    return None


def refusal(mul: Table, names: Sequence[str],
            generators: Sequence[Tuple[str, int]]) -> Optional[str]:
    """The message of the first table check that fails, in ``FiniteGroup``'s
    order (identity, inverses, generation, associativity), or None."""
    try:
        normal_forms(mul, names, generators)
    except ValueError as err:
        return str(err)
    bad = light_failure(mul, names, generators)
    if bad is None:
        return None
    return "table not associative at ({}, {}, {})".format(*(names[g] for g in bad))


def tree_relators(mul: Table, names: Sequence[str],
                  generators: Sequence[Tuple[str, int]]) -> list:
    """w_g s w_gs^-1 for each g and generator s that is not a tree edge."""
    words = normal_forms(mul, names, generators)
    out = []
    for g, w in enumerate(words):
        for name, s in generators:
            ws = words[mul[g][s]]
            if ws != w + ((name, 1),) and w != ws + ((name, -1),):
                out.append(w + ((name, 1),) + tuple((x, -e) for x, e in reversed(ws)))
    return out


def twisted_table(mul: Table, names: Sequence[str], sigma: Sequence[int],
                  tau: Sequence[int]) -> Table:
    """C[g][x] = sigma(g) x tau(g)^-1."""
    inv = inverses(mul, names)
    return [[mul[mul[sigma[g]][x]][inv[tau[g]]] for x in range(len(mul))]
            for g in range(len(mul))]


def orbits_and_stabilizers(C: Table) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Each x's orbit {C[g][x]} and stabilizer {g : C[g][x] = x}."""
    n = len(C)
    return ([{C[g][x] for g in range(n)} for x in range(n)],
            [{g for g in range(n) if C[g][x] == x} for x in range(n)])


def classes_of(orbits: Sequence[Set[int]]) -> List[Tuple[int, ...]]:
    """The distinct orbits as sorted tuples, singletons first, then by least member."""
    distinct: Dict[Tuple[int, ...], None] = dict.fromkeys(
        sorted(tuple(sorted(orbit)) for orbit in orbits))
    return [c for c in distinct if len(c) == 1] + [c for c in distinct if len(c) > 1]
