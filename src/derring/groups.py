"""Finite groups as indexed element sets with multiplication tables.

Element listings are frozen per family (code constructions depend on
them): cyclic groups list 1, x, ..., x^(n-1) and dihedral groups list
1, a, ..., a^(n-1), b, ab, ..., a^(n-1)b.  Words use the grammar
``a^2*b`` (``*``-separated factors, optional integer exponents, ``1``
for the empty word); a factor names a generator or an element.

Every group carries a presentation: the built-in families give their
relators, and a group given by its table derives them from its normal
forms.  Endomorphisms are checked on the generator pairs, by the one
rule of ``first_failing_pair``.  A group is built and checked on its
table as a read-only int64 array, ``mul_array``: the family tables come
from index arithmetic, and the identity, the inverses and Light's
associativity test are array operations on it.  ``mul`` and ``inv`` are
list views of the arrays for the word walks.  An endomorphism's action
on FG is kept as read-only int64 index arrays, built on first use, for
the checks that run as numpy gathers.  The twisted conjugation of a pair
of endomorphisms is one gather here too (``twisted_conjugates``), since
both the classes and the dimension by |G| - r read its column minima.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import HomomorphismRejected
from .linalg import Field, row_weight, sum_dtype

# a word is a sequence of (generator name, +1 | -1) letters
Word = Tuple[Tuple[str, int], ...]

_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse ``a^2*b`` style words; ``1`` is the empty word."""
    text = text.strip()
    if text in ("1", "e", ""):
        return ()
    letters: List[Tuple[str, int]] = []
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise ValueError(f"bad word factor {factor!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        sign = 1 if exp >= 0 else -1
        letters.extend([(name, sign)] * abs(exp))
    return tuple(letters)


def word_str(word: Word) -> str:
    if not word:
        return "1"
    parts: List[str] = []
    i = 0
    while i < len(word):
        name, sign = word[i]
        j = i
        while j < len(word) and word[j] == (name, sign):
            j += 1
        exp = (j - i) * sign
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


def _identity_of(mul: np.ndarray) -> int:
    """The first e with e g = g e = g for every g of an int64 table."""
    elems = np.arange(len(mul))
    found = np.flatnonzero((mul == elems).all(axis=1) & (mul.T == elems).all(axis=1))
    if not found.size:
        raise ValueError("multiplication table has no identity")
    return int(found[0])


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, set to refuse writes."""
    a.flags.writeable = False
    return a


class FiniteGroup:
    """A finite group given by its full multiplication table, a list of rows
    or an int64 array, which the group keeps, set read-only, as ``mul_array``.

    ``relators`` present the group on its generators.  Given relators are
    checked against the table; when none are given (None or an empty list)
    they are derived from the normal forms (``_tree_relators``).  Each
    element name must read back as its own element through ``parse_word``
    and ``eval_word`` (``-i`` does not), so that printed elements parse
    back.
    """

    def __init__(self, names: Sequence[str], mul: Sequence[Sequence[int]],
                 generators: Sequence[Tuple[str, int]], family: str,
                 relators: Optional[Sequence[Word]] = None,
                 family_params=None):
        self.order = len(names)
        self.names = list(names)
        self.mul_array = _read_only(np.asarray(mul, dtype=np.int64))
        self.family = family
        self.family_params = family_params
        self.generators = list(generators)
        self.identity = _identity_of(self.mul_array)
        self.inv_array = self._inverses()
        # list views, for the word walks and for callers that read rows as
        # lists; their rows share one int object per element, where a plain
        # tolist() would make |G|^2 of them
        elems = np.array(range(self.order), dtype=object)
        self.mul, self.inv = elems[self.mul_array].tolist(), elems[self.inv_array].tolist()
        self.normal_forms = self.words_over(self.generators)
        self._check_associativity()
        self._index_of_name = {name: i for i, name in enumerate(self.names)}
        # word letters: element names, with generator names taking precedence
        self._letters = {**self._index_of_name, **dict(self.generators)}
        for g, name in enumerate(self.names):
            try:
                back = self.eval_word(parse_word(name))
            except (KeyError, ValueError):
                back = None
            if back != g:
                raise ValueError(f"element name {name!r} does not read back as itself "
                                 f"as a word over the element names")
        if not relators:
            self.relators = self._tree_relators()
        else:
            self.relators = [tuple(w) for w in relators]
            gens = dict(self.generators)
            for rel in self.relators:
                stray = next((name for name, _ in rel if name not in gens), None)
                if stray is not None:
                    raise ValueError(f"relator letter {stray!r} is not a generator name")
                if self.eval_word(rel) != self.identity:
                    raise ValueError(f"relator {word_str(rel)} does not hold in the table")

    # -- construction checks ----------------------------------------------

    def _inverses(self) -> np.ndarray:
        """inv[g], the first h with g h = h g = 1, as a read-only array."""
        mul, e = self.mul_array, self.identity
        both = (mul == e) & (mul.T == e)
        missing = np.flatnonzero(~both.any(axis=1))
        if missing.size:
            raise ValueError(f"element {self.names[missing[0]]} has no inverse")
        return _read_only(both.argmax(axis=1))

    def _check_associativity(self):
        """Light's test: (x s) y = x (s y) for every generator and inverse s.

        The elements s that pass are closed under products, and the
        generators with their inverses generate the group (``words_over``
        confirmed it), so the test is exact at O(|G|^2 |S|) cost.  A
        failure names the first (x, s, y), s ascending, then x, then y.
        """
        mul = self.mul_array
        gens = {g for _, g in self.generators}
        for s in sorted(gens | {self.inv[g] for g in gens}):
            bad = mul[mul[:, s]] != mul[:, mul[s]]
            if bad.any():
                x, y = divmod(int(bad.argmax()), self.order)
                raise ValueError(
                    f"table not associative at "
                    f"({self.names[x]}, {self.names[s]}, {self.names[y]})")

    def _tree_relators(self) -> List[Word]:
        """Relators presenting the group, read off the normal forms w_g.

        One relator w_g s w_gs^-1 for each element g and generator s unless
        w_gs = w_g s or w_g = w_gs s^-1 (a tree edge): |G| |S| - |G| + 1.
        They give w_g s = w_gs, hence w_g s^-1 = w_(g s^-1), so every word
        equals the normal form of its value (Holt, Eick & O'Brien, Handbook
        of Computational Group Theory, ch. 5).  The normal forms are
        prefix-closed, so the relators are freely reduced.
        """
        words, mul = self.normal_forms, self.mul
        out: List[Word] = []
        for g, w in enumerate(words):
            for name, s in self.generators:
                ws = words[mul[g][s]]
                if ws != w + ((name, 1),) and w != ws + ((name, -1),):
                    out.append(w + ((name, 1),) + tuple((x, -e) for x, e in reversed(ws)))
        return out

    # -- basic operations ---------------------------------------------------

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def index_of(self, name: str) -> int:
        return self._index_of_name[name]

    def generator_index(self, name: str) -> int:
        for gname, idx in self.generators:
            if gname == name:
                return idx
        raise KeyError(f"unknown generator {name!r}")

    def eval_word(self, word: Word) -> int:
        """Evaluate a word whose letters name generators or elements."""
        return self.eval_word_of(word, self._letters)

    def eval_word_of(self, word: Word, elems: Dict[str, int]) -> int:
        """Evaluate a word with each letter name bound to a given element."""
        g = self.identity
        for name, sign in word:
            try:
                x = elems[name]
            except KeyError:
                raise KeyError(f"unknown generator or element {name!r}") from None
            g = self.mul[g][x if sign > 0 else self.inv[x]]
        return g

    def words_over(self, named: Sequence[Tuple[str, int]]) -> List[Word]:
        """BFS words for every element over the given named elements.

        Moves are ordered by declaration order, plain letter before its
        inverse, so the words are deterministic.
        """
        moves: List[Tuple[Tuple[str, int], int]] = []
        for name, idx in named:
            moves.append(((name, 1), idx))
            moves.append(((name, -1), self.inv[idx]))
        words: List[Optional[Word]] = [None] * self.order
        words[self.identity] = ()
        frontier = [self.identity]
        while frontier:
            nxt = []
            for g in frontier:
                base = words[g]
                for letter, idx in moves:
                    h = self.mul[g][idx]
                    if words[h] is None:
                        words[h] = base + (letter,)
                        nxt.append(h)
            frontier = nxt
        missing = [self.names[i] for i, w in enumerate(words) if w is None]
        if missing:
            raise ValueError(f"given elements do not generate the group; missed {missing}")
        return words  # type: ignore[return-value]

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.identity:
            acc = self.mul[acc][g]
            k += 1
        if self.order % k:
            raise AssertionError("element order does not divide the group order")
        return k

    def is_abelian(self) -> bool:
        return bool((self.mul_array == self.mul_array.T).all())

    def describe(self) -> str:
        if self.family == "cyclic":
            return f"cyclic({self.family_params})"
        if self.family == "dihedral":
            return f"dihedral({self.family_params})"
        if self.family == "abelian":
            return f"abelian({list(self.family_params)})"
        return f"table(order {self.order})"

    def __repr__(self):
        return f"FiniteGroup({self.describe()})"


# -- built-in families ----------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    powers = np.arange(n)
    mul = (powers[:, None] + powers) % n
    return FiniteGroup(names, mul, [("x", 1 % n)], "cyclic",
                       relators=[parse_word(f"x^{n}")], family_params=n)


def dihedral_group(n: int) -> FiniteGroup:
    """Order-2n dihedral group listed 1, a, ..., a^(n-1), b, ab, ..."""
    if n < 3:
        raise ValueError("dihedral group needs rotation order n >= 3")
    names = []
    for j in (0, 1):
        for i in range(n):
            rot = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            ref = "b" if j else ""
            names.append("1" if not rot and not ref else
                         rot if not ref else ref if not rot else f"{rot}*{ref}")
    # a^i b^j sits at index j n + i: a^i1 a^i2 (b) = a^(i1 + i2) (b),
    # a^i1 b a^i2 = a^(i1 - i2) b and a^i1 b a^i2 b = a^(i1 - i2)
    rot = np.arange(n)
    plus, minus = (rot[:, None] + rot) % n, (rot[:, None] - rot) % n
    mul = np.block([[plus, plus + n], [minus + n, minus]])
    relators = [parse_word(f"a^{n}"), parse_word("b^2"), parse_word("a*b*a*b")]
    return FiniteGroup(names, mul, [("a", 1), ("b", n)], "dihedral",
                       relators=relators, family_params=n)


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups, one generator x1, x2, ... each."""
    factors = list(factors)
    if not factors or any(f < 1 for f in factors):
        raise ValueError("abelian factors must be positive")
    k = len(factors)
    tuples = list(product(*[range(f) for f in factors]))
    # the element (c_1, ..., c_k) sits at index sum c_i stride_i, as in ``tuples``
    strides = [math.prod(factors[i + 1:]) for i in range(k)]

    def name_of(t):
        parts = [f"x{i+1}" if c == 1 else f"x{i+1}^{c}"
                 for i, c in enumerate(t) if c]
        return "*".join(parts) if parts else "1"

    names = [name_of(t) for t in tuples]
    coords = np.indices(factors).reshape(k, -1)
    mul = sum(((c[:, None] + c) % f) * stride for c, f, stride in zip(coords, factors, strides))
    gens = [(f"x{i+1}", (1 % factors[i]) * strides[i]) for i in range(k)]
    relators = [parse_word(f"x{i+1}^{factors[i]}") for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            relators.append(parse_word(f"x{i+1}^-1*x{j+1}^-1*x{i+1}*x{j+1}"))
    return FiniteGroup(names, mul, gens, "abelian",
                       relators=relators, family_params=tuple(factors))


def table_group(mul: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
                generators: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Group from a raw multiplication table; generators picked greedily if absent.

    The group's relators are derived from its normal forms.  A spec that
    names no group listing is refused with a ValueError: the table must
    be a non-empty square list of rows of ints in range(n) (bools are not
    ints here) with an identity, the names n distinct strings, of which
    only the identity may be ``1`` or ``e`` (words read both as the
    identity), and the generators distinct element names; ``FiniteGroup``
    refuses names that do not read back.
    """
    n = len(mul) if isinstance(mul, (list, tuple)) else 0
    if not n:
        raise ValueError("multiplication table must be a non-empty list of rows")
    for i, row in enumerate(mul):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise ValueError(f"multiplication table is not square: row {i} "
                             f"is not a list of {n} entries")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"table entry ({i}, {j}) is {x!r}, "
                                 f"not an element index in range({n})")
    names = [f"g{i}" for i in range(n)] if names is None else names
    if (not isinstance(names, (list, tuple)) or len(names) != n
            or not all(isinstance(name, str) for name in names)):
        raise ValueError(f"a table of {n} elements needs a list of {n} string names")
    _refuse_repeats("element names", names)
    table = np.array(mul, dtype=np.int64)
    identity = _identity_of(table)
    if any(name in ("1", "e") for g, name in enumerate(names) if g != identity):
        raise ValueError("only the identity may be named '1' or 'e', "
                         "which words read as the identity")
    if generators is None:
        gens = _greedy_generators(mul, names, identity)
    elif not isinstance(generators, (list, tuple)) or not all(x in names for x in generators):
        raise ValueError(f"generators must be a list of element names, not {generators!r}")
    else:
        _refuse_repeats("generators", generators)
        gens = [(name, names.index(name)) for name in generators]
    return FiniteGroup(names, table, gens, "table")


def _refuse_repeats(what: str, items: Sequence[str]) -> None:
    if len(set(items)) < len(items):
        raise ValueError(f"{what} repeat: {sorted({x for x in items if items.count(x) > 1})}")


def _greedy_generators(mul, names, identity: int) -> List[Tuple[str, int]]:
    """Each element outside the subgroup the earlier choices generate."""
    chosen: List[int] = []
    closure = {identity}
    for g in range(len(mul)):
        if g in closure:
            continue
        chosen.append(g)
        # inverses are powers in a finite group, so right products suffice
        closure, frontier = {identity}, [identity]
        while frontier:
            frontier = {mul[h][x] for h in frontier for x in chosen} - closure
            closure |= frontier
    return [(names[g], g) for g in chosen]


def _spec_int(key: str, x) -> int:
    """A group spec's integer entry; other JSON types are a ValueError naming ``key``."""
    if not isinstance(x, bool) and isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"group entry {key!r} must be an integer, not {x!r}")


def make_group(spec) -> FiniteGroup:
    """Build a group from a spec dict like {'family': 'dihedral', 'n': 6}."""
    if isinstance(spec, FiniteGroup):
        return spec
    family = spec["family"]
    if family == "cyclic":
        return cyclic_group(_spec_int("n", spec["n"]))
    if family == "dihedral":
        return dihedral_group(_spec_int("n", spec["n"]))
    if family == "abelian":
        factors = spec["factors"]
        if not isinstance(factors, list):
            raise ValueError(f"group entry 'factors' must be a list of integers, not {factors!r}")
        return abelian_group([_spec_int("factors", f) for f in factors])
    if family == "table":
        return table_group(spec["table"], spec.get("names"), spec.get("generators"))
    raise ValueError(f"unknown group family {family!r}")


# -- endomorphisms ----------------------------------------------------------

def common_group(*items) -> FiniteGroup:
    """The one group of ``items``: groups, or maps and elements read through
    their ``group``; a ValueError when they do not all share that group object."""
    group = getattr(items[0], "group", items[0])
    for x in items:
        if getattr(x, "group", x) is not group:
            raise ValueError("maps and elements from different groups: " + ", ".join(
                getattr(y, "group", y).describe() for y in items))
    return group


def common_field(field: Field, *items) -> Field:
    """``field``, or a ValueError when one of ``items`` that carries a field
    (an ``AlgebraEndo``, whose images are that field's elements, or an
    element) is over another; a group map acts over every field."""
    for x in items:
        other = getattr(x, "field", field)
        if other != field:
            raise ValueError(f"maps and elements over different fields: {other} and {field}")
    return field


def decisive_generators(group: FiniteGroup) -> Tuple[int, ...]:
    """The h of the pairs (g, h), g in G, that decide a product rule
    (``first_failing_pair``): the generators, as listed, or 1 for a group with none."""
    return tuple(s for _, s in group.generators) or (group.identity,)


def first_failing_pair(group: FiniteGroup,
                       fails: Callable[[Sequence[int], Sequence[int]], Iterable]
                       ) -> Optional[Tuple[int, int]]:
    """The first pair (g, h), g-major, at which a product rule fails, or None.

    ``fails(gs, hs)`` says, for each pair (g, h) of gs x hs in g-major
    order, whether phi(g h) = phi(g) phi(h), or D(g h) = D(g) tau(h) +
    sigma(g) D(h) for unital multiplicative sigma and tau, fails: any
    iterable of truth values, a generator or a flat numpy array.  The
    pairs (g, s), s a generator, decide it, in one call.  At (1, s) the
    rule gives phi(1) = 1 in G, or D(1) tau(s) = 0 and so D(1) = 0, hence
    the rule at every (g, 1); at (g, h) for all g and at (h, s) it gives
    phi(g h s) = phi(g h) phi(s) = phi(g) phi(h s) and
    D(g h s) = D(g h) tau(s) + sigma(g h) D(s) = D(g) tau(h s) + sigma(g) D(h s),
    so induction on positive words reaches every h.  A trivial group, with
    no generators, is decided on (1, 1).  A map into FG is checked unital
    first, since there (1, s) does not give it.  Only a failure runs the
    full scan, one call per g, to name the first failing pair.
    """
    n = group.order
    if not any(fails(range(n), decisive_generators(group))):
        return None
    for g in range(n):
        h = next((h for h, bad in enumerate(fails([g], range(n))) if bad), None)
        if h is not None:
            return g, h
    return None


class Action:
    """An endomorphism phi of FG acting by multiplication, as gathers: how
    derring reads every action of sigma or tau on FG, group maps or not.

    phi(g) is the sum over j of (coeffs[g, j] / scale) u_j, the coeffs
    integers (padding terms have coefficient 0) and back[g, j] = u_j^-1.
    Multiplying by u moves the coefficient at v to u v (left) or v u
    (right), so, read through u^-1, scale (phi(g) alpha)[k] is the sum over
    j of coeffs[g, j] alpha[left[g, j, k]], and scale (alpha phi(g))[k]
    that of coeffs[g, j] alpha[right[g, j, k]].  ``left`` and ``right``,
    each (|G|, W, |G|), are built on first read, since the checks read only
    sigma's left and tau's right.  Every array is read-only; ``weight``,
    the largest sum of |coeffs| over one image, bounds integer work on them.
    """

    __slots__ = ("group", "back", "coeffs", "scale", "weight", "_left", "_right")

    def __init__(self, group: FiniteGroup, back: np.ndarray, coeffs: np.ndarray,
                 scale: int, weight: int):
        self.group, self.back, self.coeffs = group, back, coeffs
        self.scale, self.weight = scale, weight
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None

    @property
    def left(self) -> np.ndarray:
        """left[g, j, k] = u_j^-1 k."""
        if self._left is None:
            self._left = _read_only(self.group.mul_array[self.back])
        return self._left

    @property
    def right(self) -> np.ndarray:
        """right[g, j, k] = k u_j^-1."""
        if self._right is None:
            self._right = _read_only(np.ascontiguousarray(
                np.moveaxis(self.group.mul_array[:, self.back], 0, -1)))
        return self._right

    def on_scale(self, scale: int) -> "Action":
        """The same action with its coefficients over ``scale``, a multiple of its own."""
        if scale == self.scale:
            return self
        factor = scale // self.scale
        coeffs = self.coeffs.astype(sum_dtype(self.weight, factor)) * factor
        out = Action(self.group, self.back, _read_only(coeffs), scale, self.weight * factor)
        out._left, out._right = self._left, self._right
        return out


def action_gathers(group: FiniteGroup, units, coeffs, scale: int = 1) -> Action:
    """The ``Action`` whose image of g has the terms units[g][j] with coeffs[g][j];
    the coefficients are int64 while each image's |coefficient| sum is below 2^63."""
    exact = np.array(coeffs, dtype=object)
    weight = row_weight(exact)
    coeffs = exact.astype(sum_dtype(weight, 1))
    back = group.inv_array[np.asarray(units, dtype=np.int64)]
    return Action(group, _read_only(back), _read_only(coeffs), scale, weight)


def _dihedral_tags(group: FiniteGroup,
                   images: Sequence[int]) -> Tuple[str, Optional[int], Optional[int]]:
    """The family and (s, t) of a dihedral endomorphism, read off a -> a', b -> b'.

    (s, t) are the exponents of a' and b' as a^s or a^s b; on other groups
    the family is ``none``.
    """
    if group.family != "dihedral":
        return "none", None, None
    n = group.family_params
    a_img, b_img = images[group.generator_index("a")], images[group.generator_index("b")]
    s, t = a_img % n, b_img % n
    if a_img < n and b_img < n:
        return ("sigma-1" if n % 2 and s == t == 0 else "sigma2"), s, t
    if a_img < n:
        if n % 2:
            return ("sigma0" if s else "sigma3"), s, t
        return ("sigma3" if s in (0, n // 2) else "sigma1"), s, t
    return ("sigma5" if b_img < n else "sigma4"), s, t


class Endomorphism:
    """A group endomorphism stored as a full image table, checked
    multiplicative (so unital) by ``first_failing_pair`` unless ``check=False``.

    On a dihedral group its ``family`` and ``(s, t)`` are read off the
    images of the generators (``_dihedral_tags``).  ``images`` serve where
    a group map is needed; its action on FG is ``action``.
    """

    __slots__ = ("group", "images", "family", "s", "t", "is_identity", "_action")

    def __init__(self, group: FiniteGroup, images: Sequence[int], check: bool = True):
        self.group = group
        self.images = tuple(images)
        self.family, self.s, self.t = _dihedral_tags(group, self.images)
        self.is_identity = all(self.images[g] == g for g in range(group.order))
        self._action: Optional[Action] = None
        if check:
            im, mul = self.images, group.mul
            bad = first_failing_pair(group, lambda gs, hs: (
                im[mul[g][h]] != mul[im[g]][im[h]] for g in gs for h in hs))
            if bad is not None:
                g, h = bad
                raise HomomorphismRejected(
                    f"map is not multiplicative at ({group.names[g]}, {group.names[h]})",
                    pair=bad)

    def __call__(self, g: int) -> int:
        return self.images[g]

    @property
    def action(self) -> Action:
        """The gathers of this map's action on FG: one unit term per image."""
        if self._action is None:
            self._action = action_gathers(self.group, [[u] for u in self.images],
                                          [[1]] * self.group.order)
        return self._action

    def __eq__(self, other):
        return (isinstance(other, Endomorphism) and other.group is self.group
                and other.images == self.images)

    def __hash__(self):
        return hash(self.images)

    def image_names(self) -> Dict[str, str]:
        """Each generator name with the element name of its image."""
        G = self.group
        return {name: G.names[self.images[s]] for name, s in G.generators}

    def describe(self) -> str:
        ims = ", ".join(f"{name} -> {img}" for name, img in self.image_names().items())
        tag = self.family if self.family != "none" else ("id" if self.is_identity else "endo")
        return f"{tag}({ims})"

    def __repr__(self):
        return f"Endomorphism({self.describe()})"


def identity_endomorphism(group: FiniteGroup) -> Endomorphism:
    return Endomorphism(group, range(group.order), check=False)


def twisted_conjugates(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                       x: Optional[int] = None) -> np.ndarray:
    """C[g, x] = sigma(g) x tau(g)^-1 for every g, gathered from ``mul_array``:
    the column of one x, or the whole |G| x |G| table when x is None.  Column x
    is the twisted orbit of x, since g -> (x -> C[g, x]) is an action of G."""
    G = common_group(group, sigma, tau)
    mul, images = G.mul_array, np.asarray(sigma.images, dtype=np.int64)
    undo = G.inv_array[np.asarray(tau.images, dtype=np.int64)]
    if x is None:
        return mul[mul[images], undo[:, None]]
    return mul[mul[images, x], undo]


def class_minima(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism) -> np.ndarray:
    """The least twisted conjugate of each x, the column minima of
    ``twisted_conjugates``: x's class, named by its least member, so the
    classes are the x equal to their own minimum."""
    return twisted_conjugates(group, sigma, tau).min(axis=0)


def _extend_images(group: FiniteGroup, gen_elems: Dict[str, int]) -> List[int]:
    """The image of every element when each generator name goes to ``gen_elems[name]``,
    read along the normal forms."""
    return [group.eval_word_of(w, gen_elems) for w in group.normal_forms]


def _failing_relator(group: FiniteGroup, gen_elems: Dict[str, int]) -> Optional[Word]:
    """The first relator that the generator images do not send to 1, or None."""
    return next((rel for rel in group.relators
                 if group.eval_word_of(rel, gen_elems) != group.identity), None)


def endo_from_images(group: FiniteGroup, images: Dict[str, "str | Word"]) -> Endomorphism:
    """Extend generator images to an endomorphism, or reject.

    Image words may name generators or elements.  By von Dyck's theorem
    the images extend exactly when every relator maps to 1; the first
    failing relator is reported.  The extension is computed along normal
    forms and checked on the generator pairs as well.
    """
    gen_elems: Dict[str, int] = {}
    for name, _ in group.generators:
        if name not in images:
            raise ValueError(f"missing image for generator {name!r}")
        w = images[name]
        gen_elems[name] = group.eval_word(parse_word(w) if isinstance(w, str) else tuple(w))
    extra = set(images) - set(gen_elems)
    if extra:
        raise ValueError(f"unknown generators in image map: {sorted(extra)}")
    rel = _failing_relator(group, gen_elems)
    if rel is not None:
        img = group.eval_word_of(rel, gen_elems)
        raise HomomorphismRejected(
            f"relator {word_str(rel)} maps to {group.names[img]} instead of 1", relator=rel)
    return Endomorphism(group, _extend_images(group, gen_elems))


def compose(outer: Endomorphism, inner: Endomorphism) -> Endomorphism:
    if outer.group is not inner.group:
        raise ValueError("endomorphisms live on different groups")
    return Endomorphism(outer.group, [outer.images[x] for x in inner.images])


def _generator_choices(group: FiniteGroup):
    """Every assignment of group elements to the generator names."""
    names = [name for name, _ in group.generators]
    for choice in product(range(group.order), repeat=len(names)):
        yield dict(zip(names, choice))


def brute_force_endomorphisms(group: FiniteGroup) -> List[Endomorphism]:
    """All endomorphisms by exhausting generator images; order <= 12 only.

    Each candidate is decided by the product rule, not by the relators.
    """
    if group.order > 12:
        raise ValueError("brute-force enumeration is limited to groups of order <= 12")
    found = []
    for gen_elems in _generator_choices(group):
        try:
            found.append(Endomorphism(group, _extend_images(group, gen_elems)))
        except HomomorphismRejected:
            continue
    return found


def _power(group: FiniteGroup, g: int, k: int) -> int:
    acc = group.identity
    for _ in range(k):
        acc = group.mul[acc][g]
    return acc


def enumerate_endomorphisms(group: FiniteGroup) -> List[Endomorphism]:
    """The complete tagged endomorphism inventory of a dihedral group.

    Every image pair (a', b') satisfying the relators a^n = b^2 = (ab)^2 = 1
    extends (von Dyck): n^2 + 1 maps for odd n, (n + 2)^2 for even n,
    a'-major in the element listing.
    """
    if group.family != "dihedral":
        raise ValueError("complete enumeration is only available for dihedral groups; "
                         "use brute_force_endomorphisms for small groups")
    out = [Endomorphism(group, _extend_images(group, gen_elems))
           for gen_elems in _generator_choices(group)
           if _failing_relator(group, gen_elems) is None]
    n = group.family_params
    expected = n * n + 1 if n % 2 else (n + 2) ** 2
    if len(out) != expected:
        raise AssertionError(f"endomorphism inventory has {len(out)} maps, expected {expected}")
    return out


@dataclass(frozen=True)
class DihedralEndoParams:
    """Derived parameters of a sigma0/sigma1 dihedral endomorphism."""

    n: int
    s: int
    t: int
    m: int   # order of the rotation image a^s
    d: int   # n / m
    j0: int  # t mod s

    @classmethod
    def from_endo(cls, endo: Endomorphism) -> "DihedralEndoParams":
        if endo.family not in ("sigma0", "sigma1"):
            raise ValueError(f"no derived parameters for family {endo.family}")
        G = endo.group
        n = G.family_params
        s, t = endo.s, endo.t
        m = G.element_order(s % n)
        d = n // m
        j0 = t % s
        params = cls(n=n, s=s, t=t, m=m, d=d, j0=j0)
        if params.m * params.d != n:
            raise AssertionError("m*d != n")
        return params
