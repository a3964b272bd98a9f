"""Construction, verification and classification of twisted derivations.

A (sigma, tau)-derivation D of FG satisfies
``D(gh) = D(g) tau(h) + sigma(g) D(h)`` and is stored as its generator
images, which fix it.  Every group carries relators (given, or derived
from its normal forms), and generator images extend to a derivation
exactly when the induced free-word evaluation kills every relator; that
criterion is linear in the images, one (cols, vals) block read off the
table (``relator_block``), which ``derivation_space`` solves and
``extend_from_generators`` gathers the images through.  The product rule
at any pairs is one block too (``pair_block``).  At G x X, X the
generators, it decides the rule (the induction of
``groups.first_failing_pair``): ``product_rule_violation`` gathers D's
table through those rows and the pair oracle ``derivation_space_full``
solves them, one cached block (``decisive_rows``).  Along a spanning
tree the rule is a walk (``_tree_plan``'s levels, ``linalg.walk``) that
extends values at 1 and the generators to a derivation's table, in
integers, to the commutative basis and to the oracle's seed.
Every system is one block over maps of one group (``common_group``) and
one field (``common_field``).  Those fixed by (sigma, tau), the tree and
the inner system's elimination are built once and kept in one bounded
cache (``_cached``), so ``is_inner`` solves and certifies by integer
products.  When |G| is invertible in the field, ``derivation_space``
reads the dimension off the twisted classes, |G| - r, with no solve.

sigma and tau act on FG only through their cached ``Action`` gathers,
group and algebra endomorphisms alike, with coefficients over one
denominator M.  D's generator images and its table are each one read-only
integer array over one denominator (1 over GF(p)), int64 or, past it,
Python ints (``integer_images``, ``integer_table``), which the walk, the
relator gather, the inner solve, the product rule, the inner images and
tables and the averaging witness all gather as they are; field elements are
read off them only at the edge (``_values``), and caller values enter
through one scaling (``_scaled``).  The rule is M D(g h) = D(g) tau(h) +
sigma(g) D(h) in integers, reduced mod p over GF(p).  Each gather runs in
int64 while its largest partial sum, at most the sum of its
|coefficients| (summed exactly by ``linalg.row_weight``, since an int64
sum of a few coefficients near p wraps once p passes 2^62) times the
largest |entry|, stays below 2^63, and in Python ints (numpy ``object``)
past that (``linalg.sum_dtype``).  Past the bound are actions with
coefficients near p over a prime above 2^32, every table over a prime
above 2^63, and large denominators over QQ.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DerivationRejected
from .groups import (Action, Endomorphism, FiniteGroup, Word, _power, _read_only,
                     action_gathers, class_minima, common_field, common_group,
                     decisive_generators, first_failing_pair, group_maps, word_str)
from .groupring import GroupRingElement
from .linalg import (Field, _values, debug_record, dense_block, integer_kernel, integer_rref,
                     integer_scale, row_weight, sparse_kernel_basis, sparse_nullity, sum_dtype,
                     walk)


class AlgebraEndo:
    """A unital algebra endomorphism of FG given by its basis images.

    Verified unital, then multiplicative on the generator pairs (see
    ``first_failing_pair``).  Used where arguments beyond group-induced
    maps are allowed (the averaging construction).  Like ``Endomorphism``
    it acts on FG through ``action``: the support of each image, its
    coefficients over one denominator.
    """

    __slots__ = ("group", "field", "ring_images", "_action")

    def __init__(self, group: FiniteGroup, field: Field,
                 ring_images: Sequence[GroupRingElement], check: bool = True):
        if len(ring_images) != group.order:
            raise ValueError("need one image per group element")
        self.group, self.field, self.ring_images = group, field, list(ring_images)
        if check:
            if not self.ring_images[group.identity] == GroupRingElement.one(group, field):
                raise ValueError("algebra endomorphism must fix the identity")
            images, mul = self.ring_images, group.mul
            bad = first_failing_pair(group, lambda gs, hs: (
                images[mul[g][h]] != images[g] * images[h] for g in gs for h in hs))
            if bad is not None:
                raise ValueError(f"images are not multiplicative at "
                                 f"({group.names[bad[0]]}, {group.names[bad[1]]})")
        self._action: Optional[Action] = None

    @property
    def action(self) -> Action:
        """The gathers of this map's action on FG, its coefficients over one denominator:
        a stable sort on "is zero" lists each image's support first, then padding."""
        if self._action is None:
            n = self.group.order
            ints, scale = integer_scale([c for img in self.ring_images for c in img.coeffs])
            dense = np.array(ints, dtype=object).reshape(n, n)
            units = np.argsort(dense == 0, axis=1, kind="stable")[:, :(dense != 0).sum(1).max()]
            self._action = action_gathers(self.group, units,
                                          np.take_along_axis(dense, units, axis=1), scale)
        return self._action

    def describe(self) -> str:
        return "algebra-endo"

    @classmethod
    def from_group_endo(cls, endo: Endomorphism, field: Field) -> "AlgebraEndo":
        G = endo.group
        images = [GroupRingElement.basis(G, field, endo.images[g]) for g in range(G.order)]
        return cls(G, field, images, check=False)


EndoLike = Union[Endomorphism, AlgebraEndo]


@functools.lru_cache(maxsize=64)
def _cached(build, *key):
    """``build(*key)``, built once while the key stays among the 64 latest.

    The one cache of what (sigma, tau) or (sigma, tau, field) fix: the
    relator block, the tree plan, the decisive pair rows
    (``decisive_rows``), the inner generator rows and their elimination,
    and the inner rows at all of G (``table_rows``).  Keys compare an
    ``Endomorphism`` by its group object and images, an ``AlgebraEndo`` by
    identity and a field by p, so no entry crosses groups or fields; its
    arrays are read-only.
    """
    return build(*key)


def _shared(build):
    """``build``, answered from ``_cached``."""
    @functools.wraps(build)
    def cached(*key):
        return _cached(build, *key)
    return cached


def _int_array(ints: np.ndarray) -> np.ndarray:
    """An integer array, read-only, in int64 while every |entry| < 2^63 and in
    Python ints (numpy ``object``) past that."""
    if ints.dtype == object and _top(ints) < 2 ** 63:
        ints = ints.astype(np.int64)
    return _read_only(ints)


def _top(ints: np.ndarray) -> int:
    """The largest |entry| of an integer array, 0 when it is empty; exact (no int64 abs)."""
    return max(int(ints.max(initial=0)), -int(ints.min(initial=0)))


def _scaled(values: Sequence) -> Tuple[np.ndarray, int]:
    """Field values as ``integer_scale`` puts them, in one array as ``_int_array``
    keeps it, and L."""
    ints, den = integer_scale(values)
    return _int_array(np.array(ints, dtype=object)), den


def _lowest_terms(field: Field, ints: np.ndarray, den: int) -> Tuple[np.ndarray, int]:
    """An integer array over den as ``integer_scale`` puts its values (``_int_array``):
    residues over 1 over GF(p), where den is 1, and over QQ divided by gcd(den, entries)."""
    if field.p:
        return _int_array(ints % field.p), 1
    e = int(np.gcd.reduce(ints, initial=0))
    g = math.gcd(den, e)  # den when every entry is 0 (e = 0): nothing to divide
    return _int_array(ints // g if 1 < g <= e else ints), den // g


class TwistedDerivation:
    """A (sigma, tau)-derivation, defined by its generator images.

    By the extension theorem these fix it.  ``integer_images`` holds them, a
    read-only integer array of a row per generator name, in order, over one
    L, as ``integer_scale`` puts them (over 1 over GF(p)).  ``images`` maps
    each name to its |G| field elements read off it (``_values``); given,
    it is such a map, coerced (``_scaled``), or (ints, L) in that form.
    The table of all group images is computed in integers on first read
    (``integer_table``: from the ``witness`` of an inner derivation, or from
    the images along group endomorphisms only), and ``table`` is read off
    it.  A derivation constructed from a table keeps it as given.  Over QQ
    an integral coefficient may be an int.  The group, sigma, tau, the
    witness and a table's elements share one group, and the field is that
    of the witness, the table and any algebra endomorphism (``common_field``).
    """

    __slots__ = ("group", "field", "sigma", "tau", "integer_images", "provenance", "witness",
                 "_table", "_integers")

    def __init__(self, group: FiniteGroup, field: Field, sigma: EndoLike, tau: EndoLike,
                 table: Optional[Sequence[GroupRingElement]] = None,
                 provenance: str = "table", witness: Optional[GroupRingElement] = None,
                 images: Union[None, Dict[str, Sequence], Tuple[np.ndarray, int]] = None):
        table = None if table is None else list(table)
        given = [sigma, tau, *([] if witness is None else [witness]), *(table or [])]
        common_group(group, *given)
        common_field(field, *given)
        if table is not None:
            if len(table) != group.order:
                raise ValueError("derivation table must cover every group element")
            images = {name: table[s].coeffs for name, s in group.generators}
        elif images is None:
            raise ValueError("a derivation needs its table or its generator images")
        elif witness is None:
            group_maps(sigma, tau)
        if isinstance(images, dict):
            _check_images(group, images)
            images = _scaled([field.coerce(c) for n, _ in group.generators for c in images[n]])
        self.integer_images = (_int_array(images[0].reshape(-1, group.order)), int(images[1]))
        self.group, self.field, self.sigma, self.tau = group, field, sigma, tau
        self.provenance, self.witness, self._table = provenance, witness, table
        self._integers: Optional[Tuple[np.ndarray, int]] = None

    @classmethod
    def zero(cls, group: FiniteGroup, field: Field, sigma: EndoLike, tau: EndoLike):
        z = GroupRingElement.zero(group, field)
        return cls(group, field, sigma, tau, [z] * group.order, provenance="zero")

    @property
    def table(self) -> List[GroupRingElement]:
        if self._table is None:
            G, F, n = self.group, self.field, self.group.order
            flat = _values(F, *self.integer_table())
            self._table = [GroupRingElement(G, F, flat[i:i + n], coerce=False)
                           for i in range(0, n * n, n)]
        return self._table

    def __call__(self, alpha: GroupRingElement) -> GroupRingElement:
        return sum((self.table[g].scale(a) for g, a in enumerate(alpha.coeffs) if a != 0),
                   GroupRingElement.zero(self.group, self.field))

    def flat(self) -> List:
        return [c for elem in self.table for c in elem.coeffs]

    def integer_table(self) -> Tuple[np.ndarray, int]:
        """The table as one read-only array of |G|^2 integers over one
        denominator L, and L: entry for entry ``integer_scale(flat())``, L the
        lcm of the reduced denominators (1 over GF(p)), so equal tables have
        equal arrays; int64, or Python ints past it (``_int_array``).  Cached.

        A table given is scaled.  Otherwise it is computed in integers, never
        from field elements: the gather of the witness (``_witness_ints``), or
        the walk (``linalg.walk``) of ``integer_images`` as they are, seeded
        with the rows that the cached plan names (a generator named twice by
        its first name), in lowest terms (``_lowest_terms``); a walked entry
        sums at most |G| image entries (``sum_dtype``).
        """
        if self._integers is None:
            G, F, n = self.group, self.field, self.group.order
            if self._table is not None:
                self._integers = _scaled(self.flat())
            elif self.witness is not None:
                self._integers = _witness_ints(self.witness, self.sigma, self.tau,
                                               table_rows(self.sigma, self.tau))
            else:
                (ints, den), plan = self.integer_images, _tree_plan(
                    self.sigma, self.tau, tuple(s for _, s in G.generators))
                T = np.zeros((n, n), dtype=sum_dtype(n, _top(ints), F.p))
                T[plan[3][0]] = ints[plan[3][1]]
                self._integers = _lowest_terms(F, walk(plan[2], T.ravel()), den)
        return self._integers

    @property
    def images(self) -> Dict[str, List]:
        """Each generator name's image, its field elements read off ``integer_images``."""
        ints, den = self.integer_images
        return {name: _values(self.field, row, den)
                for (name, _), row in zip(self.group.generators, ints)}

    def generator_flat(self) -> List:
        """The generator images, concatenated in generator order."""
        return _values(self.field, self.integer_images[0].ravel(), self.integer_images[1])

    def is_zero(self) -> bool:
        return not self.integer_table()[0].any()

    def __eq__(self, other):  # integer tables are canonical (integer_table)
        return (isinstance(other, TwistedDerivation) and other.group is self.group
                and other.field == self.field
                and other.integer_table()[1] == self.integer_table()[1]
                and np.array_equal(other.integer_table()[0], self.integer_table()[0]))

    def __repr__(self):
        return f"TwistedDerivation({self.group.describe()}, {self.field}, {self.provenance})"


# -- free-word evaluation ----------------------------------------------------

def _word_letters(G: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                  support: Dict[str, int], word: Word) -> List[Tuple[str, int, int, int]]:
    """(name, sign, left, right) for each letter of a free word.

    The product-rule extension of f sends the word to the sum of
    ``sign * left f(name) right`` over its letters, where left is sigma
    of the prefix and right is tau of the suffix.  An inverse letter x^-1
    has sign -1 and joins both its prefix and its suffix, since its image
    is ``-sigma(x^-1) f(x) tau(x^-1)``.
    """
    elems = [support[name] if sign > 0 else G.inv[support[name]] for name, sign in word]
    m = len(elems)
    pre = [G.identity] * (m + 1)
    for i in range(m):
        pre[i + 1] = G.mul[pre[i]][sigma.images[elems[i]]]
    suf = [G.identity] * (m + 1)
    for i in range(m - 1, -1, -1):
        suf[i] = G.mul[tau.images[elems[i]]][suf[i + 1]]
    return [(name, 1, pre[i], suf[i + 1]) if sign > 0 else (name, -1, pre[i + 1], suf[i])
            for i, (name, sign) in enumerate(word)]


def free_eval(images: Dict[str, GroupRingElement], sigma: Endomorphism,
              tau: Endomorphism, word: Word) -> GroupRingElement:
    """Evaluate the unique product-rule extension of generator images on a free word.

    ``images`` maps each generator name of sigma's group to its image.
    Letters may be inverses; each contributes one term, sandwiched between
    sigma of its prefix and tau of its suffix (see ``_word_letters``).
    The empty word evaluates to 0.  Kept as the object-algebra reference
    for the index arithmetic of ``relator_block`` and of the tables that
    ``_tree_plan``'s levels walk.
    """
    G = sigma.group
    out = GroupRingElement.zero(G, next(iter(images.values())).field)
    for name, sign, left, right in _word_letters(G, sigma, tau, dict(G.generators), word):
        img = images[name]
        if img.is_zero():
            continue
        term = img.left_mul_elem(left).right_mul_elem(right)
        out = out + term if sign > 0 else out - term
    return out


def extend_from_generators(images: Dict[str, GroupRingElement], sigma: Endomorphism,
                           tau: Optional[Endomorphism] = None) -> TwistedDerivation:
    """Extend generator images to a derivation when every relator image vanishes.

    ``images`` maps every generator name, and nothing else, to its image.
    The relator images are one gather of the images' integers (over L)
    through ``relator_block``, exact in int64 while the longest relator's
    length times their largest |entry| and p stay below 2^63.  Raises
    DerivationRejected carrying the first relator whose image is not 0,
    and that image.
    """
    tau = sigma if tau is None else tau
    G = common_group(sigma, tau, *images.values())
    coeffs = {name: image.coeffs for name, image in images.items()}
    _check_images(G, coeffs)
    if not G.generators:
        raise ValueError("the group has no generator image to take the field from; "
                         "its only derivation is 0 (TwistedDerivation.zero)")
    F = common_field(images[G.generators[0][0]].field, *images.values())
    D = TwistedDerivation(G, F, sigma, tau, provenance="extended", images=coeffs)
    (cols, vals), (ints, lf) = relator_block(sigma, tau), D.integer_images
    flat = _inner_gather(cols, vals, ints.ravel(), sum_dtype(row_weight(vals), _top(ints), F.p))
    values = (flat % F.p if F.p else flat).reshape(-1, G.order)
    bad = np.flatnonzero(values.any(axis=1))
    if len(bad):
        rel, value = G.relators[bad[0]], [F.div(x, lf) for x in values[bad[0]].tolist()]
        raise DerivationRejected(f"relator {word_str(rel)} maps to a nonzero element",
                                 relator=rel, value=GroupRingElement(G, F, value, coerce=False))
    return D


def _check_images(G: FiniteGroup, images: Dict[str, Sequence]):
    """A ValueError naming the entries of ``images`` missing, unknown or not |G| long."""
    names = [name for name, _ in G.generators]
    missing = set(names) - set(images)
    if missing:
        raise ValueError(f"missing images for {sorted(missing)}")
    extra = set(images) - set(names)
    if extra:
        raise ValueError(f"unknown generators in image map: {sorted(extra)}")
    for name in names:
        if len(images[name]) != G.order:
            raise ValueError(f"image of {name!r} has {len(images[name])} coefficients, "
                             f"not |G| = {G.order}")


# -- the spanning-tree walk ------------------------------------------------------

@_shared
def _tree_plan(sigma: Endomorphism, tau: Endomorphism, gens: Tuple[int, ...]):
    """A BFS spanning tree of G over right multiplication by ``gens``, as the
    gathers that extend a table from its roots: (roots, edges, levels, seeds).

    The roots are 1 and the distinct gens other than 1 (X'), in increasing
    order, and seeds (X', the first index of each in ``gens``).  Each other
    element y is reached once, as y = g x with x in X',
    the edge (y, g, x), whose rows of ``pair_block``, +1 at dst and -1 at
    a and b, give D(y) = D(g) tau(x) + sigma(g) D(x).  A BFS level is one
    triple (dst, a, b) of flat indices into a table's rows over its edges,
    reading only the level above and the roots.  About 3 |G|^2 int64
    indices (int32 ones would cost a cast at every gather), read off
    ``pair_block`` a level at a time, so no temporary spans all the edges;
    cached, read-only.  No relator or word is read (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, ch. 5).
    """
    G, given = common_group(sigma, tau), gens
    gens = list(dict.fromkeys(s for s in gens if s != G.identity))
    seeds = tuple(_read_only(np.array(v, dtype=np.int64))
                  for v in (gens, [given.index(s) for s in gens]))
    order, depth, edges = [G.identity] + gens, {G.identity: 0, **dict.fromkeys(gens, 1)}, []
    for g in order:  # BFS: the list grows as it is read
        for x in gens:
            y = G.mul[g][x]
            if y not in depth:
                depth[y] = depth[g] + 1
                order.append(y)
                edges.append((y, g, x))
    cuts = np.flatnonzero(np.diff([depth[e] for e, _, _ in edges])) + 1
    levels = tuple(tuple(_read_only(np.ascontiguousarray(pair_block(sigma, tau, *lv.T[1:])[0].T)))
                   for lv in np.split(np.array(edges, dtype=np.int64).reshape(-1, 3), cuts))
    return tuple(sorted([G.identity] + gens)), tuple(edges), levels, seeds


def _actions(sigma: EndoLike, tau: EndoLike) -> Tuple[Action, Action, int, int]:
    """sigma's and tau's actions over one common scale M, then M and their weight
    on it: the largest |coefficient| sum of an image of sigma plus one of tau."""
    scale = math.lcm(sigma.action.scale, tau.action.scale)
    s, t = sigma.action.on_scale(scale), tau.action.on_scale(scale)
    return s, t, scale, s.weight + t.weight


def pair_block(sigma: EndoLike, tau: EndoLike, gs: Sequence[int],
               hs: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, int]:
    """The product rule at the pairs (gs[i], hs[i]), as one read-only (cols, vals) block.

    Row i |G| + t is M times coefficient t of D(g h) - D(g) tau(h) -
    sigma(g) D(h), g = gs[i] and h = hs[i], over the unknowns x |G| + s,
    coefficient s of D(x): M at g h |G| + t, then minus tau(h)'s and
    sigma(g)'s coefficients at g |G| + t u^-1 and h |G| + v^-1 t for their
    terms u and v (their right and left action indices); +1, -1, -1 for
    group maps.  Also returns M plus the actions' weight, a row's |vals| bound.
    """
    G = common_group(sigma, tau)
    n, gs, hs = G.order, np.asarray(gs, dtype=np.int64), np.asarray(hs, dtype=np.int64)
    sig, tau, scale, weight = _actions(sigma, tau)
    cols = np.concatenate([(G.mul_array[gs, hs][:, None] * n + np.arange(n))[..., None],
                           gs[:, None, None] * n + tau.right[hs].transpose(0, 2, 1),
                           hs[:, None, None] * n + sig.left[gs].transpose(0, 2, 1)], axis=2)
    vals = np.concatenate([np.full((len(gs), 1), scale), -tau.coeffs[hs], -sig.coeffs[gs]], axis=1)
    return (_read_only(cols.reshape(-1, vals.shape[1])), _read_only(np.repeat(vals, n, axis=0)),
            scale + weight)


def _pairs_block(sigma: EndoLike, tau: EndoLike, gs: Sequence[int], hs: Sequence[int]):
    """``pair_block`` at the pairs of gs x hs, g-major."""
    return pair_block(sigma, tau, np.repeat(gs, len(hs)), np.tile(hs, len(gs)))


@_shared
def decisive_rows(sigma: EndoLike, tau: EndoLike) -> Tuple[np.ndarray, np.ndarray, int]:
    """``pair_block`` at the pairs that decide the product rule, G x X g-major,
    X the generators as listed or 1 for none (``groups.decisive_generators``):
    |X| |G|^2 rows, which ``product_rule_violation`` gathers and the pair
    oracle solves; cached."""
    G = common_group(sigma, tau)
    return _pairs_block(sigma, tau, range(G.order), decisive_generators(G))


def product_rule_violation(D: TwistedDerivation) -> Optional[Tuple[int, int]]:
    """First pair (g, h) violating the twisted product rule, or None.

    The rows of ``pair_block`` at the pairs that ``first_failing_pair`` asks
    for, gathered over D's integer table T (``_inner_gather``), vanish (mod
    p) exactly where the rule holds; the decisive rows, all of G against the
    generators, are ``decisive_rows``.  int64 holds while (M + the actions'
    weight) max |T| < 2^63 and p < 2^63 (``sum_dtype``).
    """
    G, p, n = D.group, D.field.p, D.group.order
    ints, _ = D.integer_table()
    top, gens = _top(ints), decisive_generators(G)

    def fails(gs, hs):
        cols, vals, weight = (decisive_rows(D.sigma, D.tau) if len(gs) == n and tuple(hs) == gens
                              else _pairs_block(D.sigma, D.tau, gs, hs))
        diff = _inner_gather(cols, vals, ints, sum_dtype(weight, top, p)).reshape(-1, n)
        return ((diff % p if p else diff) != 0).any(axis=1)

    return first_failing_pair(G, fails)


# None when D satisfies the product rule on all pairs, else the first pair
verify_derivation = product_rule_violation


# -- inner derivations -------------------------------------------------------

def inner_derivation(beta: GroupRingElement, sigma: EndoLike, tau: EndoLike) -> TwistedDerivation:
    """The derivation g -> beta tau(g) - sigma(g) beta, from its generator images,
    gathered in integers (``_witness_ints``)."""
    return TwistedDerivation(beta.group, beta.field, sigma, tau, provenance="inner", witness=beta,
                             images=_witness_ints(beta, sigma, tau, generator_rows(sigma, tau)))


def inner_block(sigma: EndoLike, tau: EndoLike,
                gs: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """beta -> beta tau(g) - sigma(g) beta for each g of gs, as one read-only (cols, vals) block.

    Row i |G| + t is M times coefficient t of the image of gs[i]: tau(g)'s
    coefficients at the columns t u^-1 of its terms u and minus sigma(g)'s
    at v^-1 t, read off tau's right and sigma's left action indices.
    Returns cols, vals, the actions' common scale M and their weight on
    it, which bounds the sum of |vals| in a row.
    """
    n, gs = common_group(sigma, tau).order, np.asarray(gs, dtype=np.int64)
    sig, tau, scale, weight = _actions(sigma, tau)
    vals = np.concatenate([tau.coeffs[gs], -sig.coeffs[gs]], axis=1)
    cols = np.concatenate([tau.right[gs], sig.left[gs]], axis=1).transpose(0, 2, 1)
    return (_read_only(cols.reshape(-1, vals.shape[1])), _read_only(np.repeat(vals, n, axis=0)),
            scale, weight)


def generator_rows(sigma: EndoLike, tau: EndoLike) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``inner_block`` at the generators, the system ``is_inner`` solves; cached."""
    gens = tuple(s for _, s in common_group(sigma, tau).generators)
    return _cached(inner_block, sigma, tau, gens)


@_shared
def table_rows(sigma: EndoLike, tau: EndoLike) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``inner_block`` at every element of G: the |G|^2 rows that gather an
    inner derivation's table from its witness and certify ``is_inner``'s
    solutions; cached."""
    return inner_block(sigma, tau, range(common_group(sigma, tau).order))


def _inner_gather(cols: np.ndarray, vals: np.ndarray, beta: np.ndarray, dtype) -> np.ndarray:
    """A block's rows times the integer array beta, in ``dtype``: for ``inner_block``, M Lb
    D_beta(g)[t] for beta over Lb; for ``pair_block``, M times the rule's defect."""
    return np.einsum("ij,ij->i", vals.astype(dtype, copy=False),
                     np.asarray(beta, dtype=dtype)[cols])


def _witness_ints(beta: GroupRingElement, sigma: EndoLike, tau: EndoLike,
                  rows: Tuple[np.ndarray, np.ndarray, int, int]) -> Tuple[np.ndarray, int]:
    """beta tau(g) - sigma(g) beta at the g of ``rows``, a block of ``inner_block``,
    as integers over one denominator, and it (``_lowest_terms``).

    ``_inner_gather`` of beta's integers (over Lb), in int64 while w max
    |beta| and p stay below 2^63, over M Lb: over GF(p) M = Lb = 1.
    """
    F = common_field(beta.field, sigma, tau)
    common_group(beta, sigma, tau)
    cols, vals, scale, weight = rows
    ints, lb = _scaled(beta.coeffs)
    flat = _inner_gather(cols, vals, ints, sum_dtype(weight, _top(ints), F.p))
    return _lowest_terms(F, flat, scale * lb)


class _InnerSystem:
    """The generator rows A of the inner system over one field, eliminated once.

    The RREF of [A | I] is [R | T], with T invertible and T A = R.  So
    A x = b is solvable exactly when T b vanishes past the rank r, and then
    x, zero off the pivots and (T b)[i] at pivot i, is the solution read
    off the RREF of [A | b]: that RREF is [R | T b], since it is unique.
    T is kept in integers, times M and over one denominator L, as
    ``integer_rref`` gives it (residues over 1 over GF(p), where M = 1), so
    a solve reads x over L Lb off one integer product T b, for b over Lb.
    Each elimination writes one DEBUG record on ``derring.derivations``.
    """

    __slots__ = ("field", "order", "pivots", "T", "den", "weight")

    def __init__(self, sigma: EndoLike, tau: EndoLike, field: Field):
        self.field, n = common_field(field, sigma, tau), common_group(sigma, tau).order
        cols, vals, scale, _ = generator_rows(sigma, tau)
        A = dense_block(field, cols, vals, n)
        m = len(A)
        pivots, R, self.den = integer_rref(field, np.hstack([A, np.eye(m, dtype=A.dtype)]))
        T = R[:, n:].astype(sum_dtype(scale, _top(R)), copy=False) * scale
        self.order, self.pivots = n, [c for c in pivots if c < n]
        self.weight, self.T = row_weight(T), _int_array(T)
        debug_record("derring.derivations", "inner system %dx%d over %s: rank %d",
                     m, n, field, len(self.pivots), shape=(m, n), rank=len(self.pivots))

    def solve(self, ints: np.ndarray, lb: int) -> Optional[Tuple[np.ndarray, int]]:
        """The solution of A x = M b read off the RREF, b the generator images as
        ``ints`` over Lb, as integers over one denominator (``_lowest_terms``), or
        None when there is none; exact in int64 while T's row weight times max |b|
        and p stay below 2^63."""
        F, r = self.field, len(self.pivots)
        dtype = sum_dtype(self.weight, _top(ints), F.p)
        Tb = self.T.astype(dtype, copy=False) @ ints.astype(dtype, copy=False)
        Tb = Tb % F.p if F.p else Tb
        if Tb[r:].any():
            return None
        x = np.zeros(self.order, dtype=dtype)
        x[self.pivots] = Tb[:r]
        return _lowest_terms(F, x, self.den * lb)


def is_inner(D: TwistedDerivation) -> Optional[GroupRingElement]:
    """A witness beta with D = D_beta, or None when D is not inner.

    Solves beta tau(s) - sigma(s) beta = D(s) for the generators s only,
    the rows of ``generator_rows``, eliminated once per (sigma, tau, field)
    and cached (``_InnerSystem``); a solve is then one integer product.
    The witness is unique only up to the twisted center: it is the one
    read off the RREF of the augmented rows [A | M D(s)].  Since sigma
    and tau are multiplicative, beta tau(s) = sigma(s) beta on the
    generators gives it on all of G, so these rows have the same kernel,
    hence the same RREF, as the full |G|^2 system: when the full system is
    solvable, both give the same witness.  A solution is returned only
    when D_beta reproduces all of D's table, which certifies it:
    ``_inner_gather`` of beta's integers (over Lb) through the cached
    ``table_rows``, against D's integer table T (over Ld), exact in int64
    while Ld w max |beta| + M Lb max |T| < 2^63, w the actions' weight on
    scale M.
    """
    G, F, p, (ints, lgen) = D.group, D.field, D.field.p, D.integer_images
    solution = _cached(_InnerSystem, D.sigma, D.tau, F).solve(ints.ravel(), lgen)
    if solution is None:
        return None
    (beta, lb), (table, ld) = solution, D.integer_table()
    cols, vals, scale, weight = table_rows(D.sigma, D.tau)
    dtype = sum_dtype(ld * weight, _top(beta), p, scale * lb * _top(table))
    image = _inner_gather(cols, vals, beta, dtype)
    diff = ld * image - scale * lb * table.astype(dtype, copy=False)  # Ld = M = Lb = 1 over GF(p)
    same = not (diff % p if p else diff).any()
    return GroupRingElement(G, F, _values(F, beta, lb), coerce=False) if same else None


def averaging_witness(D: TwistedDerivation) -> GroupRingElement:
    """The averaged inner witness (1/|G|) sum of D(g^-1) tau(g).

    Only needs tau to be a verified unital algebra endomorphism; requires
    |G| to be invertible in the field.  M L |G| times the witness is one
    gather of D's integer table T (over L) through tau's right action:
    the sum over g and j of ct[g, j] T[g^-1, right[g, j]], of weight |G| w_tau.
    """
    G, F, n = D.group, D.field, D.group.order
    if F.p and n % F.p == 0:
        raise DerivationRejected(
            f"averaging needs |G| = {n} invertible, but the characteristic "
            f"{F.p} divides it")
    tau, (ints, ld) = D.tau.action, D.integer_table()
    T = ints.astype(sum_dtype(n * tau.weight, _top(ints), F.p), copy=False).reshape(n, n)
    acc = (T[G.inv_array[:, None, None], tau.right] * tau.coeffs[:, :, None]).sum(axis=(0, 1))
    inv = F.inv(F.coerce(n * tau.scale * ld))
    return GroupRingElement(G, F, [F.mul(inv, x) for x in acc.tolist()], coerce=False)


# -- solution spaces ---------------------------------------------------------

@_shared
def relator_block(sigma: Endomorphism, tau: Endomorphism) -> Tuple[np.ndarray, np.ndarray]:
    """The linear map from generator images to relator images, as one (cols, vals) block.

    Column k |G| + e is coefficient e of generator k's image; row j |G| + t
    is coefficient t of relator j's image.  A letter (name, sign, left,
    right) of ``_word_letters`` adds ``sign * left f(name) right``, so it
    puts sign at the column of name's coefficient at left^-1 t right^-1.
    The relators are padded to the longest with letters of sign 0.  Cached,
    read-only (``_cached``).
    """
    G = common_group(sigma, tau)
    n, mul, inv, support = G.order, G.mul_array, G.inv_array, dict(G.generators)
    base = {name: k * n for k, (name, _) in enumerate(G.generators)}
    letters = [[(base[name], sign, left, right) for name, sign, left, right
                in _word_letters(G, sigma, tau, support, rel)] for rel in G.relators]
    width = max(map(len, letters), default=0)
    pad = [(0, 0, G.identity, G.identity)]
    start, sign, left, right = np.array(
        [row + pad * (width - len(row)) for row in letters],
        dtype=np.int64).reshape(len(letters), width, 4).transpose(2, 0, 1)
    cols = start[..., None] + mul[mul[inv[left][..., None], np.arange(n)], inv[right][..., None]]
    return (_read_only(cols.transpose(0, 2, 1).reshape(len(letters) * n, width)),
            _read_only(np.repeat(sign, n, axis=0)))


def _relator_kernel(field: Field, sigma: Endomorphism,
                    tau: Endomorphism) -> Tuple[np.ndarray, np.ndarray]:
    """The relator system's ``integer_kernel`` (K, lcms): the one solve of the
    generator images, its unknowns, under the |G| constraints per relator
    (``relator_block``).  ``derivation_space`` reads it, and so do the checks
    of the solver against the paper's closed forms."""
    G = common_group(sigma, tau)
    return integer_kernel(field, dense_block(field, *relator_block(sigma, tau),
                                             len(G.generators) * G.order))


def derivation_space(field: Field, sigma: Endomorphism,
                     tau: Optional[Endomorphism] = None,
                     basis: bool = True) -> Tuple[int, Optional[List[TwistedDerivation]]]:
    """Dimension (and optionally a basis) of all (sigma, tau)-derivations.

    When |G| is invertible in the field (characteristic 0 or not dividing
    |G|), every derivation is inner (the averaging theorem), and the inner
    ones number |G| - r, r the twisted class count (``class_minima``): a
    dimension-only call returns that and eliminates nothing.  A basis, or
    the dimension when the characteristic divides |G|, is read off the
    relator system (``_relator_kernel``): member k is column k of its
    ``integer_kernel`` K over lcms[k].  Each call writes one DEBUG record on
    ``derring.derivations`` naming the path it took.
    """
    tau = sigma if tau is None else tau
    G = group_maps(sigma, tau)
    n = G.order
    if not basis and (not field.p or n % field.p):
        r = int(np.count_nonzero(class_minima(G, sigma, tau) == np.arange(n)))
        debug_record("derring.derivations", "closed form over %s: |G| - r = %d - %d",
                     field, n, r, path="closed form", order=n, classes=r)
        return n - r, None
    K, lcms = _relator_kernel(field, sigma, tau)
    shape = (len(G.relators) * n, len(G.generators) * n)
    debug_record("derring.derivations", "relator solve %dx%d over %s: rank %d",
                 *shape, field, shape[1] - len(lcms), path="relator solve", shape=shape,
                 rank=shape[1] - len(lcms))
    if not basis:
        return len(lcms), None
    return len(lcms), [TwistedDerivation(G, field, sigma, tau, provenance="extended",
                                         images=(col, lcm)) for col, lcm in zip(K.T, lcms.tolist())]


def _tree_seed(sigma: Endomorphism, tau: Endomorphism):
    """The pair rows along a spanning tree of G, eliminated in closed form: the
    seed (|G|^2, roots, levels) of ``linalg._sparse_kernel``, and the tree
    edges (y, g, x).

    The |G| rows of ``pair_block`` at an edge y = g x of ``_tree_plan`` over
    ``G.generators`` have coefficient 1 at a column of y, met after g, so
    these rows are unit-triangular off the root columns.  Over every field
    their kernel is K0, the identity at the (|X'| + 1)|G| root columns
    walked along the plan's levels, entries at most the tree's depth.
    """
    G = common_group(sigma, tau)
    n, plan = G.order, _tree_plan(sigma, tau, tuple(s for _, s in G.generators))
    return (n * n, (np.array(plan[0])[:, None] * n + np.arange(n)).ravel(), plan[2]), plan[1]


def derivation_space_full(field: Field, sigma: Endomorphism,
                          tau: Optional[Endomorphism] = None,
                          basis: bool = True) -> Tuple[int, Optional[List[TwistedDerivation]]]:
    """Oracle solver: all |G| images unknown, the product rule constrained on pairs.

    It never reads the relators or a normal form.  The rule holds on all of
    G x G once it holds on G x X, X the generators (the induction of
    ``groups.first_failing_pair``), so those |X| |G|^2 pair rows, not the
    |G|^3 of every pair, have the same kernel.  They are ``decisive_rows``,
    the block ``product_rule_violation`` reads, and they stream through the
    sparse kernel of ``linalg``, seeded by the kernel of the rows along a
    spanning tree (``_tree_seed``), which meets the seed's precondition: a
    tree edge y = g x has x in X, so its rows are among the rows, and K0
    spans their kernel.  Both modes read that one seeded kernel: the
    dimension is its number of free columns (``sparse_nullity``), and a
    basis is walked from the roots into the canonical form of
    ``Matrix.kernel_basis`` (``sparse_kernel_basis``).  Each solve writes
    one DEBUG record on ``derring.derivations``, with the number of rows
    streamed.
    """
    tau = sigma if tau is None else tau
    G = group_maps(sigma, tau)
    n, (seed, edges) = G.order, _tree_seed(sigma, tau)
    block = decisive_rows(sigma, tau)[:2]
    kernel = sparse_kernel_basis(field, block, seed) if basis else None
    dim = len(kernel) if basis else sparse_nullity(field, block, seed)
    debug_record("derring.derivations",
                 "pair oracle |G| = %d over %s: %d pair rows, %d tree edges, seed width %d, "
                 "rank %d", n, field, len(block[0]), len(edges), len(seed[1]), n * n - dim,
                 order=n, rows=len(block[0]), edges=len(edges), width=len(seed[1]),
                 rank=n * n - dim)
    if not basis:
        return dim, None
    return dim, [TwistedDerivation(G, field, sigma, tau, [
        GroupRingElement(G, field, vec[g * n:(g + 1) * n], coerce=False) for g in range(n)],
        provenance="solver") for vec in kernel]


# -- commutative constructions -------------------------------------------------

def _abelian_char_parts(group: FiniteGroup, p: int):
    """Split each cyclic factor into its p-part and p-regular part: their generators."""
    if group.family == "cyclic":
        factors = [group.family_params]
    elif group.family == "abelian":
        factors = list(group.family_params)
    else:
        raise ValueError("p-part decomposition needs a built-in commutative family")
    p_gens, reg_gens = [], []
    for size, (_, idx) in zip(factors, group.generators):
        v = 1
        while size % p == 0:
            size //= p
            v *= p
        # generator^size has order v (the p-part), generator^v the rest
        if v > 1:
            p_gens.append(_power(group, idx, size))
        if size > 1:
            reg_gens.append(_power(group, idx, v))
    return p_gens, reg_gens


def abelian_basis(group: FiniteGroup, sigma: Endomorphism, field: Field) -> List[TwistedDerivation]:
    """Basis g*D_i of the sigma-derivations of a commutative group algebra.

    Over GF(p) the group splits into a p-part with generators k_1..k_r and
    a p-regular part; D_i sends k_j to delta_ij and the p-regular
    generators to 0, all walked at once; each g D_i is given by its
    generator images, read off D_i's through g^-1.  Each D_i is verified, and
    FG being commutative, so is each g D_i; the list has r*|G| members.
    """
    if not field.p:
        raise ValueError("the commutative basis construction is stated over GF(p)")
    group_maps(sigma)
    if not group.is_abelian():
        raise ValueError("group must be abelian")
    p_gens, reg_gens = _abelian_char_parts(group, field.p)
    if not p_gens:
        return []
    n, r = group.order, len(p_gens)
    # column i walks D_i from D_i(k_i) = 1 and 0 at the other roots
    T = np.zeros((n * n, r), dtype=np.int64)
    T[np.array(p_gens) * n + group.identity, np.arange(r)] = 1
    T = walk(_tree_plan(sigma, sigma, tuple(p_gens + reg_gens))[2], T) % field.p
    # (g D_i)(s)[t] = D_i(s)[g^-1 t]: every member's generator images in one gather
    gens = [s for _, s in group.generators]
    images = T.reshape(n, n, r)[gens][:, group.mul_array[group.inv_array]]
    out = [TwistedDerivation(group, field, sigma, sigma, provenance="extended", images=(member, 1))
           for members in images.transpose(1, 3, 0, 2) for member in members]
    for D in out[group.identity * r:(group.identity + 1) * r]:  # the seeds 1 D_i
        bad = product_rule_violation(D)
        if bad is not None:
            raise DerivationRejected(f"basis construction fails the product rule at pair "
                                     f"{bad} for this endomorphism", pair=bad)
    return out


def cyclic_power_derivation(group: FiniteGroup, sigma: Endomorphism,
                            value: GroupRingElement) -> TwistedDerivation:
    """Derivation of a cyclic group algebra from D(x) = value.

    It extends through the relator x^n, whose image n sigma(x)^(n-1) value
    must vanish; its table is then D(x^k) = k sigma(x)^(k-1) value.
    """
    if common_group(group, sigma, value).family != "cyclic":
        raise ValueError("power-formula derivations need a cyclic group")
    D = extend_from_generators({"x": value}, sigma)
    D.provenance = "power-formula"
    return D
