"""Differential property tests: each index-arithmetic path against a reference.

The references are the object-algebra routes: free-word evaluation, the
convolution product of ``GroupRingElement``, the pair-constraint oracle
and brute-force commutation over every element of a small group ring.
"""

import logging
import math
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from derring.conjugacy import twisted_classes
from derring.derivations import (AlgebraEndo, TwistedDerivation, _inner_gather,
                                 _pairs_block, averaging_witness,
                                 derivation_space, derivation_space_full,
                                 extend_from_generators, free_eval, generator_rows,
                                 inner_block, inner_derivation, is_inner, pair_block,
                                 product_rule_violation, relator_block, verify_derivation)
from derring.errors import DerivationRejected, HomomorphismRejected
from derring.groupring import (GroupRingElement, anticentralizer_basis, apply_endo,
                               centralizer_basis, format_element, parse_element)
from derring.groups import (Endomorphism, FiniteGroup, abelian_group,
                            brute_force_endomorphisms, cyclic_group, dihedral_group,
                            endo_from_images, enumerate_endomorphisms,
                            identity_endomorphism, parse_word, table_group)
from derring import derivations, linalg
from derring.linalg import (GF, QQ, Matrix, dense_block, identity_seed, is_prime, rref_mod_p,
                            sparse_kernel_basis, sparse_rank)
from gauss_jordan import dot, gauss_jordan, rows_rank, solve
from test_derivations import SEED_GROUPS

PROPERTY = settings(max_examples=12, deadline=None)
FIELDS = (GF(2), GF(3), QQ)


def quaternion_group() -> FiniteGroup:
    """Q8 from its multiplication table, with the relators of <i, j>."""
    units = {("1", "1"): (1, "1"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
             ("i", "k"): (-1, "j")}
    elems = [(sign, u) for sign in (1, -1) for u in "1ijk"]

    def times(x, y):
        (sx, ux), (sy, uy) = x, y
        if ux == "1" or uy == "1":
            return sx * sy, uy if ux == "1" else ux
        sign, u = units[(ux, uy)]
        return sx * sy * sign, u

    # a FiniteGroup's names must read back as words, so -1, -i, ... are m1, mi, ...
    names = [("" if s > 0 else "m") + u for s, u in elems]
    mul = [[elems.index(times(x, y)) for y in elems] for x in elems]
    relators = [parse_word("i^4"), parse_word("i^2*j^-2"), parse_word("j^-1*i*j*i")]
    return FiniteGroup(names, mul, [("i", 1), ("j", 2)], "table", relators=relators)


GROUPS = (dihedral_group(3), dihedral_group(4), quaternion_group(), cyclic_group(6))
# the same Q8 table with no relators given: it derives them from its normal forms
Q8_TABLE = table_group(GROUPS[2].mul, GROUPS[2].names, ["i", "j"])


@lru_cache(maxsize=None)
def endomorphisms(group):
    return brute_force_endomorphisms(group)


def elements(group, field):
    return st.lists(st.integers(-3, 3), min_size=group.order, max_size=group.order).map(
        lambda c: GroupRingElement(group, field, c))


@st.composite
def endo_pairs(draw):
    group = draw(st.sampled_from(GROUPS))
    sigma = draw(st.sampled_from(endomorphisms(group)))
    tau = draw(st.sampled_from(endomorphisms(group)))
    return group, draw(st.sampled_from(FIELDS)), sigma, tau


def _sign_twisted(endo, field):
    """g -> chi(g) sigma(g) on a dihedral group, chi the sign of reflections."""
    G = endo.group
    n = G.family_params
    images = [GroupRingElement.basis(G, field, endo.images[g]).scale(1 if g < n else -1)
              for g in range(G.order)]
    return AlgebraEndo(G, field, images)


@lru_cache(maxsize=None)
def algebra_endos(field):
    """Non-group algebra endomorphisms, with group ones to pair them with."""
    d4 = dihedral_group(4)
    out = [(d4, [_sign_twisted(e, field) for e in endomorphisms(d4)[:4]]
            + [AlgebraEndo.from_group_endo(e, field) for e in endomorphisms(d4)[:2]])]
    # x -> u = (1 + x + x^2 - x^3)/2 on C4: u^4 = 1, four terms per image
    c4 = cyclic_group(4)
    u = GroupRingElement(c4, field, [field.coerce("1/2")] * 3 + [field.coerce("-1/2")])
    powers = [GroupRingElement.one(c4, field)]
    for _ in range(3):
        powers.append(powers[-1] * u)
    out.append((c4, [AlgebraEndo(c4, field, powers),
                     AlgebraEndo.from_group_endo(endomorphisms(c4)[1], field)]))
    return out


def reference_inner(beta, sigma, tau):
    """beta tau(g) - sigma(g) beta by convolution products."""
    rs, rt = ring_images(sigma, beta.field), ring_images(tau, beta.field)
    return [beta * rt[g] - rs[g] * beta for g in range(beta.group.order)]


@PROPERTY
@given(endo_pairs(), st.data())
def test_relator_matrix_matches_free_eval(point, data):
    group, field, sigma, tau = point
    n = group.order
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=len(group.generators) * n,
                             max_size=len(group.generators) * n))
    images = {name: GroupRingElement(group, field, vec[k * n:(k + 1) * n])
              for k, (name, _) in enumerate(group.generators)}
    expected = [c for rel in group.relators for c in free_eval(images, sigma, tau, rel).coeffs]
    cols, vals = relator_block(sigma, tau)
    got = [dot(field, row, vec) for row in dense_block(field, cols, vals, len(vec)).tolist()]
    assert got == expected
    # extend_from_generators gathers the integer images through the same block
    assert [field.coerce(x) for x in _inner_gather(cols, vals, vec, object).tolist()] == expected
    values = [(rel, free_eval(images, sigma, tau, rel)) for rel in group.relators]
    coeffs = {name: img.coeffs for name, img in images.items()}
    failing = [(rel, value) for rel, value in values if not value.is_zero()]
    if not failing:
        assert extend_from_generators(images, sigma, tau).images == coeffs
    else:
        with pytest.raises(DerivationRejected) as rejected:
            extend_from_generators(images, sigma, tau)
        assert (rejected.value.relator, rejected.value.value) == failing[0]


@PROPERTY
@given(endo_pairs())
def test_generator_solver_matches_pair_oracle(point):
    group, field, sigma, tau = point
    dim, basis = derivation_space(field, sigma, tau)
    assert dim == derivation_space_full(field, sigma, tau, basis=False)[0]
    assert all(verify_derivation(D) is None for D in basis)


@PROPERTY
@given(endo_pairs(), st.data())
def test_is_inner_witness_reproduces_derivation(point, data):
    group, field, sigma, tau = point
    beta = data.draw(elements(group, field))
    D = inner_derivation(beta, sigma, tau)
    rings = [AlgebraEndo.from_group_endo(e, field) for e in (sigma, tau)]
    assert D.table == reference_inner(beta, *rings)
    witness = is_inner(D)
    assert witness is not None and inner_derivation(witness, sigma, tau) == D
    # a random derivation is inner exactly when it lies in the span of the D_g
    _, basis = derivation_space(field, sigma, tau)
    picks = data.draw(st.lists(st.integers(0, 2), min_size=len(basis), max_size=len(basis)))
    table = [sum((D.table[g].scale(c) for c, D in zip(picks, basis)),
                 GroupRingElement.zero(group, field)) for g in range(group.order)]
    E = TwistedDerivation(group, field, sigma, tau, table)
    inner_rows = [inner_derivation(GroupRingElement.basis(group, field, g), sigma, tau).flat()
                  for g in range(group.order)]
    in_span = rows_rank(field, inner_rows + [E.flat()]) == rows_rank(field, inner_rows)
    witness = is_inner(E)
    assert (witness is not None) == in_span
    if witness is not None:
        assert inner_derivation(witness, sigma, tau) == E


@PROPERTY
@given(st.sampled_from((GF(3), GF(5), QQ)), st.data())
def test_is_inner_with_algebra_endomorphisms(field, data):
    group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    beta = data.draw(elements(group, field))
    D = inner_derivation(beta, sigma, tau)
    assert D.table == reference_inner(beta, sigma, tau)
    assert verify_derivation(D) is None
    witness = is_inner(D)
    assert witness is not None and inner_derivation(witness, sigma, tau) == D


@PROPERTY
@given(st.sampled_from((cyclic_group(4), dihedral_group(3))),
       st.sampled_from((GF(2), GF(3))), st.sampled_from((1, -1)), st.data())
def test_commutator_kernels_against_brute_force(group, field, sign, data):
    beta = data.draw(elements(group, field))
    basis = (centralizer_basis if sign == 1 else anticentralizer_basis)(beta)

    def commutes(alpha):
        return alpha * beta == (beta * alpha).scale(sign)

    assert all(commutes(alpha) for alpha in basis)
    count = sum(commutes(GroupRingElement(group, field, c))
                for c in product(range(field.p), repeat=group.order))
    assert count == field.p ** len(basis)


# -- generator-pair verification and generator-row solves ----------------------

def ring_images(endo, field):
    if isinstance(endo, AlgebraEndo):
        return endo.ring_images
    return [GroupRingElement.basis(endo.group, field, x) for x in endo.images]


def full_scan_violation(D):
    """First (g, h) with D(gh) != D(g) tau(h) + sigma(g) D(h), over all of G x G."""
    G = D.group
    sigma, tau = ring_images(D.sigma, D.field), ring_images(D.tau, D.field)
    for g in range(G.order):
        for h in range(G.order):
            if D.table[G.mul[g][h]] != D.table[g] * tau[h] + sigma[g] * D.table[h]:
                return g, h
    return None


def full_system_witness(D):
    """The solve over all |G|^2 rows; column c is the table of D_c, c in G."""
    G, F = D.group, D.field
    cols = [inner_derivation(GroupRingElement.basis(G, F, c), D.sigma, D.tau).flat()
            for c in range(G.order)]
    solution = solve(F, Matrix(F, cols).transpose().data, D.flat())
    return None if solution is None else tuple(solution)


VARIANTS = ("genuine", "perturbed", "identity-only")


@st.composite
def variant(draw, D, kind):
    """D itself, D with one coefficient moved, or a table nonzero only at D(1)."""
    G, F = D.group, D.field
    table = list(D.table)
    if kind == "perturbed":
        g, t = draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.order - 1))
        coeffs = list(table[g].coeffs)
        coeffs[t] = F.add(coeffs[t], F.coerce(draw(st.integers(1, 1 if F.p == 2 else 2))))
        table[g] = GroupRingElement(G, F, coeffs, coerce=False)
    elif kind == "identity-only":
        table = [GroupRingElement.zero(G, F)] * G.order
        table[G.identity] = draw(elements(G, F).filter(lambda x: not x.is_zero()))
    return TwistedDerivation(G, F, D.sigma, D.tau, table)


def assert_matches_full_checks(E):
    assert product_rule_violation(E) == full_scan_violation(E)
    witness = is_inner(E)
    assert (None if witness is None else tuple(witness.coeffs)) == full_system_witness(E)


@pytest.mark.parametrize("kind", VARIANTS)
@PROPERTY
@given(st.sampled_from(GROUPS[:2] + (Q8_TABLE,) + GROUPS[3:]), st.sampled_from(FIELDS),
       st.data())
def test_generator_checks_match_full_scans(kind, group, field, data):
    sigma = data.draw(st.sampled_from(endomorphisms(group)))
    tau = data.draw(st.sampled_from(endomorphisms(group)))
    _, basis = derivation_space(field, sigma, tau)
    picks = data.draw(st.lists(st.integers(0, 2), min_size=len(basis), max_size=len(basis)))
    beta = data.draw(elements(group, field))
    table = [sum((D.table[g].scale(c) for c, D in zip(picks, basis)),
                 inner_derivation(beta, sigma, tau).table[g]) for g in range(group.order)]
    D = TwistedDerivation(group, field, sigma, tau, table)
    assert full_scan_violation(D) is None
    assert_matches_full_checks(data.draw(variant(D, kind)))


@pytest.mark.parametrize("kind", VARIANTS)
@PROPERTY
@given(st.sampled_from((GF(3), GF(5), QQ)), st.data())
def test_generator_checks_match_full_scans_with_algebra_endomorphisms(kind, field, data):
    group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    D = inner_derivation(data.draw(elements(group, field)), sigma, tau)
    assert_matches_full_checks(data.draw(variant(D, kind)))


# -- the integer checks past int64 -----------------------------------------------

# at 4294967311 an algebra endomorphism's coefficients reach (p - 1)^2 > 2^63 against
# the table's entries; at 2^63 - 25, the largest prime below 2^63, every residue fits
# int64 but the C4 map's four coefficients near p/2 add up past 2^63; 2^63 + 29, the
# least prime past int64, has no int64 residues
EDGE_PRIMES = (GF(4294967311), GF(2 ** 63 - 25), GF(2 ** 63 + 29))
# 31-bit primes: a few of them as denominators put a table's lcm past 2^63
BIG_DENOMINATORS = (1, 3, 2 ** 31 - 1, 2 ** 31 + 11, 2 ** 32 + 15, 2 ** 32 - 5)


@contextmanager
def chosen_dtypes():
    """Every dtype that the derivation checks pick for their integer work, in order."""
    chosen = []
    real = derivations.sum_dtype

    def spy(*bound):
        chosen.append(real(*bound))
        return chosen[-1]

    with mock.patch.object(derivations, "sum_dtype", spy):
        yield chosen


def big_denominator_elements(group):
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from(BIG_DENOMINATORS))
    return st.lists(entry, min_size=group.order, max_size=group.order).map(
        lambda c: GroupRingElement(group, QQ, c))


def gauss_jordan_kernel(field, dense):
    """The kernel basis of dense rows read off ``gauss_jordan``, one vector per
    free column, as ``Matrix.kernel_basis`` gives it."""
    reduced, pivots = gauss_jordan(field, dense)
    basis = []
    for f in (c for c in range(len(dense[0])) if c not in pivots):
        vec = [field.zero()] * len(dense[0])
        vec[f] = field.one()
        for row, pc in zip(reduced, pivots):
            vec[pc] = field.neg(row[f])
        basis.append(vec)
    return basis


@PROPERTY
@given(st.sampled_from(GROUPS), st.sampled_from(EDGE_PRIMES + (GF(3), QQ)),
       st.sampled_from((1, -1)), st.data())
def test_commutator_kernels_match_convolution(group, field, sign, data):
    # residues near p, or denominators whose lcm passes 2^63
    beta = data.draw(elements(group, field) if field.p else big_denominator_elements(group))
    units = [GroupRingElement.basis(group, field, g) for g in range(group.order)]
    columns = [(e * beta - (beta * e).scale(sign)).coeffs for e in units]
    basis = (centralizer_basis if sign == 1 else anticentralizer_basis)(beta)
    assert [v.coeffs for v in basis] == gauss_jordan_kernel(field, list(zip(*columns)))


@pytest.mark.parametrize("kind", VARIANTS)
@PROPERTY
@given(st.sampled_from(EDGE_PRIMES + (QQ,)), st.booleans(), st.data())
def test_integer_checks_past_int64_match_full_scans(kind, field, algebra, data):
    if algebra:
        group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    else:
        group = data.draw(st.sampled_from(GROUPS))
        maps = endomorphisms(group)
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    beta = data.draw(big_denominator_elements(group) if not field.p else elements(group, field))
    D = inner_derivation(beta, sigma, tau)
    assert full_scan_violation(D) is None
    assert_matches_full_checks(data.draw(variant(D, kind)))


def fresh_witness(D):
    """``is_inner`` by a fresh reference solve: ``solve`` on the generator rows of
    ``inner_block`` against M times the generator images, certified on all of D."""
    G, F = D.group, D.field
    cols, vals, scale, _ = inner_block(D.sigma, D.tau, [s for _, s in G.generators])
    x = solve(F, dense_block(F, cols, vals, G.order).tolist(),
              [scale * c for c in D.generator_flat()])
    if x is None or inner_derivation(GroupRingElement(G, F, x), D.sigma, D.tau) != D:
        return None
    return tuple(x)


def assert_cached_witness(D):
    """is_inner, eliminating and then read from the cache, against ``fresh_witness``."""
    expected = fresh_witness(D)
    for _ in range(2):
        witness = is_inner(D)
        assert (None if witness is None else tuple(witness.coeffs)) == expected


@pytest.mark.parametrize("kind", VARIANTS)
@PROPERTY
@given(st.sampled_from((GF(2), GF(3), GF(2 ** 63 + 29), QQ)), st.booleans(), st.data())
def test_cached_is_inner_matches_a_fresh_solve(kind, field, algebra, data):
    derivations._cached.cache_clear()
    # the algebra maps need 1/2 in the field
    if algebra and field.p != 2:
        group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    else:
        group = data.draw(st.sampled_from(GROUPS))
        maps = endomorphisms(group)
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    beta = data.draw(big_denominator_elements(group) if not field.p else elements(group, field))
    D = inner_derivation(beta, sigma, tau)
    if isinstance(sigma, Endomorphism) and isinstance(tau, Endomorphism):
        # plus a member of the derivation space, outer where the characteristic divides |G|
        _, basis = derivation_space(field, sigma, tau)
        E = data.draw(st.sampled_from(basis)) if basis else D
        D = TwistedDerivation(group, field, sigma, tau, images={
            name: (D.table[s] + E.table[s]).coeffs for name, s in group.generators})
    assert_cached_witness(data.draw(variant(D, kind)))


def test_cached_systems_never_cross_groups_or_fields():
    # two D8 objects: maps with equal images hash alike but compare by group
    groups = [dihedral_group(4), dihedral_group(4)]
    maps = [endo_from_images(G, {"a": "a^3", "b": "a*b"}) for G in groups]
    assert hash(maps[0]) == hash(maps[1]) and maps[0] != maps[1]
    blocks = [relator_block(s, s) for s in maps] + [generator_rows(s, s) for s in maps]
    assert blocks[0][0] is not blocks[1][0] and blocks[2][0] is not blocks[3][0]
    assert relator_block(maps[0], maps[0])[0] is blocks[0][0]
    for cols in (blocks[0][0], blocks[2][1]):
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0] = 1
    for G, sigma in zip(groups, maps):
        witness = is_inner(inner_derivation(parse_element(G, QQ, "a + 2*b"), sigma, sigma))
        assert witness.group is G
    # one pair over QQ, then over GF(2), where 2 divides |G| and some members are outer
    sigma = maps[0]
    outer = 0
    for field in (QQ, GF(2)):
        for D in derivation_space(field, sigma)[1]:
            assert_cached_witness(D)
            outer += is_inner(D) is None
    assert outer > 0


def assert_inner_system_is_fraction_rref(sigma, tau, field):
    """``_InnerSystem``'s pivots and T over den against ``gauss_jordan`` of [A | I]."""
    derivations._cached.cache_clear()
    n = sigma.group.order
    cols, vals, scale, _ = generator_rows(sigma, tau)
    A = dense_block(field, cols, vals, n).tolist()
    m = len(A)
    reduced, pivots = gauss_jordan(field, [row + [int(i == j) for j in range(m)]
                                           for i, row in enumerate(A)])
    right = [x for row in reduced for x in row[n:]]
    system = derivations._InnerSystem(sigma, tau, field)
    assert system.pivots == [c for c in pivots if c < n]
    # T over den is M times the right block, den the lcm of its denominators
    assert system.den == (1 if field.p else math.lcm(*(x.denominator for x in right)))
    assert system.T.dtype == np.int64 and system.T.shape == (m, m)
    assert system.T.ravel().tolist() == [scale * x * system.den for x in right]


@pytest.mark.parametrize("n", [4, 6, 8], ids=lambda n: f"D{2 * n}")
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inner_system_is_the_fraction_rref_beside_the_identity(n, field):
    # sigma = tau: a -> a^-1, b -> b; and sigma != tau, with tau: a -> a, b -> a b
    G = dihedral_group(n)
    sigma = endo_from_images(G, {"a": "a^-1", "b": "b"})
    tau = endo_from_images(G, {"a": "a", "b": "a*b"})
    for s, t in ((sigma, sigma), (sigma, tau)):
        assert_inner_system_is_fraction_rref(s, t, field)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_inner_system_of_algebra_maps_is_the_fraction_rref(field):
    # sign-twisted maps of D8 put T over 2; C4's x -> (1 + x + x^2 - x^3)/2 acts over M = 2
    for _, maps in algebra_endos(field):
        for sigma in maps:
            for tau in maps:
                assert_inner_system_is_fraction_rref(sigma, tau, field)


# the benchmark's space-basis points: D12 and D16 under a -> a^s, b -> a^t b
SPACE_BASIS_POINTS = (
    (6, (1, 1), (GF(2), GF(3), QQ)), (6, (2, 1), (QQ,)), (6, (4, 1), (QQ,)),
    (6, (5, 1), (QQ,)), (8, (1, 1), (GF(2), GF(3), QQ)), (8, (2, 1), (GF(2), QQ)),
    (8, (3, 1), (GF(2), QQ)), (8, (5, 1), (GF(2),)), (8, (7, 1), (GF(2),)))


@pytest.mark.parametrize("n, s_t, fields", SPACE_BASIS_POINTS,
                         ids=[f"D{2 * n}-{s}-{t}" for n, (s, t), _ in SPACE_BASIS_POINTS])
def test_space_basis_witnesses_are_the_fraction_solves(n, s_t, fields):
    G = dihedral_group(n)
    sigma = {(e.s, e.t): e for e in enumerate_endomorphisms(G)
             if e.family in ("sigma0", "sigma1")}[s_t]
    for field in fields:
        for D in derivation_space(field, sigma)[1]:
            assert_cached_witness(D)


# beta's coefficients off the center of D8: the central ones cancel from D_beta
BOUND_CASES = [
    # coefficients 1 on a table below p: 3 (p - 1) < 2^63
    (GF(4294967311), False, [1, -2, 3, 0, 5, -1, 7, 2], np.int64),
    # the sign twist has the coefficient p - 1 on the reflections: (p - 1)^2 > 2^63
    (GF(4294967311), True, [1, -2, 3, 0, 5, -1, 7, 2], object),
    (GF(2 ** 63 + 29), False, [1, -2, 3, 0, 5, -1, 7, 2], object),
    (QQ, False, [1, Fraction(1, 2), 3, 5, Fraction(-2, 3), 0, -1, 2], np.int64),
    # a common denominator (2^31 - 1)(2^32 - 5) > 2^62 and numerators up to 5 times it
    (QQ, False, [1, Fraction(1, 2 ** 31 - 1), 3, 5, Fraction(-2, 2 ** 32 - 5), 0, -1, 2],
     object),
]
BOUND_IDS = ["GF(4294967311)-group", "GF(4294967311)-algebra", "GF(2^63+29)", "QQ-small",
             "QQ-large"]


@pytest.mark.parametrize("field, algebra, beta, dtype", BOUND_CASES, ids=BOUND_IDS)
def test_integer_checks_leave_int64_at_their_bound(field, algebra, beta, dtype):
    d8 = dihedral_group(4)
    endo = endo_from_images(d8, {"a": "a^3", "b": "a*b"})
    if algebra:
        endo = _sign_twisted(endo, field)
    D = inner_derivation(GroupRingElement(d8, field, beta), endo, endo)
    with chosen_dtypes() as chosen:
        assert product_rule_violation(D) is None
    assert chosen[-1] is dtype
    with chosen_dtypes() as chosen:
        witness = is_inner(D)
    assert chosen[-1] is dtype
    assert tuple(witness.coeffs) == full_system_witness(D)
    bad = TwistedDerivation(d8, field, endo, endo, D.table[:3] + [D.table[4]] + D.table[4:])
    assert product_rule_violation(bad) == full_scan_violation(bad) is not None
    assert is_inner(bad) is None and full_system_witness(bad) is None


@pytest.mark.parametrize("field", EDGE_PRIMES, ids=repr)
def test_multi_term_algebra_endomorphism_at_large_primes(field):
    c4, (u_map, shift) = algebra_endos(field)[1]
    # each image of x -> u has coefficients near p/2 whose sum is about 2p
    assert u_map.action.weight == max(sum(map(int, img.coeffs)) for img in u_map.ring_images)
    assert (u_map.action.weight > 2 ** 63) == (field.p > 2 ** 62)
    beta = GroupRingElement(c4, field, [1, -2, 3, 5])
    for sigma, tau in ((u_map, u_map), (u_map, shift), (shift, u_map)):
        # D_beta is 0 for sigma = tau on the commutative C4
        D = inner_derivation(beta, sigma, tau)
        with chosen_dtypes() as chosen:
            assert_matches_full_checks(D)
        assert chosen[0] is object or sigma is tau
        for g, t in ((1, 0), (3, 2)):
            table = list(D.table)
            coeffs = list(table[g].coeffs)
            coeffs[t] = field.add(coeffs[t], 1)
            table[g] = GroupRingElement(c4, field, coeffs, coerce=False)
            with chosen_dtypes() as chosen:
                assert_matches_full_checks(TwistedDerivation(c4, field, sigma, tau, table))
            # past 2^62 the weight alone, times an entry of 1, is past int64
            assert chosen[0] is object or field.p < 2 ** 62


@PROPERTY
@given(st.sampled_from((GF(3), GF(4294967311), QQ)), st.booleans(), st.data())
def test_action_gathers_match_convolution(field, algebra, data):
    if algebra:
        group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    else:
        group = data.draw(st.sampled_from(GROUPS))
        maps = endomorphisms(group)
    phi = data.draw(st.sampled_from(maps))
    alpha = data.draw(elements(group, field))
    action, images = phi.action, ring_images(phi, field)
    for g in range(group.order):
        for index, expected in ((action.left, images[g] * alpha),
                                (action.right, alpha * images[g])):
            got = [sum(int(c) * alpha.coeffs[i] for c, i in zip(action.coeffs[g], col))
                   for col in index[g].T]
            assert [x * action.scale for x in expected.coeffs] == \
                [field.coerce(x) for x in got]


def assert_inner_gathers_match_convolution(beta, sigma, tau):
    """The inner images and table, the averaging witness and apply_endo, each
    read off the action gathers, against convolution products."""
    G, F = beta.group, beta.field
    D = inner_derivation(beta, sigma, tau)
    expected = reference_inner(beta, sigma, tau)
    assert all(D.images[name] == expected[s].coeffs for name, s in G.generators)
    assert D.table == expected
    zero, rt = GroupRingElement.zero(G, F), ring_images(tau, F)
    average = sum((expected[G.inv[g]] * rt[g] for g in range(G.order)), zero)
    assert averaging_witness(D) == average.scale(F.inv(F.coerce(G.order)))
    images = ring_images(sigma, F)
    assert apply_endo(sigma, beta) == sum(
        (images[g].scale(c) for g, c in enumerate(beta.coeffs)), zero)


@PROPERTY
@given(st.sampled_from(EDGE_PRIMES + (QQ,)), st.booleans(), st.data())
def test_inner_gathers_past_int64_match_convolution(field, algebra, data):
    if algebra:
        group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    else:
        group = data.draw(st.sampled_from(GROUPS))
        maps = endomorphisms(group)
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    beta = data.draw(big_denominator_elements(group) if not field.p else elements(group, field))
    assert_inner_gathers_match_convolution(beta, sigma, tau)


@pytest.mark.parametrize("field, algebra, beta, dtype", BOUND_CASES, ids=BOUND_IDS)
def test_inner_gathers_leave_int64_at_their_bound(field, algebra, beta, dtype):
    d8 = dihedral_group(4)
    endo = endo_from_images(d8, {"a": "a^3", "b": "a*b"})
    if algebra:
        endo = _sign_twisted(endo, field)
    beta = GroupRingElement(d8, field, beta)
    # the images at the generators, then the lazy table, then the average
    with chosen_dtypes() as chosen:
        D = inner_derivation(beta, endo, endo)
        D.table
        averaging_witness(D)
    assert chosen == [dtype] * 3
    assert_inner_gathers_match_convolution(beta, endo, endo)


def full_pair_block(sigma, tau):
    """``pair_block`` at every pair, g-major, as (cols, vals): the |G|^3 rows whose
    kernel the pair oracle's |X| |G|^2 decisive rows must reach."""
    n = sigma.group.order
    return _pairs_block(sigma, tau, range(n), range(n))[:2]


def dense_pair_kernel(field, sigma, tau):
    """The kernel basis of the rule at every pair, its |G|^3 rows built dense."""
    cols, vals = full_pair_block(sigma, tau)
    n = sigma.group.order
    dense = np.zeros((len(cols), n * n), dtype=np.int64)
    np.add.at(dense, (np.arange(len(cols))[:, None], cols), vals)
    return Matrix(field, dense.tolist()).kernel_basis()


@pytest.mark.parametrize("group", [dihedral_group(3), cyclic_group(6), Q8_TABLE],
                         ids=lambda g: g.describe())
# past int64 the seeded GF(p) basis multiplies K0 by the kernel in Python ints
@pytest.mark.parametrize("field", FIELDS + EDGE_PRIMES, ids=repr)
def test_pair_oracle_basis_is_the_dense_kernel_basis(group, field):
    endos = endomorphisms(group)
    for sigma, tau in ((endos[-1], endos[-1]), (endos[-1], identity_endomorphism(group))):
        dim, basis = derivation_space_full(field, sigma, tau)
        assert [D.flat() for D in basis] == dense_pair_kernel(field, sigma, tau)
        assert dim == len(basis) == derivation_space(field, sigma, tau, basis=False)[0]


def relabelled(group, perm, generators):
    """A table copy of ``group`` with element g at index perm[g]."""
    n = group.order
    mul, names = [[0] * n for _ in range(n)], [None] * n
    for g in range(n):
        names[perm[g]] = group.names[g]
        for h in range(n):
            mul[perm[g]][perm[h]] = perm[group.mul[g][h]]
    return table_group(mul, names, generators)


# D8 with its identity at index 5 and its generators listed b first
D8_RELABELLED = relabelled(dihedral_group(4), [5, 2, 7, 0, 3, 6, 1, 4], ["b", "a"])
SEEDED_GROUPS = {**{f"D{2 * n}": dihedral_group(n) for n in range(3, 9)},
                 "C6": cyclic_group(6), "C2xC4": abelian_group([2, 4]), "Q8": GROUPS[2],
                 "D8 relabelled": D8_RELABELLED}


@pytest.mark.parametrize("group", SEEDED_GROUPS.values(), ids=SEEDED_GROUPS)
@settings(max_examples=8, deadline=None)
@given(st.sampled_from((GF(2), GF(3), GF(2 ** 63 + 29), QQ)), st.data())
def test_seeded_pair_oracle_matches_the_identity_start(group, field, data):
    endos = (enumerate_endomorphisms(group) if group.family == "dihedral"
             else endomorphisms(group))
    sigma = data.draw(st.sampled_from(endos))
    tau = data.draw(st.sampled_from([e for e in endos if e != sigma]))
    n = group.order
    rank = n * n - derivation_space_full(field, sigma, tau, basis=False)[0]
    assert rank == sparse_rank(field, full_pair_block(sigma, tau))
    assert rank == n * n - derivation_space(field, sigma, tau, basis=False)[0]


@pytest.mark.parametrize("group", [g for g in SEEDED_GROUPS.values() if g.order <= 12],
                         ids=[name for name, g in SEEDED_GROUPS.items() if g.order <= 12])
@pytest.mark.parametrize("field", (GF(2), GF(3), GF(2 ** 63 + 29), QQ), ids=repr)
@settings(max_examples=3, deadline=None)
@given(st.data())
def test_decisive_pairs_give_the_kernel_of_every_pair(group, field, data):
    # the oracle streams G x X; its basis is that of all |G|^3 pair rows, vector for vector
    endos = (enumerate_endomorphisms(group) if group.family == "dihedral"
             else endomorphisms(group))
    sigma = data.draw(st.sampled_from(endos))
    tau = data.draw(st.sampled_from([e for e in endos if e != sigma]))
    dim, basis = derivation_space_full(field, sigma, tau)
    assert [D.flat() for D in basis] == dense_pair_kernel(field, sigma, tau)
    assert dim == len(basis) == derivation_space_full(field, sigma, tau, basis=False)[0]


@pytest.mark.parametrize("group", SEED_GROUPS.values(), ids=SEED_GROUPS)
@pytest.mark.parametrize("field", (GF(2), GF(3), GF(2 ** 63 + 29), QQ), ids=repr)
def test_decisive_pairs_on_edge_generator_lists(group, field):
    # no generators but 1, a generator listed twice, 1 named as one: X as listed
    endos = endomorphisms(group)
    n, gens = group.order, len(group.generators)
    for sigma, tau in {(endos[-1], endos[0]), (endos[0], endos[-1]), (endos[-1], endos[-1])}:
        dim, basis = derivation_space_full(field, sigma, tau)
        assert [D.flat() for D in basis] == dense_pair_kernel(field, sigma, tau)
        assert len(derivations.decisive_rows(sigma, tau)[0]) == max(gens, 1) * n * n
        assert all(verify_derivation(D) is None for D in basis)


def test_decisive_rows_are_built_once_per_pair(monkeypatch):
    # an oracle basis over two fields, each member then verified: one G x X block per pair
    built = []

    def spy(sigma, tau, gs, hs):
        if len(gs) == sigma.group.order:
            built.append((sigma, tau))
        return _pairs_block(sigma, tau, gs, hs)

    derivations._cached.cache_clear()
    monkeypatch.setattr(derivations, "_pairs_block", spy)
    d12 = dihedral_group(6)
    pairs = [(endo_from_images(d12, {"a": "a^5", "b": "b"}), identity_endomorphism(d12)),
             (endo_from_images(d12, {"a": "a", "b": "a*b"}),) * 2]
    for sigma, tau in pairs:
        for field in (GF(3), QQ):
            _, basis = derivation_space_full(field, sigma, tau)
            assert len(basis) > 1 and all(verify_derivation(D) is None for D in basis)
    assert built == pairs
    derivations._cached.cache_clear()


# -- the spanning-tree walk past int64 ----------------------------------------------

def free_eval_table(group, field, sigma, tau, images):
    """The table of generator images (coefficient lists) by free-word evaluation
    of each normal form."""
    ring = {name: GroupRingElement(group, field, images[name]) for name, _ in group.generators}
    return [free_eval(ring, sigma, tau, word) for word in group.normal_forms]


def walk_bound(group, images):
    """|G| max |image|, the images over their common denominator: with p, the
    bound that puts the walk in Python ints once it reaches 2^63."""
    ints, _ = linalg.integer_scale([c for name, _ in group.generators for c in images[name]])
    return group.order * max(map(abs, ints), default=0)


@PROPERTY
@given(st.sampled_from(GROUPS), st.sampled_from(EDGE_PRIMES + (QQ,)), st.data())
def test_walked_tables_past_int64_match_free_eval(group, field, data):
    sigma = data.draw(st.sampled_from(endomorphisms(group)))
    tau = data.draw(st.sampled_from(endomorphisms(group)))
    _, basis = derivation_space(field, sigma, tau)
    # residues near p, or denominators whose lcm passes 2^63
    scale = (st.integers(0, field.p - 1) if field.p else
             st.builds(Fraction, st.integers(-3, 3), st.sampled_from(BIG_DENOMINATORS)))
    scales = data.draw(st.lists(scale, min_size=len(basis), max_size=len(basis)))
    # each member's images read once: ``images`` builds its map afresh on every read
    member_images = [D.images for D in basis]
    images = {name: [field.coerce(sum(c * imgs[name][t] for c, imgs in zip(scales, member_images)))
                     for t in range(group.order)] for name, _ in group.generators}
    D = TwistedDerivation(group, field, sigma, tau, images=images)
    with chosen_dtypes() as chosen:
        ints, den = D.integer_table()
    reference = free_eval_table(group, field, sigma, tau, images)
    assert (ints.tolist(), den) == linalg.integer_scale([c for e in reference for c in e.coeffs])
    assert D.table == reference
    bound = max(walk_bound(group, images), field.p)
    assert chosen == [object if bound >= 2 ** 63 else np.int64]


# (2^63 - 1) // 8 is the largest max |image| that D8's walk keeps in int64
@pytest.mark.parametrize("top, dtype", [((2 ** 63 - 1) // 8, np.int64),
                                        ((2 ** 63 - 1) // 8 + 1, object)], ids=["int64", "object"])
def test_walked_table_leaves_int64_at_its_bound(top, dtype):
    d8 = dihedral_group(4)
    sigma = endo_from_images(d8, {"a": "a^3", "b": "a*b"})
    member = derivation_space(QQ, sigma)[1][0]
    images = {name: [top * c for c in member.images[name]] for name, _ in d8.generators}
    assert walk_bound(d8, images) == 8 * top
    D = TwistedDerivation(d8, QQ, sigma, sigma, images=images)
    with chosen_dtypes() as chosen:
        ints, den = D.integer_table()
    assert chosen == [dtype]
    reference = free_eval_table(d8, QQ, sigma, sigma, images)
    assert (ints.tolist(), den) == linalg.integer_scale([c for e in reference for c in e.coeffs])


# -- generator data and lazy tables ------------------------------------------------

def ring_elements(D):
    return {name: GroupRingElement(D.group, D.field, D.images[name])
            for name, _ in D.group.generators}


@PROPERTY
@given(endo_pairs())
def test_basis_tables_are_free_word_extensions(point):
    group, field, sigma, tau = point
    _, basis = derivation_space(field, sigma, tau)
    for D in basis:
        images = ring_elements(D)
        assert all(D.table[g] == free_eval(images, sigma, tau, group.normal_forms[g])
                   for g in range(group.order))
        assert verify_derivation(D) is None


@PROPERTY
@given(st.booleans(), st.sampled_from((GF(3), GF(5), QQ)), st.data())
def test_lazy_inner_table_matches_convolution(algebra, field, data):
    if algebra:
        group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    else:
        group = data.draw(st.sampled_from(GROUPS))
        maps = [AlgebraEndo.from_group_endo(e, field) for e in endomorphisms(group)]
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    beta = data.draw(elements(group, field))
    D = inner_derivation(beta, sigma, tau)
    expected = reference_inner(beta, sigma, tau)
    assert all(D.images[name] == expected[s].coeffs for name, s in group.generators)
    assert D.table == expected


@PROPERTY
@given(endo_pairs(), st.booleans(), st.data())
def test_generator_columns_have_the_rank_of_full_tables(point, dependent, data):
    group, field, sigma, tau = point
    picks = set(data.draw(st.lists(st.integers(0, group.order - 1), max_size=group.order)))
    classes = [c for c in twisted_classes(group, sigma, tau).classes if len(c) > 1]
    if dependent and classes:
        # the D_g of a whole class sum to D of the class sum, which is twisted central: 0
        picks |= set(data.draw(st.sampled_from(classes)))
    members = [inner_derivation(GroupRingElement.basis(group, field, g), sigma, tau)
               for g in sorted(picks)]
    rank = rows_rank(field, [D.generator_flat() for D in members])
    assert rank == rows_rank(field, [D.flat() for D in members])
    if dependent and classes:
        assert rank < len(members)


# -- the elimination engine ----------------------------------------------------

FIRST_PRIME = 2 ** 31 - 1


@st.composite
def engine_matrices(draw):
    """Small rational matrices of five kinds, as lists of rows.

    "unlucky" makes its last row a combination of the others plus
    2^31 - 1 times a unit vector, so a minor is divisible by the engine's
    first prime; "large" has entries up to 10^12, so most reduced RREFs
    need a second CRT prime.
    """
    kind = draw(st.sampled_from(["small", "low-rank", "rational", "large", "unlucky"]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    if kind == "rational":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
    elif kind == "large":
        entry = st.integers(-10 ** 12, 10 ** 12)
    else:
        entry = st.integers(-4, 4)
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    if kind in ("low-rank", "unlucky") and rows > 1:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=rows - 1, max_size=rows - 1))
        j = draw(st.integers(0, cols - 1))
        shift = FIRST_PRIME if kind == "unlucky" else 0
        m[-1] = [sum(c * row[k] for c, row in zip(coeffs, m)) + (shift if k == j else 0)
                 for k in range(cols)]
    return m


@contextmanager
def engine_records():
    """The DEBUG records of derring.linalg emitted inside the block."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    log = logging.getLogger("derring.linalg")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


@PROPERTY
@given(engine_matrices())
@example([[1, 1, 3], [1, 1 + FIRST_PRIME, 5]])
@example([[10 ** 12 + 1, 3, 7], [5, 10 ** 12 - 7, 11]])
def test_engine_rref_matches_fraction_elimination(rows):
    expected_rows, expected_pivots = gauss_jordan(QQ, rows)
    m = Matrix(QQ, rows)
    with engine_records() as records:
        reduced, pivots = m.rref()
    assert pivots == expected_pivots
    assert reduced.data == expected_rows
    # field values are made only at this edge: every entry a rational, zeros too
    assert all(type(x) is linalg._rat for row in reduced.data for x in row)
    assert m.rank() == len(expected_pivots)
    # one prime can certify only its own pivots and entries within its bound
    _, first_pivots = gauss_jordan(GF(FIRST_PRIME), rows)
    bound = math.isqrt(FIRST_PRIME // 2)
    beyond = any(abs(x.numerator) > bound or x.denominator > bound
                 for row in expected_rows for x in row)
    (record,) = records
    assert record.rank == len(pivots)
    if first_pivots != expected_pivots or beyond:
        assert record.primes >= 2


# GF(4294967311) has (p - 1)^2 >= 2^63, so its kernel runs on Python ints
SPARSE_FIELDS = (GF(2), GF(3), GF(FIRST_PRIME), GF(4294967311), QQ)


def entry_block(rows):
    """Rows of (column, value) entries as one (cols, vals) block, padded with
    (0, 0); the values are Python ints (numpy ``object``) past int64."""
    width = max(1, *map(len, rows))
    padded = [(row + [(0, 0)] * width)[:width] for row in rows]
    vals = [[v for _, v in row] for row in padded]
    dtype = np.int64 if all(abs(v) < 2 ** 63 for row in vals for v in row) else object
    return np.array([[c for c, _ in row] for row in padded]), np.array(vals, dtype=dtype)


@st.composite
def sparse_systems(draw):
    """Up to 8 columns and rows of 0-4 (column, value) entries; columns may repeat."""
    cols = draw(st.integers(1, 8))
    value = draw(st.sampled_from([st.integers(-4, 4), st.integers(-2 ** 70, 2 ** 70)]))
    entry = st.tuples(st.integers(0, cols - 1), value)
    return cols, draw(st.lists(st.lists(entry, max_size=4), min_size=1, max_size=12))


@PROPERTY
# the chunk size only trades work for memory: small ones stream a row at a time
@given(st.sampled_from(SPARSE_FIELDS), sparse_systems(), st.booleans(),
       st.sampled_from([1, 2 ** 5, linalg._SPARSE_CHUNK]))
# row 3 is rows 1 + 2 plus (2^31 - 1) e_0: rank 2 modulo 2^31 - 1, 3 over QQ
@example(QQ, (3, [[(0, 1), (1, 2)], [(1, 1), (2, 3)], [(0, 1 + FIRST_PRIME), (1, 3), (2, 3)]]),
         True, 1)
# a zero row beside one of weight 2^63 + 1: the kernel (-1, 2^63) is certified
# by the block's largest row weight, not by its first row's
@example(QQ, (2, [[], [(0, 2 ** 63), (1, 1)]]), False, 1)
def test_sparse_rank_matches_fraction_elimination(field, system, repeated, chunk):
    ncols, rows = system
    dense = [[0] * ncols for _ in rows]
    for row, entries in zip(dense, rows):
        for c, v in entries:
            row[c] += v
    _, expected = gauss_jordan(field, dense)
    # one block with repeated columns, or one of each row's summed entries
    if repeated:
        block = entry_block(rows)
    else:
        block = entry_block([[(c, v) for c, v in enumerate(row) if v] for row in dense])
    with engine_records() as records, mock.patch.object(linalg, "_SPARSE_CHUNK", chunk):
        if not field.p:
            # the lift starts from the kernel modulo the first prime
            _, first = gauss_jordan(GF(FIRST_PRIME), dense)
            assert sparse_rank(GF(FIRST_PRIME), block) == len(first)
        assert sparse_rank(field, block) == len(expected)
    if not field.p:
        # a wrong profile modulo the first prime fails the certificate
        (record,) = records
        assert record.rank == len(expected)
        if first != expected:
            assert record.primes >= 2


@PROPERTY
@given(st.sampled_from(SPARSE_FIELDS + EDGE_PRIMES[1:]), st.data())
def test_sparse_kernel_basis_matches_fraction_elimination(field, data):
    ncols, rows = data.draw(sparse_systems())
    dense = [[0] * ncols for _ in rows]
    for row, entries in zip(dense, rows):
        for c, v in entries:
            row[c] += v
    chunk = data.draw(st.sampled_from([1, 2 ** 5, linalg._SPARSE_CHUNK]))
    with mock.patch.object(linalg, "_SPARSE_CHUNK", chunk):
        assert (sparse_kernel_basis(field, entry_block(rows), identity_seed(ncols))
                == gauss_jordan_kernel(field, dense))


def pair_rows_reference(sigma, tau):
    """The pair-constraint rows as dicts, one table lookup per entry."""
    G = sigma.group
    n = G.order
    mul, inv = G.mul, G.inv
    for g in range(n):
        for h in range(n):
            w, v = tau.images[h], sigma.images[g]
            for t in range(n):
                row = {}
                for key, sign in ((mul[g][h] * n + t, 1), (g * n + mul[t][inv[w]], -1),
                                  (h * n + mul[inv[v]][t], -1)):
                    row[key] = row.get(key, 0) + sign
                yield row


def _row_multiset(rows):
    return Counter(frozenset((c, v) for c, v in row.items() if v) for row in rows)


@pytest.mark.parametrize("group", [dihedral_group(n) for n in range(3, 9)]
                         + [cyclic_group(6), Q8_TABLE], ids=lambda g: g.describe())
def test_pair_rows_match_the_per_row_reference(group):
    endos = (enumerate_endomorphisms(group) if group.family == "dihedral"
             else endomorphisms(group))
    tau_id = identity_endomorphism(group)
    for sigma in endos[::max(1, len(endos) // 4)]:
        for tau in (sigma, tau_id):
            cols, vals = full_pair_block(sigma, tau)
            rows = []
            for cs, vs in zip(cols.tolist(), vals.tolist()):
                row = {}
                for c, v in zip(cs, vs):
                    row[c] = row.get(c, 0) + v
                rows.append(row)
            assert _row_multiset(rows) == _row_multiset(pair_rows_reference(sigma, tau))


def pair_rows_by_convolution(sigma, tau, field, g, h):
    """Rows t of M (D(gh) - D(g) tau(h) - sigma(g) D(h)) at (g, h), as dicts: the
    coefficient of unknown x |G| + s is read off the value at D(x) = s, D = 0 elsewhere,
    by convolution products."""
    G = sigma.group
    n, gh = G.order, G.mul[g][h]
    M = field.coerce(math.lcm(sigma.action.scale, tau.action.scale))
    rs, rt = ring_images(sigma, field), ring_images(tau, field)
    zero, rows = GroupRingElement.zero(G, field), [{} for _ in range(n)]
    for x in {gh, g, h}:
        for s in range(n):
            D = [zero] * n
            D[x] = GroupRingElement.basis(G, field, s)
            value = D[gh] - D[g] * rt[h] - rs[g] * D[h]
            for t, c in enumerate(value.coeffs):
                if c != 0:
                    rows[t][x * n + s] = field.mul(M, c)
    return rows


@PROPERTY
@given(st.sampled_from((GF(3), GF(4294967311), QQ)), st.data())
def test_pair_block_rows_of_algebra_maps_match_convolution(field, data):
    group, maps = data.draw(st.sampled_from(algebra_endos(field)))
    sigma, tau = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
    element = st.integers(0, group.order - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=6))
    gs, hs = zip(*pairs)
    cols, vals, _ = pair_block(sigma, tau, gs, hs)
    n = group.order
    for i, (g, h) in enumerate(pairs):
        rows = []
        for cs, vs in zip(cols[i * n:(i + 1) * n].tolist(), vals[i * n:(i + 1) * n].tolist()):
            row = {}
            for c, v in zip(cs, vs):
                row[c] = field.add(row.get(c, field.zero()), field.coerce(v))
            rows.append({c: v for c, v in row.items() if v != 0})
        assert rows == pair_rows_by_convolution(sigma, tau, field, g, h)


def _prime_at_or_below(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


# the largest prime p with (p - 1)^2 < 2^63, the last one whose residue
# products fit in int64
INT64_PRIME = _prime_at_or_below(math.isqrt(2 ** 63))


@PROPERTY
@given(st.one_of(st.sampled_from([2, 3, 5, 7, INT64_PRIME, 4294967311, 2 ** 63 + 29]),
                 st.integers(11, INT64_PRIME).map(_prime_at_or_below)), st.data())
def test_rref_mod_p_matches_gauss_jordan(p, data):
    rows, cols, inner = (data.draw(st.integers(1, 9)) for _ in range(3))
    residues = st.integers(0, p - 1)
    left = data.draw(st.lists(st.lists(residues, min_size=inner, max_size=inner),
                              min_size=rows, max_size=rows))
    right = data.draw(st.lists(st.lists(residues, min_size=cols, max_size=cols),
                               min_size=inner, max_size=inner))
    # a product of random factors has rank at most `inner`: pivots get skipped
    m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
    reduced, pivots = gauss_jordan(GF(p), m)
    assert tuple(rref_mod_p(m, p)) == pivots
    assert m == reduced


@PROPERTY
@given(st.sampled_from([2, 3, FIRST_PRIME, INT64_PRIME]), st.data())
def test_kernel_update_product_is_exact(p, data):
    rows, inner, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40)), 5
    residues = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    a = data.draw(st.lists(st.lists(residues, min_size=inner, max_size=inner),
                           min_size=rows, max_size=rows))
    b = data.draw(st.lists(st.lists(residues, min_size=cols, max_size=cols),
                           min_size=inner, max_size=inner))
    product = linalg._matmul_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    assert product.tolist() == [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
                                for row in a]


# -- groups given by their tables ------------------------------------------------

def table_copy(group, generators=None):
    return table_group(group.mul, group.names, generators)


TABLE_GROUPS = (table_copy(dihedral_group(4), ["a", "b"]), table_copy(cyclic_group(6), ["x"]),
                table_copy(abelian_group([2, 2]), ["x1", "x2"]),
                table_group(abelian_group([2, 4]).mul),  # greedy generators g1, g4
                Q8_TABLE)


@pytest.mark.parametrize("group", TABLE_GROUPS, ids=lambda g: f"order{g.order}-"
                         + "".join(name for name, _ in g.generators))
def test_derived_relators_decide_endomorphisms(group):
    n, k = group.order, len(group.generators)
    assert len(group.relators) == n * k - n + 1
    assert all(group.eval_word(rel) == group.identity for rel in group.relators)
    accepted = set()
    for choice in product(range(n), repeat=k):
        images = {name: group.normal_forms[x] for (name, _), x in zip(group.generators, choice)}
        try:
            accepted.add(endo_from_images(group, images).images)
        except HomomorphismRejected as rejected:
            # von Dyck: the relators alone refuse every map that is not one
            assert rejected.relator is not None
    assert accepted == {endo.images for endo in brute_force_endomorphisms(group)}


@PROPERTY
@given(st.sampled_from(TABLE_GROUPS), st.sampled_from(FIELDS), st.data())
def test_table_group_solver_matches_pair_oracle(group, field, data):
    sigma = data.draw(st.sampled_from(endomorphisms(group)))
    tau = data.draw(st.sampled_from(endomorphisms(group)))
    dim, basis = derivation_space(field, sigma, tau)
    assert dim == derivation_space_full(field, sigma, tau, basis=False)[0]
    assert all(D.provenance == "extended" and verify_derivation(D) is None for D in basis)


@st.composite
def image_tables(draw, group):
    """A uniform table, a normal-form extension of generator images, an
    endomorphism with one image moved, and for each generator s a map that
    is multiplicative at every (g, s): 1 on <s>, constant on each coset g<s>."""
    n, mul = group.order, group.mul
    values = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    elems = {name: draw(st.integers(0, n - 1)) for name, _ in group.generators}
    moved = list(draw(st.sampled_from(endomorphisms(group))).images)
    moved[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    tables = [values, [group.eval_word_of(group.normal_forms[g], elems) for g in range(n)],
              moved]
    for _, s in group.generators:
        def coset(g):
            orbit = [g]
            while mul[orbit[-1]][s] != g:
                orbit.append(mul[orbit[-1]][s])
            return min(orbit)

        home = coset(group.identity)
        tables.append([group.identity if coset(g) == home else values[coset(g)]
                       for g in range(n)])
    return tables


@PROPERTY
@given(st.sampled_from(GROUPS + TABLE_GROUPS), st.data())
def test_endomorphism_check_names_the_full_scans_first_pair(group, data):
    mul = group.mul
    for images in data.draw(image_tables(group)):
        first = next(((g, h) for g in range(group.order) for h in range(group.order)
                      if images[mul[g][h]] != mul[images[g]][images[h]]), None)
        try:
            Endomorphism(group, images)
        except HomomorphismRejected as rejected:
            assert first is not None and rejected.pair == first
        else:
            assert first is None


def test_trivial_table_group_checks_the_base_pair():
    trivial = table_group([[0]])
    assert trivial.generators == [] and trivial.relators == []
    e = identity_endomorphism(trivial)
    D = TwistedDerivation(trivial, QQ, e, e, [GroupRingElement.one(trivial, QQ)])
    assert verify_derivation(D) == (0, 0)
    assert derivation_space(QQ, e) == (0, []) == derivation_space_full(QQ, e)
    # no generator rows: the witness 0 is certified, or refused, on the whole table
    zero = TwistedDerivation(trivial, QQ, e, e, [GroupRingElement.zero(trivial, QQ)])
    assert is_inner(zero) == GroupRingElement.zero(trivial, QQ) and is_inner(D) is None


IDENTIFIER_NAMED = table_group(dihedral_group(3).mul, ["e", "r", "r2", "s", "rs", "r2s"])


@PROPERTY
@given(st.sampled_from((cyclic_group(6), dihedral_group(4), abelian_group([2, 3]),
                        IDENTIFIER_NAMED, Q8_TABLE)), st.sampled_from((GF(2), GF(3), GF(5), QQ)),
       st.data())
def test_formatted_elements_parse_back(group, field, data):
    coeff = (st.integers(-9, 9) if field.p else
             st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    x = GroupRingElement(group, field, data.draw(
        st.lists(coeff, min_size=group.order, max_size=group.order)))
    assert parse_element(group, field, format_element(x)) == x
