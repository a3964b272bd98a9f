"""Differential property tests: each index-arithmetic path against a reference.

The references are the object-algebra routes: free-word evaluation, the
convolution product of ``GroupRingElement``, the pair-constraint oracle
and brute-force commutation over every element of a small group ring.
"""

from functools import lru_cache
from itertools import product

from hypothesis import given, settings, strategies as st

from derring.derivations import (AlgebraEndo, GeneratorMap, TwistedDerivation,
                                 _relator_matrix, derivation_space, derivation_space_full,
                                 free_eval, inner_derivation, is_inner, verify_derivation)
from derring.groupring import GroupRingElement, anticentralizer_basis, centralizer_basis
from derring.groups import (FiniteGroup, brute_force_endomorphisms, cyclic_group,
                            dihedral_group, parse_word)
from derring.linalg import GF, QQ, rows_rank

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

    names = [("" if s > 0 else "-") + u for s, u in elems]
    mul = [[elems.index(times(x, y)) for y in elems] for x in elems]
    relators = [parse_word("i^4"), parse_word("i^2*j^-2"), parse_word("j^-1*i*j*i")]
    return FiniteGroup(names, mul, [("i", 1), ("j", 2)], "table", relators=relators)


GROUPS = (dihedral_group(3), dihedral_group(4), quaternion_group(), cyclic_group(6))


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


def reference_inner(beta, sigma: AlgebraEndo, tau: AlgebraEndo):
    """beta tau(g) - sigma(g) beta by convolution products."""
    return [beta * tau.ring_images[g] - sigma.ring_images[g] * beta
            for g in range(beta.group.order)]


@PROPERTY
@given(endo_pairs(), st.data())
def test_relator_matrix_matches_free_eval(point, data):
    group, field, sigma, tau = point
    n = group.order
    vec = data.draw(st.lists(st.integers(-3, 3), min_size=len(group.generators) * n,
                             max_size=len(group.generators) * n))
    images = {name: GroupRingElement(group, field, vec[k * n:(k + 1) * n])
              for k, (name, _) in enumerate(group.generators)}
    f = GeneratorMap(group, field, images)
    expected = [c for rel in group.relators for c in free_eval(f, sigma, tau, rel).coeffs]
    got = _relator_matrix(field, sigma, tau).mul_vec([field.coerce(v) for v in vec])
    assert got == expected


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
