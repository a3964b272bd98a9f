"""The closed-form dimension |G| - r against the solvers that read no class.

When |G| is invertible in F, every (sigma, tau)-derivation of FG is inner,
so a dimension-only ``derivation_space`` returns |G| - r, r the twisted
class count, and eliminates nothing.  Each test here compares that with a
solve: the relator system's kernel (``_relator_kernel``) or the pair
oracle ``derivation_space_full``, which never reads the relators.
"""

import logging
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from derring.derivations import _relator_kernel, derivation_space, derivation_space_full
from derring.errors import HomomorphismRejected
from derring.groups import (FiniteGroup, abelian_group, brute_force_endomorphisms,
                            cyclic_group, dihedral_group, endo_from_images,
                            enumerate_endomorphisms, identity_endomorphism, parse_word)
from derring.linalg import GF, QQ
from test_derivations import q16_table_group
from test_properties import quaternion_group

COPRIME_FIELDS = (GF(3), GF(5), GF(7), QQ)


def coprime(group, field):
    return not field.p or group.order % field.p != 0


def closed_form(field, sigma, tau):
    dim, basis = derivation_space(field, sigma, tau, basis=False)
    assert basis is None
    return dim


def solved(field, sigma, tau):
    return len(_relator_kernel(field, sigma, tau)[1])


def q16_endomorphisms():
    """Every endomorphism of the Q16 table group, found through its tree relators."""
    G = q16_table_group()
    out = []
    for a, b in product(G.names, repeat=2):
        try:
            out.append(endo_from_images(G, {"r1s0": a, "r0s1": b}))
        except HomomorphismRejected:
            pass
    return G, out


Q16, Q16_ENDOS = q16_endomorphisms()
# |G| <= 16 and coprime to 3, 5 or 7 for at least one field each
SMALL_GROUPS = {"D6": dihedral_group(3), "D8": dihedral_group(4), "D10": dihedral_group(5),
                "C5": cyclic_group(5), "C6": cyclic_group(6), "C9": cyclic_group(9),
                "C12": cyclic_group(12), "C2xC4": abelian_group([2, 4]),
                "C3xC3": abelian_group([3, 3]), "C2xC6": abelian_group([2, 6])}


def endos_of(group):
    return Q16_ENDOS if group is Q16 else brute_force_endomorphisms(group)


def sampled_pairs(endos, count=12):
    """Up to ``count`` (sigma, tau) pairs with sigma != tau, spread over the list."""
    pairs = [(s, t) for s in endos for t in endos if s != t]
    return pairs[::max(1, len(pairs) // count)][:count]


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_form_is_the_relator_solve_on_the_dihedral_grid(n):
    # the criterion-10 grid: D6-D20, the sigma0 and sigma1 families, sigma = tau
    group = dihedral_group(n)
    checked = 0
    for endo in enumerate_endomorphisms(group):
        if endo.family not in ("sigma0", "sigma1"):
            continue
        for field in COPRIME_FIELDS:
            if coprime(group, field):
                assert closed_form(field, endo, endo) == solved(field, endo, endo), \
                    (n, endo.s, endo.t, field)
                checked += 1
    assert checked


@pytest.mark.parametrize("group", [*SMALL_GROUPS.values(), Q16],
                         ids=[*SMALL_GROUPS, "Q16 table"])
def test_closed_form_is_the_relator_solve_on_twisted_pairs(group):
    for sigma, tau in sampled_pairs(endos_of(group)):
        for field in COPRIME_FIELDS:
            if coprime(group, field):
                assert closed_form(field, sigma, tau) == solved(field, sigma, tau), \
                    (sigma, tau, field)


@pytest.mark.parametrize("group", [*SMALL_GROUPS.values(), Q16],
                         ids=[*SMALL_GROUPS, "Q16 table"])
def test_closed_form_is_the_pair_oracle_up_to_order_16(group):
    endos = endos_of(group)
    pairs = [(e, e) for e in endos[:3]] + sampled_pairs(endos, 4)
    for sigma, tau in pairs:
        for field in COPRIME_FIELDS[::2]:
            if coprime(group, field):
                assert (closed_form(field, sigma, tau)
                        == derivation_space_full(field, sigma, tau, basis=False)[0]), \
                    (sigma, tau, field)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SMALL_GROUPS)), st.data())
def test_closed_form_is_the_relator_solve_for_random_pairs(name, data):
    group = SMALL_GROUPS[name]
    field = data.draw(st.sampled_from([F for F in COPRIME_FIELDS if coprime(group, F)]))
    endos = brute_force_endomorphisms(group)
    sigma, tau = data.draw(st.sampled_from(endos)), data.draw(st.sampled_from(endos))
    assert closed_form(field, sigma, tau) == solved(field, sigma, tau)


def q8_with_uncertified_relators():
    """The Q8 table with relators [i^4, j^4]: they hold, but do not present Q8."""
    q8 = quaternion_group()
    return FiniteGroup(q8.names, q8.mul, [("i", 1), ("j", 2)], "table",
                       relators=[parse_word("i^4"), parse_word("j^4")])


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_coprime_dimension_follows_the_group_not_the_relators(field):
    group = q8_with_uncertified_relators()
    e = identity_endomorphism(group)
    # 8 - 5 conjugacy classes, the pair oracle's count
    assert closed_form(field, e, e) == 3 == derivation_space_full(field, e, basis=False)[0]
    # the relator solve and a basis still trust the relators: nothing certifies
    # that they present the group
    assert solved(field, e, e) == 4 == derivation_space(field, e)[0]


def test_dividing_characteristic_still_trusts_the_relators():
    group = q8_with_uncertified_relators()
    e = identity_endomorphism(group)
    # uncertified relators: the relator solve's 16, not the pair oracle's 10
    assert closed_form(GF(2), e, e) == 16 == solved(GF(2), e, e)
    assert derivation_space_full(GF(2), e, basis=False)[0] == 10


@pytest.mark.parametrize("field, basis, path", [(QQ, False, "closed form"),
                                                (GF(2), False, "relator solve"),
                                                (QQ, True, "relator solve")], ids=str)
def test_each_call_records_its_path(caplog, field, basis, path):
    d8 = dihedral_group(4)
    sigma = endo_from_images(d8, {"a": "a^3", "b": "b"})
    with caplog.at_level(logging.DEBUG, logger="derring.derivations"):
        dim, _ = derivation_space(field, sigma, basis=basis)
    (record,) = [r for r in caplog.records if r.name == "derring.derivations"]
    assert record.path == path
    if path == "closed form":
        # D8 has 5 classes under a -> a^-1, b -> b
        assert (record.order, record.classes, dim) == (8, 5, 3)
    else:
        # three relators, a^4, b^2 and (ab)^2, over the images of a and b
        assert record.shape == (24, 16) and record.rank == 16 - dim
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="derring.derivations"):
        derivation_space(field, sigma, basis=basis)
    assert not caplog.records
