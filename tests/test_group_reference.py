"""Array-built groups and twisted classes against the entry-by-entry reference.

``reference_groups`` builds the family tables one entry at a time and
checks a table by the identity and inverse searches and Light's loop;
these tests require ``derring.groups`` to give the same tables,
listings, presentations and refusals, and ``derring.conjugacy`` the
same classes, orbits, centralizers and centers as orbits listed element
by element.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_groups as ref
from derring.conjugacy import (twisted_center_group, twisted_centralizer, twisted_classes,
                               twisted_orbit)
from derring.groups import (abelian_group, brute_force_endomorphisms, cyclic_group,
                            dihedral_group, enumerate_endomorphisms, table_group)

FAMILIES = ([(cyclic_group, ref.cyclic, n) for n in range(1, 25)]
            + [(dihedral_group, ref.dihedral, n) for n in range(3, 41)]
            + [(abelian_group, ref.abelian, f) for f in ([1], [2, 2], [4, 4], [1, 5], [6, 1, 2],
                                                         [2, 3, 4], [3, 3, 3], [2, 2, 2, 2])])


def assert_table_data(group, mul, names, generators):
    """The group's table, identity, inverses and normal forms are the reference's."""
    assert group.mul == mul and group.mul_array.tolist() == mul
    assert group.identity == ref.identity_of(mul)
    assert group.inv == ref.inverses(mul, names) == group.inv_array.tolist()
    assert group.normal_forms == ref.normal_forms(mul, names, generators)
    assert group.is_abelian() == all(mul[a][b] == mul[b][a]
                                     for a, b in product(range(len(mul)), repeat=2))


@pytest.mark.parametrize("build, reference, arg", FAMILIES,
                         ids=[f"{build.__name__}({arg})" for build, _, arg in FAMILIES])
def test_family_groups_and_table_copies_match_the_reference(build, reference, arg):
    group = build(arg)
    names, mul, generators, relators = reference(arg)
    assert (group.names, group.generators, group.relators) == (names, generators, relators)
    assert_table_data(group, mul, names, generators)
    # a copy given by its table derives its relators from the normal forms
    named = [(name, s) for name, s in generators if name in names]
    copy = table_group(group.mul, names, [name for name, _ in named])
    assert (copy.names, copy.generators) == (names, named)
    assert copy.relators == ref.tree_relators(mul, names, named)
    assert_table_data(copy, mul, names, named)


def corrupted(group, x, y, value):
    mul = [list(row) for row in group.mul]
    mul[x][y] = value
    return mul


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((cyclic_group(65), dihedral_group(36), abelian_group([3, 5, 5]))),
       st.data())
def test_corrupted_tables_past_order_64_are_refused_as_by_the_reference(group, data):
    n = group.order
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    value = data.draw(st.integers(0, n - 1).filter(lambda v: v != group.mul[x][y]))
    mul = corrupted(group, x, y, value)
    expected = ref.refusal(mul, group.names, group.generators)
    # one changed entry leaves no group behind
    assert expected is not None
    with pytest.raises(ValueError) as refused:
        table_group(mul, group.names, [name for name, _ in group.generators])
    assert str(refused.value) == expected


def test_non_associative_table_past_order_64_names_the_reference_triple():
    # D72 with a^2 * a^5 and a^2 * a^6 swapped: an identity and inverses
    # remain, so Light's test is the check that refuses it
    d72 = dihedral_group(36)
    mul = corrupted(d72, 2, 5, 8)
    mul[2][6] = 7
    triple = ref.light_failure(mul, d72.names, d72.generators)
    assert triple is not None
    with pytest.raises(ValueError) as refused:
        table_group(mul, d72.names, ["a", "b"])
    assert str(refused.value) == "table not associative at ({}, {}, {})".format(
        *(d72.names[g] for g in triple))


@pytest.mark.parametrize("mul", [
    [[0, 1], [0, 1]],                   # two left identities and no right one
    [[0, 1, 2], [1, 1, 0], [2, 2, 0]],  # g1 g2 = 1, but g2 g1 = g2
], ids=["one-sided identity", "one-sided inverse"])
def test_one_sided_identities_and_inverses_are_refused_as_by_the_reference(mul):
    names = [f"g{i}" for i in range(len(mul))]
    with pytest.raises(ValueError) as refused:
        table_group(mul)
    assert str(refused.value) == ref.refusal(mul, names, [])


def assert_twisted_data(group, sigma, tau, x):
    """Classes and the center of (sigma, tau), and x's orbit and centralizer,
    against the orbits and stabilizers listed element by element."""
    C = ref.twisted_table(group.mul, group.names, sigma.images, tau.images)
    orbits, stabilizers = ref.orbits_and_stabilizers(C)
    classes = ref.classes_of(orbits)
    partition = twisted_classes(group, sigma, tau)
    assert partition.classes == classes
    assert partition.representatives == [cls[0] for cls in classes]
    assert partition.singleton_count == sum(len(cls) == 1 for cls in classes)
    assert all(type(g) is int for cls in partition.classes for g in cls)
    assert twisted_center_group(group, sigma, tau) == {
        z for z in range(group.order) if all(C[g][z] == z for g in range(group.order))}
    assert twisted_orbit(group, sigma, tau, x) == orbits[x]
    assert twisted_centralizer(group, sigma, tau, x) == stabilizers[x]


@pytest.mark.parametrize("n", range(3, 9))
def test_twisted_data_of_every_dihedral_inventory_pair(n):
    group = dihedral_group(n)
    endos = enumerate_endomorphisms(group)
    for k, (sigma, tau) in enumerate(product(endos, repeat=2)):
        # x runs over the group as the pairs go by
        assert_twisted_data(group, sigma, tau, k % group.order)


TABLE_SOURCES = (dihedral_group(4), abelian_group([2, 4]), cyclic_group(6), dihedral_group(5))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(TABLE_SOURCES), st.data())
def test_twisted_data_of_relabelled_table_groups(source, data):
    n = source.order
    perm = data.draw(st.permutations(range(n)))
    mul, names = [[0] * n for _ in range(n)], [""] * n
    for g in range(n):
        names[perm[g]] = source.names[g]
        for h in range(n):
            mul[perm[g]][perm[h]] = perm[source.mul[g][h]]
    group = table_group(mul, names)
    endos = brute_force_endomorphisms(group)
    sigma, tau = data.draw(st.sampled_from(endos)), data.draw(st.sampled_from(endos))
    for x in range(n):
        assert_twisted_data(group, sigma, tau, x)
