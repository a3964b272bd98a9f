import math
import random
from itertools import product

import pytest

from derring.derivations import AlgebraEndo
from derring.errors import HomomorphismRejected
from derring.groups import (DihedralEndoParams, FiniteGroup, abelian_group,
                            brute_force_endomorphisms, compose, cyclic_group, dihedral_group,
                            endo_from_images, enumerate_endomorphisms, identity_endomorphism,
                            make_group, parse_word, table_group, word_str)
from derring.linalg import QQ


def test_word_parser():
    assert parse_word("a^2*b") == (("a", 1), ("a", 1), ("b", 1))
    assert parse_word("a^-2") == (("a", -1), ("a", -1))
    assert parse_word("1") == ()
    assert word_str(parse_word("a^2*b")) == "a^2*b"
    with pytest.raises(ValueError):
        parse_word("a^^2")


def test_cyclic_listing():
    g = cyclic_group(18)
    assert g.order == 18
    assert g.names[:3] == ["1", "x", "x^2"]
    assert g.names[17] == "x^17"
    assert g.family == "cyclic"


def test_dihedral_structure():
    g = dihedral_group(3)
    assert g.order == 6
    assert not g.is_abelian()
    assert g.names == ["1", "a", "a^2", "b", "a*b", "a^2*b"]
    # b^-1 a b = a^-1
    a, b = 1, 3
    conj = g.mul[g.mul[g.inv[b]][a]][b]
    assert conj == g.inv[a]


def test_dihedral_requires_n_at_least_3():
    with pytest.raises(ValueError):
        dihedral_group(2)


def test_abelian_product():
    g = abelian_group([9, 2])
    assert g.order == 18
    assert len(g.generators) == 2
    assert g.is_abelian()


def test_table_group_rejects_non_associative():
    # swap one entry of the C3 table to break associativity
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    table[2][2] = 2
    with pytest.raises(ValueError):
        table_group(table)


def test_table_group_rejects_non_associative_past_order_24():
    # one wrong entry of the C39 table (34 * 10 = 6 instead of 5); a
    # sampled check of 4,000 seed-0 random triples misses it
    table = [[(i + j) % 39 for j in range(39)] for i in range(39)]
    table[34][10] = 6
    with pytest.raises(ValueError, match="not associative"):
        table_group(table)


@pytest.mark.parametrize("names", [
    ["e", "-r", "r2"],            # -r is not a word
    ["1", "i", "-1"],             # nor is -1
    ["e", "x", "x^3", "x^2"],     # x^3 is the element at index 3, not 2
    ["e", "x", "y^2", "x^3"],     # y names no element
])
def test_table_group_refuses_names_that_do_not_read_back(names):
    table = [[(i + j) % len(names) for j in range(len(names))] for i in range(len(names))]
    with pytest.raises(ValueError, match="does not read back"):
        table_group(table, names)


def test_directly_built_group_refuses_names_that_do_not_read_back():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match="'-r' does not read back"):
        FiniteGroup(["e", "-r", "r2"], table, [("r", 1)], "table")
    assert FiniteGroup(["e", "r", "r2"], table, [("r", 1)], "table").order == 3


@pytest.mark.parametrize("group", [cyclic_group(1), cyclic_group(7), dihedral_group(3),
                                   dihedral_group(12), abelian_group([2, 3, 4])],
                         ids=lambda g: g.describe())
def test_builtin_family_names_read_back(group):
    assert [group.eval_word(parse_word(name)) for name in group.names] == list(range(group.order))


def test_make_group_dispatch():
    assert make_group({"family": "cyclic", "n": 6}).order == 6
    assert make_group({"family": "dihedral", "n": 4}).order == 8
    assert make_group({"family": "abelian", "factors": [2, 2]}).order == 4
    with pytest.raises(ValueError):
        make_group({"family": "simple"})


@pytest.mark.parametrize("group", [cyclic_group(12), dihedral_group(5), abelian_group([4, 3])])
def test_normal_forms_evaluate(group):
    for g in range(group.order):
        assert group.eval_word(group.normal_forms[g]) == g
    for rel in group.relators:
        assert group.eval_word(rel) == group.identity


def test_endo_from_images_sigma1_tag():
    g = dihedral_group(6)
    endo = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    assert endo.family == "sigma1"
    assert (endo.s, endo.t) == (2, 1)


def test_identity_endomorphism_accepted():
    g = dihedral_group(4)
    endo = endo_from_images(g, {"a": "a", "b": "b"})
    assert endo.is_identity
    assert endo == identity_endomorphism(g)


def test_endo_rejection_reports_relator():
    g = dihedral_group(3)
    with pytest.raises(HomomorphismRejected) as err:
        endo_from_images(g, {"a": "a", "b": "a"})
    assert err.value.relator == parse_word("b^2")


def test_endo_unknown_generator():
    g = dihedral_group(3)
    with pytest.raises(ValueError):
        endo_from_images(g, {"a": "a", "b": "b", "c": "a"})
    with pytest.raises(ValueError):
        endo_from_images(g, {"a": "a"})


@pytest.mark.parametrize("n,expected", [(3, 10), (4, 36), (5, 26), (6, 64)])
def test_endomorphism_counts(n, expected):
    count = n * n + 1 if n % 2 else (n + 2) ** 2
    assert count == expected
    assert len(enumerate_endomorphisms(dihedral_group(n))) == expected


def test_enumeration_matches_brute_force():
    # order 12, the brute-force limit, is n = 6
    for n in range(3, 7):
        g = dihedral_group(n)
        enumerated = {(e.images, e.family, e.s, e.t) for e in enumerate_endomorphisms(g)}
        brute = {(e.images, e.family, e.s, e.t) for e in brute_force_endomorphisms(g)}
        assert enumerated == brute


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_endomorphisms(dihedral_group(7))
    with pytest.raises(ValueError):
        enumerate_endomorphisms(cyclic_group(6))


def test_family_partition_counts():
    n = 5
    endos = enumerate_endomorphisms(dihedral_group(n))
    by_family = {}
    for e in endos:
        by_family[e.family] = by_family.get(e.family, 0) + 1
    assert by_family == {"sigma-1": 1, "sigma0": n * (n - 1), "sigma3": n}
    assert [(e.s, e.t) for e in endos if e.family == "sigma-1"] == [(0, 0)]
    n = 6
    endos = enumerate_endomorphisms(dihedral_group(n))
    by_family = {}
    for e in endos:
        by_family[e.family] = by_family.get(e.family, 0) + 1
    assert by_family == {"sigma1": (n - 2) * n, "sigma2": 4, "sigma3": 2 * n,
                         "sigma4": 2 * n, "sigma5": 2 * n}


def _tags(endo):
    return endo.images, endo.family, endo.s, endo.t, endo.describe()


@pytest.mark.parametrize("n", range(3, 11))
def test_generator_words_consistent_with_image_tables(n):
    # each inventory member is rebuilt from the element names of a' and b'
    g = dihedral_group(n)
    for endo in enumerate_endomorphisms(g):
        names = endo.image_names()
        assert _tags(endo_from_images(g, names)) == _tags(endo)
        assert endo.describe() == f"{endo.family}(a -> {names['a']}, b -> {names['b']})"


@pytest.mark.parametrize("n", [3, 4])
def test_composition_closure(n):
    g = dihedral_group(n)
    endos = enumerate_endomorphisms(g)
    by_images = {e.images: e for e in endos}
    for e1, e2 in product(endos, repeat=2):
        composed = compose(e1, e2)
        assert _tags(composed) == _tags(by_images[composed.images])


def test_describe_names_element_images():
    g = dihedral_group(6)
    assert endo_from_images(g, {"a": "a^-1", "b": "b"}).describe() == "sigma1(a -> a^5, b -> b)"
    assert identity_endomorphism(cyclic_group(4)).describe() == "id(x -> x)"


def test_element_orders():
    g = dihedral_group(6)
    assert g.element_order(g.identity) == 1
    assert g.element_order(1) == 6      # a
    assert g.element_order(6) == 2      # b
    rng = random.Random(3)
    for n in (4, 5, 6, 9):
        gg = dihedral_group(n)
        for _ in range(6):
            s = rng.randrange(n)
            # order of a^s agrees with the arithmetic prediction
            expect = n // math.gcd(n, s) if s else 1
            assert gg.element_order(s % n) == expect


def test_dihedral_params():
    g = dihedral_group(6)
    endo = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    params = DihedralEndoParams.from_endo(endo)
    assert (params.m, params.d, params.j0) == (3, 2, 1)
    sigma2 = endo_from_images(g, {"a": "a^3", "b": "a^3"})
    assert sigma2.family == "sigma2"
    with pytest.raises(ValueError):
        DihedralEndoParams.from_endo(sigma2)


def test_words_over_custom_elements():
    g = cyclic_group(18)
    # x^9 and x^2 generate C18 jointly
    words = g.words_over([("k", 9), ("h", 2)])
    for idx, word in enumerate(words):
        assert g.eval_word_of(word, {"k": 9, "h": 2}) == idx
    with pytest.raises(ValueError):
        g.words_over([("h", 2)])  # x^2 alone only reaches the even powers


def test_word_walks_name_an_unbound_letter():
    g = cyclic_group(18)
    with pytest.raises(KeyError, match="unknown generator or element 'y'"):
        g.eval_word(parse_word("x*y"))
    # eval_word_of binds only the names it is given, not the element names
    with pytest.raises(KeyError, match="unknown generator or element 'x'"):
        g.eval_word_of(parse_word("k*x"), {"k": 9})


def test_relators_must_be_words_over_the_generators():
    d6 = dihedral_group(3)
    # a^2 names an element, and a^2 * a = 1 holds, but a relator is a word in
    # the generators: the solvers read its letters as generator names
    relators = [*d6.relators, (("a^2", 1), ("a", 1))]
    with pytest.raises(ValueError, match="relator letter 'a\\^2' is not a generator name"):
        FiniteGroup(d6.names, d6.mul, d6.generators, "table", relators=relators)


def test_cached_table_and_action_arrays_refuse_writes():
    g = dihedral_group(4)
    sigma = endo_from_images(g, {"a": "a^3", "b": "a*b"})
    algebra = AlgebraEndo.from_group_endo(sigma, QQ)
    assert g.mul_array.tolist() == g.mul and g.inv_array.tolist() == g.inv
    # built once: every read returns the same arrays
    assert g.mul_array is g.mul_array and sigma.action is sigma.action
    arrays = [g.mul_array, g.inv_array]
    for action in (sigma.action, algebra.action, algebra.action.on_scale(6)):
        arrays += [action.back, action.left, action.right, action.coeffs]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    assert g.mul_array[0, 1] == g.mul[0][1]
    # a side is built only when read
    phi = endo_from_images(g, {"a": "a", "b": "a^2*b"})
    assert phi.action.left[:, 0].tolist() == [g.mul[g.inv[u]] for u in phi.images]
    assert phi.action._right is None


def test_action_indices_differ_with_the_images():
    g = dihedral_group(4)
    endos = enumerate_endomorphisms(g)
    for side in ("left", "right"):
        indices = {getattr(e.action, side).tobytes() for e in endos}
        assert len(indices) == len({e.images for e in endos}) == len(endos)
    a, b = (endo_from_images(g, {"a": "a", "b": b}) for b in ("b", "a*b"))
    assert a.group is b.group and a.images != b.images
    assert (a.action.left != b.action.left).any() and (a.action.right != b.action.right).any()
    # the same images, built twice, give the same indices
    again = endo_from_images(g, {"a": "a", "b": "b"})
    assert (again.action.left == a.action.left).all()
