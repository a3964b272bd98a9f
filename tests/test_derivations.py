import logging
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from derring import derivations, groupring, linalg
from derring.derivations import (AlgebraEndo, TwistedDerivation, _pairs_block,
                                 _tree_plan, _tree_seed, abelian_basis, averaging_witness,
                                 cyclic_power_derivation, derivation_space,
                                 derivation_space_full, extend_from_generators,
                                 free_eval, inner_block, inner_derivation, is_inner,
                                 relator_block, verify_derivation)
from derring.errors import DerivationRejected
from derring.groups import (FiniteGroup, abelian_group, brute_force_endomorphisms,
                            cyclic_group, dihedral_group, endo_from_images,
                            enumerate_endomorphisms, identity_endomorphism, parse_word,
                            table_group)
from derring.codes import code_report, derivation_matrix, subset_sweep
from derring.conjugacy import (inner_basis, twisted_center_dimension, twisted_center_group,
                               twisted_center_space, twisted_centralizer, twisted_classes,
                               twisted_orbit)
from derring.dihedral import predict
from derring.groupring import GroupRingElement, apply_endo, parse_element
from derring.linalg import GF, QQ, integer_scale
from derring.reference import REFERENCE_TABLES, build_context
from gauss_jordan import rows_rank


def rand_elem(group, field, rng):
    if field.p:
        coeffs = [rng.randrange(field.p) for _ in range(group.order)]
    else:
        coeffs = [rng.randint(-3, 3) for _ in range(group.order)]
    return GroupRingElement(group, field, coeffs)


def d12_reference_derivation(field=None):
    g = dihedral_group(6)
    F = field or GF(2)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    f = {
        "a": parse_element(g, F, "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b"),
        "b": parse_element(g, F, "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b")}
    return g, F, sigma, extend_from_generators(f, sigma)


# -- free word evaluation -----------------------------------------------------

def test_free_eval_empty_word_is_zero():
    g = dihedral_group(3)
    f = {name: GroupRingElement.zero(g, QQ) for name, _ in g.generators}
    sigma = identity_endomorphism(g)
    assert free_eval(f, sigma, sigma, ()).is_zero()


def test_free_eval_kills_cancelling_letters():
    g = dihedral_group(3)
    rng = random.Random(5)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    tau = identity_endomorphism(g)
    for _ in range(6):
        f = {"a": rand_elem(g, QQ, rng), "b": rand_elem(g, QQ, rng)}
        for word in ("a*a^-1", "a^-1*a", "b*b^-1"):
            assert free_eval(f, sigma, tau, parse_word(word)).is_zero()


def test_free_eval_trivial_endomorphism_doubles_b_image():
    g = dihedral_group(3)
    sigma = endo_from_images(g, {"a": "1", "b": "1"})
    rng = random.Random(6)
    alpha = rand_elem(g, QQ, rng)
    f = {"a": GroupRingElement.zero(g, QQ), "b": alpha}
    assert free_eval(f, sigma, sigma, parse_word("b^2")) == alpha + alpha


def test_extension_rejects_trivial_endo_with_unit_image():
    g = dihedral_group(3)
    F = GF(3)
    sigma = endo_from_images(g, {"a": "1", "b": "1"})
    f = {"a": GroupRingElement.zero(g, F), "b": GroupRingElement.one(g, F)}
    with pytest.raises(DerivationRejected) as err:
        extend_from_generators(f, sigma)
    assert err.value.relator == parse_word("b^2")
    assert err.value.value.coeffs[g.identity] == 2


def test_zero_map_extends_to_zero_derivation():
    g = dihedral_group(4)
    sigma = identity_endomorphism(g)
    D = extend_from_generators({name: GroupRingElement.zero(g, GF(5))
                                for name, _ in g.generators}, sigma)
    assert D.is_zero()
    assert verify_derivation(D) is None


def test_reference_extension_accepted_and_verified():
    g, F, sigma, D = d12_reference_derivation()
    assert verify_derivation(D) is None
    assert D.table[g.identity].is_zero()


def test_mutated_table_caught():
    g, F, sigma, D = d12_reference_derivation()
    table = [e.copy() for e in D.table]
    table[1] = table[1] + GroupRingElement.one(g, F)
    bad = TwistedDerivation(g, F, sigma, sigma, table)
    assert verify_derivation(bad) is not None


# -- solution spaces -----------------------------------------------------------

def test_known_dimensions():
    d6 = dihedral_group(3)
    assert derivation_space(GF(7), identity_endomorphism(d6), basis=False)[0] == 3
    c18 = cyclic_group(18)
    assert derivation_space(GF(2), identity_endomorphism(c18), basis=False)[0] == 18
    assert derivation_space(GF(2), endo_from_images(c18, {"x": "x^5"}), basis=False)[0] == 18
    c6 = cyclic_group(6)
    assert derivation_space(QQ, identity_endomorphism(c6), basis=False)[0] == 0
    d12 = dihedral_group(6)
    sigma1 = endo_from_images(d12, {"a": "a^2", "b": "a*b"})
    assert derivation_space(GF(2), sigma1, basis=False)[0] == 16


def test_space_basis_members_verify():
    d6 = dihedral_group(3)
    sigma = endo_from_images(d6, {"a": "a^2", "b": "a*b"})
    for F in (GF(2), GF(3), QQ):
        dim, basis = derivation_space(F, sigma)
        assert len(basis) == dim
        for D in basis:
            assert verify_derivation(D) is None
        if dim:
            assert rows_rank(F, [D.flat() for D in basis]) == dim


def test_generator_solver_matches_full_oracle_samples():
    d6 = dihedral_group(3)
    for endo in enumerate_endomorphisms(d6):
        for F in (GF(3), QQ):
            a = derivation_space(F, endo, basis=False)[0]
            b = derivation_space_full(F, endo, basis=False)[0]
            assert a == b
    for group in (cyclic_group(6), cyclic_group(12), abelian_group([4, 2])):
        e = identity_endomorphism(group)
        for F in (GF(2), GF(3), QQ):
            assert derivation_space(F, e, basis=False)[0] == \
                derivation_space_full(F, e, basis=False)[0]


def tree_rows(sigma, tau, edges):
    """The pair rows of the tree edges y = g x, (g, x) the pair, dense."""
    n = sigma.group.order
    cols, vals, _ = _pairs_block(sigma, tau, range(n), range(n))
    picked = [(g * n + x) * n + t for _, g, x in edges for t in range(n)]
    dense = np.zeros((len(picked), n * n), dtype=np.int64)
    np.add.at(dense, (np.arange(len(picked))[:, None], cols[picked]), vals[picked])
    return dense


_D6 = dihedral_group(3)
SEED_GROUPS = {
    # its one generator x names the identity: the tree has no edges
    "trivial": cyclic_group(1),
    "cyclic": cyclic_group(6),
    # D6 with a listed twice, as a and c, and b first
    "repeated": FiniteGroup(_D6.names, _D6.mul, [("b", 3), ("a", 1), ("c", 1)], "table"),
    "identity named": table_group(_D6.mul, _D6.names, ["1", "b", "a"]),
}


@pytest.mark.parametrize("group", SEED_GROUPS.values(), ids=SEED_GROUPS)
def test_tree_seed_is_the_kernel_of_the_tree_rows(group):
    n, endos = group.order, brute_force_endomorphisms(group)
    roots = sorted({group.identity} | {s for _, s in group.generators})
    for sigma, tau in ((endos[-1], endos[0]), (endos[0], endos[-1]), (endos[-1], endos[-1])):
        (ncols, free, levels), edges = _tree_seed(sigma, tau)
        # K0, which the seed describes: the identity at the roots, walked
        K0 = np.zeros((ncols, len(free)), dtype=np.int64)
        K0[free, np.arange(len(free))] = 1
        K0 = linalg.walk(levels, K0)
        assert K0.shape == (n * n, len(roots) * n) and len(edges) == n - len(roots)
        assert sorted(y for y, _, _ in edges) == sorted(set(range(n)) - set(roots))
        assert free.tolist() == [r * n + t for r in roots for t in range(n)]
        assert (K0[free] == np.eye(len(free), dtype=np.int64)).all()
        rows = tree_rows(sigma, tau, edges)
        assert not (rows @ K0).any()
        # the tree rows are independent: K0, of full column rank, spans their kernel
        for field in (GF(2), QQ):
            assert rows_rank(field, rows.tolist()) == len(rows) == n * n - K0.shape[1]
            assert (derivation_space_full(field, sigma, tau, basis=False)[0]
                    == derivation_space(field, sigma, tau, basis=False)[0])


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_pair_oracle_at_order_64(field):
    d64 = dihedral_group(32)
    sigma = endo_from_images(d64, {"a": "a^3", "b": "a*b"})
    assert derivation_space(field, sigma, basis=False)[0] == 45
    assert derivation_space_full(field, sigma, basis=False)[0] == 45


def test_pair_oracle_basis_at_order_64_over_qq():
    d64 = dihedral_group(32)
    sigma = endo_from_images(d64, {"a": "a^3", "b": "a*b"})
    dim, basis = derivation_space_full(QQ, sigma, basis=True)
    assert dim == len(basis) == 45
    assert all(verify_derivation(D) is None for D in basis)


@pytest.mark.parametrize("basis", [False, True])
def test_pair_oracle_logs_each_solve(caplog, basis):
    d16 = dihedral_group(8)
    sigma = endo_from_images(d16, {"a": "a^3", "b": "a*b"})
    with caplog.at_level(logging.DEBUG, logger="derring.derivations"):
        dim, _ = derivation_space_full(QQ, sigma, basis=basis)
    (record,) = [r for r in caplog.records if r.name == "derring.derivations"]
    # the rows of G x {a, b}; 16 - 3 elements off the roots 1, a and b; a seed
    # column per root and coefficient
    assert (record.order, record.rows, record.edges, record.width, record.rank) == (
        16, 2 * 256, 13, 48, 256 - dim)
    assert dim == 9
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="derring.derivations"):
        derivation_space_full(GF(3), sigma, basis=basis)
    assert not caplog.records


def test_full_solver_basis_verifies():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    dim, basis = derivation_space_full(GF(5), e)
    assert dim == len(basis) == 3
    for D in basis:
        assert verify_derivation(D) is None


# -- inner derivations ----------------------------------------------------------

def test_inner_derivation_examples():
    d6 = dihedral_group(3)
    F = GF(2)
    e = identity_endomorphism(d6)
    beta = parse_element(d6, F, "a")
    D = inner_derivation(beta, e, e)
    assert D.table[d6.index_of("b")] == parse_element(d6, F, "a*b + a^2*b")
    central = parse_element(d6, F, "a + a^2")
    assert inner_derivation(central, e, e).is_zero()
    one = GroupRingElement.one(d6, F)
    assert inner_derivation(one, e, e).is_zero()


def test_constructed_inner_has_witness():
    g = dihedral_group(4)
    F = GF(3)
    sigma = endo_from_images(g, {"a": "a^3", "b": "a^2*b"})
    rng = random.Random(12)
    for _ in range(5):
        beta = rand_elem(g, F, rng)
        D = inner_derivation(beta, sigma, sigma)
        assert verify_derivation(D) is None
        witness = is_inner(D)
        assert witness is not None
        assert inner_derivation(witness, sigma, sigma) == D


def test_is_inner_refuses_table_inner_only_on_generators():
    # D agrees with D_beta on a and b but not at a^2; the generator rows
    # alone are solved by beta, so only the full-table check refuses it
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    F = QQ
    beta = parse_element(d6, F, "1 + 2*a + b")
    inner = inner_derivation(beta, e, e)
    table = list(inner.table)
    a2 = d6.index_of("a^2")
    table[a2] = table[a2] + GroupRingElement.one(d6, F)
    D = TwistedDerivation(d6, F, e, e, table)
    assert all(D.table[s] == inner.table[s] for _, s in d6.generators)
    assert is_inner(D) is None
    a = d6.index_of("a")
    assert verify_derivation(D) == (a, a)


def test_product_rule_checks_every_generator():
    # E(a^k) = 0 and E(b a^k) = a^k satisfy the rule at every (g, a) and
    # fail it first at (a, b)
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    table = [GroupRingElement.zero(d6, QQ)] * 3 + [
        parse_element(d6, QQ, text) for text in ("1", "a^2", "a")]
    assert [d6.names[d6.mul[3][k]] for k in (1, 2)] == ["a^2*b", "a*b"]
    D = TwistedDerivation(d6, QQ, e, e, table)
    assert verify_derivation(D) == (d6.index_of("a"), d6.index_of("b"))


def test_outer_detection_gf3_d6():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    dim, basis = derivation_space(GF(3), e)
    assert dim == 4
    witnesses = [is_inner(D) for D in basis]
    assert any(w is None for w in witnesses)


def test_all_inner_gf7_d6():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    dim, basis = derivation_space(GF(7), e)
    assert dim == 3
    for D in basis:
        witness = is_inner(D)
        assert witness is not None
        assert inner_derivation(witness, e, e) == D


# p does not divide |D20|, so every derivation is inner; rank 2^32 < p needs
# the Python elimination path, where (p - 1)^2 overflows int64
@pytest.mark.parametrize("images", [{"a": "a", "b": "b"}, {"a": "a^2", "b": "a^4*b"}])
def test_dimension_at_prime_above_int64_square_bound(images):
    d20 = dihedral_group(10)
    sigma = endo_from_images(d20, images)
    dim, _ = derivation_space(GF(4294967311), sigma, basis=False)
    assert dim == d20.order - twisted_classes(d20, sigma).r == 12


# -- averaging -------------------------------------------------------------------

def test_averaging_zero_derivation():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    D = TwistedDerivation.zero(d6, GF(5), e, e)
    gamma = averaging_witness(D)
    assert inner_derivation(gamma, e, e).is_zero()


def test_averaging_reconstructs_solver_basis():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    for F in (GF(7), QQ):
        _, basis = derivation_space(F, e)
        for D in basis:
            gamma = averaging_witness(D)
            assert inner_derivation(gamma, e, e) == D


def test_averaging_requires_invertible_order():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    D = TwistedDerivation.zero(d6, GF(2), e, e)
    with pytest.raises(DerivationRejected):
        averaging_witness(D)


def test_averaging_with_algebra_endomorphism():
    # C2 over the rationals with the non-group algebra map x -> -1
    c2 = cyclic_group(2)
    images = [GroupRingElement.one(c2, QQ),
              GroupRingElement(c2, QQ, [-1, 0])]
    sigma = AlgebraEndo(c2, QQ, images)
    tau = AlgebraEndo.from_group_endo(identity_endomorphism(c2), QQ)
    beta = parse_element(c2, QQ, "x")
    D = inner_derivation(beta, sigma, tau)
    assert verify_derivation(D) is None
    assert D.table[1] == parse_element(c2, QQ, "1 + x")
    gamma = averaging_witness(D)
    assert inner_derivation(gamma, sigma, tau) == D
    assert is_inner(D) is not None


def test_algebra_endo_derivation_needs_a_table_or_a_witness():
    # images alone extend only along group endomorphisms; an inner derivation
    # of algebra maps carries its witness, which builds its table
    c2 = cyclic_group(2)
    sigma = AlgebraEndo(c2, QQ, [GroupRingElement.one(c2, QQ), GroupRingElement(c2, QQ, [-1, 0])])
    tau = AlgebraEndo.from_group_endo(identity_endomorphism(c2), QQ)
    with pytest.raises(ValueError, match="group endomorphisms"):
        TwistedDerivation(c2, QQ, sigma, tau, images={"x": [QQ.one(), QQ.one()]})
    D = inner_derivation(parse_element(c2, QQ, "x"), sigma, tau)
    assert D.table[1] == parse_element(c2, QQ, "1 + x") and verify_derivation(D) is None


def test_algebra_endo_rejects_non_multiplicative():
    c2 = cyclic_group(2)
    bad = [GroupRingElement.one(c2, QQ), parse_element(c2, QQ, "2*x")]
    with pytest.raises(ValueError):
        AlgebraEndo(c2, QQ, bad)


def test_algebra_endo_names_first_failing_pair():
    # only the image of a^2*b is wrong: the generator pairs catch it, and
    # the message names the first failing pair over all of G x G
    d6 = dihedral_group(3)
    images = [GroupRingElement.basis(d6, QQ, g) for g in range(d6.order)]
    images[d6.index_of("a^2*b")] = parse_element(d6, QQ, "a*b")
    with pytest.raises(ValueError, match=r"not multiplicative at \(a, a\*b\)"):
        AlgebraEndo(d6, QQ, images)


def test_algebra_endo_checks_every_generator():
    # phi(a^k) = a^k and phi(b a^k) = a^(k+1) is multiplicative at every
    # (g, a) but phi(b) phi(b) = a^2 != phi(1)
    d6 = dihedral_group(3)
    images = [GroupRingElement.basis(d6, QQ, d6.index_of(name))
              for name in ("1", "a", "a^2", "a", "1", "a^2")]
    with pytest.raises(ValueError, match=r"not multiplicative at \(a, b\)"):
        AlgebraEndo(d6, QQ, images)


# -- commutative constructions ---------------------------------------------------

def test_abelian_basis_c18():
    c18 = cyclic_group(18)
    e = identity_endomorphism(c18)
    basis = abelian_basis(c18, e, GF(2))
    assert len(basis) == 18
    for D in basis[:4]:
        assert verify_derivation(D) is None
    assert rows_rank(GF(2), [D.flat() for D in basis]) == 18


def test_abelian_basis_c24_matches_solver_dimension():
    c24 = cyclic_group(24)
    e = identity_endomorphism(c24)
    basis = abelian_basis(c24, e, GF(3))
    assert len(basis) == 24
    assert derivation_space(GF(3), e, basis=False)[0] == 24
    assert rows_rank(GF(3), [D.flat() for D in basis]) == 24


def test_abelian_basis_p_regular_group_is_trivial():
    c6 = cyclic_group(6)
    assert abelian_basis(c6, identity_endomorphism(c6), GF(5)) == []


def test_abelian_basis_on_product_group():
    g = abelian_group([8, 3])
    e = identity_endomorphism(g)
    basis = abelian_basis(g, e, GF(3))
    assert len(basis) == 24
    for D in basis[:3]:
        assert verify_derivation(D) is None


# -- power-formula derivations ----------------------------------------------------

def test_cyclic_power_accepted_cases():
    c18 = cyclic_group(18)
    e = identity_endomorphism(c18)
    v = parse_element(c18, GF(2), "1 + x + x^2 + x^3 + x^4 + x^5 + x^8 + x^11")
    D = cyclic_power_derivation(c18, e, v)
    assert verify_derivation(D) is None
    assert D.table[2].is_zero()  # even powers vanish in characteristic 2

    c24 = cyclic_group(24)
    s5 = endo_from_images(c24, {"x": "x^5"})
    v24 = parse_element(c24, GF(3), "1 + x + x^3 + x^4 + x^5 + x^7 + x^9 + x^12 + x^14")
    assert verify_derivation(cyclic_power_derivation(c24, s5, v24)) is None


def test_cyclic_power_rejected_over_rationals():
    c6 = cyclic_group(6)
    e = identity_endomorphism(c6)
    with pytest.raises(DerivationRejected) as err:
        cyclic_power_derivation(c6, e, GroupRingElement.one(c6, QQ))
    assert err.value.relator == parse_word("x^6")


def power_formula_table(sigma, value):
    """The closed formula D(x^k) = k sigma(x)^(k-1) value, x^k at index k."""
    G, F = value.group, value.field
    table, power = [GroupRingElement.zero(G, F)], G.identity
    for k in range(1, G.order):
        table.append(value.left_mul_elem(power).scale(F.coerce(k)))
        power = G.mul[power][sigma.images[G.generator_index("x")]]
    return table


def test_power_derivations_match_the_closed_formula():
    # the relator x^n maps to n sigma(x)^(n-1) v: it vanishes exactly when
    # the characteristic divides n, and never on C1, where D(x) = v itself
    for n in range(1, 13):
        group = cyclic_group(n)
        for F in (GF(2), GF(3), GF(5), QQ):
            for j in range(n):
                sigma = endo_from_images(group, {"x": f"x^{j}"})
                for g in range(n):
                    v = GroupRingElement.basis(group, F, g)
                    if F.p and n % F.p == 0:
                        D = cyclic_power_derivation(group, sigma, v)
                        assert D.provenance == "power-formula"
                        assert D.table == power_formula_table(sigma, v), (n, F, j, g)
                    else:
                        with pytest.raises(DerivationRejected) as err:
                            cyclic_power_derivation(group, sigma, v)
                        assert err.value.relator == parse_word(f"x^{n}"), (n, F, j, g)
    c1 = cyclic_group(1)
    with pytest.raises(DerivationRejected, match="relator x maps"):
        cyclic_power_derivation(c1, identity_endomorphism(c1), GroupRingElement.one(c1, GF(2)))


def test_power_derivations_of_the_reference_seeds():
    seeds = []
    for table_id, spec in REFERENCE_TABLES.items():
        if spec["kind"] == "cyclic-power":
            seeds.append((table_id, spec["seed"]))
        elif spec["kind"] == "cyclic-power-multi":
            seeds.extend((table_id, row[1]) for row in spec["rows"])
    assert len(seeds) == 11
    for table_id, seed in seeds:
        group, F, sigma, _ = build_context(table_id)
        v = parse_element(group, F, seed)
        assert cyclic_power_derivation(group, sigma, v).table == power_formula_table(sigma, v)


# -- product rule corollaries ------------------------------------------------------

ALGEBRAS = [
    ("d6-gf7", dihedral_group(3), GF(7), {"a": "a^2", "b": "b"}),
    ("d12-gf2", dihedral_group(6), GF(2), {"a": "a^2", "b": "a*b"}),
    ("c12-gf3", cyclic_group(12), GF(3), {"x": "x^5"}),
    ("c6-qq", cyclic_group(6), QQ, {"x": "x"}),
]


def sample_derivation(group, field, sigma, rng):
    dim, basis = derivation_space(field, sigma)
    if dim:
        return basis[rng.randrange(dim)]
    return inner_derivation(rand_elem(group, field, rng), sigma, sigma)


@pytest.mark.parametrize("label,group,field,images", ALGEBRAS)
def test_triple_product_telescopes(label, group, field, images):
    sigma = endo_from_images(group, images)
    rng = random.Random(hash(label) % 1000)
    D = sample_derivation(group, field, sigma, rng)
    for _ in range(25):
        a, b, c = (rand_elem(group, field, rng) for _ in range(3))
        lhs = D(a * b * c)
        rhs = (D(a) * apply_endo(sigma, b * c)
               + apply_endo(sigma, a) * D(b) * apply_endo(sigma, c)
               + apply_endo(sigma, a * b) * D(c))
        assert lhs == rhs


@pytest.mark.parametrize("label,group,field,images", ALGEBRAS)
def test_order_relation_kills_group_elements(label, group, field, images):
    sigma = endo_from_images(group, images)
    rng = random.Random(hash(label) % 977)
    D = sample_derivation(group, field, sigma, rng)
    for g in range(group.order):
        r = group.element_order(g)
        acc = GroupRingElement.zero(group, field)
        for i in range(r):
            term = D.table[g]
            for _ in range(i):
                term = term.left_mul_elem(sigma.images[g])
            for _ in range(r - 1 - i):
                term = term.right_mul_elem(sigma.images[g])
            acc = acc + term
        assert acc.is_zero()


def test_power_rule_on_cyclic_groups():
    for group, field, images in [(cyclic_group(12), GF(3), {"x": "x^5"}),
                                 (cyclic_group(6), GF(2), {"x": "x"})]:
        sigma = endo_from_images(group, images)
        rng = random.Random(field.p)
        D = sample_derivation(group, field, sigma, rng)
        x = group.generator_index("x")
        for g in range(group.order):
            for k in range(-3, 4):
                gk = group.identity
                step = g if k >= 0 else group.inv[g]
                for _ in range(abs(k)):
                    gk = group.mul[gk][step]
                # k sigma(g)^(k-1) D(g)
                power = group.identity
                exps = k - 1
                base = sigma.images[g] if exps >= 0 else group.inv[sigma.images[g]]
                for _ in range(abs(exps)):
                    power = group.mul[power][base]
                rhs = D.table[g].left_mul_elem(power).scale(field.coerce(k))
                assert D.table[gk] == rhs


def test_twisted_pair_dimensions_match_class_count():
    # with |G| invertible every (sigma, tau)-derivation is inner, so the
    # space dimension is |G| - r for r the twisted class count
    from derring.conjugacy import inner_basis, twisted_classes
    cases = [
        (dihedral_group(3), GF(5), {"a": "a^2", "b": "b"}),
        (dihedral_group(4), GF(7), {"a": "a^3", "b": "a^2*b"}),
        (dihedral_group(3), QQ, {"a": "a^2", "b": "b"}),
        (cyclic_group(6), GF(5), {"x": "x^5"}),
    ]
    for group, field, tau_images in cases:
        sigma = identity_endomorphism(group)
        tau = endo_from_images(group, tau_images)
        part = twisted_classes(group, sigma, tau)
        expected = group.order - part.r
        assert derivation_space(field, sigma, tau, basis=False)[0] == expected
        assert derivation_space_full(field, sigma, tau, basis=False)[0] == expected
        assert len(inner_basis(group, sigma, tau, field)) == expected


def test_inner_span_contained_in_derivation_space():
    g = dihedral_group(3)
    e = identity_endomorphism(g)
    for F in (GF(7), QQ):
        dim, basis = derivation_space(F, e)
        space_rows = [D.flat() for D in basis]
        inner_rows = [inner_derivation(GroupRingElement.basis(g, F, x), e, e).flat()
                      for x in range(g.order)]
        assert rows_rank(F, space_rows + inner_rows) == dim


def test_extension_requires_exactly_the_generator_images():
    g = dihedral_group(3)
    sigma = identity_endomorphism(g)
    zero = GroupRingElement.zero(g, GF(2))
    with pytest.raises(ValueError, match="missing images"):
        extend_from_generators({"a": zero}, sigma)
    with pytest.raises(ValueError, match="unknown generators in image map"):
        extend_from_generators({"a": zero, "b": zero, "c": zero}, sigma)


def test_extension_on_a_group_without_generators_is_refused():
    trivial = table_group([[0]])
    assert trivial.generators == []
    sigma = identity_endomorphism(trivial)
    with pytest.raises(ValueError, match="no generator image to take the field from") as err:
        extend_from_generators({}, sigma)
    assert "TwistedDerivation.zero" in str(err.value)
    assert verify_derivation(TwistedDerivation.zero(trivial, GF(3), sigma, sigma)) is None


D6, C6 = dihedral_group(3), cyclic_group(6)
ID_D6, POWER_C6 = identity_endomorphism(D6), endo_from_images(C6, {"x": "x^5"})
# D6 has the generators a and b
BAD_IMAGES = {
    # zip once cut it short, and verify_derivation then named a pair of made-up data
    "short": ({"a": [0] * 6, "b": [0, 1]}, r"image of 'b' has 2 coefficients, not \|G\| = 6"),
    # once accepted as the zero derivation
    "long": ({"a": [0] * 6, "b": [0] * 7}, r"image of 'b' has 7 coefficients, not \|G\| = 6"),
    # once ignored
    "unknown": ({"a": [0] * 6, "b": [0] * 6, "c": [0] * 6},
                r"unknown generators in image map: \['c'\]"),
    # once a bare KeyError on the first read of the table
    "missing": ({"a": [0] * 6}, r"missing images for \['b'\]"),
}


@pytest.mark.parametrize("case", BAD_IMAGES)
@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_bad_generator_images_are_refused_at_construction(case, field):
    images, message = BAD_IMAGES[case]
    with pytest.raises(ValueError, match=message):
        TwistedDerivation(D6, field, ID_D6, ID_D6, images=images)
    with pytest.raises(ValueError, match=message):
        TwistedDerivation(D6, field, ID_D6, ID_D6, images=images,
                          witness=GroupRingElement.zero(D6, field))
MIXED_GROUPS = {
    "relator_block": lambda F: relator_block(ID_D6, POWER_C6),
    "inner_block": lambda F: inner_block(ID_D6, POWER_C6, range(6)),
    "_pairs_block": lambda F: _pairs_block(ID_D6, POWER_C6, range(6), range(6)),
    "twisted_classes": lambda F: twisted_classes(D6, POWER_C6, POWER_C6),
    # this one once returned {0, 4, 5}, read off D6's table
    "twisted_centralizer": lambda F: twisted_centralizer(D6, POWER_C6, POWER_C6, 1),
    "twisted_orbit": lambda F: twisted_orbit(D6, POWER_C6, POWER_C6, 1),
    "twisted_center_group": lambda F: twisted_center_group(D6, POWER_C6, POWER_C6),
    # and this one 1 + x^4
    "apply_endo": lambda F: apply_endo(ID_D6, parse_element(C6, F, "1 + x")),
    "TwistedDerivation": lambda F: TwistedDerivation(
        D6, F, ID_D6, POWER_C6, images={"a": [0] * 6, "b": [0] * 6}),
    "TwistedDerivation witness": lambda F: TwistedDerivation(
        C6, F, POWER_C6, POWER_C6, witness=GroupRingElement.one(D6, F), images={"x": [0] * 6}),
    "derivation_space": lambda F: derivation_space(F, ID_D6, POWER_C6),
    "derivation_space_full": lambda F: derivation_space_full(F, ID_D6, POWER_C6, basis=False),
    "inner_basis": lambda F: inner_basis(D6, ID_D6, POWER_C6, F),
    "twisted_center_dimension": lambda F: twisted_center_dimension(D6, POWER_C6, POWER_C6, F),
    "inner_derivation": lambda F: inner_derivation(GroupRingElement.one(D6, F),
                                                   POWER_C6, POWER_C6),
    "extend_from_generators": lambda F: extend_from_generators(
        {"x": GroupRingElement.one(D6, F)}, POWER_C6),
    "cyclic_power_derivation": lambda F: cyclic_power_derivation(
        cyclic_group(6), POWER_C6, GroupRingElement.one(C6, F)),
    "predict": lambda F: predict(dihedral_group(5), identity_endomorphism(dihedral_group(4)), F),
}


@pytest.mark.parametrize("entry", MIXED_GROUPS)
@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_maps_of_different_groups_are_refused(entry, field):
    # D6 and C6 have one order, so index arithmetic alone would answer silently
    with pytest.raises(ValueError, match="different groups"):
        MIXED_GROUPS[entry](field)


# u = a^2 + a*b + 2 a^2*b is a unit of GF(3)[D6]; x -> u x u^-1 sends a to
# a + 2 b + 2 a*b + 2 a^2*b, coefficients [0, 1, 0, 2, 2, 2]
U_GF3, U_INV_GF3 = (parse_element(D6, GF(3), text)
                    for text in ("a^2 + a*b + 2*a^2*b", "2 + 2*a^2 + 2*a*b + a^2*b"))
MIXED_FIELDS = {
    "inner_derivation": lambda sigma: inner_derivation(GroupRingElement.basis(D6, QQ, 1),
                                                       sigma, sigma),
    "TwistedDerivation": lambda sigma: TwistedDerivation(
        D6, QQ, sigma, sigma, [GroupRingElement.zero(D6, QQ)] * 6),
    "TwistedDerivation witness": lambda sigma: TwistedDerivation(
        D6, GF(3), sigma, sigma, witness=GroupRingElement.one(D6, QQ),
        images={"a": [0] * 6, "b": [0] * 6}),
    "twisted_center_dimension": lambda sigma: twisted_center_dimension(D6, sigma, sigma, QQ),
    "extend_from_generators": lambda sigma: extend_from_generators(
        {"a": GroupRingElement.zero(D6, GF(3)), "b": GroupRingElement.zero(D6, QQ)}, ID_D6),
    # once a + 2 b + 2 a*b + 2 a^2*b over QQ
    "apply_endo": lambda sigma: apply_endo(sigma, parse_element(D6, QQ, "a")),
}


# the entry points that read a map's group images: the relator solve, the
# spanning-tree walk of the pair oracle, and the twisted conjugates behind
# twisted classes, orbits and centralizers and the inner basis
GROUP_MAPS_ONLY = {
    "derivation_space": lambda F, s, t: derivation_space(F, s, t),
    "derivation_space dimension": lambda F, s, t: derivation_space(F, s, t, basis=False),
    "derivation_space_full": lambda F, s, t: derivation_space_full(F, s, t),
    "derivation_space_full dimension": lambda F, s, t: derivation_space_full(F, s, t, basis=False),
    "twisted_classes": lambda F, s, t: twisted_classes(D6, s, t),
    "twisted_orbit": lambda F, s, t: twisted_orbit(D6, s, t, 1),
    "twisted_centralizer": lambda F, s, t: twisted_centralizer(D6, s, t, 1),
    "inner_basis": lambda F, s, t: inner_basis(D6, s, t, F),
}


def d6_algebra_maps(field):
    """a -> a^2, b -> b as a monomial ``AlgebraEndo``, and conjugation by the unit 2 + b."""
    unit = parse_element(D6, field, "2 + b")
    # (2 + b)(2 - b) = 4 - b^2 = 3
    inverse = parse_element(D6, field, "2 - b").scale(field.inv(field.coerce(3)))
    return {"monomial": AlgebraEndo.from_group_endo(endo_from_images(D6, {"a": "a^2", "b": "b"}),
                                                    field),
            "conjugation": AlgebraEndo(D6, field, [unit * GroupRingElement.basis(D6, field, g)
                                                   * inverse for g in range(6)])}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("kind", ["monomial", "conjugation"])
@pytest.mark.parametrize("entry", GROUP_MAPS_ONLY)
def test_group_map_entry_points_refuse_algebra_maps(entry, kind, field):
    # these once raised AttributeError, or a ValueError from inside the tree plan,
    # or, on the monomial map, answered the pair oracle by chance
    algebra = d6_algebra_maps(field)[kind]
    for sigma, tau in ((algebra, ID_D6), (ID_D6, algebra), (algebra, algebra)):
        with pytest.raises(ValueError, match="only along group endomorphisms"):
            GROUP_MAPS_ONLY[entry](field, sigma, tau)
    # the twisted center is the kernel of the inner map, valid for algebra maps
    center = twisted_center_space(D6, algebra, algebra, field)
    assert len(center) == twisted_center_dimension(D6, algebra, algebra, field) > 0


def test_abelian_basis_refuses_an_algebra_map():
    c9 = cyclic_group(9)
    sigma = AlgebraEndo.from_group_endo(endo_from_images(c9, {"x": "x^2"}), GF(3))
    with pytest.raises(ValueError, match="only along group endomorphisms"):
        abelian_basis(c9, sigma, GF(3))


@pytest.mark.parametrize("entry", MIXED_FIELDS)
def test_maps_and_elements_of_different_fields_are_refused(entry):
    assert U_GF3 * U_INV_GF3 == GroupRingElement.one(D6, GF(3))
    sigma = AlgebraEndo(D6, GF(3), [U_GF3 * GroupRingElement.basis(D6, GF(3), g) * U_INV_GF3
                                    for g in range(6)])
    assert sigma.ring_images[1].coeffs == [0, 1, 0, 2, 2, 2]
    # a over QQ against this map once gave a derivation failing the product rule at (3, 3)
    with pytest.raises(ValueError, match="different fields"):
        MIXED_FIELDS[entry](sigma)
    D = inner_derivation(GroupRingElement.basis(D6, GF(3), 1), sigma, sigma)
    assert verify_derivation(D) is None
    assert inner_derivation(is_inner(D), sigma, sigma) == D


def test_table_elements_of_another_field_or_group_are_refused():
    c3 = cyclic_group(3)
    ident = identity_endomorphism(c3)
    # once accepted: the GF(5) entry 4 stayed unreduced and verify_derivation answered (0, 0)
    over_gf5 = [GroupRingElement(c3, GF(5), [4, 0, 0])] + [GroupRingElement.zero(c3, GF(5))] * 2
    with pytest.raises(ValueError, match="different fields"):
        TwistedDerivation(c3, GF(3), ident, ident, over_gf5)
    # an equal C3 that is another group object
    other = [GroupRingElement.zero(cyclic_group(3), GF(3))] * 3
    with pytest.raises(ValueError, match="different groups"):
        TwistedDerivation(c3, GF(3), ident, ident, other)


def test_inner_system_is_eliminated_once(caplog):
    # a fresh group, so no elimination of its pair is cached yet
    d16 = dihedral_group(8)
    sigma = endo_from_images(d16, {"a": "a^3", "b": "a*b"})
    _, basis = derivation_space(QQ, sigma)
    with caplog.at_level(logging.DEBUG, logger="derring.derivations"):
        witnesses = [is_inner(D) for D in basis]
    # |G| is invertible over QQ: every member is inner
    assert len(basis) > 1 and None not in witnesses
    # the generator rows of a and b, of rank |G| - r = 16 - 7
    (record,) = [r for r in caplog.records if r.name == "derring.derivations"]
    assert (record.shape, record.rank) == ((32, 16), 9)
    caplog.clear()
    fresh = endo_from_images(dihedral_group(8), {"a": "a^3", "b": "a*b"})
    with caplog.at_level(logging.INFO, logger="derring.derivations"):
        is_inner(inner_derivation(GroupRingElement.one(fresh.group, QQ), fresh, fresh))
    assert not caplog.records


def test_certificate_rows_are_built_once_per_pair(monkeypatch):
    # a whole basis, each member certified inner, and every inner derivation's
    # table gathered from its witness: the |G|^2 rows of inner_block, once per pair
    built = []

    def spy(sigma, tau, gs):
        if len(gs) == sigma.group.order:
            built.append((sigma, tau))
        return inner_block(sigma, tau, gs)

    derivations._cached.cache_clear()
    monkeypatch.setattr(derivations, "inner_block", spy)
    d12 = dihedral_group(6)
    pairs = [(endo_from_images(d12, {"a": "a^5", "b": "b"}), identity_endomorphism(d12)),
             (endo_from_images(d12, {"a": "a", "b": "a*b"}),) * 2]
    for sigma, tau in pairs:
        _, basis = derivation_space(QQ, sigma, tau)
        assert len(basis) > 1 and all(is_inner(D) is not None for D in basis)
        for x in range(d12.order):
            D = inner_derivation(GroupRingElement.basis(d12, QQ, x), sigma, tau)
            D.integer_table()
            assert is_inner(D) is not None
    assert built == pairs
    derivations._cached.cache_clear()


def _reference_table(D):
    """D's table by free-word evaluation of each normal form."""
    G = D.group
    images = {name: GroupRingElement(G, D.field, D.images[name]) for name, _ in G.generators}
    return [free_eval(images, D.sigma, D.tau, word) for word in G.normal_forms]


def _assert_integer_table_matches(D, table):
    """A copy of D from its generator images computes ``table`` in integers."""
    E = TwistedDerivation(D.group, D.field, D.sigma, D.tau, images=D.images)
    ints, den = E.integer_table()
    assert (ints.tolist(), den) == integer_scale([c for e in table for c in e.coeffs])
    assert E.table == table


def q16_table_group():
    """Q16 given only by its table, as the CI's spec gives it: a^i b^j at index
    8j + i is r{i}s{j}, b a = a^-1 b and b^2 = a^4."""
    def ix(i, j):
        return 8 * j + i % 8

    mul = [[ix(i + (k if j == 0 else -k) + (4 if j and l else 0), j ^ l)
            for l in (0, 1) for k in range(8)] for j in (0, 1) for i in range(8)]
    names = [f"r{i}s{j}" if i or j else "e" for j in (0, 1) for i in range(8)]
    return table_group(mul, names, ["r1s0", "r0s1"])


# trees whose roots are not the normal-form letters of a dihedral group: a
# repeated generator, a generator naming the identity, no edges at all, and Q16
OTHER_TREES = {**SEED_GROUPS, "Q16 table": q16_table_group()}


@pytest.mark.parametrize("n", [*range(3, 9), *OTHER_TREES])
def test_integer_table_matches_free_eval(n):
    if n in OTHER_TREES:
        G = OTHER_TREES[n]
        # Q16 under the CI's sigma, past the reach of brute force
        endos = (brute_force_endomorphisms(G) if G.order <= 12 else
                 [endo_from_images(G, {"r1s0": "r3s0", "r0s1": "r1s1"}), identity_endomorphism(G)])
        pairs = [(endos[-1], endos[0]), (endos[0], endos[-1])]
        texts = ("1/2", f"1/2*{G.names[1]} + 1/5*{G.names[-1]}") if G.order > 1 else ("1/2",)
    else:
        G = dihedral_group(n)
        pairs = [(identity_endomorphism(G),
                  endo_from_images(G, {"a": f"a^{n - 1}", "b": "a*b"})),
                 (endo_from_images(G, {"a": "a", "b": "b"}), identity_endomorphism(G))]
        texts = ("1/2", "1/2*a + 1/5*b")
    rng = random.Random(n)
    for F in (GF(3), QQ):
        for sigma, tau in pairs:
            _, basis = derivation_space(F, sigma, tau)
            # over QQ a combination with denominators 3 and 7 puts the table over 21
            scales = [Fraction(rng.choice([1, 2, -5]), rng.choice([3, 7]) if not F.p else 1)
                      for _ in basis]
            # each member's images read once: ``images`` builds its map afresh on every read
            member_images = [D.images for D in basis]
            mix = {name: [F.coerce(sum(c * imgs[name][t] for c, imgs in zip(scales, member_images)))
                          for t in range(G.order)] for name, _ in G.generators}
            for D in basis[:3] + [TwistedDerivation(G, F, sigma, tau, images=mix)]:
                _assert_integer_table_matches(D, _reference_table(D))
            # inner derivations: their gathers over a denominator, in lowest terms; for
            # sigma = tau the central 1/2 gives D = 0, whose table is over 1
            for text in texts:
                beta = parse_element(G, F, text)
                D = inner_derivation(beta, sigma, tau)
                table = [beta * GroupRingElement.basis(G, F, tau.images[g])
                         - GroupRingElement.basis(G, F, sigma.images[g]) * beta
                         for g in range(G.order)]
                ints, den = D.integer_table()
                assert (ints.tolist(), den) == integer_scale([c for e in table for c in e.coeffs])
                assert D.table == table
                _assert_integer_table_matches(D, table)


# the abelian basis walks its own generators k_i, h_j: over GF(3) C3 x C6 has
# k_2 = x2^2 and h_1 = x2^3, not x2
@pytest.mark.parametrize("order, field", [(12, GF(2)), (12, GF(3)), (18, GF(3)),
                                          ([4, 2], GF(2)), ([3, 6], GF(3))])
def test_integer_table_matches_abelian_basis(order, field):
    if isinstance(order, int):
        G = cyclic_group(order)
        power = endo_from_images(G, {"x": "x^5"})
    else:
        G = abelian_group(order)
        power = endo_from_images(G, {name: f"{name}^-1" for name, _ in G.generators})
    for sigma in (identity_endomorphism(G), power):
        for D in abelian_basis(G, sigma, field):
            _assert_integer_table_matches(D, D.table)


D16_SIGMA = endo_from_images(dihedral_group(8), {"a": "a^3", "b": "a*b"})


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_checks_read_the_integer_table_and_build_no_element_table(field):
    G, sigma = D16_SIGMA.group, D16_SIGMA
    D, E = derivation_space(field, sigma)[1][:2]
    assert verify_derivation(D) is None and is_inner(D) is not None
    assert not D.is_zero() and D != E and D == D
    averaging_witness(D)
    derivation_matrix(D)
    if field.p:
        best = subset_sweep(D, 2, max_candidates=8)[0]
        code_report(D, best.source["subset_indices"])
    assert D._table is None and E._table is None


def test_integer_table_is_int64_until_an_entry_passes_it():
    d8 = dihedral_group(4)
    sigma = endo_from_images(d8, {"a": "a^3", "b": "a*b"})
    for p, dtype in ((2 ** 61 - 1, np.int64), (2 ** 63 + 29, object)):
        F = GF(p)
        member = derivation_space(F, sigma)[1][0]
        # images near p: the walk sums past int64 both times, its residues only past 2^63
        D = TwistedDerivation(d8, F, sigma, sigma, images={
            name: [F.mul(p - 1, c) for c in image] for name, image in member.images.items()})
        ints, den = D.integer_table()
        assert ints.dtype == dtype and not ints.flags.writeable and den == 1
        assert D == TwistedDerivation(d8, F, sigma, sigma, list(D.table))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_walked_inner_oracle_and_given_copies_compare_equal(field):
    G, sigma = D16_SIGMA.group, D16_SIGMA
    half = field.coerce(Fraction(1, 2))
    for S in derivation_space_full(field, sigma)[1][:3]:
        # |G| = 16 is invertible, so every derivation is inner
        beta = is_inner(S)
        images = {name: [field.mul(half, c) for c in S.images[name]] for name, _ in G.generators}
        copies = [S, TwistedDerivation(G, field, sigma, sigma, images=S.images),
                  inner_derivation(beta, sigma, sigma),
                  TwistedDerivation(G, field, sigma, sigma,
                                    [GroupRingElement(G, field, e.coeffs) for e in S.table])]
        halves = [TwistedDerivation(G, field, sigma, sigma, images=images),
                  inner_derivation(beta.scale(half), sigma, sigma)]
        assert all(a == b for a in copies for b in copies)
        assert halves[0] == halves[1] and all(h != c for h in halves for c in copies)
        table = list(S.table)
        table[5] = table[5] + GroupRingElement.basis(G, field, 3)
        name = G.generators[1][0]
        changed = [TwistedDerivation(G, field, sigma, sigma, table),
                   TwistedDerivation(G, field, sigma, sigma, images={
                       **S.images, name: [field.add(S.images[name][0], 1)] + S.images[name][1:]})]
        assert all(c != d and d != c for c in changed for d in copies)


# -- the one integer form of generator images ---------------------------------

def test_images_given_are_coerced_into_the_field():
    c3 = cyclic_group(3)
    ident = identity_endomorphism(c3)
    F = GF(3)
    # 1/2 is 2 in GF(3): the table once read D(x) = 1, and equal to that derivation
    D = TwistedDerivation(c3, F, ident, ident, images={"x": [Fraction(1, 2), 0, 0]})
    assert D.images == {"x": [2, 0, 0]} and D.integer_images[1] == 1
    assert D.integer_table()[0].tolist() == [0, 0, 0, 2, 0, 0, 0, 1, 0]
    assert D == TwistedDerivation(c3, F, ident, ident, images={"x": [2, 0, 0]})
    assert D != TwistedDerivation(c3, F, ident, ident, images={"x": [1, 0, 0]})
    # once kept unreduced
    four = TwistedDerivation(c3, F, ident, ident, images={"x": [4, 0, 0]})
    assert four.images == {"x": [1, 0, 0]} and four.generator_flat() == [1, 0, 0]
    with pytest.raises(TypeError, match="cannot coerce"):
        TwistedDerivation(c3, QQ, ident, ident, images={"x": [0.5, 0, 0]})


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_members_are_built_and_checked_with_no_integer_scale(field, monkeypatch):
    # the kernel hands its integers to the members, and the walk, the product
    # rule, the elimination of the inner system [A | I] and the inner solve read
    # them as they are
    derivations._cached.cache_clear()
    original, calls = linalg.integer_scale, []

    def spy(values):
        calls.append(len(values))
        return original(values)

    patched = [module for name, module in sys.modules.items()
               if name.startswith("derring") and getattr(module, "integer_scale", None) is original]
    assert {linalg, derivations, groupring} <= set(patched)
    for module in patched:
        monkeypatch.setattr(module, "integer_scale", spy)
    dim, basis = derivation_space(field, D16_SIGMA)
    for D in basis:
        D.integer_table()
        assert verify_derivation(D) is None and is_inner(D) is not None
    assert dim == len(basis) == 9 and calls == []


def test_qq_images_have_one_integer_form_whatever_their_type():
    G, sigma = D16_SIGMA.group, D16_SIGMA
    for member in derivation_space(QQ, sigma)[1]:
        ints, den = member.integer_images
        assert (ints.ravel().tolist(), den) == integer_scale(member.generator_flat())
        # every value a Fraction, written over six times its denominator
        over_six = {name: [Fraction(6 * Fraction(c).numerator, 6 * Fraction(c).denominator)
                           for c in image] for name, image in member.images.items()}
        for D in (TwistedDerivation(G, QQ, sigma, sigma, images=member.images),
                  TwistedDerivation(G, QQ, sigma, sigma, images=over_six)):
            given, given_den = D.integer_images
            assert np.array_equal(given, ints) and given_den == den
            assert given.dtype == np.int64 and not given.flags.writeable
            assert D == member and member == D
        # a third of it, as Fractions and as "c/3" strings: the same integers over 3
        thirds = [TwistedDerivation(G, QQ, sigma, sigma, images={
            name: [wrap(c) for c in image] for name, image in member.images.items()})
                  for wrap in (lambda c: Fraction(c, 3), lambda c: f"{c}/3")]
        for D in thirds:
            assert np.array_equal(D.integer_images[0], ints) and D.integer_images[1] == 3
        assert thirds[0] == thirds[1] != member


def test_tree_plan_seeds_each_root_with_its_first_generator_row():
    G = dihedral_group(6)
    sigma = endo_from_images(G, {"a": "a^5", "b": "b"})
    (_, a), (_, b) = G.generators
    roots, edges, levels, (dst, src) = _tree_plan(sigma, sigma, (a, G.identity, a, b))
    assert dst.tolist() == [a, b] and src.tolist() == [0, 3]
    assert not dst.flags.writeable and not src.flags.writeable
    # the identity and a repeated generator change neither the roots nor the tree
    assert (roots, edges) == _tree_plan(sigma, sigma, (a, b))[:2]
