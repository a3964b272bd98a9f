import random

import pytest

from derring.derivations import (AlgebraEndo, GeneratorMap, TwistedDerivation,
                                 abelian_basis, averaging_witness,
                                 cyclic_power_derivation, derivation_space,
                                 derivation_space_full, extend_from_generators,
                                 free_eval, inner_derivation, is_inner,
                                 verify_derivation)
from derring.errors import DerivationRejected
from derring.groups import (abelian_group, cyclic_group, dihedral_group,
                            endo_from_images, enumerate_endomorphisms,
                            identity_endomorphism, parse_word)
from derring.conjugacy import twisted_classes
from derring.groupring import GroupRingElement, apply_endo, parse_element
from derring.linalg import GF, QQ, rows_rank


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
    f = GeneratorMap(g, F, {
        "a": parse_element(g, F, "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b"),
        "b": parse_element(g, F, "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b")})
    return g, F, sigma, extend_from_generators(f, sigma)


# -- free word evaluation -----------------------------------------------------

def test_free_eval_empty_word_is_zero():
    g = dihedral_group(3)
    f = GeneratorMap.zero(g, QQ)
    sigma = identity_endomorphism(g)
    assert free_eval(f, sigma, sigma, ()).is_zero()


def test_free_eval_kills_cancelling_letters():
    g = dihedral_group(3)
    rng = random.Random(5)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    tau = identity_endomorphism(g)
    for _ in range(6):
        f = GeneratorMap(g, QQ, {"a": rand_elem(g, QQ, rng), "b": rand_elem(g, QQ, rng)})
        for word in ("a*a^-1", "a^-1*a", "b*b^-1"):
            assert free_eval(f, sigma, tau, parse_word(word)).is_zero()


def test_free_eval_trivial_endomorphism_doubles_b_image():
    g = dihedral_group(3)
    sigma = endo_from_images(g, {"a": "1", "b": "1"})
    rng = random.Random(6)
    alpha = rand_elem(g, QQ, rng)
    f = GeneratorMap(g, QQ, {"a": GroupRingElement.zero(g, QQ), "b": alpha})
    assert free_eval(f, sigma, sigma, parse_word("b^2")) == alpha + alpha


def test_extension_rejects_trivial_endo_with_unit_image():
    g = dihedral_group(3)
    F = GF(3)
    sigma = endo_from_images(g, {"a": "1", "b": "1"})
    f = GeneratorMap(g, F, {"a": GroupRingElement.zero(g, F),
                            "b": GroupRingElement.one(g, F)})
    with pytest.raises(DerivationRejected) as err:
        extend_from_generators(f, sigma)
    assert err.value.relator == parse_word("b^2")
    assert err.value.value.coeffs[g.identity] == 2


def test_zero_map_extends_to_zero_derivation():
    g = dihedral_group(4)
    sigma = identity_endomorphism(g)
    D = extend_from_generators(GeneratorMap.zero(g, GF(5)), sigma)
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


def test_algebra_endo_rejects_non_multiplicative():
    c2 = cyclic_group(2)
    bad = [GroupRingElement.one(c2, QQ), parse_element(c2, QQ, "2*x")]
    with pytest.raises(ValueError):
        AlgebraEndo(c2, QQ, bad)


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
    with pytest.raises(DerivationRejected):
        cyclic_power_derivation(c6, e, GroupRingElement.one(c6, QQ))


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


def test_generator_map_requires_all_images():
    g = dihedral_group(3)
    with pytest.raises(ValueError):
        GeneratorMap(g, GF(2), {"a": GroupRingElement.zero(g, GF(2))})
