import random

import pytest

from derring.groups import cyclic_group, dihedral_group, endo_from_images, identity_endomorphism
from derring.groupring import (GroupRingElement, anticentralizer_basis, apply_endo,
                               centralizer_basis, format_element, parse_element)
from derring.linalg import GF, QQ
from gauss_jordan import rows_rank, same_row_space


def rand_elem(group, field, rng):
    if field.p:
        coeffs = [rng.randrange(field.p) for _ in range(group.order)]
    else:
        coeffs = [rng.randint(-3, 3) for _ in range(group.order)]
    return GroupRingElement(group, field, coeffs)


def test_identity_is_neutral():
    g = dihedral_group(4)
    F = GF(3)
    rng = random.Random(1)
    one = GroupRingElement.one(g, F)
    alpha = rand_elem(g, F, rng)
    assert one * alpha == alpha
    assert alpha * one == alpha


def test_cyclic_product():
    g = cyclic_group(18)
    F = GF(2)
    x = parse_element(g, F, "x")
    assert x * parse_element(g, F, "1 + x") == parse_element(g, F, "x + x^2")


def test_dihedral_relation_in_product():
    g = dihedral_group(3)
    F = GF(2)
    b = parse_element(g, F, "b")
    a = parse_element(g, F, "a")
    assert b * a == parse_element(g, F, "a^2*b")


@pytest.mark.parametrize("group,field", [
    (dihedral_group(6), GF(2)),
    (dihedral_group(3), GF(3)),
    (cyclic_group(8), GF(5)),
    (dihedral_group(4), QQ),
])
def test_ring_axioms_random(group, field):
    rng = random.Random(field.p + group.order)
    for _ in range(15):
        a, b, c = (rand_elem(group, field, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_mismatched_rings_rejected():
    g = dihedral_group(3)
    with pytest.raises(ValueError):
        parse_element(g, GF(2), "a") + parse_element(g, GF(3), "a")


def test_apply_endo_examples():
    g = dihedral_group(6)
    F = GF(5)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    alpha = parse_element(g, F, "a + b")
    assert apply_endo(sigma, alpha) == parse_element(g, F, "a^2 + a*b")
    assert apply_endo(identity_endomorphism(g), alpha) == alpha


def test_apply_endo_term_by_term_oracle():
    g = dihedral_group(4)
    F = GF(3)
    sigma = endo_from_images(g, {"a": "a^3", "b": "a^2*b"})
    rng = random.Random(9)
    for _ in range(10):
        alpha = rand_elem(g, F, rng)
        expected = GroupRingElement.zero(g, F)
        for idx, coef in enumerate(alpha.coeffs):
            expected = expected + GroupRingElement.basis(g, F, sigma.images[idx]).scale(coef)
        assert apply_endo(sigma, alpha) == expected


def test_apply_endo_multiplicative():
    g = dihedral_group(5)
    F = GF(2)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a^3*b"})
    rng = random.Random(10)
    for _ in range(8):
        a, b = rand_elem(g, F, rng), rand_elem(g, F, rng)
        assert apply_endo(sigma, a * b) == apply_endo(sigma, a) * apply_endo(sigma, b)


def test_centralizer_of_central_element_is_everything():
    g = dihedral_group(6)
    F = GF(2)
    beta = parse_element(g, F, "a + a^5")  # a rotation class sum, central
    assert len(centralizer_basis(beta)) == g.order


def test_centralizer_dimensions_match_orbit_count():
    # for a group element g the centralizer dimension equals the number of
    # orbits of h -> g^-1 h g on the group basis, over any field
    for group, field in [(dihedral_group(3), GF(2)), (dihedral_group(4), GF(7)),
                         (dihedral_group(3), QQ)]:
        for gidx in range(group.order):
            beta = GroupRingElement.basis(group, field, gidx)
            seen, orbits = set(), 0
            for h in range(group.order):
                if h in seen:
                    continue
                orbits += 1
                cur = h
                while cur not in seen:
                    seen.add(cur)
                    cur = group.mul[group.mul[group.inv[gidx]][cur]][gidx]
            assert len(centralizer_basis(beta)) == orbits


def test_centralizer_known_dimensions():
    d12 = dihedral_group(6)
    F2 = GF(2)
    assert len(centralizer_basis(parse_element(d12, F2, "a*b"))) == 8
    d6 = dihedral_group(3)
    assert len(centralizer_basis(parse_element(d6, F2, "b"))) == 4


def test_centralizer_contains_one_and_is_closed():
    g = dihedral_group(4)
    F = GF(3)
    beta = parse_element(g, F, "b")
    basis = centralizer_basis(beta)
    rows = [v.coeffs for v in basis]
    one = GroupRingElement.one(g, F)
    assert rows_rank(F, rows + [one.coeffs]) == len(basis)
    for u in basis:
        for v in basis:
            prod = u * v
            assert rows_rank(F, rows + [prod.coeffs]) == len(basis)


def test_anticentralizer_char2_equals_centralizer():
    g = dihedral_group(5)
    F = GF(2)
    beta = parse_element(g, F, "a^2*b")
    assert anticentralizer_basis(beta) == centralizer_basis(beta)


def test_anticentralizer_of_one_vanishes_away_from_char2():
    g = dihedral_group(3)
    assert anticentralizer_basis(GroupRingElement.one(g, GF(5))) == []
    assert anticentralizer_basis(GroupRingElement.one(g, QQ)) == []


def test_anticentralizer_of_b_in_qd6():
    g = dihedral_group(3)
    basis = anticentralizer_basis(parse_element(g, QQ, "b"))
    assert len(basis) == 2
    expected = [parse_element(g, QQ, "a - a^2").coeffs,
                parse_element(g, QQ, "a*b - a^2*b").coeffs]
    assert same_row_space(QQ, [v.coeffs for v in basis], expected)


def test_element_parser_and_formatting():
    g = dihedral_group(6)
    F = GF(2)
    alpha = parse_element(g, F, "1 + a + a^3*b")
    assert alpha.support() == [0, 1, 9]
    assert format_element(alpha) == "1 + a + a^3*b"
    c6 = cyclic_group(6)
    beta = parse_element(c6, GF(3), "2*x^5 + x")
    assert beta.coeffs[5] == 2 and beta.coeffs[1] == 1
    gamma = parse_element(g, QQ, "a^-1 - 1/2*b")
    assert gamma.coeffs[5] == 1 and str(gamma.coeffs[6]) == "-1/2"
    assert parse_element(g, F, "0*a") .is_zero()
    # a coefficient with no word after it is refused, not read as the identity
    for text in ("2*", "x + 2 * ", "2*-x"):
        with pytest.raises(ValueError, match="no word after its coefficient"):
            parse_element(c6, GF(3), text)


def test_scale_and_support():
    g = cyclic_group(4)
    F = GF(5)
    alpha = parse_element(g, F, "x + 2*x^2")
    assert alpha.scale(3).coeffs[2] == 1
    assert (-alpha).coeffs[1] == 4
    assert alpha.support() == [1, 2]
