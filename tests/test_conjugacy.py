import pytest

from derring.conjugacy import (class_sums, inner_basis, twisted_center_dimension,
                               twisted_center_group, twisted_center_space,
                               twisted_centralizer, twisted_classes)
from derring.derivations import inner_derivation
from derring.groups import (abelian_group, cyclic_group, dihedral_group,
                            endo_from_images, enumerate_endomorphisms,
                            identity_endomorphism)
from derring.groupring import GroupRingElement, parse_element
from derring.linalg import GF, QQ
from gauss_jordan import rows_rank, same_row_space


def test_ordinary_classes_of_d6():
    g = dihedral_group(3)
    part = twisted_classes(g, identity_endomorphism(g))
    assert part.r == 3
    assert part.singleton_count == 1
    names = [{g.names[i] for i in cls} for cls in part.classes]
    assert names == [{"1"}, {"a", "a^2"}, {"b", "a*b", "a^2*b"}]


def test_sigma1_classes_of_d12():
    g = dihedral_group(6)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    part = twisted_classes(g, sigma)
    assert part.r == 6
    assert part.singleton_count == 2
    sizes = sorted(len(c) for c in part.classes)
    assert sum(sizes) == 12


def test_trivial_endomorphism_gives_singletons():
    g = dihedral_group(4)
    trivial = endo_from_images(g, {"a": "1", "b": "1"})
    part = twisted_classes(g, trivial)
    assert part.r == g.order
    assert part.singleton_count == g.order


def test_centralizer_examples():
    g = dihedral_group(3)
    e = identity_endomorphism(g)
    assert twisted_centralizer(g, e, e, g.identity) == set(range(g.order))
    b = g.index_of("b")
    assert twisted_centralizer(g, e, e, b) == {g.identity, b}
    part = twisted_classes(g, e)
    assert len(part.class_of(b)) == 3


@pytest.mark.parametrize("n,images", [(3, {"a": "a", "b": "b"}),
                                      (6, {"a": "a^2", "b": "a*b"}),
                                      (5, {"a": "a^2", "b": "a^3*b"})])
def test_orbit_centralizer_product(n, images):
    g = dihedral_group(n)
    sigma = endo_from_images(g, images)
    part = twisted_classes(g, sigma)
    for x in range(g.order):
        orbit = part.class_of(x)
        cent = twisted_centralizer(g, sigma, sigma, x)
        assert len(orbit) * len(cent) == g.order


def test_centralizer_is_a_subgroup():
    g = dihedral_group(6)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    for x in (0, 1, 7):
        cent = twisted_centralizer(g, sigma, sigma, x)
        assert g.identity in cent
        assert all(g.mul[u][v] in cent for u in cent for v in cent)
        assert all(g.inv[u] in cent for u in cent)


def test_center_examples_and_class_equation():
    c6 = cyclic_group(6)
    e6 = identity_endomorphism(c6)
    assert twisted_center_group(c6, e6, e6) == set(range(6))
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    assert twisted_center_group(d6, e, e) == {d6.identity}
    for n in (3, 4, 6):
        g = dihedral_group(n)
        for endo in enumerate_endomorphisms(g)[:12]:
            part = twisted_classes(g, endo)
            center = twisted_center_group(g, endo, endo)
            sizes = [len(c) for c in part.classes if len(c) > 1]
            assert g.order == len(center) + sum(sizes)
            assert center == {cls[0] for cls in part.classes if len(cls) == 1}


def test_power_map_preserves_conjugacy():
    g = dihedral_group(6)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    part = twisted_classes(g, sigma)

    def power(x, k):
        acc = g.identity
        step = x if k >= 0 else g.inv[x]
        for _ in range(abs(k)):
            acc = g.mul[acc][step]
        return acc

    for cls in part.classes:
        x = cls[0]
        assert all(g.element_order(y) == g.element_order(x) for y in cls)
        for k in range(-2, 4):
            target = part.class_of(power(x, k))
            assert all(power(y, k) in target for y in cls)


def test_class_sums_abelian_and_d6():
    c5 = cyclic_group(5)
    e5 = identity_endomorphism(c5)
    sums = class_sums(twisted_classes(c5, e5), GF(3))
    assert sums.dimension == 5
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    sums = class_sums(twisted_classes(d6, e), GF(2))
    expected = [parse_element(d6, GF(2), t) for t in ("1", "a + a^2", "b + a*b + a^2*b")]
    assert sums.class_sums == expected


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ])
def test_class_sums_span_kernel_center(field):
    g = dihedral_group(6)
    sigma = endo_from_images(g, {"a": "a^2", "b": "a*b"})
    part = twisted_classes(g, sigma)
    sums = class_sums(part, field)
    kernel = twisted_center_space(g, sigma, sigma, field)
    assert same_row_space(field, [v.coeffs for v in sums.class_sums],
                          [v.coeffs for v in kernel])
    assert twisted_center_dimension(g, sigma, sigma, field) == part.r


def test_inner_basis_counts():
    d6 = dihedral_group(3)
    e = identity_endomorphism(d6)
    assert len(inner_basis(d6, e, e, GF(5))) == 3
    c6 = cyclic_group(6)
    e6 = identity_endomorphism(c6)
    assert inner_basis(c6, e6, e6, GF(5)) == []
    d12 = dihedral_group(6)
    sigma = endo_from_images(d12, {"a": "a^2", "b": "a*b"})
    basis = inner_basis(d12, sigma, sigma, GF(2))
    assert len(basis) == 6
    for D in basis:
        assert D.witness is not None
        assert D.provenance == "inner"


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ])
def test_inner_basis_spans_all_inner_derivations(field):
    g = dihedral_group(4)
    sigma = endo_from_images(g, {"a": "a^3", "b": "a*b"})
    basis = inner_basis(g, sigma, sigma, field)
    rows = [D.flat() for D in basis]
    all_rows = [inner_derivation(GroupRingElement.basis(g, field, x), sigma, sigma).flat()
                for x in range(g.order)]
    assert rows_rank(field, rows) == len(basis)
    assert rows_rank(field, rows + all_rows) == len(basis)


def test_abelian_inner_space_is_zero():
    g = abelian_group([4, 2])
    e = identity_endomorphism(g)
    for x in range(g.order):
        D = inner_derivation(GroupRingElement.basis(g, GF(3), x), e, e)
        assert D.is_zero()
