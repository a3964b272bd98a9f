"""Twisted conjugacy classes, centralizers, centers and class sums.

The twisted conjugate of x by g is sigma(g) x tau(g)^-1; its orbit
partitions the group.  Class sums span the twisted center of FG, and the
non-singleton classes index the inner-derivation basis: dropping one
representative per class leaves exactly |G| - r independent inner
derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from .derivations import TwistedDerivation, common_field, generator_rows, inner_block
from .groups import Endomorphism, FiniteGroup, common_group
from .groupring import GroupRingElement
from .linalg import Field, Matrix, dense_block, rows_full_rank, sparse_rank


@dataclass
class ConjugacyPartition:
    group: FiniteGroup
    sigma: Endomorphism
    tau: Endomorphism
    classes: List[Tuple[int, ...]]      # sorted element indices per class
    representatives: List[int]          # smallest index per class
    singleton_count: int

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_of(self, x: int) -> Tuple[int, ...]:
        for cls in self.classes:
            if x in cls:
                return cls
        raise KeyError(x)


def twisted_orbit(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                  x: int) -> Set[int]:
    mul, inv = group.mul, group.inv
    simg, timg = sigma.images, tau.images
    return {mul[mul[simg[g]][x]][inv[timg[g]]] for g in range(group.order)}


def twisted_classes(group: FiniteGroup, sigma: Endomorphism,
                    tau: Endomorphism = None) -> ConjugacyPartition:
    """Orbit partition, singleton classes first, then by representative."""
    if tau is None:
        tau = sigma
    common_group(group, sigma, tau)
    seen = [False] * group.order
    singletons, larger = [], []
    for x in range(group.order):
        if seen[x]:
            continue
        orbit = twisted_orbit(group, sigma, tau, x)
        for y in orbit:
            seen[y] = True
        cls = tuple(sorted(orbit))
        (singletons if len(cls) == 1 else larger).append(cls)
    classes = singletons + larger
    return ConjugacyPartition(group, sigma, tau, classes,
                              [cls[0] for cls in classes], len(singletons))


def twisted_centralizer(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                        x: int) -> Set[int]:
    """{g : x tau(g) = sigma(g) x}; a subgroup for finite groups."""
    mul = group.mul
    simg, timg = sigma.images, tau.images
    return {g for g in range(group.order)
            if mul[x][timg[g]] == mul[simg[g]][x]}


def twisted_center_group(group: FiniteGroup, sigma: Endomorphism,
                         tau: Endomorphism) -> Set[int]:
    """{z : z tau(g) = sigma(g) z for all g}; the union of singleton classes."""
    mul = group.mul
    simg, timg = sigma.images, tau.images
    out = set()
    for z in range(group.order):
        if all(mul[z][timg[g]] == mul[simg[g]][z] for g in range(group.order)):
            out.add(z)
    return out


@dataclass
class TwistedCenterBasis:
    class_sums: List[GroupRingElement]

    @property
    def dimension(self) -> int:
        return len(self.class_sums)


def class_sums(partition: ConjugacyPartition, field: Field) -> TwistedCenterBasis:
    sums = []
    G = partition.group
    for cls in partition.classes:
        coeffs = [field.zero()] * G.order
        one = field.one()
        for g in cls:
            coeffs[g] = one
        sums.append(GroupRingElement(G, field, coeffs, coerce=False))
    return TwistedCenterBasis(sums)


def twisted_center_space(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                         field: Field) -> List[GroupRingElement]:
    """Kernel-computed basis of the twisted center of FG (class-sum oracle).

    The twisted center is the kernel of the inner-derivation map
    z -> z tau(g) - sigma(g) z, the rows of ``inner_block``.
    """
    n = common_group(group, sigma, tau).order
    cols, vals, _, _ = inner_block(sigma, tau, range(n))
    kernel = Matrix.from_block(common_field(field, sigma, tau), cols, vals, n).kernel_basis()
    return [GroupRingElement(group, field, v, coerce=False) for v in kernel]


def twisted_center_dimension(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                             field: Field) -> int:
    n = common_group(group, sigma, tau).order
    cols, vals, _, _ = inner_block(sigma, tau, range(n))
    return n - sparse_rank(common_field(field, sigma, tau), [(cols, vals)])


def inner_basis(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                field: Field) -> List[TwistedDerivation]:
    """The inner-derivation basis D_g, g over non-singleton classes minus reps.

    Exactly |G| - r derivations.  D_g's generator images are column g of
    the system that ``is_inner`` solves, ``generator_rows`` (group maps act
    over the scale 1), rank-checked for independence, which is exact
    because a derivation vanishing on the generators vanishes everywhere.
    """
    partition = twisted_classes(group, sigma, tau)
    members = []
    for cls in partition.classes[partition.singleton_count:]:
        rep = cls[0]
        members.extend(g for g in cls if g != rep)
    if len(members) != group.order - partition.r:
        raise AssertionError("class bookkeeping lost derivations")
    n = group.order
    spans = [(name, slice(k * n, (k + 1) * n)) for k, (name, _) in enumerate(group.generators)]
    cols, vals, _, _ = generator_rows(sigma, tau)
    columns = dense_block(common_field(field, sigma, tau), cols, vals, n)[:, members].T.tolist()
    if columns and not rows_full_rank(field, columns, len(members)):
        raise AssertionError("inner derivation basis is not independent")
    return [TwistedDerivation(group, field, sigma, tau, provenance="inner",
                              witness=GroupRingElement.basis(group, field, g),
                              images={name: col[span] for name, span in spans})
            for g, col in zip(members, columns)]
