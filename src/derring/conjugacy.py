"""Twisted conjugacy classes, centralizers, centers and class sums.

The twisted conjugate of x by g is sigma(g) x tau(g)^-1; its orbit
partitions the group.  Classes, orbits, centralizers and the center are
all read off one gather from the multiplication table, C[g, x] =
sigma(g) x tau(g)^-1 (``groups.twisted_conjugates``): the orbit of x is
column x, its centralizer the g with C[g, x] = x, the center the fixed
columns, and each class is the set of columns sharing one minimum
(``groups.class_minima``).  Class sums span the twisted center of FG,
and the non-singleton classes index the inner-derivation basis: dropping
one representative per class leaves exactly |G| - r independent inner
derivations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from .derivations import TwistedDerivation, generator_rows, table_rows
from .groups import (Endomorphism, FiniteGroup, class_minima, common_field, common_group,
                     twisted_conjugates)
from .groupring import GroupRingElement
from .linalg import Field, dense_block, echelon, identity_seed, sparse_kernel_basis, sparse_rank


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
    return set(twisted_conjugates(group, sigma, tau, x).tolist())


def twisted_classes(group: FiniteGroup, sigma: Endomorphism,
                    tau: Endomorphism = None) -> ConjugacyPartition:
    """Orbit partition, singleton classes first, then by representative."""
    if tau is None:
        tau = sigma
    members: Dict[int, List[int]] = {}
    for x, rep in enumerate(class_minima(group, sigma, tau).tolist()):
        members.setdefault(rep, []).append(x)
    # a representative is the least member of its class, so it opens the class:
    # the classes come out sorted, in order of representative
    singletons = [tuple(cls) for cls in members.values() if len(cls) == 1]
    classes = singletons + [tuple(cls) for cls in members.values() if len(cls) > 1]
    return ConjugacyPartition(group, sigma, tau, classes,
                              [cls[0] for cls in classes], len(singletons))


def twisted_centralizer(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                        x: int) -> Set[int]:
    """{g : x tau(g) = sigma(g) x}; a subgroup for finite groups."""
    return set(np.flatnonzero(twisted_conjugates(group, sigma, tau, x) == x).tolist())


def twisted_center_group(group: FiniteGroup, sigma: Endomorphism,
                         tau: Endomorphism) -> Set[int]:
    """{z : z tau(g) = sigma(g) z for all g}; the union of singleton classes."""
    C = twisted_conjugates(group, sigma, tau)
    return set(np.flatnonzero((C == np.arange(len(C))).all(axis=0)).tolist())


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
    z -> z tau(g) - sigma(g) z, the cached rows of ``table_rows``, on the sparse engine.
    """
    n = common_group(group, sigma, tau).order
    cols, vals, _, _ = table_rows(sigma, tau)
    kernel = sparse_kernel_basis(common_field(field, sigma, tau), (cols, vals), identity_seed(n))
    return [GroupRingElement(group, field, v, coerce=False) for v in kernel]


def twisted_center_dimension(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                             field: Field) -> int:
    n = common_group(group, sigma, tau).order
    cols, vals, _, _ = table_rows(sigma, tau)
    return n - sparse_rank(common_field(field, sigma, tau), (cols, vals))


def inner_basis(group: FiniteGroup, sigma: Endomorphism, tau: Endomorphism,
                field: Field) -> List[TwistedDerivation]:
    """The inner-derivation basis D_g, g over non-singleton classes minus reps.

    Exactly |G| - r derivations.  D_g's generator images are column g of
    the system that ``is_inner`` solves, ``generator_rows``, handed over as
    integers over 1 (group maps act over the scale 1), rank-checked for
    independence, which is exact because a derivation vanishing on the
    generators vanishes everywhere.
    """
    partition = twisted_classes(group, sigma, tau)
    members = [g for cls in partition.classes[partition.singleton_count:] for g in cls[1:]]
    if len(members) != group.order - partition.r:
        raise AssertionError("class bookkeeping lost derivations")
    cols, vals, _, _ = generator_rows(sigma, tau)
    columns = dense_block(common_field(field, sigma, tau), cols, vals, group.order)[:, members].T
    if members and len(echelon(field, columns, rank_only=True)[0]) != len(members):
        raise AssertionError("inner derivation basis is not independent")
    return [TwistedDerivation(group, field, sigma, tau, provenance="inner",
                              witness=GroupRingElement.basis(group, field, g), images=(col, 1))
            for g, col in zip(members, columns)]
