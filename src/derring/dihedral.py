"""Closed-form predictions for dihedral group algebras.

For the rotation-faithful endomorphism families (a -> a^s with a^s
noncentral, b -> a^t b) the derivation-space dimension, the twisted
class inventory, the inner dimension and the outer verdict all have
closed forms in n, s, t and the field characteristic.  Everything here
is independently checkable against the generic solvers, which is exactly
how the test suite uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from .errors import MathRejection
from .groups import DihedralEndoParams, Endomorphism, FiniteGroup, common_group
from .groupring import GroupRingElement
from .linalg import Field


class NoClosedForm(MathRejection):
    """The endomorphism family has no closed-form layer; use the solvers."""


def params_for(endo: Endomorphism) -> DihedralEndoParams:
    if endo.family not in ("sigma0", "sigma1"):
        raise NoClosedForm(
            f"family {endo.family} has no closed forms; the generic solver applies")
    return DihedralEndoParams.from_endo(endo)


def predict_dim_derivations(n: int, char: int, params: DihedralEndoParams) -> Tuple[int, str]:
    """Predicted dimension of the derivation space, with its case label."""
    d, m = params.d, params.m
    if n % 2:
        if char == 2:
            return (3 * n - d) // 2 + 1, "odd-n/char-2"
        if char == 0 or n % char:
            return (3 * n - d) // 2 - 1, "odd-n/char-coprime"
        if d % char:
            return 2 * n - (d + 3) // 2, "odd-n/char-divides-n-not-d"
        return 2 * (n - 1), "odd-n/char-divides-d"
    if char == 2:
        return 2 * (n + 2), "even-n/char-2"
    if m % 2:
        if char == 0 or n % char:
            return (3 * n - d) // 2 - 2, "even-n-odd-m/char-coprime"
        if d % char:
            return 2 * n - d // 2 - 3, "even-n-odd-m/char-divides-n-not-d"
        return 2 * (n - 2), "even-n-odd-m/char-divides-d"
    if char == 0 or n % char:
        return 3 * n // 2 - d - 2, "even-n-even-m/char-coprime"
    if d % char:
        return 2 * n - d - 3, "even-n-even-m/char-divides-n-not-d"
    return 2 * (n - 2), "even-n-even-m/char-divides-d"


def _rotation(n: int, k: int) -> int:
    return k % n


def _reflection(n: int, u: int) -> int:
    return n + (u % n)


def _element(group: FiniteGroup, field: Field, pairs) -> GroupRingElement:
    """The group-ring element summing val * g over the (g, val) pairs."""
    coeffs = [field.zero()] * group.order
    for idx, val in pairs:
        coeffs[idx] = field.add(coeffs[idx], field.coerce(val))
    return GroupRingElement(group, field, coeffs, coerce=False)


def _reflection_class(n: int, s: int, m: int, j0: int, u: int) -> FrozenSet[int]:
    members = set()
    for i in range(m):
        members.add(_reflection(n, 2 * s * i + u))
        members.add(_reflection(n, 2 * s * i + 2 * j0 - u))
    return frozenset(members)


def predict_classes(n: int, params: DihedralEndoParams) -> Tuple[int, List[FrozenSet[int]]]:
    """Predicted twisted class count and explicit member sets.

    Indices refer to the frozen dihedral listing (a^k at k, a^u b at n+u).
    """
    s, d, m, j0 = params.s, params.d, params.m, params.j0
    classes: List[FrozenSet[int]] = [frozenset({0})]
    if n % 2 == 0:
        classes.append(frozenset({_rotation(n, n // 2)}))
    half = (n - 1) // 2 if n % 2 else n // 2 - 1
    for k in range(1, half + 1):
        classes.append(frozenset({_rotation(n, k), _rotation(n, -k)}))
    if n % 2:
        span = (d - 1) // 2
    elif m % 2:
        span = d // 2
    else:
        span = d
    for u in range(j0, j0 + span + 1):
        classes.append(_reflection_class(n, s, m, j0, u))
    count = len(classes)
    if n % 2:
        expected = (n + d) // 2 + 1
    elif m % 2:
        expected = (n + d) // 2 + 2
    else:
        expected = n // 2 + d + 2
    if count != expected:
        raise AssertionError(f"class inventory size {count} != formula {expected}")
    if sum(len(c) for c in classes) != 2 * n:
        raise AssertionError("class inventory does not cover the group")
    return count, classes


def predict_dim_inner(n: int, params: DihedralEndoParams) -> int:
    d, m = params.d, params.m
    if n % 2:
        value = (3 * n - d) // 2 - 1
    elif m % 2:
        value = (3 * n - d) // 2 - 2
    else:
        value = 3 * n // 2 - d - 2
    count, _ = predict_classes(n, params)
    if value != 2 * n - count:
        raise AssertionError("inner dimension and class count disagree")
    return value


def predict_outer(n: int, char: int, params: DihedralEndoParams) -> bool:
    """True when outer derivations exist: characteristic 2 or dividing n."""
    return char == 2 or (char != 0 and n % char == 0)


@dataclass
class DihedralPrediction:
    params: DihedralEndoParams
    char: int
    dim_derivations: int
    dim_inner: int
    class_count: int
    class_sets: List[FrozenSet[int]]
    class_descriptions: List[str]
    outer_nonzero: bool
    applicable_case: str


def predict(group: FiniteGroup, endo: Endomorphism, field: Field) -> DihedralPrediction:
    if common_group(group, endo).family != "dihedral":
        raise ValueError("predictions are stated for dihedral groups")
    params = params_for(endo)
    n = params.n
    char = field.char
    dim, case = predict_dim_derivations(n, char, params)
    count, classes = predict_classes(n, params)
    dim_inner = predict_dim_inner(n, params)
    descriptions = ["{" + ", ".join(group.names[i] for i in sorted(c)) + "}"
                    for c in classes]
    return DihedralPrediction(
        params=params, char=char, dim_derivations=dim, dim_inner=dim_inner,
        class_count=count, class_sets=classes, class_descriptions=descriptions,
        outer_nonzero=predict_outer(n, char, params), applicable_case=case)


# -- explicit (anti)centralizer bases ------------------------------------------

def explicit_basis(group: FiniteGroup, field: Field, params: DihedralEndoParams,
                which: str) -> List[GroupRingElement]:
    """The explicit basis of the (anti)centralizer of sigma(b) or sigma(ab).

    ``which`` is one of ``anticentralizer-b``, ``anticentralizer-ab``
    (characteristic not 2) and ``centralizer-b``, ``centralizer-ab``
    (characteristic 2).  Spans match the kernel computations in the group
    ring module.
    """
    n = group.family_params
    s, t = params.s, params.t
    char = field.char

    elem = lambda pairs: _element(group, field, pairs)
    rot = lambda k: _rotation(n, k)
    ref = lambda u: _reflection(n, u)
    out: List[GroupRingElement] = []
    if which in ("anticentralizer-b", "anticentralizer-ab"):
        if char == 2:
            raise ValueError("anticentralizer bases are stated away from characteristic 2")
        shift = t if which.endswith("-b") else s + t
        for i in range(1, (n - 1) // 2 + 1):
            out.append(elem([(rot(i), 1), (rot(-i), -1)]))
            out.append(elem([(ref(shift + i), 1), (ref(shift - i), -1)]))
        return out
    if which in ("centralizer-b", "centralizer-ab"):
        if char != 2:
            raise ValueError("explicit centralizer bases are stated in characteristic 2")
        shift = t if which.endswith("-b") else s + t
        out.append(elem([(rot(0), 1)]))
        if n % 2 == 0:
            out.append(elem([(rot(n // 2), 1)]))
        out.append(elem([(ref(shift), 1)]))
        if n % 2 == 0:
            out.append(elem([(ref(shift + n // 2), 1)]))
        top = (n - 1) // 2 if n % 2 else n // 2 - 1
        for i in range(1, top + 1):
            out.append(elem([(rot(i), 1), (rot(-i), 1)]))
            out.append(elem([(ref(shift + i), 1), (ref(shift - i), 1)]))
        return out
    raise ValueError(f"unknown basis selector {which!r}")
