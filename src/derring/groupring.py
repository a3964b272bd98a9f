"""The group algebra FG: coefficient vectors indexed by the group listing.

Elements are dense coefficient vectors over an exact field.  The grammar
for element literals is ``+``/``-`` separated terms, each ``coef*word``,
a bare ``word`` (coefficient 1) or a bare coefficient (identity term),
e.g. ``1 + a + 2*a^3*b`` or ``2*x^5 + x``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .groups import FiniteGroup, common_field, common_group, parse_word
from .linalg import Field, _values, dense_block, integer_kernel, integer_scale


class GroupRingElement:
    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group: FiniteGroup, field: Field, coeffs: Sequence, coerce: bool = True):
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector length must equal the group order")
        self.group = group
        self.field = field
        self.coeffs = [field.coerce(c) for c in coeffs] if coerce else list(coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, group: FiniteGroup, field: Field) -> "GroupRingElement":
        return cls(group, field, [field.zero()] * group.order, coerce=False)

    @classmethod
    def one(cls, group: FiniteGroup, field: Field) -> "GroupRingElement":
        return cls.basis(group, field, group.identity)

    @classmethod
    def basis(cls, group: FiniteGroup, field: Field, index: int) -> "GroupRingElement":
        coeffs = [field.zero()] * group.order
        coeffs[index] = field.one()
        return cls(group, field, coeffs, coerce=False)

    def copy(self) -> "GroupRingElement":
        return GroupRingElement(self.group, self.field, list(self.coeffs), coerce=False)

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(c == zero for c in self.coeffs)

    def support(self) -> List[int]:
        zero = self.field.zero()
        return [i for i, c in enumerate(self.coeffs) if c != zero]

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement) and other.group is self.group
                and other.field == self.field and other.coeffs == self.coeffs)

    def _check_compatible(self, other: "GroupRingElement"):
        if other.group is not self.group or other.field != self.field:
            raise ValueError("operands live in different group rings")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        F = self.field
        return GroupRingElement(self.group, F,
                                [F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)],
                                coerce=False)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        F = self.field
        return GroupRingElement(self.group, F,
                                [F.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)],
                                coerce=False)

    def __neg__(self) -> "GroupRingElement":
        F = self.field
        return GroupRingElement(self.group, F, [F.neg(a) for a in self.coeffs], coerce=False)

    def scale(self, scalar) -> "GroupRingElement":
        F = self.field
        c = F.coerce(scalar)
        return GroupRingElement(self.group, F, [F.mul(c, a) for a in self.coeffs], coerce=False)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        """Convolution product over the group."""
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._check_compatible(other)
        F, G = self.field, self.group
        mul = G.mul
        zero = F.zero()
        out = [zero] * G.order
        p = F.p
        for g, a in enumerate(self.coeffs):
            if a == zero:
                continue
            row = mul[g]
            for h, b in enumerate(other.coeffs):
                if b == zero:
                    continue
                k = row[h]
                out[k] = (out[k] + a * b) % p if p else out[k] + a * b
        return GroupRingElement(G, F, out, coerce=False)

    def left_mul_elem(self, g: int) -> "GroupRingElement":
        """g * self for a group basis element g (index shift)."""
        G = self.group
        out = [self.field.zero()] * G.order
        row = G.mul[g]
        for c, a in enumerate(self.coeffs):
            out[row[c]] = a
        return GroupRingElement(G, self.field, out, coerce=False)

    def right_mul_elem(self, g: int) -> "GroupRingElement":
        G = self.group
        out = [self.field.zero()] * G.order
        mul = G.mul
        for c, a in enumerate(self.coeffs):
            out[mul[c][g]] = a
        return GroupRingElement(G, self.field, out, coerce=False)

    def __repr__(self):
        return f"<{format_element(self)}>"


def apply_endo(sigma, alpha: GroupRingElement) -> GroupRingElement:
    """Linear extension of an endomorphism: sum of a_g sigma(g).

    Reads sigma's ``Action``, for group and verified algebra endomorphisms
    alike: sigma(g) is the sum of coeffs[g, j] / scale times back[g, j]^-1.
    sigma and alpha share one group and, for an algebra map, one field.
    """
    G, F = common_group(sigma, alpha), common_field(alpha.field, sigma)
    action = sigma.action
    units, coeffs = G.inv_array[action.back].tolist(), action.coeffs.tolist()
    out = [F.zero()] * G.order
    for g in alpha.support():
        for u, c in zip(units[g], coeffs[g]):
            out[u] = F.add(out[u], F.mul(c, alpha.coeffs[g]))
    if action.scale != 1:
        out = [F.div(x, action.scale) for x in out]
    return GroupRingElement(G, F, out, coerce=False)


# -- centralizers -------------------------------------------------------------

def _commutator_kernel(beta: GroupRingElement, sign: int) -> List[GroupRingElement]:
    """The kernel of alpha -> alpha*beta - sign*(beta*alpha) in the group basis,
    as ``Matrix.kernel_basis`` gives it: one vector per free column.

    The map is one (cols, vals) block: row k has b_h at column k h^-1 and
    -sign b_h at column h^-1 k for each h in beta's support, b the
    integers of beta over their common denominator (``integer_scale``),
    which scale the map and keep its kernel (``integer_kernel``).
    """
    G, F = beta.group, beta.field
    ints, _ = integer_scale(beta.coeffs)
    hs = [h for h, b in enumerate(ints) if b]
    b = np.array([ints[h] for h in hs], dtype=object)
    inv = G.inv_array[np.array(hs, dtype=np.int64)]
    cols = np.concatenate([G.mul_array[:, inv], G.mul_array[inv].T], axis=1)
    vals = np.tile(np.concatenate([b, -sign * b]), (G.order, 1))
    K, lcms = integer_kernel(F, dense_block(F, cols, vals, G.order))
    return [GroupRingElement(G, F, _values(F, col, lcm), coerce=False)
            for col, lcm in zip(K.T, lcms.tolist())]


def centralizer_basis(beta: GroupRingElement) -> List[GroupRingElement]:
    """Basis of {alpha : alpha*beta = beta*alpha}, in echelon order."""
    return _commutator_kernel(beta, 1)


def anticentralizer_basis(beta: GroupRingElement) -> List[GroupRingElement]:
    """Basis of {alpha : alpha*beta = -beta*alpha}."""
    return _commutator_kernel(beta, -1)


# -- parsing and formatting ---------------------------------------------------

def _split_summands(text: str) -> List[tuple]:
    terms = []
    sign, token = 1, ""
    for ch in text:
        if ch == "+":
            if token.strip():
                terms.append((sign, token.strip()))
            sign, token = 1, ""
        elif ch == "-" and not token.rstrip().endswith("^"):
            # a minus right after ^ is a negative exponent, not a term break
            if token.strip():
                terms.append((sign, token.strip()))
            sign, token = -1, ""
        else:
            token += ch
    if token.strip():
        terms.append((sign, token.strip()))
    return terms


def parse_element(group: FiniteGroup, field: Field, text: str) -> GroupRingElement:
    """Parse an element literal like ``1 + a + 2*a^3*b``."""
    out = GroupRingElement.zero(group, field)
    coeffs = out.coeffs
    for sign, term in _split_summands(text):
        parts = term.split("*")
        coef = field.one()
        start = 0
        head = parts[0].strip()
        if head and (head[0].isdigit() or "/" in head):
            coef = field.coerce(head)
            start = 1
        word_text = "*".join(parts[start:]) if start < len(parts) else "1"
        if not word_text.strip():
            raise ValueError(f"term {term!r} has no word after its coefficient")
        idx = group.eval_word(parse_word(word_text))
        if sign < 0:
            coef = field.neg(coef)
        coeffs[idx] = field.add(coeffs[idx], coef)
    return out


def format_element(alpha: GroupRingElement) -> str:
    F = alpha.field
    parts = []
    for i, c in enumerate(alpha.coeffs):
        if c == F.zero():
            continue
        name = alpha.group.names[i]
        if c == F.one():
            parts.append(name if name != "1" else "1")
        elif name == "1":
            parts.append(str(c))
        else:
            parts.append(f"{c}*{name}")
    return " + ".join(parts) if parts else "0"
