"""Bundled reference tables and the reproduction harness.

Each table records published code parameters for a specific derivation
and family of generating subsets, plus the generator matrices as
printed in the source material.  The harness recomputes every row with
the toolkit and reports per-row pass/fail.

Two source-data quirks are annotated rather than hidden:

* In the ternary c24 table, the printed generator matrix drops the
  x^14 coefficient in its first row (the image of x), and the published
  parameters of every subset containing x follow that printed row, not
  the stated derivation.  Those rows carry ``follows_printed_row`` with
  the recomputed values recorded alongside.
* The c24 row labelled S6 is published as LCD, but its generator Gram
  matrix is singular (hull dimension 1, confirmed through two
  independent routes); the row carries ``published_lcd_error``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .codes import CodeReport, LinearCode, code_report, linear_code_report
from .derivations import (GeneratorMap, TwistedDerivation, cyclic_power_derivation,
                          derivation_space, extend_from_generators)
from .dihedral import predict
from .groups import (FiniteGroup, cyclic_group, dihedral_group, endo_from_images,
                     enumerate_endomorphisms)
from .groupring import parse_element
from .linalg import GF, QQ, Matrix
from .conjugacy import inner_basis, twisted_classes


@dataclass
class RowCheck:
    table: str
    label: str
    ok: bool
    expected: str
    actual: str
    note: str = ""


def _c18a_subsets():
    s1 = [1, 5, 7, 9, 11, 13, 15, 17]
    s2 = [i for i in s1 if i != 13]
    s3 = [i for i in s2 if i != 7]
    s4 = [i for i in s3 if i != 9]
    return {"S1": s1, "S2": s2, "S3": s3, "S4": s4, "S1'": [1, 5, 9, 13]}


def _c18b_subsets():
    c = {"S1": [1, 3, 5, 7, 9, 11, 13, 15, 17]}
    c["S2"] = [i for i in c["S1"] if i != 15]
    c["S3"] = [i for i in c["S2"] if i != 11]
    c["S4"] = [i for i in c["S3"] if i != 3]
    c["S5"] = [i for i in c["S4"] if i != 7]
    c["S6"] = [i for i in c["S5"] if i != 17]
    c["S7"] = [i for i in c["S4"] if i != 17]
    c["S8"] = [i for i in c["S7"] if i != 13]
    c["S9"] = [i for i in c["S6"] if i != 13]
    c["S10"] = [i for i in c["S8"] if i != 1]
    c["S10b"] = [i for i in c["S8"] if i != 5]
    c["S11"] = [i for i in c["S8"] if i != 9]
    c["S12"] = [i for i in c["S11"] if i != 7]
    return c


def _c24_subsets():
    s1 = [i for i in range(1, 24) if i % 3]

    def drop(*xs):
        return [g for g in s1 if g not in xs]

    return {
        "S1": s1, "S2": drop(1), "S3": drop(2), "S4": drop(1, 2), "S5": drop(1, 4),
        "S6": drop(1, 7), "S7": drop(1, 19), "S8": drop(1, 2, 7), "S9": drop(1, 4, 7),
        "S10": drop(7, 11, 14), "S11": drop(1, 4, 7, 11), "S12": drop(1, 4, 7, 14),
        "S13": drop(1, 4, 7, 23), "S14": drop(4, 7, 16, 23),
        "S15": drop(1, 2, 4, 7, 14), "S16": drop(1, 4, 7, 14, 23),
        "S17": drop(1, 2, 4, 5, 7, 14),
        "S18": [8, 10, 11, 16, 17, 19, 20, 22, 23],
        "S19": [8, 10, 11, 13, 16, 19, 20, 22, 23],
        "S20": [8, 10, 11, 16, 17, 19, 20, 23],
        "S21": [8, 11, 16, 17, 19, 20, 23],
        "S22": [11, 16, 17, 19, 20, 23],
        "S23": [11, 16, 17, 19, 23],
        "S43": [16, 17, 19, 23],
    }


# row tuples: (label, subset key or list, k, d, lcd, dual_k, dual_d)
REFERENCE_TABLES: Dict[str, Dict] = {
    "c18-a": {
        "kind": "cyclic-power",
        "n": 18, "field": 2, "sigma": {"x": "x"},
        "seed": "1 + x + x^2 + x^3 + x^4 + x^5 + x^8 + x^11",
        "subsets": _c18a_subsets(),
        "rows": [
            ("S1", "S1", 8, 6, False, 10, 4),
            ("S2", "S2", 7, 6, False, 11, 3),
            ("S3", "S3", 6, 6, False, 12, 2),
            ("S4", "S4", 5, 6, False, 13, 2),
            ("S1'", "S1'", 4, 8, False, 14, 2),
        ],
        "matrix_subset": "S1",
    },
    "c18-b": {
        "kind": "cyclic-power",
        "n": 18, "field": 2, "sigma": {"x": "x^2"},
        "seed": "1 + x + x^3 + x^4 + x^7 + x^9 + x^13 + x^16 + x^17",
        "subsets": _c18b_subsets(),
        "rows": [
            ("S1", "S1", 9, 5, False, 9, 5),
            ("S2", "S2", 8, 5, False, 10, 3),
            ("S3", "S3", 7, 5, True, 11, 3),
            ("S4", "S4", 6, 5, False, 12, 3),
            ("S5", "S5", 5, 5, True, 13, 3),
            ("S6", "S6", 4, 8, False, 14, 2),
            ("S7", "S7", 5, 6, False, 13, 2),
            ("S8", "S8", 4, 7, False, 14, 2),
            ("S9", "S9", 3, 9, True, 15, 1),
            ("S10", "S10", 3, 8, True, 15, 1),
            ("S10b", "S10b", 3, 8, True, 15, 1),
            ("S11", "S11", 3, 7, True, 15, 1),
            ("S12", "S12", 2, 9, True, 16, 1),
        ],
        "matrix_subset": "S1",
    },
    "c14-main": {
        "kind": "cyclic-power-multi",
        "n": 14, "field": 2, "sigma": {"x": "x"},
        "rows": [
            ("D1", "1 + x + x^2 + x^3 + x^4 + x^6 + x^9", [1, 3, 5, 7, 9, 11, 13], 7, 4, True, 7, 4),
            ("D2", "1 + x + x^2 + x^3 + x^4 + x^9", [1, 3, 5, 7, 9, 11, 13], 7, 4, False, 7, 4),
            ("D3", "1 + x + x^2 + x^3 + x^5 + x^8 + x^11", [1, 3, 5, 7, 9, 11, 13], 7, 3, True, 7, 3),
            ("D4", "1 + x + x^3 + x^4 + x^5 + x^6 + x^9", [1, 3, 5, 7], 4, 7, False, 10, 3),
            ("D5", "1 + x + x^2 + x^4 + x^5 + x^8", [1, 3, 5, 7, 9, 11], 6, 4, True, 8, 3),
            ("D6", "1 + x + x^2 + x^4 + x^5 + x^7 + x^10", [1, 3, 5, 7, 9, 11, 13], 7, 3, False, 7, 3),
        ],
    },
    "c14-d1": {
        "kind": "cyclic-power",
        "n": 14, "field": 2, "sigma": {"x": "x"},
        "seed": "1 + x + x^2 + x^3 + x^4 + x^6 + x^9",
        "subsets": None,
        "rows": [
            ("r1", [1, 3, 5, 7, 11, 13], 6, 4, True, 8, 3),
            ("r2a", [1, 3, 5, 7, 13], 5, 5, True, 9, 3),
            ("r2b", [1, 3, 5, 11, 13], 5, 5, True, 9, 3),
            ("r3a", [1, 3, 5, 7], 4, 6, False, 10, 2),
            ("r3b", [1, 3, 5, 13], 4, 6, False, 10, 2),
            ("r4", [1, 5, 13], 3, 6, False, 11, 1),
            ("r5", [1, 3, 5], 3, 6, True, 11, 1),
            ("r6", [1, 3, 7, 11], 4, 4, False, 10, 2),
            ("r7", [1, 3, 9, 13], 4, 5, True, 10, 2),
            ("r8", [1, 5], 2, 7, True, 12, 1),
        ],
        "matrix_subset": [1, 3, 5, 7, 9, 11, 13],
    },
    "c14-d3": {
        "kind": "cyclic-power",
        "n": 14, "field": 2, "sigma": {"x": "x"},
        "seed": "1 + x + x^2 + x^3 + x^5 + x^8 + x^11",
        "subsets": None,
        "rows": [
            ("r1", [1, 3, 5, 7, 9, 13], 6, 3, True, 8, 2),
            ("r2", [1, 3, 5, 9, 13], 5, 3, True, 9, 2),
            ("r3", [1, 3, 5], 3, 7, True, 11, 2),
            ("r4", [1, 3, 5, 9], 4, 4, True, 10, 2),
            ("r5", [1, 3, 11, 13], 4, 3, True, 10, 2),
            ("r6", [1, 5], 2, 7, True, 12, 1),
        ],
        "matrix_subset": [1, 3, 5, 7, 9, 11, 13],
    },
    "c24": {
        "kind": "cyclic-power",
        "n": 24, "field": 3, "sigma": {"x": "x^5"},
        "seed": "1 + x + x^3 + x^4 + x^5 + x^7 + x^9 + x^12 + x^14",
        "subsets": _c24_subsets(),
        "rows": [
            ("S1", "S1", 16, 3, True, 8, 7),
            ("S2", "S2", 15, 4, True, 9, 7),
            ("S3", "S3", 15, 3, True, 9, 7),
            ("S4", "S4", 14, 4, False, 10, 6),
            ("S5", "S5", 14, 4, True, 10, 7),
            ("S6", "S6", 14, 5, True, 10, 7),
            ("S7", "S7", 14, 5, False, 10, 7),
            ("S8", "S8", 13, 5, False, 11, 5),
            ("S9", "S9", 13, 5, False, 11, 7),
            ("S10", "S10", 13, 5, True, 11, 6),
            ("S11", "S11", 12, 6, False, 12, 6),
            ("S12", "S12", 12, 6, True, 12, 6),
            ("S13", "S13", 12, 5, True, 12, 5),
            ("S14", "S14", 12, 4, True, 12, 4),
            ("S15", "S15", 11, 7, False, 13, 5),
            ("S16", "S16", 11, 6, True, 13, 5),
            ("S17", "S17", 10, 7, True, 14, 5),
            ("S18", "S18", 9, 8, True, 15, 3),
            ("S19", "S19", 9, 7, True, 15, 3),
            ("S20", "S20", 8, 8, True, 16, 3),
            ("S21", "S21", 7, 9, True, 17, 2),
            ("S22", "S22", 6, 9, True, 18, 2),
            ("S23", "S23", 5, 9, True, 19, 1),
            ("S43", "S43", 4, 9, True, 20, 1),
        ],
        "matrix_subset": "S1",
        # published rows of subsets containing x were computed from the
        # printed generator row for x, which drops its x^14 coefficient
        "follows_printed_row": {
            "S1": (16, 4, False, 8, 8),
            "S3": (15, 4, True, 9, 7),
            "S10": (13, 4, True, 11, 6),
            "S14": (12, 5, True, 12, 4),
        },
        # published flag contradicted by exact recomputation (both routes)
        "published_lcd_error": {"S6": False},
        "printed_x_row": "1 1 0 1 1 1 0 1 0 1 0 0 1 0 0 0 0 0 0 0 0 0 0 0",
    },
    "d12": {
        "kind": "dihedral-extend",
        "n": 6, "field": 2,
        "sigma": {"a": "a^2", "b": "a*b"},
        "images": {
            "a": "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b",
            "b": "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b",
        },
        "rows": [
            ("S1", ["a", "a^2", "a^3", "b"], 4, 4, False, None, None),
            ("S2", ["a^2", "a^3", "a^5", "a^2*b"], 4, 4, False, None, None),
            ("S3", ["a", "a^2", "a^5", "b"], 4, 4, False, None, None),
            ("S4", ["a^3", "a^5", "b", "a^2*b"], 4, 4, False, None, None),
            ("S5", ["a", "a^5", "b", "a^2*b"], 4, 4, False, None, None),
        ],
        "self_orthogonal": True,
    },
}

TABLE_IDS = tuple(REFERENCE_TABLES)

PRINTED_MATRICES: Dict[str, List[str]] = {
    "c18-a": [
        "1 1 1 1 1 1 0 0 1 0 0 1 0 0 0 0 0 0",
        "0 0 0 0 1 1 1 1 1 1 0 0 1 0 0 1 0 0",
        "0 0 0 0 0 0 1 1 1 1 1 1 0 0 1 0 0 1",
        "0 1 0 0 0 0 0 0 1 1 1 1 1 1 0 0 1 0",
        "1 0 0 1 0 0 0 0 0 0 1 1 1 1 1 1 0 0",
        "0 0 1 0 0 1 0 0 0 0 0 0 1 1 1 1 1 1",
        "1 1 0 0 1 0 0 1 0 0 0 0 0 0 1 1 1 1",
        "1 1 1 1 0 0 1 0 0 1 0 0 0 0 0 0 1 1",
    ],
    "c18-b": [
        "1 1 0 1 1 0 0 1 0 1 0 0 0 1 0 0 1 1",
        "0 0 1 1 1 1 0 1 1 0 0 1 0 1 0 0 0 1",
        "0 0 0 1 0 0 1 1 1 1 0 1 1 0 0 1 0 1",
        "0 1 0 1 0 0 0 1 0 0 1 1 1 1 0 1 1 0",
        "0 1 1 0 0 1 0 1 0 0 0 1 0 0 1 1 1 1",
        "1 1 1 1 0 1 1 0 0 1 0 1 0 0 0 1 0 0",
        "0 1 0 0 1 1 1 1 0 1 1 0 0 1 0 1 0 0",
        "0 1 0 0 0 1 0 0 1 1 1 1 0 1 1 0 0 1",
        "1 0 0 1 0 1 0 0 0 1 0 0 1 1 1 1 0 1",
    ],
    "c14-d1": [
        "1 1 1 1 1 0 1 0 0 1 0 0 0 0",
        "0 0 1 1 1 1 1 0 1 0 0 1 0 0",
        "0 0 0 0 1 1 1 1 1 0 1 0 0 1",
        "0 1 0 0 0 0 1 1 1 1 1 0 1 0",
        "1 0 0 1 0 0 0 0 1 1 1 1 1 0",
        "1 0 1 0 0 1 0 0 0 0 1 1 1 1",
        "1 1 1 0 1 0 0 1 0 0 0 0 1 1",
    ],
    "c14-d3": [
        "1 1 1 1 0 1 0 0 1 0 0 1 0 0",
        "0 0 1 1 1 1 0 1 0 0 1 0 0 1",
        "0 1 0 0 1 1 1 1 0 1 0 0 1 0",
        "1 0 0 1 0 0 1 1 1 1 0 1 0 0",
        "0 0 1 0 0 1 0 0 1 1 1 1 0 1",
        "0 1 0 0 1 0 0 1 0 0 1 1 1 1",
        "1 1 0 1 0 0 1 0 0 1 0 0 1 1",
    ],
    "c24": [
        "1 1 0 1 1 1 0 1 0 1 0 0 1 0 0 0 0 0 0 0 0 0 0 0",
        "0 0 0 0 0 2 2 0 2 2 2 0 2 0 2 0 0 2 0 2 0 0 0 0",
        "1 0 0 1 0 1 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 0 1 0",
        "2 2 0 2 0 2 0 0 2 0 2 0 0 0 0 0 0 0 0 0 2 2 0 2",
        "0 0 0 0 0 0 1 1 0 1 1 1 0 1 0 1 0 0 1 0 1 0 0 0",
        "0 2 0 0 0 0 0 0 0 0 0 2 2 0 2 2 2 0 2 0 2 0 0 2",
        "1 1 1 0 1 0 1 0 0 1 0 1 0 0 0 0 0 0 0 0 0 1 1 0",
        "0 0 2 2 0 2 2 2 0 2 0 2 0 0 2 0 2 0 0 0 0 0 0 0",
        "1 0 1 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 0 1 0 1 0 0",
        "2 0 2 0 0 2 0 2 0 0 0 0 0 0 0 0 0 2 2 0 2 2 2 0",
        "0 0 0 1 1 0 1 1 1 0 1 0 1 0 0 1 0 1 0 0 0 0 0 0",
        "0 0 0 0 0 0 0 0 2 2 0 2 2 2 0 2 0 2 0 0 2 0 2 0",
        "0 1 0 1 0 0 1 0 1 0 0 0 0 0 0 0 0 0 1 1 0 1 1 1",
        "2 0 2 2 2 0 2 0 2 0 0 2 0 2 0 0 0 0 0 0 0 0 0 2",
        "0 0 0 0 0 0 0 0 0 1 1 0 1 1 1 0 1 0 1 0 0 1 0 1",
        "0 0 2 0 2 0 0 0 0 0 0 0 0 0 2 2 0 2 2 2 0 2 0 2",
    ],
}

# matrix rows where the printed source is suspected unreliable
MATRIX_DIFF_ALLOWED: Dict[str, frozenset] = {
    "c18-a": frozenset(),
    "c18-b": frozenset({0}),
    "c14-d1": frozenset(),
    "c14-d3": frozenset(),
    "c24": frozenset({0}),
}


def build_context(table_id: str):
    """Group, field, sigma and derivation(s) of a reference table."""
    spec = REFERENCE_TABLES[table_id]
    field = GF(spec["field"])
    if spec["kind"] in ("cyclic-power", "cyclic-power-multi"):
        group = cyclic_group(spec["n"])
        sigma = endo_from_images(group, spec["sigma"])
        if spec["kind"] == "cyclic-power":
            seed = parse_element(group, field, spec["seed"])
            derivation = cyclic_power_derivation(group, sigma, seed)
            return group, field, sigma, derivation
        return group, field, sigma, None
    group = dihedral_group(spec["n"])
    sigma = endo_from_images(group, spec["sigma"])
    images = {name: parse_element(group, field, text)
              for name, text in spec["images"].items()}
    derivation = extend_from_generators(GeneratorMap(group, field, images), sigma)
    return group, field, sigma, derivation


def _subset_indices(group: FiniteGroup, spec: Dict, subset_ref) -> List[int]:
    if isinstance(subset_ref, str):
        subset_ref = spec["subsets"][subset_ref]
    out = []
    for item in subset_ref:
        if isinstance(item, int):
            out.append(item % group.order)
        else:
            out.append(group.names.index(item))
    return out


def _fmt(k, d, lcd, dual_k, dual_d, self_orth=None) -> str:
    bits = [f"k={k}", f"d={d}", f"lcd={lcd}"]
    if dual_k is not None:
        bits.append(f"dual=({dual_k},{dual_d})")
    if self_orth is not None:
        bits.append(f"self_orthogonal={self_orth}")
    return " ".join(bits)


def _report_with_replaced_row(derivation: TwistedDerivation, indices: List[int],
                              replace_index: int, replacement: List[int]) -> CodeReport:
    field = derivation.field
    rows = []
    for g in indices:
        row = list(derivation.table[g].coeffs)
        if g == replace_index:
            row = [field.coerce(v) for v in replacement]
        rows.append(row)
    gen = Matrix(field, rows, coerce=False)
    code = LinearCode(field, derivation.group.order, len(indices), gen,
                      {"subset_indices": indices})
    return linear_code_report(code)


def reproduce_table(table_id: str) -> List[RowCheck]:
    """Recompute one reference table; one RowCheck per published row."""
    spec = REFERENCE_TABLES[table_id]
    group, field, sigma, derivation = build_context(table_id)
    printed_follow = spec.get("follows_printed_row", {})
    lcd_errors = spec.get("published_lcd_error", {})
    printed_x_row = ([int(v) for v in spec["printed_x_row"].split()]
                     if "printed_x_row" in spec else None)
    want_self_orth = spec.get("self_orthogonal")
    checks: List[RowCheck] = []
    for row in spec["rows"]:
        if spec["kind"] == "cyclic-power-multi":
            label, seed_text, subset_ref, k, d, lcd, dual_k, dual_d = row
            seed = parse_element(group, field, seed_text)
            deriv = cyclic_power_derivation(group, sigma, seed)
        else:
            label, subset_ref, k, d, lcd, dual_k, dual_d = row
            deriv = derivation
        indices = _subset_indices(group, spec, subset_ref)
        rep = code_report(deriv, indices)
        got = (rep.k, rep.d, rep.lcd, rep.dual_k, rep.dual_d)
        note = ""
        if label in printed_follow:
            # published values follow the printed generator row for x
            rep_printed = _report_with_replaced_row(deriv, indices, 1, printed_x_row)
            ok = (rep_printed.k, rep_printed.d, rep_printed.lcd,
                  rep_printed.dual_k, rep_printed.dual_d) == (k, d, lcd, dual_k, dual_d)
            ok = ok and got == printed_follow[label]
            note = (f"published row follows the printed x-row; the stated "
                    f"derivation gives {_fmt(*got)}")
            actual = _fmt(rep_printed.k, rep_printed.d, rep_printed.lcd,
                          rep_printed.dual_k, rep_printed.dual_d)
        elif label in lcd_errors:
            ok = (rep.k, rep.d, rep.dual_k, rep.dual_d) == (k, d, dual_k, dual_d)
            ok = ok and rep.lcd == lcd_errors[label]
            note = (f"published lcd={lcd} contradicts the exact Gram/hull "
                    f"computation (lcd={rep.lcd})")
            actual = _fmt(*got)
        else:
            expected_tuple = (k, d, lcd,
                              dual_k if dual_k is not None else rep.dual_k,
                              dual_d if dual_d is not None else rep.dual_d)
            ok = got == expected_tuple
            if want_self_orth is not None:
                ok = ok and rep.self_orthogonal == want_self_orth
            actual = _fmt(*got, self_orth=rep.self_orthogonal
                          if want_self_orth is not None else None)
        checks.append(RowCheck(
            table=table_id, label=label, ok=ok,
            expected=_fmt(k, d, lcd, dual_k, dual_d, self_orth=want_self_orth),
            actual=actual, note=note))
    return checks


def reference_matrix(table_id: str) -> List[List[int]]:
    return [[int(v) for v in line.split()] for line in PRINTED_MATRICES[table_id]]


def computed_matrix(table_id: str) -> List[List[int]]:
    """Generator matrix recomputed from the stated derivation."""
    spec = REFERENCE_TABLES[table_id]
    group, field, sigma, derivation = build_context(table_id)
    indices = _subset_indices(group, spec, spec["matrix_subset"])
    return [[int(c) for c in derivation.table[g].coeffs] for g in indices]


def matrix_diff(table_id: str) -> List[Tuple[int, int, int, int]]:
    """(row, col, printed, recomputed) entries where the two disagree."""
    printed = reference_matrix(table_id)
    computed = computed_matrix(table_id)
    diffs = []
    for i, (prow, crow) in enumerate(zip(printed, computed)):
        for j, (p, c) in enumerate(zip(prow, crow)):
            if p != c:
                diffs.append((i, j, p, c))
    return diffs


MATRIX_TABLE_IDS = tuple(PRINTED_MATRICES)


def reproduce_dihedral(n: int) -> List[RowCheck]:
    """Solver-versus-closed-form checks for one dihedral rotation order."""
    group = dihedral_group(n)
    fields = [GF(2), GF(3), GF(5), GF(7), QQ]
    checks: List[RowCheck] = []
    for endo in enumerate_endomorphisms(group):
        if endo.family not in ("sigma0", "sigma1"):
            continue
        tag = f"n={n} s={endo.s} t={endo.t}"
        partition = twisted_classes(group, endo)
        for F in fields:
            pred = predict(group, endo, F)
            dim = derivation_space(F, endo, basis=False)[0]
            inner = len(inner_basis(group, endo, endo, F))
            ok = (dim == pred.dim_derivations
                  and partition.r == pred.class_count
                  and set(map(frozenset, partition.classes)) == set(pred.class_sets)
                  and inner == pred.dim_inner
                  and (dim > inner) == pred.outer_nonzero)
            checks.append(RowCheck(
                table=f"dihedral-{n}", label=f"{tag} {F}", ok=ok,
                expected=(f"dim={pred.dim_derivations} classes={pred.class_count} "
                          f"inner={pred.dim_inner} outer={pred.outer_nonzero}"),
                actual=(f"dim={dim} classes={partition.r} inner={inner} "
                        f"outer={dim > inner}"),
                note=pred.applicable_case))
    return checks
