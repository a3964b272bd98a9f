"""The four workloads: their inputs, their operations and their checks.

``build(name, mods, seed)`` makes one workload's inputs with derring's
own constructors.  Each operation calls derring through module
attributes at call time (``mods.derivations.derivation_space``), so the
traced run's wrappers see every call.  An operation returns derring's
raw output; ``plain`` turns it into exact plain data outside the timed
region and ``check`` compares that with the independent computations in
``checks``.

The input sets are fixed.  Which (s, t) an endomorphism has moves the
cost of a point by up to 40% (D16 pair-oracle points over QQ take 108 to
154 ms as t varies), so a seed that chose the endomorphisms would make
the runs of different seeds disagree by more than the bounds.  The seed
permutes the order of the operations inside a pass instead, except in
idd-codes, whose order is fixed (see ``build_idd_codes``).  Each pass
holds an odd number of operations, so the median falls inside one
operation's cluster of repeats rather than between two.  Operations
marked ``known_fault`` fail on every run because of a named fault in
derring.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Optional

import checks

MODULES = ("linalg", "groups", "groupring", "derivations", "conjugacy",
           "dihedral", "codes", "reference")

# p > 3.04e9, so (p - 1)^2 overflows int64 in linalg.rref_mod_p
BIG_PRIME = 4294967311


def import_derring(src: Path) -> SimpleNamespace:
    """Import derring from the checkout's ``src`` and return its modules."""
    pkg = importlib.import_module("derring")
    where = Path(pkg.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"derring was imported from {where}, not from {src}")
    mods = {name: importlib.import_module(f"derring.{name}") for name in MODULES}
    return SimpleNamespace(derring=pkg, **mods)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    plain: Callable[[object], object]
    check: Callable[[object], List[str]]
    known_fault: Optional[str] = None


@dataclass
class Workload:
    ops: List[Op]
    # nearest-rank percentile reported as op_ms_tail; min_passes keeps at
    # least ten operations above it in every run
    tail_pct: int
    min_passes: int
    # whether the seed permutes the operations
    seeded_order: bool = True
    # the calibration kernel in run.KERNELS that does this workload's kind of work
    kernel: str = "python"


def _exact_vec(coeffs, p):
    return tuple(checks.exact(c, p) for c in coeffs)


class _Point:
    """Plain data of a (G, sigma) point for the checks, with lazy r."""

    def __init__(self, group, sigma):
        self.mul = tuple(tuple(row) for row in group.mul)
        self.sigma = tuple(sigma.images)
        self.order = group.order
        self._r = None

    @property
    def r(self) -> int:
        if self._r is None:
            self._r = checks.twisted_class_count(self.mul, self.sigma, self.sigma)
        return self._r


def _endos(m, group, pairs):
    """The endomorphisms a -> a^s, b -> a^t b for the given (s, t), in order.

    They are taken from derring's complete inventory, so building the
    inventory is part of set-up.
    """
    by_st = {(e.s, e.t): e for e in m.groups.enumerate_endomorphisms(group)
             if e.family in ("sigma0", "sigma1")}
    return [by_st[st] for st in pairs]


# -- dihedral-grid -----------------------------------------------------------

# (s, t) per rotation order: one s per value of gcd(s, n); n <= 9 runs
# Python Gauss-Jordan in derivation_space, n = 10 the numpy rref_mod_p
GRID_POINTS = {6: ((1, 1), (2, 1)), 7: ((1, 1),), 8: ((1, 1), (2, 1)),
               9: ((1, 1), (3, 1)), 10: ((1, 1), (2, 1))}
# D20 points over GF(BIG_PRIME): derivation_space returns 9 and 8, not 12
GRID_FAULT_POINTS = ((1, 0), (2, 4))


def _grid_op(m, group, sigma, F, point, known_fault=None) -> Op:
    def run():
        dim = m.derivations.derivation_space(F, sigma, basis=False)[0]
        partition = m.conjugacy.twisted_classes(group, sigma)
        inner = m.conjugacy.inner_basis(group, sigma, sigma, F)
        pred = m.dihedral.predict(group, sigma, F)
        return dim, partition.r, len(inner), pred.outer_nonzero, pred.class_count

    def check(out):
        dim, r_lib, inner_dim, outer, class_count = out
        problems = []
        if r_lib != point.r or class_count != point.r:
            problems.append(f"twisted classes {r_lib} (closed form {class_count}) "
                            f"but the table has {point.r}")
        if inner_dim != point.order - point.r:
            problems.append(f"inner dimension {inner_dim} != |G| - r = "
                            f"{point.order - point.r}")
        return problems + checks.dimension_problems(point.order, F.p, point.r, dim, outer)

    label = f"D{2 * group.family_params} s={sigma.s} t={sigma.t} {F}"
    return Op(label, run, lambda out: out, check, known_fault)


def build_dihedral_grid(m) -> Workload:
    GF, QQ = m.linalg.GF, m.linalg.QQ
    fields = [GF(2), GF(3), GF(5), GF(7), QQ]
    ops = []
    for n, pairs in GRID_POINTS.items():
        group = m.groups.dihedral_group(n)
        for sigma in _endos(m, group, pairs):
            point = _Point(group, sigma)
            ops.extend(_grid_op(m, group, sigma, F, point) for F in fields)
    group = m.groups.dihedral_group(10)
    for sigma in _endos(m, group, GRID_FAULT_POINTS):
        ops.append(_grid_op(m, group, sigma, GF(BIG_PRIME), _Point(group, sigma),
                            known_fault=f"linalg.rref_mod_p overflows int64 for p = {BIG_PRIME}"))
    # 47 operations: p99 with 22 passes leaves 10 above it
    return Workload(ops, tail_pct=99, min_passes=22)


# -- pair-oracle -------------------------------------------------------------

def q16_table():
    """Generalized quaternion group of order 16, a^i b^j at index 8j + i."""
    def idx(i, j):
        return 8 * j + i % 8

    mul = [[0] * 16 for _ in range(16)]
    for i in range(8):
        for j in (0, 1):
            for k in range(8):
                for l in (0, 1):
                    # b a^k = a^-k b and b^2 = a^4
                    e = i + (k if j == 0 else -k) + (4 if j and l else 0)
                    mul[idx(i, j)][idx(k, l)] = idx(e, j ^ l)
    names = [("1" if i == 0 else "a" if i == 1 else f"a^{i}") if j == 0
             else ("b" if i == 0 else ("a" if i == 1 else f"a^{i}") + "*b")
             for j in (0, 1) for i in range(8)]
    return mul, names


def _pair_op(m, group, sigma, F, point, dihedral: bool) -> Op:
    expect = {}

    def run():
        return m.derivations.derivation_space_full(F, sigma, basis=False)[0]

    def check(dim):
        predicted_outer = None
        if dihedral:
            if "outer" not in expect:
                expect["outer"] = m.dihedral.predict(group, sigma, F).outer_nonzero
                expect["generator"] = m.derivations.derivation_space(
                    F, sigma, basis=False)[0]
            predicted_outer = expect["outer"]
        problems = checks.dimension_problems(point.order, F.p, point.r, dim,
                                             predicted_outer)
        if dihedral and dim != expect["generator"]:
            problems.append(f"pair solver dimension {dim} != generator solver "
                            f"{expect['generator']}")
        return problems

    tag = f"D{group.order}" if dihedral else "Q16(table)"
    label = f"{tag} {sigma.describe()} {F}"
    return Op(label, run, lambda out: out, check)


def build_pair_oracle(m) -> Workload:
    GF, QQ = m.linalg.GF, m.linalg.QQ
    fields = [GF(2), GF(3), QQ]
    points = []
    for n, pairs in ((7, ((1, 1), (2, 3))), (8, ((1, 1), (2, 3)))):
        group = m.groups.dihedral_group(n)
        points += [(group, sigma, True) for sigma in _endos(m, group, pairs)]
    mul, names = q16_table()
    q16 = m.groups.table_group(mul, names, ["a", "b"])
    points.append((q16, m.groups.endo_from_images(q16, {"a": "a^3", "b": "a*b"}), False))
    ops = []
    for group, sigma, dihedral in points:
        point = _Point(group, sigma)
        ops.extend(_pair_op(m, group, sigma, F, point, dihedral) for F in fields)
    # 15 operations: p90 with 7 passes leaves 10 above it
    return Workload(ops, tail_pct=90, min_passes=7)


# -- idd-codes ---------------------------------------------------------------

C24_ROWS = tuple(f"S{i}" for i in range(4, 18))
BINARY_TABLES = ("c18-a", "c18-b", "c14-main", "c14-d1", "c14-d3", "d12")
# c18-b rows of 18-40 ms, between the binary rows (0.5-11 ms) and the
# c24 rows (0.25-1.1 s); left out so that the median falls in the middle
# of the binary rows' 1.9-2.4 ms cluster rather than at its edge
SKIPPED_ROWS = {("c18-b", label) for label in ("S9", "S10", "S10b", "S11", "S12")}
LARGE_Q = (61, 67, 101, 127, 131)
LARGE_Q_FAULTS = {101: "codes._weight_counts holds values in int8",
                  127: "codes._weight_counts holds values in int8",
                  131: "codes._weight_counts holds values in int8"}
LARGE_Q_BETA = "1 + 2*a + 3*b + 5*a^3*b"


def _report_tuple(rep):
    return (rep.k, rep.d, rep.lcd, rep.dual_k, rep.dual_d)


def _subset(group, spec, ref):
    if isinstance(ref, str):
        ref = spec["subsets"][ref]
    return [item % group.order if isinstance(item, int) else group.names.index(item)
            for item in ref]


def _table_op(m, table_id, label, D, subset, published) -> Op:
    n = D.group.order

    def run():
        return m.codes.code_report(D, subset)

    def check(got):
        return checks.code_problems(n, len(subset), got, published)

    return Op(f"{table_id} {label}", run, _report_tuple, check)


def _large_q_op(m, group, sigma, F, subset) -> Op:
    q = F.p
    beta = m.groupring.parse_element(group, F, LARGE_Q_BETA)
    D = m.derivations.inner_derivation(beta, sigma, sigma)
    mul = tuple(tuple(row) for row in group.mul)
    simg = tuple(sigma.images)
    beta_plain = _exact_vec(beta.coeffs, q)
    expect = {}

    def run():
        return m.codes.code_report(D, subset)

    def check(got):
        if not expect:
            rows = [checks.inner_image(mul, simg, simg, beta_plain, g, q) for g in subset]
            gram = [[sum(a * b for a, b in zip(r, s)) % q for s in rows] for r in rows]
            lcd = (gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]) % q != 0
            expect["row"] = (2, checks.min_distance_k2(rows, q), lcd,
                             group.order - 2, checks.dual_distance_k2(rows, q))
        return checks.code_problems(group.order, len(subset), got, expect["row"])

    return Op(f"D16 inner[16,2] GF({q})", run, _report_tuple, check,
              LARGE_Q_FAULTS.get(q))


def build_idd_codes(m) -> Workload:
    ref = m.reference
    ops = []
    for table_id in ("c24",) + BINARY_TABLES:
        spec = ref.REFERENCE_TABLES[table_id]
        group, F, sigma, D = ref.build_context(table_id)
        quirks = set(spec.get("follows_printed_row", ())) | set(
            spec.get("published_lcd_error", ()))
        for row in spec["rows"]:
            if spec["kind"] == "cyclic-power-multi":
                label, seed_text, subset_ref, *published = row
                seed = m.groupring.parse_element(group, F, seed_text)
                deriv = m.derivations.cyclic_power_derivation(group, sigma, seed)
            else:
                label, subset_ref, *published = row
                deriv = D
            if (table_id == "c24" and label not in C24_ROWS) or (table_id, label) in SKIPPED_ROWS:
                continue
            ops.append(_table_op(m, table_id, label, deriv,
                                 _subset(group, spec, subset_ref),
                                 None if label in quirks else tuple(published)))
    d16 = m.groups.dihedral_group(8)
    sigma = m.groups.endo_from_images(d16, {"a": "a^3", "b": "b"})
    subset = [d16.index_of("a"), d16.index_of("a^2")]
    ops.extend(_large_q_op(m, d16, sigma, m.linalg.GF(q), subset) for q in LARGE_Q)
    # 59 operations.  p87 puts the tail in the middle of the five c24 rows
    # of ~400 ms (7.7 operations per pass lie beyond it: the five rows of
    # ~1 s and part of the ~400 ms ones), not at the edge of that cluster;
    # with 2 passes it leaves 15 above it.  The order stays as listed:
    # permuting it moved the peak RSS between 143 and 154 MB through heap
    # reuse between the enumerations.
    # Weight enumeration runs in numpy's vectorized loops, which the
    # host's speed changes move about half as much as interpreted Python.
    return Workload(ops, tail_pct=87, min_passes=2, seeded_order=False, kernel="numpy")


# -- space-basis ---------------------------------------------------------------

def _space_op(m, group, sigma, F, point) -> Op:
    p = F.p
    expect = {}

    def run():
        dim, basis = m.derivations.derivation_space(F, sigma, basis=True)
        violations = [m.derivations.verify_derivation(D) for D in basis]
        witnesses = [m.derivations.is_inner(D) for D in basis]
        return dim, basis, violations, witnesses

    def plain(out):
        dim, basis, violations, witnesses = out
        tables = tuple(tuple(_exact_vec(D.table[g].coeffs, p) for g in range(point.order))
                       for D in basis)
        wits = tuple(None if w is None else _exact_vec(w.coeffs, p) for w in witnesses)
        return dim, tables, tuple(violations), wits

    def check(out):
        dim, tables, violations, wits = out
        if "outer" not in expect:
            expect["outer"] = m.dihedral.predict(group, sigma, F).outer_nonzero
        problems = checks.dimension_problems(point.order, p, point.r, dim,
                                             expect["outer"])
        if len(tables) != dim:
            problems.append(f"basis has {len(tables)} members for dimension {dim}")
        all_inner = p == 0 or point.order % p != 0
        for i, (table, bad, beta) in enumerate(zip(tables, violations, wits)):
            if not any(any(v) for v in table):
                problems.append(f"member {i} is zero")
            if bad is not None:
                problems.append(f"verify_derivation rejects member {i} at {bad}")
            problems += [f"member {i}: {msg}" for msg in checks.product_rule_problems(
                point.mul, point.sigma, point.sigma, table, p)]
            if beta is not None:
                problems += [f"member {i}: {msg}" for msg in checks.witness_problems(
                    point.mul, point.sigma, point.sigma, table, beta, p)]
            elif all_inner:
                problems.append(f"member {i} has no inner witness although "
                                f"char {p} does not divide |G|")
        return problems

    label = f"D{group.order} s={sigma.s} t={sigma.t} {F}"
    return Op(label, run, plain, check)


# (n, (s, t), fields) with fields G2 = GF(2), G3 = GF(3), Q = QQ.  Points
# fall in four cost groups: D12 over GF(3) (~40 ms); D12 over GF(2) and
# D16 over GF(3) (~75 ms); D12 over QQ and D16 over GF(2) (~150 ms); D16
# over QQ (~450-550 ms).  Every field for every sigma would put the median
# exactly between the second and third groups, where it moved by 34%
# between runs.  These 1 + 2 + 9 + 3 points put the median in the middle
# of the third group and the p90 rank inside the fourth.
SPACE_POINTS = (
    (6, (1, 1), "G2 G3 Q"), (6, (2, 1), "Q"), (6, (4, 1), "Q"), (6, (5, 1), "Q"),
    (8, (1, 1), "G2 G3 Q"), (8, (2, 1), "G2 Q"), (8, (3, 1), "G2 Q"),
    (8, (5, 1), "G2"), (8, (7, 1), "G2"),
)


def build_space_basis(m) -> Workload:
    fields = {"G2": m.linalg.GF(2), "G3": m.linalg.GF(3), "Q": m.linalg.QQ}
    ops = []
    for n, st, names in SPACE_POINTS:
        group = m.groups.dihedral_group(n)
        sigma, = _endos(m, group, (st,))
        point = _Point(group, sigma)
        ops.extend(_space_op(m, group, sigma, fields[f], point) for f in names.split())
    # 15 operations: p90 with 7 passes leaves 10 above it
    return Workload(ops, tail_pct=90, min_passes=7)


CONSTRUCTORS = {
    "dihedral-grid": build_dihedral_grid,
    "pair-oracle": build_pair_oracle,
    "idd-codes": build_idd_codes,
    "space-basis": build_space_basis,
}


def build(name: str, mods: SimpleNamespace, seed: int) -> Workload:
    workload = CONSTRUCTORS[name](mods)
    if workload.seeded_order:
        random.Random(f"{name}/{seed}").shuffle(workload.ops)
    return workload
