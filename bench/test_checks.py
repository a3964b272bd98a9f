"""Each benchmark check must reject a known-wrong answer.

    python3 -m pytest bench/test_checks.py -q

Run from the root of a checkout.  The right answers come from the same
independent computations the benchmark uses; the wrong ones are
perturbed by hand.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

MODS = workloads.import_derring(HERE.parent / "src")
GF, QQ = MODS.linalg.GF, MODS.linalg.QQ


def _dihedral(n, s, t):
    group = MODS.groups.dihedral_group(n)
    sigma = next(e for e in MODS.groups.enumerate_endomorphisms(group)
                 if e.family in ("sigma0", "sigma1") and (e.s, e.t) == (s, t))
    return group, sigma


def _plain_table(D, p):
    return [tuple(checks.exact(c, p) for c in D.table[g].coeffs)
            for g in range(D.group.order)]


def test_class_count_from_table():
    # S3 = D6 under plain conjugation has 3 classes; D8 has 5
    for n, r in ((3, 3), (4, 5)):
        group = MODS.groups.dihedral_group(n)
        ident = list(range(group.order))
        assert checks.twisted_class_count(group.mul, ident, ident) == r


def test_grid_check_rejects_wrong_class_count_and_inner_dimension():
    group, sigma = _dihedral(8, 1, 0)
    point = workloads._Point(group, sigma)
    op = workloads._grid_op(MODS, group, sigma, GF(3), point)
    right = op.run()
    assert op.check(right) == []
    dim, r, inner, outer, count = right
    assert op.check((dim, r + 1, inner, outer, count))
    assert op.check((dim, r, inner, outer, count + 1))
    assert op.check((dim, r, inner - 1, outer, count))


def test_dimension_must_equal_inner_dimension_when_char_is_coprime():
    assert checks.dimension_problems(16, 3, 7, 9) == []
    assert checks.dimension_problems(16, 3, 7, 10)
    assert checks.dimension_problems(16, 0, 7, 8)


def test_modular_dimension_bounds_and_outer_verdict():
    assert checks.dimension_problems(16, 2, 7, 20, predicted_outer=True) == []
    assert checks.dimension_problems(16, 2, 7, 8, predicted_outer=True)
    assert checks.dimension_problems(16, 2, 7, 9, predicted_outer=True)
    assert checks.dimension_problems(16, 2, 7, 20, predicted_outer=False)


def test_pair_check_rejects_a_dimension_off_the_generator_solver():
    group, sigma = _dihedral(4, 1, 0)
    point = workloads._Point(group, sigma)
    op = workloads._pair_op(MODS, group, sigma, GF(2), point, dihedral=True)
    dim = op.run()
    assert op.check(dim) == []
    # still above |G| - r with outer derivations, so only the solver match catches it
    assert op.check(dim + 1)


def test_product_rule_rejects_a_perturbed_derivation():
    group, sigma = _dihedral(4, 1, 1)
    F = GF(3)
    beta = MODS.groupring.parse_element(group, F, "1 + 2*a + a^3*b")
    D = MODS.derivations.inner_derivation(beta, sigma, sigma)
    table = _plain_table(D, 3)
    images = list(sigma.images)
    assert checks.product_rule_problems(group.mul, images, images, table, 3) == []
    bad = [list(row) for row in table]
    bad[1][2] = (bad[1][2] + 1) % 3
    assert checks.product_rule_problems(group.mul, images, images, bad, 3)


def test_witness_must_reproduce_the_derivation():
    group, sigma = _dihedral(4, 1, 0)
    F = QQ
    beta = MODS.groupring.parse_element(group, F, "1/2*a + 3*b")
    D = MODS.derivations.inner_derivation(beta, sigma, sigma)
    table = _plain_table(D, 0)
    images = list(sigma.images)
    right = tuple(checks.exact(c, 0) for c in beta.coeffs)
    assert checks.witness_problems(group.mul, images, images, table, right, 0) == []
    wrong = right[:1] + (right[1] + 1,) + right[2:]
    assert checks.witness_problems(group.mul, images, images, table, wrong, 0)


def test_space_check_rejects_a_wrong_basis():
    group, sigma = _dihedral(4, 1, 0)
    point = workloads._Point(group, sigma)
    op = workloads._space_op(MODS, group, sigma, GF(3), point)
    dim, tables, violations, wits = op.plain(op.run())
    assert op.check((dim, tables, violations, wits)) == []
    assert op.check((dim + 1, tables, violations, wits))
    broken = [list(map(list, t)) for t in tables]
    broken[0][1][0] = (broken[0][1][0] + 1) % 3
    broken = tuple(tuple(map(tuple, t)) for t in broken)
    assert op.check((dim, broken, violations, wits))
    assert op.check((dim, tables, violations, (None,) + wits[1:]))


def test_code_row_checks():
    assert checks.code_problems(24, 14, (14, 4, False, 10, 6), (14, 4, False, 10, 6)) == []
    assert checks.code_problems(24, 14, (14, 5, False, 10, 6), (14, 4, False, 10, 6))
    assert checks.code_problems(24, 14, (14, 4, False, 11, 6))
    assert checks.code_problems(24, 14, (14, 12, False, 10, 6))
    assert checks.code_problems(24, 13, (14, 4, False, 10, 6))
    # a row that leaves the dual out is still checked on what it publishes
    assert checks.code_problems(12, 4, (4, 4, False, 8, 2), (4, 4, False, None, None)) == []
    assert checks.code_problems(12, 4, (4, 4, True, 8, 2), (4, 4, False, None, None))


def test_k2_distances_against_full_enumeration():
    q = 7
    rows = [[1, 0, 3, 5, 0, 2], [0, 1, 4, 4, 6, 0]]
    words = [[(a * x + b * y) % q for x, y in zip(*rows)]
             for a in range(q) for b in range(q) if a or b]
    assert checks.min_distance_k2(rows, q) == min(sum(1 for v in w if v) for w in words)
    assert checks.dual_distance_k2([[1, 0, 2], [0, 0, 1]], 5) == 1
    assert checks.dual_distance_k2([[1, 2, 1], [1, 2, 3]], 5) == 2
    assert checks.dual_distance_k2([[1, 0, 1], [0, 1, 1]], 5) == 3


def test_large_q_check_rejects_a_wrong_distance():
    group = MODS.groups.dihedral_group(8)
    sigma = MODS.groups.endo_from_images(group, {"a": "a^3", "b": "b"})
    subset = [group.index_of("a"), group.index_of("a^2")]
    op = workloads._large_q_op(MODS, group, sigma, GF(61), subset)
    right = op.plain(op.run())
    assert op.check(right) == []
    k, d, lcd, dual_k, dual_d = right
    assert op.check((k, d - 1, lcd, dual_k, dual_d))
    assert op.check((k, d, lcd, dual_k, dual_d + 1))
    assert op.check((k, d, not lcd, dual_k, dual_d))
