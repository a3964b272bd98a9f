import random

import numpy as np
import pytest

from derring.linalg import (GF, QQ, Field, Matrix, parse_field, rows_full_rank,
                            rows_rank, rref_mod_p, same_row_space, sparse_rank)
from derring.reference import reference_matrix

FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]


def rand_matrix(field, rows, cols, rng):
    if field.p:
        return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)]
                              for _ in range(rows)])
    return Matrix(field, [[rng.randint(-4, 4) for _ in range(cols)]
                          for _ in range(rows)])


def test_field_construction_rejects_composites():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).char == 2
    assert QQ.char == 0


def test_parse_field():
    assert parse_field("GF(7)") == GF(7)
    assert parse_field("gf2") == GF(2)
    assert parse_field("QQ") == QQ
    assert parse_field("rational") == QQ
    assert parse_field(5) == GF(5)
    with pytest.raises(ValueError):
        parse_field("GF(10)")


def test_fermat_little_identity():
    for p in (2, 3, 5, 7):
        F = GF(p)
        for x in range(p):
            acc = F.one()
            for _ in range(p):
                acc = F.mul(acc, x)
            assert acc == x % p


def test_rational_arithmetic_exact():
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)
        x = QQ.div(QQ.coerce(a), QQ.coerce(b))
        y = QQ.div(QQ.coerce(b), QQ.coerce(a))
        assert QQ.mul(x, y) == QQ.one()
    half = QQ.coerce("3/4")
    assert half * 4 == 3


def test_gf_coerces_fractions():
    F = GF(3)
    assert F.coerce("1/2") == F.div(F.one(), F.coerce(2))


def test_rank_identity_and_zero():
    assert Matrix.identity(GF(2), 3).rank() == 3
    assert Matrix.zeros(GF(5), 4, 6).rank() == 0


def test_reference_generator_matrix_rank():
    rows = reference_matrix("c18-a")
    assert Matrix(GF(2), rows).rank() == 8


def test_kernel_identity_empty():
    assert Matrix.identity(GF(3), 4).kernel_basis() == []


def test_kernel_parity_row():
    m = Matrix(GF(2), [[1, 1]])
    assert m.kernel_basis() == [[1, 1]]


def _d6_mul(x, y):
    # independent dihedral model: (i, j) is the rotation/reflection pair
    i1, j1 = x
    i2, j2 = y
    return ((i1 + (i2 if j1 == 0 else -i2)) % 3, (j1 + j2) % 2)


def test_commutator_map_kernels_in_qd6():
    # brute-force matrices of a -> a*b -/+ b*a over the rationals, b a reflection
    elems = [(i, j) for j in (0, 1) for i in range(3)]
    index = {e: k for k, e in enumerate(elems)}
    b = (0, 1)
    cols_comm, cols_anti = [], []
    for e in elems:
        right = index[_d6_mul(e, b)]
        left = index[_d6_mul(b, e)]
        col_c = [0] * 6
        col_a = [0] * 6
        col_c[right] += 1
        col_c[left] -= 1
        col_a[right] += 1
        col_a[left] += 1
        cols_comm.append(col_c)
        cols_anti.append(col_a)
    comm = Matrix.from_cols(QQ, cols_comm)
    anti = Matrix.from_cols(QQ, cols_anti)
    assert len(comm.kernel_basis()) == 4
    assert len(anti.kernel_basis()) == 2
    # the two kernels complement each other in the 6-dimensional algebra
    assert len(comm.kernel_basis()) + len(anti.kernel_basis()) == 6


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity_and_kernel_exactness(field):
    rng = random.Random(field.p + 11)
    for _ in range(8):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(field, rows, cols, rng)
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        zero = [field.zero()] * rows
        for v in kernel:
            assert m.mul_vec(v) == zero


def test_solve_identity_and_zero():
    ident = Matrix.identity(GF(7), 3)
    assert ident.solve([1, 0, 0]) == [1, 0, 0]
    zero = Matrix.zeros(GF(7), 2, 3)
    assert zero.solve([1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(GF(7), 3).solve([1, 0])


@pytest.mark.parametrize("field", FIELDS)
def test_solve_consistent_systems(field):
    rng = random.Random(field.p + 23)
    for _ in range(6):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(field, rows, cols, rng)
        x0 = [field.coerce(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = m.mul_vec(x0)
        x = m.solve(rhs)
        assert x is not None
        assert m.mul_vec(x) == rhs


def test_matrix_field_mismatch():
    a = Matrix.identity(GF(2), 2)
    b = Matrix.identity(GF(3), 2)
    with pytest.raises(ValueError):
        a * b


def test_same_row_space():
    f = GF(5)
    a = [[1, 2, 0], [0, 1, 1]]
    b = [[1, 0, 3], [0, 2, 2]]
    assert same_row_space(f, a, b)
    assert not same_row_space(f, a, [[1, 0, 0]])


def test_rows_full_rank_rational_certificate():
    rows = [[1, 0, 2], [0, 1, -1]]
    assert rows_full_rank(QQ, rows, 2)
    assert not rows_full_rank(QQ, [[1, 2], [2, 4]], 2)
    assert rows_full_rank(QQ, [], 0)


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_rank_matches_dense(field):
    rng = random.Random(field.p + 41)
    for _ in range(10):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        dense = []
        for _ in range(rows):
            row = [0] * cols
            for _ in range(rng.randint(0, 3)):
                row[rng.randrange(cols)] = rng.randint(-3, 3)
            dense.append(row)
        expected = rows_rank(field, dense) if any(any(r) for r in dense) else 0
        sparse_rows = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert sparse_rank(field, sparse_rows) == expected


def test_rref_is_reduced():
    m = Matrix(GF(7), [[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    r, pivots = m.rref()
    for idx, c in enumerate(pivots):
        col = [r.data[i][c] for i in range(r.rows)]
        assert col[idx] == 1
        assert all(col[i] == 0 for i in range(r.rows) if i != idx)


# 2^31 - 1 takes the numpy path; 4294967311 > 2^32 has (p - 1)^2 >= 2^63
@pytest.mark.parametrize("p", [2 ** 31 - 1, 4294967311])
def test_rref_paths_agree_at_large_primes(p):
    rng = random.Random(p)
    F = GF(p)
    left = [[rng.randrange(p) for _ in range(20)] for _ in range(40)]
    right = [[rng.randrange(p) for _ in range(60)] for _ in range(20)]
    m = Matrix(F, left) * Matrix(F, right)
    reduced, pivots = m._rref_python()
    assert len(pivots) == 20
    assert m.rref() == (reduced, pivots)
    if (p - 1) ** 2 < 2 ** 63:
        assert m._rref_numpy() == (reduced, pivots)
    else:
        with pytest.raises(ValueError):
            rref_mod_p(np.array(m.data, dtype=np.int64), p)
