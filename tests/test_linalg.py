import logging
import random

import numpy as np
import pytest

from derring.derivations import derivation_space, derivation_space_full
from derring.groupring import GroupRingElement
from derring.groups import cyclic_group, dihedral_group, identity_endomorphism
from derring.linalg import (GF, QQ, Field, Matrix, _MILLER_RABIN_LIMIT, dense_block, is_prime,
                            parse_field, row_weight, rref_mod_p, sparse_rank)
from derring.reference import reference_matrix
from gauss_jordan import dot, gauss_jordan, matmul, same_row_space, solve

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


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_floats_are_refused_in_every_field(field):
    # QQ once read 0.1 as 3602879701896397/36028797018963968
    for x in (0.1, 0.5, np.float64(0.5)):
        with pytest.raises(TypeError, match="cannot coerce"):
            field.coerce(x)
    with pytest.raises(TypeError, match="cannot coerce"):
        GroupRingElement(cyclic_group(3), field, [0.5, 0, 0])
    assert field.coerce("1/2") == field.div(field.one(), field.coerce(2))
    half = GroupRingElement(cyclic_group(3), field, ["1/2", 0, 0])
    assert half.coeffs == [field.coerce("1/2"), 0, 0]


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
    comm = Matrix(QQ, cols_comm).transpose()
    anti = Matrix(QQ, cols_anti).transpose()
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
            assert [dot(field, row, v) for row in m.data] == zero


# ``solve`` is the reference that the cached inner-system solves of
# ``derivations.is_inner`` are tested against (``test_properties``)

def test_solve_identity_and_zero():
    ident = Matrix.identity(GF(7), 3)
    assert solve(GF(7), ident.data, [1, 0, 0]) == [1, 0, 0]
    zero = Matrix.zeros(GF(7), 2, 3)
    assert solve(GF(7), zero.data, [1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(GF(7), Matrix.identity(GF(7), 3).data, [1, 0])


@pytest.mark.parametrize("field", FIELDS)
def test_solve_consistent_systems(field):
    rng = random.Random(field.p + 23)
    for _ in range(6):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(field, rows, cols, rng)
        x0 = [field.coerce(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [dot(field, row, x0) for row in m.data]
        x = solve(field, m.data, rhs)
        assert x is not None
        assert [dot(field, row, x) for row in m.data] == rhs


def test_same_row_space():
    f = GF(5)
    a = [[1, 2, 0], [0, 1, 1]]
    b = [[1, 0, 3], [0, 2, 2]]
    assert same_row_space(f, a, b)
    assert not same_row_space(f, a, [[1, 0, 0]])


def test_rational_rank_of_field_rows():
    assert Matrix(QQ, [[1, 0, 2], [0, 1, -1]], coerce=False).rank() == 2
    assert Matrix(QQ, [[1, 2], [2, 4]], coerce=False).rank() == 1
    assert Matrix(QQ, []).rank() == 0


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
        expected = len(gauss_jordan(field, dense)[1])
        # one (cols, vals) block of the nonzero entries, padded with (0, 0)
        entries = [[(j, v) for j, v in enumerate(row) if v] for row in dense]
        width = max(1, *map(len, entries))
        padded = [row + [(0, 0)] * (width - len(row)) for row in entries]
        block = (np.array([[j for j, _ in row] for row in padded]),
                 np.array([[v for _, v in row] for row in padded]))
        assert sparse_rank(field, block) == expected


def test_row_weight_and_dense_block_are_exact_past_int64():
    big = 2 ** 62
    vals = np.array([[big, big, -big], [1, -2, 0]], dtype=np.int64)
    # each entry fits int64, the first row's |vals| sum does not
    assert row_weight(vals) == 3 * big
    assert row_weight(vals.astype(object)) == 3 * big
    assert row_weight(np.zeros((0, 3), dtype=np.int64)) == 0
    cols = np.array([[0, 0, 1], [0, 1, 2]])
    assert dense_block(QQ, cols, vals, 3).tolist() == [[2 * big, -big, 0], [1, -2, 0]]
    p = 2 ** 63 - 25
    assert dense_block(GF(p), cols, vals, 3).tolist() == [
        [2 * big % p, -big % p, 0], [1, p - 2, 0]]


def test_rref_is_reduced():
    m = Matrix(GF(7), [[2, 4, 1], [1, 2, 3], [3, 6, 4]])
    r, pivots = m.rref()
    for idx, c in enumerate(pivots):
        col = [r.data[i][c] for i in range(r.rows)]
        assert col[idx] == 1
        assert all(col[i] == 0 for i in range(r.rows) if i != idx)


# 2^31 - 1 is the rational engine's first prime; from 4294967311 on the
# products (p - 1)^2 pass 2^63, and 2^63 + 29 itself does not fit in int64
@pytest.mark.parametrize("p", [2 ** 31 - 1, 4294967311, 2 ** 63 + 29])
def test_rref_paths_agree_at_large_primes(p):
    rng = random.Random(p)
    F = GF(p)
    left = [[rng.randrange(p) for _ in range(20)] for _ in range(40)]
    right = [[rng.randrange(p) for _ in range(60)] for _ in range(20)]
    m = Matrix(F, matmul(F, left, right), coerce=False)
    reduced, pivots = gauss_jordan(F, m.data)
    assert len(pivots) == 20
    assert m.rref() == (Matrix(F, reduced, coerce=False), pivots)
    rows = [list(row) for row in m.data]
    assert tuple(rref_mod_p(rows, p)) == pivots and rows == reduced


@pytest.mark.parametrize("field", [GF(3), GF(2 ** 63 + 29), QQ], ids=repr)
def test_rref_leaves_the_matrix_unchanged(field):
    m = rand_matrix(field, 6, 8, random.Random(field.p))
    data = [list(row) for row in m.data]
    m.rref()
    m.kernel_basis()
    assert m.data == data


def test_rational_elimination_logs_its_primes(caplog):
    # the first 2 x 2 minor is 2^31 - 1, the engine's first prime: rank 1
    # modulo it, 2 over QQ (an example of test_properties' unlucky kind)
    m = Matrix(QQ, [[1, 1, 3], [1, 1 + (2 ** 31 - 1), 5]])
    with caplog.at_level(logging.DEBUG, logger="derring.linalg"):
        reduced, pivots = m.rref()
    assert (reduced.data, pivots) == gauss_jordan(QQ, m.data)
    (record,) = [r for r in caplog.records if r.name == "derring.linalg"]
    assert record.shape == (2, 3) and record.rank == 2 and record.lifted
    assert record.primes >= 2
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="derring.linalg"):
        m.rref()
    assert not caplog.records


def test_cabay_bound_can_force_a_second_prime(caplog):
    # one prime reconstructs 1/30011 and 1/30013, but K = (-30013, -30011,
    # 30011 * 30013) and a row weight of 30014 put the bound past 2^31 - 1
    m = Matrix(QQ, [[30011, 0, 1], [0, 30013, 1]])
    with caplog.at_level(logging.DEBUG, logger="derring.linalg"):
        reduced, pivots = m.rref()
    assert (reduced.data, pivots) == gauss_jordan(QQ, m.data)
    (record,) = [r for r in caplog.records if r.name == "derring.linalg"]
    assert record.rank == 2 and record.lifted
    assert record.primes >= 2


def test_sparse_rational_rank_logs_one_record(caplog):
    sigma = identity_endomorphism(dihedral_group(4))
    with caplog.at_level(logging.DEBUG, logger="derring.linalg"):
        dim, _ = derivation_space_full(QQ, sigma, basis=False)
    (record,) = [r for r in caplog.records if r.name == "derring.linalg"]
    assert dim == derivation_space(QQ, sigma, basis=False)[0]
    # |X| |G|^2 decisive pair rows, G x {a, b}, over |G|^2 unknowns; the kernel
    # entries lift at one prime
    assert record.shape == (128, 64) and record.rank == 64 - dim
    assert record.primes == 1 and record.lifted


def test_is_prime_is_exact_and_refuses_past_its_range():
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(2, 3000) if all(n % f for f in range(2, int(n ** 0.5) + 1))]
    # 2^61 - 1 and the least primes past 2^32, 2^63 and 2^64
    for p in (2 ** 61 - 1, 4294967311, 2 ** 63 + 29, 2 ** 64 + 13):
        assert is_prime(p) and Field(p).p == p
    # a Carmichael number, strong pseudoprimes to small bases, and semiprimes
    for n in (561, 3215031751, 3825123056546413051, 4294967311 * 4294967291,
              (2 ** 31 - 1) * (2 ** 32 - 5)):
        assert not is_prime(n)
    # the least strong pseudoprime to all twelve bases is where exactness ends
    with pytest.raises(ValueError, match="not decided"):
        is_prime(_MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError):
        parse_field(f"GF({_MILLER_RABIN_LIMIT + 2})")
