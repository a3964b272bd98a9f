import random
from itertools import combinations, product

import pytest

from derring.codes import (LinearCode, code_report, derivation_matrix,
                           dual_code, encode, encode_via_derivation, idd_code,
                           is_lcd, is_self_orthogonal, linear_code_report, matrix_text,
                           min_distance, subset_sweep, weight_distribution,
                           _transform_counts, _weight_counts)
from derring.derivations import TwistedDerivation, cyclic_power_derivation, inner_derivation
from derring.errors import DependentSubset
from derring.groups import cyclic_group, dihedral_group, endo_from_images, identity_endomorphism
from derring.groupring import parse_element
from derring.linalg import GF, QQ, Matrix, same_row_space


def c18_derivation():
    g = cyclic_group(18)
    e = identity_endomorphism(g)
    v = parse_element(g, GF(2), "1 + x + x^2 + x^3 + x^4 + x^5 + x^8 + x^11")
    return g, cyclic_power_derivation(g, e, v)


def c14_d1():
    g = cyclic_group(14)
    e = identity_endomorphism(g)
    v = parse_element(g, GF(2), "1 + x + x^2 + x^3 + x^4 + x^6 + x^9")
    return g, cyclic_power_derivation(g, e, v)


def brute_min_distance(rows, q):
    """Independent oracle: plain python enumeration of all messages."""
    k, n = len(rows), len(rows[0])
    best = None
    for msg in product(range(q), repeat=k):
        if not any(msg):
            continue
        cw = [sum(m * row[j] for m, row in zip(msg, rows)) % q for j in range(n)]
        w = sum(1 for x in cw if x)
        best = w if best is None else min(best, w)
    return best


def brute_dual_distance(rows, q):
    """Independent oracle: the fewest generator columns that are linearly dependent."""
    n = len(rows[0])
    for w in range(1, n + 1):
        for cols in combinations(range(n), w):
            if Matrix(GF(q), [[row[j] for j in cols] for row in rows]).rank() < w:
                return w
    return None


def test_derivation_matrix_zero_and_rows():
    g, D = c18_derivation()
    m = derivation_matrix(D)
    assert m.data[1] == [1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    for k in range(2, 18, 2):
        assert not any(m.data[k])  # even powers vanish in characteristic 2
    zero = TwistedDerivation.zero(g, GF(2), D.sigma, D.tau)
    assert derivation_matrix(zero).is_zero()


def test_idd_code_and_rejection():
    g, D = c18_derivation()
    code = idd_code(D, [1, 5, 7, 9, 11, 13, 15, 17])
    assert (code.n, code.k) == (18, 8)
    assert code.generator.rank() == 8
    with pytest.raises(DependentSubset) as err:
        idd_code(D, [1, 2])
    witness = err.value.witness
    assert witness is not None and any(x != 0 for x in witness)
    with pytest.raises(ValueError):
        idd_code(D, [])
    with pytest.raises(ValueError):
        idd_code(D, list(range(18)))


def test_idd_requires_prime_field():
    g = cyclic_group(6)
    e = identity_endomorphism(g)
    D = TwistedDerivation.zero(g, QQ, e, e)
    with pytest.raises(ValueError):
        idd_code(D, [1])


def test_encode_paths_agree():
    g, D = c14_d1()
    code = idd_code(D, [1, 3, 5, 7, 9, 11, 13])
    assert encode(code, [0] * 7) == [0] * 14
    for i in range(7):
        msg = [0] * 7
        msg[i] = 1
        assert encode(code, msg) == code.generator.data[i]
    rng = random.Random(4)
    for _ in range(100):
        msg = [rng.randrange(2) for _ in range(7)]
        assert encode(code, msg) == encode_via_derivation(code, D, msg)
    with pytest.raises(ValueError):
        encode(code, [1, 0])


def test_encode_paths_agree_on_ternary_code():
    g = cyclic_group(24)
    sigma = endo_from_images(g, {"x": "x^5"})
    v = parse_element(g, GF(3), "1 + x + x^3 + x^4 + x^5 + x^7 + x^9 + x^12 + x^14")
    D = cyclic_power_derivation(g, sigma, v)
    code = idd_code(D, [16, 17, 19, 23])
    rng = random.Random(8)
    for _ in range(100):
        msg = [rng.randrange(3) for _ in range(4)]
        assert encode(code, msg) == encode_via_derivation(code, D, msg)


def test_min_distance_known_codes():
    g, D = c18_derivation()
    assert min_distance(idd_code(D, [1, 5, 7, 9, 11, 13, 15, 17])) == 6
    g14, D1 = c14_d1()
    assert min_distance(idd_code(D1, [1, 3, 5, 7, 9, 11, 13])) == 4
    unit_rows = Matrix(GF(2), [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert min_distance(LinearCode(GF(2), 4, 2, unit_rows, {})) == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_min_distance_against_brute_oracle(q):
    rng = random.Random(q * 13)
    for _ in range(6):
        n = rng.randint(4, 9)
        k = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        m = Matrix(GF(q), rows)
        if m.rank() != k:
            continue
        code = LinearCode(GF(q), n, k, m, {})
        assert min_distance(code) == brute_min_distance(rows, q)


# q = 61 and 67 straddle the old int8 bound 2(q - 1) <= 127, q = 127 and 131
# the uint8 bound 2(q - 1) <= 255
@pytest.mark.parametrize("q", [2, 3, 5, 61, 67, 127, 131])
def test_distances_against_brute_oracles(q):
    rng = random.Random(q * 31)
    # (n, k) covers k < n - k, a tie, and k > n - k (the dual side enumerated)
    shapes = [(6, 2), (4, 2), (3, 2), (5, 1)] if q > 5 else [(7, 2), (6, 3), (7, 4), (8, 6)]
    for n, k in shapes:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        m = Matrix(GF(q), rows)
        if m.rank() != k:
            continue
        rep = linear_code_report(LinearCode(GF(q), n, k, m, {}))
        assert rep.d == brute_min_distance(rows, q)
        assert rep.dual_d == brute_dual_distance(rows, q)


@pytest.mark.parametrize("q", [101, 127, 131])
def test_large_q_inner_derivation_code(q):
    g = dihedral_group(8)
    sigma = endo_from_images(g, {"a": "a^3", "b": "b"})
    D = inner_derivation(parse_element(g, GF(q), "1 + 2*a + 3*b + 5*a^3*b"), sigma, sigma)
    subset = [g.index_of("a"), g.index_of("a^2")]
    rows = [[int(x) for x in D.table[i].coeffs] for i in subset]
    rep = code_report(D, subset)
    assert rep.params == (16, 2, brute_min_distance(rows, q)) == (16, 2, 4)
    assert rep.dual_d == brute_dual_distance(rows, q)


def test_weight_distribution_sides_agree():
    g, D = c18_derivation()
    code = idd_code(D, [1, 5, 7, 9, 11, 13, 15, 17])
    counts, dual_counts = weight_distribution(code)
    assert counts == _weight_counts([[int(x) for x in r] for r in code.generator.data], 2)
    dual = dual_code(code)
    assert dual_counts == _weight_counts([[int(x) for x in r] for r in dual.generator.data], 2)
    # k = 10 > n - k: the dual side is enumerated and the code side transformed
    assert weight_distribution(dual) == (dual_counts, counts)
    full = LinearCode(GF(3), 5, 5, Matrix.identity(GF(3), 5), {})
    assert weight_distribution(full)[0] == [1, 10, 40, 80, 80, 32]


def test_weight_transform_matches_direct_enumeration():
    g, D = c18_derivation()
    code = idd_code(D, [1, 5, 7, 9, 11, 13, 15, 17])
    direct = _weight_counts([[int(x) for x in row] for row in code.generator.data], 2)
    dual_rows = [[int(x) for x in row] for row in code.generator.kernel_basis()]
    via_dual = _transform_counts(_weight_counts(dual_rows, 2), 18, 2, 2 ** 10)
    assert direct == via_dual


def test_dual_code_properties():
    g, D = c18_derivation()
    code = idd_code(D, [1, 5, 7, 9, 11, 13, 15, 17])
    dual = dual_code(code)
    assert (dual.n, dual.k) == (18, 10)
    assert min_distance(dual) == 4
    product_mat = code.generator * dual.generator.transpose()
    assert product_mat.is_zero()
    double = dual_code(dual)
    assert same_row_space(GF(2), [r for r in code.generator.data],
                          [r for r in double.generator.data])


def test_dual_of_full_rate_code_is_trivial():
    gen = Matrix.identity(GF(3), 5)
    code = LinearCode(GF(3), 5, 5, gen, {})
    assert dual_code(code).k == 0


def test_self_dual_parameters_c14():
    g, D = c14_d1()
    code = idd_code(D, [1, 3, 5, 7, 9, 11, 13])
    dual = dual_code(code)
    assert (dual.k, min_distance(dual)) == (7, 4)
    assert is_lcd(code)


def test_flags():
    g, D1 = c14_d1()
    assert is_lcd(idd_code(D1, [1, 3, 5, 7, 9, 11, 13]))
    g18, D18 = c18_derivation()
    assert not is_lcd(idd_code(D18, [1, 5, 7, 9, 11, 13, 15, 17]))

    d12 = dihedral_group(6)
    F = GF(2)
    sigma = endo_from_images(d12, {"a": "a^2", "b": "a*b"})
    from derring.derivations import GeneratorMap, extend_from_generators
    f = GeneratorMap(d12, F, {
        "a": parse_element(d12, F, "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b"),
        "b": parse_element(d12, F, "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b")})
    D = extend_from_generators(f, sigma)
    name2idx = {n: i for i, n in enumerate(d12.names)}
    code = idd_code(D, [name2idx[s] for s in ("a", "a^2", "a^3", "b")])
    assert is_self_orthogonal(code)
    assert not is_lcd(code)
    # self-orthogonality means every generator pair is orthogonal
    for u in code.generator.data:
        for v in code.generator.data:
            assert sum(a * b for a, b in zip(u, v)) % 2 == 0


def test_code_report_fields_and_singleton_bound():
    g, D = c18_derivation()
    rep = code_report(D, [1, 5, 9, 13])
    assert rep.params == (18, 4, 8)
    assert rep.dual_params == (18, 14, 2)
    assert not rep.lcd
    assert rep.k + rep.d <= rep.n + 1
    data = rep.to_json_dict()
    assert data["dual"] == {"n": 18, "k": 14, "d": 2}
    assert data["source"]["subset"] == ["x", "x^5", "x^9", "x^13"]


def test_subset_sweep():
    g, D = c14_d1()
    # the published [14,4,7] comes from the seed 1 + x + x^3 + x^4 + x^5 + x^6 + x^9
    e = identity_endomorphism(g)
    D4 = cyclic_power_derivation(
        g, e, parse_element(g, GF(2), "1 + x + x^3 + x^4 + x^5 + x^6 + x^9"))
    sweep4 = subset_sweep(D4, 4)
    assert any(r.params == (14, 4, 7) for r in sweep4)
    assert [r.d for r in sweep4] == sorted((r.d for r in sweep4), reverse=True)
    sweep1 = subset_sweep(D, 1)
    max_weight = max(sum(1 for x in D.table[g].coeffs if x != 0)
                     for g in range(14) if not D.table[g].is_zero())
    assert sweep1[0].d == max_weight
    sweep2 = subset_sweep(D, 2)
    assert any(r.params == (14, 2, 7) for r in sweep2)
    again = subset_sweep(D, 2)
    assert [r.to_json_dict() for r in sweep2] == [r.to_json_dict() for r in again]


def test_subset_sweep_sampling_is_deterministic():
    g, D = c18_derivation()
    a = subset_sweep(D, 3, max_candidates=20)
    b = subset_sweep(D, 3, max_candidates=20)
    assert len(a) <= 20
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_matrix_text_format():
    m = Matrix(GF(3), [[1, 2, 0], [0, 1, 1]])
    assert matrix_text(m) == "1 2 0\n0 1 1"


def test_min_distance_too_large():
    rng = random.Random(0)
    rows = [[rng.randrange(5) for _ in range(40)] for _ in range(20)]
    m = Matrix(GF(5), rows)
    code = LinearCode(GF(5), 40, m.rank(), m, {})
    with pytest.raises(ValueError):
        min_distance(code)
