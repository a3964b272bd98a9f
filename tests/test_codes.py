import logging
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from derring import codes, linalg
from derring.codes import (ENUMERATION_CAP, LinearCode, code_report, derivation_matrix,
                           dual_code, encode, idd_code,
                           is_lcd, is_self_orthogonal, linear_code_report, matrix_text,
                           min_distance, subset_sweep, weight_distribution,
                           _transform_counts, _weight_counts)
from derring.derivations import TwistedDerivation, cyclic_power_derivation, inner_derivation
from derring.errors import DependentSubset, EnumerationTooLarge
from derring.groups import cyclic_group, dihedral_group, endo_from_images, identity_endomorphism
from derring.groupring import GroupRingElement, parse_element
from derring.linalg import GF, QQ, Matrix
from derring.reference import REFERENCE_TABLES, build_context
from gauss_jordan import gauss_jordan, matmul, same_row_space


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


def encode_via_derivation(code, D, message):
    """Codeword through the derivation itself: D applied to the sum of message[i] g_i."""
    F = code.field
    alpha = GroupRingElement.zero(D.group, F)
    for coef, g in zip(message, code.source["subset_indices"]):
        alpha.coeffs[g] = F.add(alpha.coeffs[g], F.coerce(coef))
    return list(D(alpha).coeffs)


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


def brute_weights(rows, q):
    """Independent oracle: the weight of every message's codeword, counted in plain python."""
    counts = [0] * (len(rows[0]) + 1)
    for msg in product(range(q), repeat=len(rows)):
        counts[sum(1 for col in zip(*rows) if sum(m * x for m, x in zip(msg, col)) % q)] += 1
    return counts


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


def test_idd_code_refuses_entries_that_are_not_element_indices():
    g, D = c18_derivation()
    # negative indices once wrapped round to x^17 and x^15, and True passed as 1
    for bad in ([-1, -3], [1, True], [1, 18], [1.0, 5], ["x"]):
        entry = next(x for x in bad if not (type(x) is int and 0 <= x < 18))
        with pytest.raises(ValueError, match=f"subset entry {entry!r} .* range\\(18\\)"):
            idd_code(D, bad)


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


# q = 61 and 67 straddle the int8 bound 2(q - 1) <= 127, q = 127 and 131
# the uint8 bound 2(q - 1) <= 255, both of an earlier enumeration that
# summed residues in the narrowest integer type
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


# b = bit_length(q - 1) bit planes: 1, 2, 3, 3, 8 and 9; n on both sides of
# the uint64 word edges; every k, odd and even, whose brute enumeration
# stays small, with and without a zero row
@pytest.mark.parametrize("q", [2, 3, 5, 7, 131, 257])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_weight_counts_against_brute_oracle(q, n):
    rng = random.Random(q * 1000 + n)
    k = 1
    while k == 1 or q ** k * n * k <= 6000:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        assert _weight_counts(rows, q) == brute_weights(rows, q)
        if k > 1:
            rows[rng.randrange(k)] = [0] * n
            assert _weight_counts(rows, q) == brute_weights(rows, q)
        k += 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 70), st.data())
def test_weight_counts_property(q, k, n, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    assert _weight_counts(rows, q) == brute_weights(rows, q)


def enumerated_weights(rows, q):
    """Independent oracle for large q^k: every message's codeword, by one numpy
    product per chunk of 2^14 messages, with no lines and no meet in the middle."""
    k, n = len(rows), len(rows[0])
    gen = np.array(rows, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, q ** k, 2 ** 14):
        messages = np.arange(start, min(start + 2 ** 14, q ** k))
        digits = messages[:, None] // q ** np.arange(k) % q
        counts += np.bincount(np.count_nonzero(digits @ gen % q, axis=1), minlength=n + 1)
    return counts.tolist()


def line_rows(rng, q, k, n):
    """k random rows, the second a nonzero multiple of the first: both lie in the
    prefix half once k >= 3, so some prefix lines span zero codewords."""
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    rows[1] = [rng.randrange(1, q) * x % q for x in rows[0]]
    return rows


# k >= 3, so h = ceil(k/2) >= 2 and the prefixes take the ranges [q^j, 2 q^j)
# for j = 0 and 1 at least; GF(131) against the chunked enumeration, checked
# here against the plain one on every smaller case
@pytest.mark.parametrize("q", [3, 5, 7, 131])
def test_line_enumeration_against_brute_oracle(q):
    rng = random.Random(q * 7 + 1)
    shapes = [(3, 2), (3, 5)] if q == 131 else [(3, 7), (4, 9), (5, 4)] + [(6, 3)] * (q == 3)
    for k, n in shapes:
        for rows in ([[rng.randrange(q) for _ in range(n)] for _ in range(k)],
                     line_rows(rng, q, k, n)):
            expected = enumerated_weights(rows, q)
            if q != 131:
                assert expected == brute_weights(rows, q)
            assert _weight_counts(rows, q) == expected
    # rank 1: the zero codeword q^(k - 1) times
    base = [rng.randrange(1, q) for _ in range(4)]
    rows = [[c * x % q for x in base] for c in (1, 2, q - 1)]
    counts = _weight_counts(rows, q)
    assert counts == enumerated_weights(rows, q) and counts[0] == q ** 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_line_enumeration_over_many_blocks(monkeypatch, q):
    # one prefix message per block: message 0 only in the first
    monkeypatch.setattr(codes, "_BLOCK_WORDS", 1)
    rng = random.Random(q)
    for k, n in ((4, 6), (5, 70)):
        for rows in ([[rng.randrange(q) for _ in range(n)] for _ in range(k)],
                     line_rows(rng, q, k, n)):
            assert _weight_counts(rows, q) == brute_weights(rows, q)


@pytest.mark.parametrize("q, k", [(2, 6), (3, 5), (3, 6), (5, 4), (131, 2), (131, 3)])
def test_line_enumeration_takes_one_prefix_per_line(monkeypatch, q, k):
    calls = []
    span_planes = codes._span_planes

    def spy(gen, messages, q_):
        calls.append((len(gen), messages.tolist()))
        return span_planes(gen, messages, q_)

    monkeypatch.setattr(codes, "_span_planes", spy)
    rng = random.Random(k)
    rows = [[rng.randrange(q) for _ in range(9)] for _ in range(k)]
    _weight_counts(rows, q)
    h = (k + 1) // 2
    # the suffix side first, complete; then the prefixes in blocks
    assert calls[0] == (k - h, list(range(q ** (k - h))))
    assert {size for size, _ in calls[1:]} == {h}
    prefixes = [x for _, block in calls[1:] for x in block]
    assert len(prefixes) == 1 + (q ** h - 1) // (q - 1)
    assert prefixes == [0] + [x for j in range(h) for x in range(q ** j, 2 * q ** j)]


def test_weight_counts_past_one_byte_of_weight():
    # n >= 256: weights are counted as intp, not paired bytes
    rng = random.Random(256)
    for q, k in ((2, 4), (3, 3)):
        rows = [[rng.randrange(q) for _ in range(300)] for _ in range(k)]
        assert _weight_counts(rows, q) == brute_weights(rows, q)


@pytest.mark.parametrize("n", [0, 1, 24, 255])
def test_paired_bincount_matches_bincount(n):
    rng = np.random.default_rng(n)
    # below and past the four weights per bin where pairing starts, odd and even
    for size in (0, 1, 1024 * (n + 1) - 1, 1024 * (n + 1), 1024 * (n + 1) + 1):
        weights = rng.integers(0, n + 1, size).astype(np.uint8)
        expected = np.bincount(weights, minlength=n + 1)
        assert codes._bincount_pairs(weights, n).tolist() == expected.tolist()
        # the same weights one past the zero-prefix row: an odd byte offset
        shifted = np.concatenate([[0], weights]).astype(np.uint8)[1:]
        assert codes._bincount_pairs(shifted, n).tolist() == expected.tolist()


def test_enumeration_cap_refuses_at_once(monkeypatch):
    class Enumerated(Exception):
        pass

    def enumerate_(rows, q):
        raise Enumerated

    def kernel(self):
        raise AssertionError("computed a dual before checking the cap")

    monkeypatch.setattr(codes, "_weight_counts", enumerate_)
    rng = random.Random(17)

    def ternary(n, k):
        rows = [[int(i == j) for j in range(k)] + [rng.randrange(3) for _ in range(n - k)]
                for i in range(k)]
        return LinearCode(GF(3), n, k, Matrix(GF(3), rows), {})

    assert 3 ** 16 == ENUMERATION_CAP
    with pytest.raises(Enumerated):
        weight_distribution(ternary(32, 16))
    monkeypatch.setattr(Matrix, "kernel_basis", kernel)
    # 3^17 codewords on the smaller side: the code itself on a tie, or the dual
    for n, k in ((34, 17), (37, 20)):
        with pytest.raises(EnumerationTooLarge, match=r"3\^17 codewords"):
            weight_distribution(ternary(n, k))


def test_enumeration_logs_its_side_and_size(caplog):
    group, F, sigma, D = build_context("c24")
    subset = REFERENCE_TABLES["c24"]["subsets"]["S4"]
    with caplog.at_level(logging.DEBUG, logger="derring.codes"):
        report = code_report(D, subset)
    assert report.params == (24, 14, 4)
    # k = 14 > n - k: the [24, 10] dual is enumerated
    (record,) = [r for r in caplog.records if r.name == "derring.codes"]
    assert (record.side, record.q, record.k, record.codewords) == ("dual", 3, 10, 3 ** 10)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="derring.codes"):
        code_report(D, subset)
    assert not caplog.records


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


def test_rank_deficient_generator_is_refused_on_both_sides():
    F = GF(2)
    # k <= n - k: the code is enumerated, and its zero codeword counted q^(k - rank) times
    code_side = LinearCode(F, 4, 2, Matrix(F, [[1, 1, 0, 0], [1, 1, 0, 0]]), {})
    # k > n - k: the dual is enumerated from a kernel of dimension n - rank
    dual_side = LinearCode(F, 4, 3, Matrix(F, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]]), {})
    for code in (code_side, dual_side):
        with pytest.raises(ValueError, match=f"generator rank is not k = {code.k}"):
            weight_distribution(code)
        with pytest.raises(ValueError, match="generator rank is not k"):
            linear_code_report(code)


def test_code_report_eliminates_the_generator_once(monkeypatch):
    calls = []
    rref = linalg.rref_mod_p

    def spy(m, p):
        calls.append(len(m))
        return rref(m, p)

    monkeypatch.setattr(linalg, "rref_mod_p", spy)
    D = build_context("c24")[3]
    D18 = c18_derivation()[1]
    # c24 S4: k = 14 > n - k, the dual enumerated from idd_code's elimination;
    # c18: k = 8 <= n - k, the code itself
    for D_, subset, k in ((D, REFERENCE_TABLES["c24"]["subsets"]["S4"], 14),
                          (D18, [1, 5, 7, 9, 11, 13, 15, 17], 8)):
        calls.clear()
        code_report(D_, subset)
        # the generator's rows once, then the k x k Gram matrix for the LCD flag
        assert calls == [k, k]
        code = idd_code(D_, subset)
        assert codes._dual_basis(code) == code.generator.kernel_basis()


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
    product = matmul(GF(2), code.generator.data, dual.generator.transpose().data)
    assert not any(any(row) for row in product)
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
    from derring.derivations import extend_from_generators
    f = {
        "a": parse_element(d12, F, "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b"),
        "b": parse_element(d12, F, "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b")}
    D = extend_from_generators(f, sigma)
    name2idx = {n: i for i, n in enumerate(d12.names)}
    code = idd_code(D, [name2idx[s] for s in ("a", "a^2", "a^3", "b")])
    assert is_self_orthogonal(code)
    assert not is_lcd(code)
    # self-orthogonality means every generator pair is orthogonal
    for u in code.generator.data:
        for v in code.generator.data:
            assert sum(a * b for a, b in zip(u, v)) % 2 == 0


def reference_flags(field, rows):
    """(LCD, self-orthogonal) read off the reference Gram product and Gauss-Jordan rank."""
    gram = matmul(field, rows, [list(col) for col in zip(*rows)])
    return len(gauss_jordan(field, gram)[1]) == len(rows), not any(any(row) for row in gram)


# primes q = a^2 + b^2 round the int64 switch of the Gram product at n = 4:
# 4 (q - 1)^2 just below 2^63, just above it, and q itself past 2^63
@pytest.mark.parametrize("q, a, b", [(1518500213, 38617, 5218), (1518520561, 38956, 975),
                                     (2 ** 63 + 29, 2220365211, 2072040146)])
def test_gram_flags_on_both_sides_of_the_int64_bound(monkeypatch, q, a, b):
    assert a * a + b * b == q
    F = GF(q)
    # u.u = 2 (a^2 + b^2) = 0 mod q with every entry near q - 1
    u, w = [q - a, q - b, q - a, q - b], [q - 1, q - 2, q - 1, q - 3]
    if 4 * (q - 1) ** 2 >= 2 ** 63:
        # past the bound u.u itself passes 2^63, where an int64 sum wraps
        assert sum(x * x for x in u) >= 2 ** 63
    # q^k codewords are past the enumeration cap: the report's flags are read
    # with the weight distribution stubbed out
    monkeypatch.setattr(codes, "weight_distribution",
                        lambda code: ([1, 1] + [0] * (code.n - 1),) * 2)
    for rows in ([u], [w], [u, w], [w, u]):
        code = LinearCode(F, 4, len(rows), Matrix(F, rows, coerce=False), {})
        lcd, self_orthogonal = reference_flags(F, rows)
        report = linear_code_report(code)
        assert is_lcd(code) == report.lcd == lcd
        assert is_self_orthogonal(code) == report.self_orthogonal == self_orthogonal
    # the one-row code of u is self-orthogonal, so not LCD
    assert reference_flags(F, [u]) == (False, True)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(2, 12), st.data())
def test_gram_flags_match_the_reference_on_random_codes(q, k, n, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=k, max_size=k))
    F = GF(q)
    code = LinearCode(F, n, k, Matrix(F, rows), {})
    lcd, self_orthogonal = reference_flags(F, rows)
    assert (is_lcd(code), is_self_orthogonal(code)) == (lcd, self_orthogonal)
    if k >= n:
        return
    if len(gauss_jordan(F, rows)[1]) < k:
        with pytest.raises(ValueError, match="generator rank is not k"):
            linear_code_report(code)
        return
    report = linear_code_report(code)
    assert (report.lcd, report.self_orthogonal) == (lcd, self_orthogonal)


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
