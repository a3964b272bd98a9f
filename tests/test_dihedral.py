import pytest

from derring.conjugacy import twisted_classes
from derring.derivations import derivation_space, extend_from_generators
from derring.dihedral import (NoClosedForm, _element, _reflection, _rotation, explicit_basis,
                              params_for, predict, predict_classes, predict_dim_derivations,
                              predict_dim_inner, predict_outer)
from derring.groups import DihedralEndoParams, dihedral_group, endo_from_images
from derring.groupring import anticentralizer_basis, centralizer_basis, parse_element
from derring.linalg import GF, QQ
from gauss_jordan import rows_rank, same_row_space


def make_params(n, s, t):
    g = dihedral_group(n)
    endo = endo_from_images(g, {"a": f"a^{s}", "b": f"a^{t}*b" if t else "b"})
    return g, endo, DihedralEndoParams.from_endo(endo)


def test_dim_predictions_known_values():
    _, _, p = make_params(3, 1, 0)
    assert predict_dim_derivations(3, 0, p)[0] == 3
    assert predict_dim_derivations(3, 2, p)[0] == 5
    _, _, p9 = make_params(9, 3, 0)
    assert predict_dim_derivations(9, 3, p9)[0] == 16
    _, _, p6 = make_params(6, 2, 1)
    assert predict_dim_derivations(6, 2, p6)[0] == 16
    assert predict_dim_derivations(6, 0, p6)[0] == (3 * 6 - 2) // 2 - 2


def test_dim_prediction_case_labels():
    _, _, p = make_params(5, 1, 0)
    assert predict_dim_derivations(5, 5, p)[1] == "odd-n/char-divides-n-not-d"
    _, _, p2 = make_params(9, 3, 0)
    assert predict_dim_derivations(9, 3, p2)[1] == "odd-n/char-divides-d"


def test_class_predictions_match_orbits():
    for n, s, t in [(3, 1, 0), (5, 2, 3), (6, 2, 1), (4, 1, 0), (8, 2, 3), (8, 3, 5),
                    (9, 3, 4), (10, 4, 7)]:
        g, endo, params = make_params(n, s, t)
        count, sets = predict_classes(n, params)
        part = twisted_classes(g, endo)
        assert part.r == count
        assert set(map(frozenset, part.classes)) == set(sets)


def test_class_count_examples():
    _, _, p3 = make_params(3, 1, 0)
    assert predict_classes(3, p3)[0] == 3
    _, _, p6 = make_params(6, 2, 1)
    assert predict_classes(6, p6)[0] == 6
    _, _, p4 = make_params(4, 1, 0)
    assert predict_classes(4, p4)[0] == 5
    _, _, p8 = make_params(8, 2, 1)
    assert predict_classes(8, p8)[0] == 8


def test_inner_predictions():
    _, _, p3 = make_params(3, 1, 0)
    assert predict_dim_inner(3, p3) == 3
    _, _, p6 = make_params(6, 2, 1)
    assert predict_dim_inner(6, p6) == 6
    _, _, p8 = make_params(8, 2, 1)
    assert predict_dim_inner(8, p8) == 3 * 8 // 2 - 2 - 2


def test_outer_predictions():
    _, _, p3 = make_params(3, 1, 0)
    assert not predict_outer(3, 0, p3)
    assert predict_outer(3, 3, p3)
    _, _, p6 = make_params(6, 2, 1)
    assert predict_outer(6, 2, p6)
    assert predict_outer(6, 3, p6)
    assert not predict_outer(6, 5, p6)


def test_predict_bundle_consistency():
    g, endo, _ = make_params(6, 2, 1)
    pred = predict(g, endo, GF(2))
    assert pred.dim_derivations == 16
    assert pred.class_count == 6
    assert pred.dim_inner == 6
    assert pred.outer_nonzero
    assert pred.dim_inner == 2 * 6 - pred.class_count
    assert len(pred.class_descriptions) == 6
    solved = derivation_space(GF(2), endo, basis=False)[0]
    assert solved == pred.dim_derivations


def test_no_closed_form_families():
    g = dihedral_group(6)
    sigma2 = endo_from_images(g, {"a": "a^3", "b": "a^3"})
    with pytest.raises(NoClosedForm):
        params_for(sigma2)
    sigma4 = endo_from_images(g, {"a": "b", "b": "a^3*b"})
    with pytest.raises(NoClosedForm):
        predict(g, sigma4, GF(2))
    trivial = endo_from_images(dihedral_group(3), {"a": "1", "b": "1"})
    with pytest.raises(NoClosedForm):
        params_for(trivial)


def test_explicit_basis_anticentralizer_qd6():
    g, endo, params = make_params(3, 1, 0)
    basis = explicit_basis(g, QQ, params, "anticentralizer-b")
    expected = [parse_element(g, QQ, "a - a^2"), parse_element(g, QQ, "a*b - a^2*b")]
    assert basis == expected
    kernel = anticentralizer_basis(parse_element(g, QQ, "b"))
    assert same_row_space(QQ, [v.coeffs for v in basis], [v.coeffs for v in kernel])


def test_explicit_basis_centralizer_char2():
    g, endo, params = make_params(3, 1, 0)
    F = GF(2)
    basis = explicit_basis(g, F, params, "centralizer-b")
    texts = {"1", "b", "a + a^2", "a*b + a^2*b"}
    assert {str(parse_element(g, F, t)) for t in texts} == \
        {str(v) for v in basis}
    kernel = centralizer_basis(parse_element(g, F, "b"))
    assert same_row_space(F, [v.coeffs for v in basis], [v.coeffs for v in kernel])


def test_explicit_basis_d12_sizes_and_span():
    g, endo, params = make_params(6, 2, 1)
    F = GF(2)
    basis = explicit_basis(g, F, params, "centralizer-b")
    assert len(basis) == 8
    beta = parse_element(g, F, "a*b")  # sigma(b)
    kernel = centralizer_basis(beta)
    assert same_row_space(F, [v.coeffs for v in basis], [v.coeffs for v in kernel])
    basis_ab = explicit_basis(g, F, params, "centralizer-ab")
    beta_ab = parse_element(g, F, "a^3*b")  # sigma(ab) = a^(s+t) b
    kernel_ab = centralizer_basis(beta_ab)
    assert same_row_space(F, [v.coeffs for v in basis_ab], [v.coeffs for v in kernel_ab])


def spanning_candidates(group, field, params):
    """Candidate generator-image tuples (image of a, image of b).

    These are the unit tuples of the coefficient parametrization behind
    the closed forms; the derivation space is contained in their span.
    They need not be individually admissible (when d > 1 the parameters
    are linked by d-periodic sum constraints), so the authoritative
    dimension and basis computations stay with the linear solver.  In
    characteristic 2 with n even, and when the characteristic divides d,
    the tuples are an actual basis.
    """
    n, s, t = params.n, params.s, params.t
    char = field.char

    elem = lambda pairs: _element(group, field, pairs)
    rot = lambda k: _rotation(n, k)
    ref = lambda u: _reflection(n, u)
    out = []
    if char == 2:
        top = (n - 1) // 2 if n % 2 else n // 2 - 1
        if n % 2 == 0:
            half = n // 2
            out.append((elem([(ref(s + t), 1)]), elem([(rot(0), 1)])))
            out.append((elem([(ref(s + t + half), 1)]), elem([(rot(half), 1)])))
            out.append((elem([(rot(s), 1)]), elem([(ref(t), 1)])))
            out.append((elem([(rot(s + half), 1)]), elem([(ref(t + half), 1)])))
            out.append((elem([(ref(t), 1)]), elem([])))
            out.append((elem([(ref(t + half), 1)]), elem([])))
            # the parametrization gives a^s here (a bare 1 fails the
            # reflection relator whenever 2s != 0)
            out.append((elem([(rot(s), 1)]), elem([])))
            out.append((elem([(rot(s + half), 1)]), elem([])))
        else:
            out.append((elem([(ref(t), 1), (ref(t + s), 1)]), elem([(rot(0), 1)])))
            out.append((elem([]), elem([(ref(t), 1)])))
        for i in range(1, top + 1):
            rot_pm = [(rot(i), 1), (rot(-i), 1)]
            out.append((elem([(ref(t + i), 1), (ref(t - i), 1)]), elem([])))
            out.append((elem([(ref(s + t + i), 1), (ref(s + t - i), 1)]), elem(rot_pm)))
            if n % 2 == 0:
                out.append((elem([(rot(s + i), 1), (rot(s - i), 1)]),
                            elem([(ref(t + i), 1), (ref(t - i), 1)])))
                out.append((elem([(rot(s + i), 1), (rot(s - i), 1)]), elem([])))
            else:
                out.append((elem([]), elem([(ref(t + i), 1), (ref(t - i), 1)])))
        return out
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    modular = char != 0 and n % char == 0
    for i in range(1, top + 1):
        rot_pm = [(rot(i), 1), (rot(-i), -1)]
        out.append((elem([(ref(t + i), 1), (ref(t - i), -1)]), elem([])))
        out.append((elem([(ref(s + t + i), -1), (ref(s + t - i), 1)]), elem(rot_pm)))
        out.append((elem([]), elem([(ref(t + i), 1), (ref(t - i), -1)])))
        if modular:
            out.append((elem([(rot(s + i), 1), (rot(s - i), -1)]), elem([])))
    return out


@pytest.mark.parametrize("n,s,t", [(3, 1, 0), (3, 2, 2), (4, 1, 2), (5, 2, 3),
                                   (6, 2, 1), (6, 4, 3), (9, 3, 1)])
def test_spanning_candidates_contain_the_solution_space(n, s, t):
    g, endo, params = make_params(n, s, t)
    b_idx = g.index_of("b")
    for field in (GF(2), GF(3), GF(5), GF(7), QQ):
        candidates = spanning_candidates(g, field, params)
        cand_rows = [list(abar.coeffs) + list(bbar.coeffs) for abar, bbar in candidates]
        dim, basis = derivation_space(field, endo)
        sol_rows = [list(D.table[1].coeffs) + list(D.table[b_idx].coeffs) for D in basis]
        rank = rows_rank(field, cand_rows)
        assert rows_rank(field, cand_rows + sol_rows) == rank
        assert rank >= dim


def test_spanning_candidates_basis_cases():
    # characteristic 2 with n even, and characteristic dividing d, give bases
    for n, s, t, field in [(6, 2, 1, GF(2)), (4, 3, 0, GF(2)), (9, 3, 1, GF(3)),
                           (8, 2, 1, GF(2))]:
        g, endo, params = make_params(n, s, t)
        dim = derivation_space(field, endo, basis=False)[0]
        candidates = spanning_candidates(g, field, params)
        assert len(candidates) == dim
        rows = []
        for abar, bbar in candidates:
            D = extend_from_generators({"a": abar, "b": bbar}, endo)
            rows.append(D.flat())
        assert rows_rank(field, rows) == dim


def test_explicit_basis_characteristic_guards():
    g, endo, params = make_params(3, 1, 0)
    with pytest.raises(ValueError):
        explicit_basis(g, GF(2), params, "anticentralizer-b")
    with pytest.raises(ValueError):
        explicit_basis(g, QQ, params, "centralizer-b")
    with pytest.raises(ValueError):
        explicit_basis(g, QQ, params, "hull-b")
