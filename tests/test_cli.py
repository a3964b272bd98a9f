import json
import subprocess
import sys

import pytest

from derring import cli, codes
from derring.cli import main
from derring.derivations import inner_derivation
from derring.groupring import format_element, parse_element
from derring.groups import dihedral_group, endo_from_images
from derring.linalg import GF


D12_SPEC = {
    "group": {"family": "dihedral", "n": 6},
    "field": "GF(2)",
    "sigma": {"a": "a^2", "b": "a*b"},
    "derivation": {"images": {
        "a": "1 + a + a^3 + a^4 + a*b + a^2*b + a^4*b + a^5*b",
        "b": "a + a^2 + a^4 + a^5 + b + a^2*b + a^3*b + a^5*b"}},
    "subset": ["a", "a^2", "a^3", "b"],
}

C18_SPEC = {
    "group": {"family": "cyclic", "n": 18},
    "field": "GF(2)",
    "sigma": {"x": "x"},
    "derivation": {"power_seed": "1 + x + x^2 + x^3 + x^4 + x^5 + x^8 + x^11"},
    "subset": ["x", "x^5", "x^7", "x^9", "x^11", "x^13", "x^15", "x^17"],
}


def write_spec(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_validate_ok(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    rc, payload = run_json(capsys, ["validate", spec, "--format", "json"])
    assert rc == 0
    assert payload["ok"]
    assert payload["sigma"]["family"] == "sigma1"
    assert payload["derivation"]["verified"]


def test_validate_rejected_endomorphism_exits_1(tmp_path, capsys):
    bad = {"group": {"family": "dihedral", "n": 3}, "field": "GF(2)",
           "sigma": {"a": "a", "b": "a"}}
    spec = write_spec(tmp_path, bad)
    rc = main(["validate", spec])
    assert rc == 1
    assert "rejected" in capsys.readouterr().err


def test_malformed_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    missing = {"field": "GF(2)"}
    assert main(["validate", write_spec(tmp_path, missing, "m.json")]) == 2
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


D8 = {"family": "dihedral", "n": 4}


# an entry of the wrong JSON type is malformed input (2), not a fault in derring (3)
@pytest.mark.parametrize("spec, key", [
    ({"group": "dihedral"}, "'group'"),
    ({"group": {"family": "dihedral", "n": [4]}}, "'n'"),
    ({"group": D8, "sigma": {"a": 3, "b": "b"}}, "'sigma'"),
    ({"group": D8, "derivation": {"images": {"a": 1, "b": "0"}}}, "'images'"),
    ({"group": D8, "subset": "ab"}, "'subset'"),
])
def test_wrongly_typed_spec_exits_2(tmp_path, capsys, spec, key):
    assert main(["validate", write_spec(tmp_path, spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and key in err


@pytest.mark.parametrize("field, literal", [("QQ", "1/0"), ("GF(3)", "1/3")])
def test_zero_denominator_is_a_spec_error(tmp_path, capsys, field, literal):
    spec = {"group": {"family": "dihedral", "n": 4}, "field": field,
            "sigma": {"a": "a", "b": "b"},
            "derivation": {"images": {"a": f"{literal}*a", "b": "0"}}}
    assert main(["validate", write_spec(tmp_path, spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and repr(literal) in err
    assert "denominator" in err


def test_space_dimension_only(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    rc, payload = run_json(capsys, ["space", spec, "--format", "json",
                                    "--dimension-only"])
    assert rc == 0
    assert payload == {"dimension": 16}


def test_space_field_override(tmp_path, capsys):
    spec = write_spec(tmp_path, {"group": {"family": "cyclic", "n": 6},
                                 "field": "GF(2)", "sigma": {"x": "x"}})
    rc, payload = run_json(capsys, ["space", spec, "--format", "json",
                                    "--dimension-only", "--field", "QQ"])
    assert rc == 0
    assert payload["dimension"] == 0


def test_classes_report(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    rc, payload = run_json(capsys, ["classes", spec, "--format", "json"])
    assert rc == 0
    assert payload["count"] == 6
    assert payload["singletons"] == 2
    assert payload["center"] == ["1", "a^3"]


def test_inner_witness_and_basis(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    rc, payload = run_json(capsys, ["inner", spec, "--format", "json"])
    assert rc == 0
    assert payload["inner"] in (True, False)
    no_deriv = dict(D12_SPEC)
    no_deriv.pop("derivation")
    spec2 = write_spec(tmp_path, no_deriv, "basis.json")
    rc, payload = run_json(capsys, ["inner", spec2, "--format", "json"])
    assert rc == 0
    assert payload["dimension"] == 6
    assert len(payload["witnesses"]) == 6


def test_predict_report(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    rc, payload = run_json(capsys, ["predict", spec, "--format", "json"])
    assert rc == 0
    assert payload["dim_derivations"] == 16
    assert payload["class_count"] == 6
    assert payload["outer_nonzero"] is True
    # closed forms do not cover reflection-valued families
    sigma4 = dict(D12_SPEC)
    sigma4["sigma"] = {"a": "b", "b": "a^3*b"}
    spec4 = write_spec(tmp_path, sigma4, "s4.json")
    assert main(["predict", spec4]) == 1
    capsys.readouterr()


def test_idd_report_roundtrip(tmp_path, capsys):
    spec = write_spec(tmp_path, C18_SPEC)
    rc, payload = run_json(capsys, ["idd", spec, "--format", "json"])
    assert rc == 0
    assert (payload["n"], payload["k"], payload["d"]) == (18, 8, 6)
    assert payload["dual"] == {"n": 18, "k": 10, "d": 4}
    assert payload["lcd"] is False
    assert len(payload["generator_matrix"]) == 8
    assert payload["generator_matrix"][0] == "1 1 1 1 1 1 0 0 1 0 0 1 0 0 0 0 0 0"


def test_idd_over_large_field(tmp_path, capsys):
    # the inner derivation of 1 + 2a + 3b + 5a^3b, given by its generator images
    g = dihedral_group(8)
    F = GF(131)
    sigma = endo_from_images(g, {"a": "a^3", "b": "b"})
    D = inner_derivation(parse_element(g, F, "1 + 2*a + 3*b + 5*a^3*b"), sigma, sigma)
    spec = write_spec(tmp_path, {
        "group": {"family": "dihedral", "n": 8}, "field": "GF(131)",
        "sigma": {"a": "a^3", "b": "b"},
        "derivation": {"images": {name: format_element(D.table[g.index_of(name)])
                                  for name in ("a", "b")}},
        "subset": ["a", "a^2"]})
    rc, payload = run_json(capsys, ["idd", spec, "--format", "json"])
    assert rc == 0
    assert (payload["n"], payload["k"], payload["d"]) == (16, 2, 4)


def test_idd_above_enumeration_cap_exits_1(tmp_path, capsys, monkeypatch):
    # D(x^j) = j x^(j-1) on C_n over GF(3): the k images below are distinct
    # basis elements, so the code is [n, k] and the smaller of it and its
    # dual has 3^smaller codewords, above the 3^16 cap ([36,19]: 3^17, one
    # past it).  An enumeration would crash, exit 3; the cap refuses first
    def crash(rows, q):
        raise RuntimeError("enumerated past the cap")

    monkeypatch.setattr(codes, "_weight_counts", crash)
    for n, k, smaller in [(42, 21, 21), (36, 19, 17)]:
        exponents = [j for j in range(1, n) if j % 3][:k]
        spec = write_spec(tmp_path, {
            "group": {"family": "cyclic", "n": n}, "field": "GF(3)",
            "sigma": {"x": "x"}, "derivation": {"power_seed": "1"},
            "subset": [f"x^{j}" for j in exponents]})
        assert main(["idd", spec]) == 1
        assert capsys.readouterr().err.startswith(
            "rejected: weight enumeration too large: the smaller of the code and its dual "
            f"has 3^{smaller} codewords")


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", crash)
    assert main(["validate", write_spec(tmp_path, D12_SPEC)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_idd_dependent_subset_exits_1(tmp_path, capsys):
    spec_data = dict(C18_SPEC)
    spec_data["subset"] = ["x", "x^2"]
    spec = write_spec(tmp_path, spec_data)
    assert main(["idd", spec]) == 1
    capsys.readouterr()


def test_derive_lists_table(tmp_path, capsys):
    spec = write_spec(tmp_path, C18_SPEC)
    rc, payload = run_json(capsys, ["derive", spec, "--format", "json"])
    assert rc == 0
    assert payload["table"]["x^2"] == "0"
    assert payload["table"]["x"].startswith("1 + x")


def test_power_seed_takes_a_tau_equal_to_sigma(tmp_path, capsys):
    # tau is parsed apart from sigma, so the two maps are equal but not one object
    c6 = {"group": {"family": "cyclic", "n": 6}, "field": "GF(3)", "sigma": {"x": "x"},
          "tau": {"x": "x"}, "derivation": {"power_seed": "1 + x^3"}}
    rc, payload = run_json(capsys, ["derive", write_spec(tmp_path, c6), "--format", "json"])
    assert rc == 0
    assert payload["table"]["x"] == "1 + x^3" and payload["table"]["x^2"] == "2*x + 2*x^4"
    c6["tau"] = {"x": "x^5"}
    assert main(["derive", write_spec(tmp_path, c6, "other.json")]) == 2
    assert "power seeds require tau = sigma" in capsys.readouterr().err


def test_derive_refuses_unknown_generator_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "group": {"family": "dihedral", "n": 4}, "field": "GF(3)",
        "derivation": {"images": {"a": "0", "b": "0", "c": "1 + a"}}})
    assert main(["derive", spec]) == 2
    assert "unknown generators in image map: ['c']" in capsys.readouterr().err


def test_derive_on_a_group_without_generators_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, {"group": {"family": "table", "table": [[0]]},
                                 "derivation": {"images": {}}})
    assert main(["derive", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and "no generator image" in err
    assert "TwistedDerivation.zero" in err


def test_reproduce_table(tmp_path, capsys):
    rc, payload = run_json(capsys, ["reproduce", "c18-a", "--format", "json"])
    assert rc == 0
    assert payload["ok"]
    assert len(payload["rows"]) == 6  # five rows plus the matrix check
    assert main(["reproduce", "unknown-table"]) == 2
    capsys.readouterr()


def test_output_file_and_determinism(tmp_path, capsys):
    spec = write_spec(tmp_path, D12_SPEC)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["classes", spec, "--format", "json", "--out", str(out1)]) == 0
    assert main(["classes", spec, "--format", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    spec = write_spec(tmp_path, D12_SPEC)
    proc = subprocess.run([sys.executable, "-m", "derring.cli", "validate", spec],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


C3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("group, problem", [
    ({"table": [[0, 1], [1, "x"]]}, "table entry (1, 1) is 'x'"),
    ({"table": [[0, 1], [1, 0.0]]}, "table entry (1, 1) is 0.0"),
    ({"table": [[0, 1], [1, True]]}, "table entry (1, 1) is True"),
    ({"table": [[0, 1], [1, 2]]}, "table entry (1, 1) is 2"),
    ({"table": []}, "non-empty"),
    ({"table": [[0, 1], [1]]}, "not square: row 1"),
    ({"table": [[0, 0], [0, 0]]}, "no identity"),
    ({"table": [[0, 1], [1, 0]], "names": ["e", "e"]}, "element names repeat: ['e']"),
    ({"table": C3_TABLE, "names": ["e", "r"]}, "needs a list of 3 string names"),
    ({"table": C3_TABLE, "names": ["e", "r", 2]}, "needs a list of 3 string names"),
    ({"table": C3_TABLE, "names": ["r", "e", "r2"]}, "only the identity may be named"),
    ({"table": C3_TABLE, "names": ["r0", "1", "r2"]}, "only the identity may be named"),
    ({"table": C3_TABLE, "generators": ["g1", "g1"]}, "generators repeat: ['g1']"),
    ({"table": C3_TABLE, "generators": ["g3"]}, "must be a list of element names"),
    ({"table": C3_TABLE, "names": ["e", "-r", "-r2"]}, "'-r' does not read back"),
    ({"table": C3_TABLE, "names": ["e", "r", "r^3"]}, "'r^3' does not read back"),
])
def test_malformed_table_spec_exits_2(tmp_path, capsys, group, problem):
    spec = write_spec(tmp_path, {"group": {"family": "table", **group}, "field": "GF(3)"})
    assert main(["validate", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ") and problem in err


def test_table_group_names_parse_back(tmp_path, capsys):
    # element names, not only generators, are words: derive's output feeds back in
    spec = {"group": {"family": "table", "table": C3_TABLE, "names": ["e", "r", "r2"],
                      "generators": ["r"]},
            "field": "GF(3)", "sigma": {"r": "r2"},
            "derivation": {"images": {"r": "e + r2"}}}
    rc, payload = run_json(capsys, ["derive", write_spec(tmp_path, spec), "--format", "json"])
    assert rc == 0 and payload["provenance"] == "extended"
    spec["derivation"]["images"] = {"r": payload["table"]["r"]}
    rc, again = run_json(capsys, ["derive", write_spec(tmp_path, spec, "again.json"),
                                  "--format", "json"])
    assert rc == 0 and again == payload
    rc, space = run_json(capsys, ["space", write_spec(tmp_path, spec), "--format", "json"])
    assert rc == 0 and space["dimension"] == len(space["basis"]) > 0
    for member in space["basis"]:
        spec["derivation"]["images"] = {"r": member.get("r", "0")}
        assert main(["validate", write_spec(tmp_path, spec, "member.json")]) == 0
    capsys.readouterr()
