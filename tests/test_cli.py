import json
import subprocess
import sys

from derring import cli
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
