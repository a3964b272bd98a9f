"""Command line interface.

A job spec is a JSON file naming a group, a field, endomorphisms given
by generator-image words, and optionally a derivation (generator images
or a cyclic power seed) and a subset of group elements:

    {
      "group": {"family": "dihedral", "n": 6},
      "field": "GF(2)",
      "sigma": {"a": "a^2", "b": "a*b"},
      "derivation": {"images": {"a": "...", "b": "..."}},
      "subset": ["a", "a^2", "a^3", "b"]
    }

Exit codes: 0 on success, 1 when the input is mathematically rejected
(failing relator, dependent subset, no closed form, ...), 2 on
malformed input, 3 on an internal error (a fault in derring itself).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .codes import idd_code, linear_code_report, matrix_text
from .conjugacy import inner_basis, twisted_center_group, twisted_classes
from .derivations import (cyclic_power_derivation, derivation_space,
                          extend_from_generators, is_inner, verify_derivation)
from .dihedral import predict
from .errors import MathRejection
from .groups import endo_from_images, identity_endomorphism, make_group, parse_word
from .groupring import format_element, parse_element
from .linalg import parse_field
from .reference import (MATRIX_DIFF_ALLOWED, MATRIX_TABLE_IDS, TABLE_IDS, RowCheck,
                        matrix_diff, reproduce_dihedral, reproduce_table)


def _checked(key: str, value, kind: type, what: str, items: type = object):
    """The spec entry ``value``, refused with a ValueError naming ``key``
    unless it is a ``kind`` whose values (a dict's) or elements are ``items``."""
    inside = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or not all(isinstance(x, items) for x in inside):
        raise ValueError(f"{key!r} must be {what}, not {value!r}")
    return value


def _image_map(key: str, images) -> Dict[str, str]:
    return _checked(key, images, dict, "a map from generator names to strings", str)


class Job:
    """A resolved job spec; an entry of the wrong JSON type is a ValueError."""

    def __init__(self, raw: Dict, field_override: Optional[str] = None,
                 sigma_override: Optional[str] = None):
        if not isinstance(raw, dict):
            raise ValueError(f"a spec must be a JSON object, not {raw!r}")
        if "group" not in raw:
            raise ValueError("spec needs a 'group' entry")
        self.group = make_group(_checked("group", raw["group"], dict,
                                         'an object such as {"family": "dihedral", "n": 6}'))
        field_spec = field_override or raw.get("field", "QQ")
        self.field = parse_field(field_spec)
        sigma_spec = raw.get("sigma")
        if sigma_override is not None:
            sigma_spec = json.loads(sigma_override)
        if sigma_spec is not None:
            self.sigma = endo_from_images(self.group, _image_map("sigma", sigma_spec))
        else:
            self.sigma = identity_endomorphism(self.group)
        if "tau" in raw:
            self.tau = endo_from_images(self.group, _image_map("tau", raw["tau"]))
        else:
            self.tau = self.sigma
        self.derivation_spec = raw.get("derivation")
        if self.derivation_spec is not None:
            _checked("derivation", self.derivation_spec, dict,
                     "an object with 'images' or 'power_seed'")
        self.subset_words = raw.get("subset")
        if self.subset_words is not None:
            _checked("subset", self.subset_words, list, "a list of element words", str)

    def derivation(self):
        if self.derivation_spec is None:
            raise ValueError("spec has no 'derivation' entry")
        if "images" in self.derivation_spec:
            texts = _image_map("images", self.derivation_spec["images"])
            images = {name: parse_element(self.group, self.field, text)
                      for name, text in texts.items()}
            return extend_from_generators(images, self.sigma, self.tau)
        if "power_seed" in self.derivation_spec:
            if self.tau != self.sigma:
                raise ValueError("power seeds require tau = sigma")
            seed = _checked("power_seed", self.derivation_spec["power_seed"], str,
                            "an element string")
            return cyclic_power_derivation(self.group, self.sigma,
                                           parse_element(self.group, self.field, seed))
        raise ValueError("derivation spec needs 'images' or 'power_seed'")

    def subset_indices(self) -> List[int]:
        if not self.subset_words:
            raise ValueError("spec has no 'subset' entry")
        return [self.group.eval_word(parse_word(w)) for w in self.subset_words]


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: Dict, lines: List[str], args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _endo_dict(endo) -> Dict:
    return {
        "family": endo.family,
        "s": endo.s,
        "t": endo.t,
        "identity": endo.is_identity,
        "images": endo.image_names(),
    }


def cmd_validate(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    payload = {
        "group": {"description": job.group.describe(), "order": job.group.order,
                  "abelian": job.group.is_abelian()},
        "field": repr(job.field),
        "sigma": _endo_dict(job.sigma),
        "tau": _endo_dict(job.tau),
    }
    lines = [f"group: {job.group.describe()} (order {job.group.order})",
             f"field: {job.field!r}",
             f"sigma: {job.sigma.describe()}",
             f"tau:   {job.tau.describe()}"]
    if job.derivation_spec is not None:
        D = job.derivation()
        bad = verify_derivation(D)
        if bad is not None:
            raise MathRejection(f"derivation fails the product rule at {bad}")
        payload["derivation"] = {"provenance": D.provenance, "verified": True}
        lines.append(f"derivation: accepted ({D.provenance})")
    if job.subset_words:
        indices = job.subset_indices()
        payload["subset"] = [job.group.names[i] for i in indices]
        lines.append(f"subset: {payload['subset']}")
    payload["ok"] = True
    lines.append("ok")
    _emit(payload, lines, args)
    return 0


def cmd_derive(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    D = job.derivation()
    table = {job.group.names[g]: format_element(D.table[g])
             for g in range(job.group.order)}
    payload = {"provenance": D.provenance, "table": table}
    lines = [f"derivation ({D.provenance}):"]
    lines += [f"  D({name}) = {value}" for name, value in table.items()]
    _emit(payload, lines, args)
    return 0


def cmd_space(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    dim, basis = derivation_space(job.field, job.sigma, job.tau,
                                  basis=not args.dimension_only)
    payload: Dict = {"dimension": dim}
    lines = [f"dimension: {dim}"]
    if basis is not None:
        payload["basis"] = []
        for i, D in enumerate(basis):
            entry = {job.group.names[g]: format_element(D.table[g])
                     for g in range(job.group.order) if not D.table[g].is_zero()}
            payload["basis"].append(entry)
            lines.append(f"basis[{i}]: " + "; ".join(
                f"D({k}) = {v}" for k, v in entry.items()))
    _emit(payload, lines, args)
    return 0


def cmd_classes(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    part = twisted_classes(job.group, job.sigma, job.tau)
    names = job.group.names
    center = sorted(twisted_center_group(job.group, job.sigma, job.tau))
    sizes = [len(c) for c in part.classes]
    payload = {
        "count": part.r,
        "singletons": part.singleton_count,
        "classes": [[names[g] for g in cls] for cls in part.classes],
        "representatives": [names[g] for g in part.representatives],
        "center": [names[g] for g in center],
        "class_equation": f"{job.group.order} = {part.singleton_count} + " +
                          " + ".join(str(s) for s in sizes[part.singleton_count:]),
    }
    lines = [f"{part.r} classes ({part.singleton_count} singletons)"]
    lines += ["  {" + ", ".join(names[g] for g in cls) + "}" for cls in part.classes]
    lines.append("center: {" + ", ".join(names[g] for g in center) + "}")
    lines.append("class equation: " + payload["class_equation"])
    _emit(payload, lines, args)
    return 0


def cmd_inner(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    if job.derivation_spec is not None:
        D = job.derivation()
        witness = is_inner(D)
        payload = {"inner": witness is not None,
                   "witness": None if witness is None else format_element(witness)}
        lines = [f"inner: {payload['inner']}"]
        if witness is not None:
            lines.append(f"witness: {payload['witness']}")
        _emit(payload, lines, args)
        return 0
    basis = inner_basis(job.group, job.sigma, job.tau, job.field)
    payload = {
        "dimension": len(basis),
        "witnesses": [format_element(D.witness) for D in basis],
    }
    lines = [f"inner dimension: {len(basis)}",
             "witnesses: " + ", ".join(payload["witnesses"])]
    _emit(payload, lines, args)
    return 0


def cmd_predict(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    pred = predict(job.group, job.sigma, job.field)
    payload = {
        "case": pred.applicable_case,
        "parameters": {"n": pred.params.n, "s": pred.params.s, "t": pred.params.t,
                       "m": pred.params.m, "d": pred.params.d, "j0": pred.params.j0},
        "dim_derivations": pred.dim_derivations,
        "dim_inner": pred.dim_inner,
        "class_count": pred.class_count,
        "classes": pred.class_descriptions,
        "outer_nonzero": pred.outer_nonzero,
    }
    lines = [f"case: {pred.applicable_case}",
             f"dim derivations: {pred.dim_derivations}",
             f"dim inner:       {pred.dim_inner}",
             f"classes:         {pred.class_count}",
             f"outer nonzero:   {pred.outer_nonzero}"]
    lines += [f"  {desc}" for desc in pred.class_descriptions]
    _emit(payload, lines, args)
    return 0


def cmd_idd(args) -> int:
    job = Job(_load(args.spec), args.field, args.sigma)
    D = job.derivation()
    indices = job.subset_indices()
    code = idd_code(D, indices)
    report = linear_code_report(code)
    payload = report.to_json_dict()
    payload["generator_matrix"] = matrix_text(code.generator).split("\n")
    lines = [f"[{report.n},{report.k},{report.d}] "
             f"{'LCD' if report.lcd else 'non-LCD'}"
             f"{' self-orthogonal' if report.self_orthogonal else ''}",
             f"dual: [{report.dual_n},{report.dual_k},{report.dual_d}]",
             "generator matrix:"]
    lines += ["  " + row for row in payload["generator_matrix"]]
    _emit(payload, lines, args)
    return 0


def cmd_reproduce(args) -> int:
    target = args.table
    checks = []
    matrix_notes: List[str] = []
    if target.startswith("dihedral-"):
        n = int(target.split("-", 1)[1])
        checks = reproduce_dihedral(n)
    elif target in TABLE_IDS:
        checks = reproduce_table(target)
        if target in MATRIX_TABLE_IDS:
            diffs = matrix_diff(target)
            allowed = MATRIX_DIFF_ALLOWED[target]
            confined = {d[0] for d in diffs} <= allowed
            matrix_notes = [f"matrix diff at row {i} col {j}: printed {p}, recomputed {c}"
                            for i, j, p, c in diffs]
            checks.append(RowCheck(
                table=target, label="printed-matrix", ok=confined,
                expected=f"diffs confined to rows {sorted(allowed)}",
                actual=f"{len(diffs)} differing entries",
                note="; ".join(matrix_notes)))
    else:
        raise ValueError(f"unknown table id {target!r}; "
                         f"known: {', '.join(TABLE_IDS)}, dihedral-3..dihedral-10")
    payload = {"table": target,
               "rows": [{"label": c.label, "ok": c.ok, "expected": c.expected,
                         "actual": c.actual, "note": c.note} for c in checks],
               "ok": all(c.ok for c in checks)}
    lines = []
    for c in checks:
        status = "PASS" if c.ok else "FAIL"
        suffix = f"  [{c.note}]" if c.note else ""
        lines.append(f"{status} {c.table} {c.label}: expected {c.expected}, "
                     f"got {c.actual}{suffix}")
    lines.append("all rows pass" if payload["ok"] else "some rows FAILED")
    _emit(payload, lines, args)
    return 0 if payload["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derring",
        description="Exact twisted derivations of group rings, and derived codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, spec=True):
        p = sub.add_parser(name, help=help_text)
        if spec:
            p.add_argument("spec", help="path to a JSON job spec")
            p.add_argument("--field", default=None,
                           help="override the spec's field, e.g. GF(3) or QQ")
            p.add_argument("--sigma", default=None,
                           help='override sigma with a JSON image map, '
                                'e.g. {"a": "a^2", "b": "a*b"}')
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "parse and verify a job spec")
    add("derive", cmd_derive, "build a derivation table from the spec")
    space = add("space", cmd_space, "dimension and basis of the derivation space")
    space.add_argument("--dimension-only", action="store_true")
    add("classes", cmd_classes, "twisted conjugacy class report")
    add("inner", cmd_inner, "inner witness for a derivation, or the inner basis")
    add("predict", cmd_predict, "closed-form dihedral predictions")
    add("idd", cmd_idd, "code report and generator matrix for a subset")
    rep = add("reproduce", cmd_reproduce, "recompute a bundled reference table",
              spec=False)
    rep.add_argument("table", help=f"one of {', '.join(TABLE_IDS)} or dihedral-N")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MathRejection as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
