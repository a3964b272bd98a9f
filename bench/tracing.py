"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS`` and replaces every attribute of a derring module that refers
to one of them (``sparse_rank`` is imported by name into ``derivations``
and ``conjugacy``, for example).  Each call records a span (name, start,
end, parent) in flat arrays; nothing is aggregated until the run ends.
A layer's self time is the sum of its spans' durations minus the
durations of their direct child spans.  ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute or Class.method, span name)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("derivations", "free_eval", "derivations.free_eval"),
    ("derivations", "derivation_space", "derivations.derivation_space"),
    ("derivations", "derivation_space_full", "derivations.derivation_space_full"),
    ("derivations", "extend_from_generators", "derivations.extend_from_generators"),
    ("derivations", "is_inner", "derivations.is_inner"),
    ("derivations", "product_rule_violation", "derivations.product_rule"),
    ("groupring", "GroupRingElement.__add__", "groupring.elem_ops"),
    ("groupring", "GroupRingElement.__sub__", "groupring.elem_ops"),
    ("groupring", "GroupRingElement.__mul__", "groupring.elem_ops"),
    ("groupring", "GroupRingElement.scale", "groupring.elem_ops"),
    ("groupring", "GroupRingElement.left_mul_elem", "groupring.elem_ops"),
    ("groupring", "GroupRingElement.right_mul_elem", "groupring.elem_ops"),
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("linalg", "rref_mod_p", "linalg.rref_mod_p"),
    ("linalg", "sparse_rank", "linalg.sparse_rank"),
    ("conjugacy", "twisted_classes", "conjugacy.twisted_classes"),
    ("conjugacy", "inner_basis", "conjugacy.inner_basis"),
    ("dihedral", "predict", "dihedral.predict"),
    ("codes", "code_report", "codes.code_report"),
    ("codes", "min_distance", "codes.min_distance"),
    ("codes", "dual_code", "codes.dual_code"),
    ("codes", "is_lcd", "codes.is_lcd"),
    ("groups", "dihedral_group", "groups.build"),
    ("groups", "cyclic_group", "groups.build"),
    ("groups", "table_group", "groups.build"),
    ("groups", "enumerate_endomorphisms", "groups.build"),
    ("groups", "endo_from_images", "groups.build"),
    ("reference", "build_context", "reference.build_context"),
)

# span names whose self time is reported as <name>.ms, and calls as <name>.calls
MS_LAYERS = (
    "derivations.free_eval", "groupring.elem_ops", "linalg.rref", "linalg.rref_mod_p",
    "linalg.sparse_rank", "derivations.derivation_space",
    "derivations.derivation_space_full", "derivations.extend_from_generators",
    "derivations.is_inner", "derivations.product_rule", "conjugacy.twisted_classes",
    "conjugacy.inner_basis", "dihedral.predict", "codes.code_report",
    "codes.min_distance", "codes.dual_code", "codes.is_lcd", "groups.build",
    "reference.build_context",
)
CALL_LAYERS = (
    "derivations.free_eval", "groupring.elem_ops", "linalg.rref", "linalg.rref_mod_p",
    "linalg.sparse_rank", "derivations.product_rule", "codes.min_distance",
)
ROW_BUILD = "linalg.sparse_rank.row_build"
RREF_QQ = "linalg.rref.qq"


class Tracer:
    """Spans in flat arrays, counters, and the wrappers that record them."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add_child(self, name: str, parent: int, seconds: float) -> None:
        """A span summarising time spent inside ``parent`` in many pieces."""
        begin = self.start[parent]
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.start.append(begin)
        self.end.append(begin + seconds)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        if span == "linalg.rref":
            @functools.wraps(fn)
            def traced(matrix, *args, **kwargs):
                tracer.counts["linalg.rref.entries"] += matrix.rows * matrix.cols
                idx = tracer.open(RREF_QQ if not matrix.field.p else span)
                try:
                    return fn(matrix, *args, **kwargs)
                finally:
                    tracer.close(idx)
        elif span == "linalg.sparse_rank":
            @functools.wraps(fn)
            def traced(field, rows):
                idx = tracer.open(span)
                drawn = [0.0, 0]

                def timed_rows():
                    it = iter(rows)
                    while True:
                        t0 = perf_counter()
                        try:
                            row = next(it)
                        except StopIteration:
                            drawn[0] += perf_counter() - t0
                            return
                        drawn[0] += perf_counter() - t0
                        drawn[1] += 1
                        yield row

                try:
                    return fn(field, timed_rows())
                finally:
                    tracer.counts["linalg.sparse_rank.rows"] += drawn[1]
                    tracer.add_child(ROW_BUILD, idx, drawn[0])
                    tracer.close(idx)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = tracer.open(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        return traced

    def install(self, package: str = "derring") -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self, roots: Tuple[str, ...]) -> Dict[str, List[float]]:
        """{span name: [calls, self seconds]} over spans under the given roots."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        root_ids = {self._ids[r] for r in roots if r in self._ids}
        under = [False] * n
        totals: Dict[str, List[float]] = {}
        for i in range(n):
            p = self.parent[i]
            under[i] = self.name[i] in root_ids if p < 0 else under[p]
            if not under[i]:
                continue
            entry = totals.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return totals

    def dump(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [[self.name[i], round((self.start[i] - t0) * 1e9),
                  round((self.end[i] - t0) * 1e9), self.parent[i]]
                 for i in range(len(self.name))]
        with gzip.open(path, "wt") as out:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": spans}, out)


def layer_metrics(tracer: Tracer, pass_roots, setup_roots) -> Dict[str, float]:
    """Per-layer metrics: setup layers per setup, the rest per pass."""
    per_pass = tracer.layer_totals(pass_roots)
    per_setup = tracer.layer_totals(setup_roots)
    out: Dict[str, float] = {}

    def total(name, table, idx):
        entry = table.get(name)
        return entry[idx] if entry else 0

    for layer in MS_LAYERS:
        table = per_setup if layer in ("groups.build", "reference.build_context") else per_pass
        names = (layer, RREF_QQ) if layer == "linalg.rref" else (layer,)
        out[f"{layer}.ms"] = sum(total(n, table, 1) for n in names) * 1000.0
        if layer in CALL_LAYERS:
            out[f"{layer}.calls"] = sum(total(n, table, 0) for n in names)
    out["linalg.rref.qq_ms"] = total(RREF_QQ, per_pass, 1) * 1000.0
    out["linalg.sparse_rank.row_build_ms"] = total(ROW_BUILD, per_pass, 1) * 1000.0
    return out
