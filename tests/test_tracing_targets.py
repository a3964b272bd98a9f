"""Every function that ``bench/tracing.py`` wraps by name still exists in derring,
and a wrapped call still answers.

The tracer looks its targets up when it installs, so a renamed or deleted
function, or a changed call shape, would only fail a traced benchmark run.
The module is loaded from its file.
"""

import importlib
import importlib.util
from pathlib import Path

from derring import conjugacy
from derring.groups import dihedral_group, endo_from_images
from derring.linalg import GF, QQ

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for module_name, attr, _span in targets:
        owner = importlib.import_module(f"derring.{module_name}")
        if "." in attr:
            # methods are patched on the class that defines them
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"derring.{module_name}.{attr}")
    assert not missing, f"bench/tracing.py wraps names derring no longer has: {missing}"


def test_traced_sparse_rank_still_answers():
    tracing = load_tracing()
    # the tracer patches only the modules already imported
    for module_name, _attr, _span in tracing.TARGETS:
        importlib.import_module(f"derring.{module_name}")
    group = dihedral_group(4)
    sigma = endo_from_images(group, {"a": "a^3", "b": "a*b"})
    r = conjugacy.twisted_classes(group, sigma).r
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # twisted_center_dimension reaches sparse_rank through the wrapper, which
        # hands it the block as an iterator over (cols, vals)
        dims = [conjugacy.twisted_center_dimension(group, sigma, sigma, field)
                for field in (GF(2), GF(3), QQ)]
    finally:
        tracer.uninstall()
    assert dims == [r] * 3
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("linalg.sparse_rank") == 3
    # the wrapper counts the items it draws: cols and vals, two per call
    assert tracer.counts["linalg.sparse_rank.rows"] == 6
