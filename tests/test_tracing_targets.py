"""Every function that ``bench/tracing.py`` wraps by name still exists in derring.

The tracer looks its targets up when it installs, so a renamed or deleted
function would only fail a traced benchmark run.  The module is loaded
from its file and only its ``TARGETS`` table is read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
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
