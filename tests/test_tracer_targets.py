"""The bench's tracer wraps package functions by module and attribute name,
so renaming or deleting one of them breaks `perfbench/run.py --trace 1`
without failing anything else here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for _, module_name, attr in tracer_targets():
        module = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            # a method is looked up in its class __dict__, as the tracer does
            cls = getattr(module, cls_name, None)
            found = cls is not None and name in vars(cls)
        else:
            found = callable(getattr(module, name, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
