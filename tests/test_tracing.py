"""The benchmark's trace targets name functions that epkit defines."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    # `perfbench/run.py --trace 1` wraps each TARGETS entry, a method in the
    # class's own namespace; a deleted or renamed target fails here first.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(attr)), (module, cls_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)
