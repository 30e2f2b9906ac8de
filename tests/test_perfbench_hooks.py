"""The benchmark's traced run wraps package functions by module and
attribute name; every name it lists must still exist and be callable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_layer_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.LAYERS
    assert not missing, missing
