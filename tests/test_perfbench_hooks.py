"""The benchmark's traced run wraps package functions by module and
attribute name; every name it lists must still exist and be callable,
and its counters must read what those functions take and return."""

import importlib
import importlib.util
from pathlib import Path

from avse.ops.rnn import LstmParams, bilstm_backward_batched, bilstm_forward_batched
from avse.prng import Stream

from helpers import randn

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_layer_names_resolve_to_callables():
    tracing = _tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.LAYERS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.LAYERS
    assert not missing, missing


def test_rnn_counters_read_a_real_forward_and_backward():
    """The recurrence counters run on the arguments and results of one
    fused forward and backward, as in a traced training step."""
    tracing = _tracing()
    nb, t, d, h = 3, 5, 4, 2
    stream = Stream(500)
    shapes = ((4 * h, d + h), (4 * h,), (4 * h, d + h), (4 * h,))
    params = LstmParams(*(0.5 * randn(stream, shape) for shape in shapes))
    x = randn(stream, (nb, t, d))
    out = bilstm_forward_batched(x, params)
    fwd = tracing._rnn_forward_counts((x, params, True), {}, out)
    assert fwd["steps"] == 2 * t and fwd["row_steps"] == 2 * t * nb and fwd["gflop"] > 0
    gy = randn(stream, (nb, t, 2 * h))
    back = bilstm_backward_batched(out[1], gy)
    bwd = tracing._rnn_backward_counts((out[1], gy), {}, back)
    assert bwd["steps"] == 2 * t and bwd["gflop"] > 0
