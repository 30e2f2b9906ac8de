"""The benchmark's traced run wraps package functions by module and
attribute name; every name it lists must still exist, be callable and
be called from that module, and its counters must read what those
functions take and return."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from avse import cli
from avse.data.synth import synth_scene
from avse.data.tensorfile import write_tensor
from avse.data.wavio import save_wav
from avse.model.config import tiny_config
from avse.model.params import init_parameters
from avse.ops.rnn import LstmParams, bilstm_backward_batched, bilstm_forward_batched
from avse.prng import Stream
from avse.training.checkpoint import Checkpoint, save_checkpoint
from avse.training.loop import train_scenes
from avse.training.optimizer import init_optimizer

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


def test_every_traced_binding_is_called(monkeypatch, tmp_path):
    """One enhance through the CLI and one training epoch reach every
    traced (module, attribute) binding.  A call moved out of the module
    the tracer wraps would leave that layer's metrics at zero."""
    calls = {}
    for module_name, attr, _, _ in _tracing().LAYERS:
        module = importlib.import_module(module_name)
        key = f"{module_name}.{attr}"
        calls[key] = 0

        def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    config = tiny_config()
    scene = synth_scene(4, 0.5, config)
    params = init_parameters(config, 0)
    model = tmp_path / "tiny.avck"
    checkpoint = Checkpoint(config=config, params=params, optimizer=init_optimizer(params))
    save_checkpoint(model, checkpoint)
    save_wav(tmp_path / "noisy.wav", scene.target + scene.interferer, scene.sample_rate_hz)
    write_tensor(tmp_path / "frames.avst", scene.frames.astype(np.float32))
    code = cli.main(["enhance", "--model", str(model), "--audio", str(tmp_path / "noisy.wav"),
                     "--frames", str(tmp_path / "frames.avst"), "--out", str(tmp_path / "out.wav")])
    assert code == 0
    train_scenes(config, [scene], 1, seed=0)
    uncalled = [key for key, n in calls.items() if n == 0]
    assert not uncalled, uncalled


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
