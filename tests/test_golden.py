"""Pinned forward values and gradients on the tiny config in float64.

The finite-difference checks compare the backward pass with the forward
pass, so they pass any change to the forward that the backward follows,
such as swapped LSTM gates or a dropped residual.  This test compares
both with values recorded by tests/record_golden.py.  Float64 sums may
round differently between BLAS builds, so the comparison is at 1e-10
of each array's largest entry rather than bitwise.
"""

from pathlib import Path

import numpy as np
import pytest

from avse.model.network import enhance
from avse.ops import rnn

from helpers import golden_case, golden_inputs

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_tiny.npz"
REL_TOL = 1e-10


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as z:
        recorded = {k: z[k] for k in z.files}
    return recorded, golden_case()


def _rel_dev(actual, expected, scale):
    return float(np.abs(actual - expected).max() / scale)


def test_output_and_loss_match_recording(golden):
    recorded, (out, loss, _) = golden
    assert out.shape == recorded["out"].shape
    assert _rel_dev(out, recorded["out"], np.abs(recorded["out"]).max()) < REL_TOL
    assert abs(loss - recorded["loss"]) < REL_TOL * abs(recorded["loss"])


def test_every_gradient_matches_recording(golden):
    recorded, (_, _, grads) = golden
    expected = {k.removeprefix("grad/"): v for k, v in recorded.items() if k.startswith("grad/")}
    assert sorted(grads) == sorted(expected)
    assert sum(g.size for g in expected.values()) == 2008
    for name, want in expected.items():
        assert grads[name].shape == want.shape, name
        assert _rel_dev(grads[name], want, np.abs(want).max()) < REL_TOL, name


def test_every_parameter_reaches_the_loss(golden):
    """Each cotangent's largest entry is at least 1e-6 of the largest
    cotangent's, so no tensor is one that the loss cannot see (a constant
    offset on the output, which SI-SDR removes, read 9.5e-16)."""
    _, (_, _, grads) = golden
    top = {name: float(np.abs(g).max()) for name, g in grads.items()}
    largest = max(top.values())
    assert not [name for name, m in top.items() if m < 1e-6 * largest]


def test_inference_on_two_threads_matches_recording_bit_for_bit(golden, monkeypatch):
    """Inference, forced to run each BiLSTM direction on its own thread,
    matches the recorded output and the one-thread run exactly.  The tiny
    config's steps are too small to split on their own."""
    recorded, _ = golden
    config, scene, mixture, params = golden_inputs()
    # 999 rows: the intra path's chunk count at 1 s, the tiny config's largest step.
    assert not rnn.split_directions(999, config.fusion_channels, config.sep_hidden)
    fused = enhance(mixture, scene.frames, params, config)
    monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: True)
    split = enhance(mixture, scene.frames, params, config)
    assert split.shape == recorded["out"].shape
    assert _rel_dev(split, recorded["out"], np.abs(recorded["out"]).max()) < REL_TOL
    assert np.array_equal(split, fused)
