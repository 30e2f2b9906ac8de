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
# A cotangent this far below the largest one is rounding noise, not a
# value: dec.b's is a sum of the loss gradient, which has zero mean.  It
# is held to the largest cotangent's scale instead of its own.
NEAR_ZERO = 1e-9


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
    assert sum(g.size for g in expected.values()) == 2009
    top = max(np.abs(g).max() for g in expected.values())
    for name, want in expected.items():
        scale = np.abs(want).max()
        if scale < NEAR_ZERO * top:
            scale = top
        assert grads[name].shape == want.shape, name
        assert _rel_dev(grads[name], want, scale) < REL_TOL, name


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
