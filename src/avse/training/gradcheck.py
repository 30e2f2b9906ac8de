"""End-to-end gradient verification against central finite differences.

Runs the given configuration in 64-bit: analytic parameter gradients
of the SI-SDR loss through the full enhance pipeline are compared with
(L(p + h) - L(p - h)) / 2h at h = 1e-5 on a seeded sample of entries
drawn from every named tensor.  Healthy runs report errors around 1e-6;
anything near 1e-3 indicates a broken backward pass.
"""

from __future__ import annotations

import numpy as np

from avse.model.config import ModelConfig
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.params import init_parameters
from avse.prng import Stream
from avse.training.loss import si_sdr_loss_vjp

FD_STEP = 1e-5
MIN_SAMPLES = 200
# Entries where both gradients sit below this scale are compared against
# the floor instead of their own magnitude; keeps finite-difference
# noise on near-zero entries from dominating the reported maximum.
REL_FLOOR = 1e-6

_SUB_WAVE = 0
_SUB_FRAMES = 1
_SUB_TARGET = 2
_SUB_PICK = 3


def grad_check(config: ModelConfig, seed: int) -> float:
    """Worst relative error over the sampled parameter entries."""
    root = Stream(seed)
    t = 64
    h, w = config.frame_hw
    wave = root.spawn(_SUB_WAVE).normal(t)
    frames = root.spawn(_SUB_FRAMES).normal(2 * h * w).reshape(2, 1, h, w)
    target = root.spawn(_SUB_TARGET).normal(t)
    params = init_parameters(config, seed, dtype=np.float64)

    out, cache = enhance_fwd(wave, frames, params, config)
    _, g_out = si_sdr_loss_vjp(target, out)
    grads = enhance_bwd(cache, params, config, g_out)

    def loss_at(p):
        y, _ = enhance_fwd(wave, frames, p, config)
        return si_sdr_loss_vjp(target, y)[0]

    per_tensor = max(1, -(-MIN_SAMPLES // len(params)))
    pick = root.spawn(_SUB_PICK)
    worst = 0.0
    for name, tensor in params.items():
        k = min(per_tensor, tensor.size)
        flat = pick.integers(k, tensor.size)
        for fi in flat:
            idx = np.unravel_index(int(fi), tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + FD_STEP
            up = loss_at(params)
            tensor[idx] = orig - FD_STEP
            down = loss_at(params)
            tensor[idx] = orig
            numeric = (up - down) / (2.0 * FD_STEP)
            analytic = float(grads[name][idx])
            rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), REL_FLOOR)
            if rel > worst:
                worst = rel
    return worst
