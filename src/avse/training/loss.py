"""Negative SI-SDR training loss.

Same projection as the metric (``metrics.sisdr.project``) but uncapped,
with a 1e-8 stabilizer on the residual energy so the loss stays finite
when the estimate matches the target exactly.  Lower is better;
matching the target to within the stabilizer floor gives a loss at or
below -60 for unit-scale signals.
"""

from __future__ import annotations

import numpy as np

from avse.metrics.sisdr import project

_EPS = 1e-8
_LOG10_SCALE = 10.0 / np.log(10.0)


def si_sdr_loss_vjp(clean: np.ndarray, enhanced: np.ndarray) -> tuple[float, np.ndarray]:
    """Returns (loss, dloss/denhanced); the gradient matches enhanced's dtype."""
    target, residual = project(clean, enhanced)
    target_energy = float(target @ target)
    residual_energy = float(residual @ residual)
    loss = -10.0 * (np.log10(target_energy) - np.log10(residual_energy + _EPS))
    # d/de of -10*log10(|t|^2 / (|n|^2 + eps)); t and n are orthogonal
    # projections of e, so their energy gradients are 2t and 2n.
    g = -_LOG10_SCALE * (2.0 * target / target_energy - 2.0 * residual / (residual_energy + _EPS))
    g = g - g.mean()  # chain through the mean removal of e
    return float(loss), g.astype(enhanced.dtype)
