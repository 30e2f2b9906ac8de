"""Adam with bias correction at Kingma & Ba's published β1, β2 and ε.

Those three are constants, not run state: a checkpoint stores them only
to keep its header layout, and refuses a file whose values differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from avse.model.params import ModelParams, check_tensors

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
DEFAULT_LR = 1e-3


@dataclass
class OptimizerState:
    """First/second moments per parameter, the step count and the rate."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    lr: float


def init_optimizer(params: ModelParams, lr: float = DEFAULT_LR) -> OptimizerState:
    return OptimizerState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        t=0,
        lr=lr,
    )


def adam_step(params: ModelParams, grads: ModelParams, state: OptimizerState) -> None:
    """One update, in place: moves ``params`` and advances ``state``."""
    shapes = {name: p.shape for name, p in params.items()}
    check_tensors(grads, shapes, "gradients")
    check_tensors(state.m, shapes, "first moments")
    check_tensors(state.v, shapes, "second moments")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def clip_global_norm(grads: ModelParams, max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most max_norm.

    Returns the pre-clip norm.  Keeps LSTM gradient spikes from
    destabilizing the run.
    """
    total = 0.0
    for _, g in grads.items():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for _, g in grads.items():
            g *= scale
    return norm
