"""Desk-scale training loop.

One scene per step: mix the inputs, run the forward pass, take the
negative-SI-SDR gradient, clip at global norm 5, apply Adam.  Scene
order reshuffles every epoch from a seeded stream, mixtures are built
once up front, and every random choice flows from the single seed, so
the loss trace is bit-reproducible.

Each ``train_scenes`` call keeps one workspace dict for all its steps:
the separator's BiLSTM outputs, gate and cell records and projections,
one set per path, and one set of BiLSTM backward block buffers (see
``ops/rnn.py``), each as large as the longest scene needs.  A step's
forward writes into the arrays the previous step's backward has
finished reading, so a step runs beside no dead copy of them; the
workspace is dropped when the call returns.
"""

from __future__ import annotations

import math

import numpy as np

from avse.errors import ConfigError, DataError, NumericError
from avse.data.manifest import ManifestEntry
from avse.data.mixer import mix_scene
from avse.data.synth import Scene
from avse.data.tensorfile import read_tensor
from avse.data.wavio import load_wav
from avse.metrics.sisdr import si_sdr
from avse.model.config import ModelConfig
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.params import init_parameters
from avse.prng import Stream
from avse.training.checkpoint import Checkpoint
from avse.training.loss import si_sdr_loss_vjp
from avse.training.optimizer import DEFAULT_LR, adam_step, clip_global_norm, init_optimizer

MAX_GRAD_NORM = 5.0

_SUB_SHUFFLE = 101
_SUB_MIX = 102


def load_scene(entry: ManifestEntry, config: ModelConfig) -> Scene:
    """Materialize one manifest entry; validates rates and frames."""
    expected_rate = config.sample_rate_hz
    target, rate_t = load_wav(entry.target_path)
    interferer, rate_i = load_wav(entry.interferer_path)
    if rate_t != expected_rate or rate_i != expected_rate:
        raise DataError(
            f"scene {entry.id}: sample rates {rate_t}/{rate_i} Hz do not match "
            f"the configured {expected_rate} Hz"
        )
    frames = read_tensor(entry.frames_path)
    config.check_frames(frames, f"scene {entry.id} ({entry.frames_path})")
    return Scene(
        id=entry.id,
        target=target,
        interferer=interferer,
        frames=frames,
        snr_db=entry.snr_db,
        sample_rate_hz=expected_rate,
    )


def train_scenes(
    config: ModelConfig,
    scenes: list[Scene],
    epochs: int,
    seed: int,
    lr: float = DEFAULT_LR,
) -> tuple[Checkpoint, list[dict]]:
    """Train on in-memory scenes; returns (checkpoint, per-epoch log records).

    Every scene is checked against ``config`` before the first step: its
    sample rate, its frames (``check_frames``) and its length, each error
    naming the scene.  Scenes from a manifest were already checked by
    ``load_scene``, whose errors also name the file; the second check
    costs one pass over the frames, and a scene built in memory gets the
    same refusals.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if not scenes:
        raise DataError("training needs at least one scene")
    root = Stream(seed)
    mix_stream = root.spawn(_SUB_MIX)
    prepared = []
    for scene in scenes:
        if scene.sample_rate_hz != config.sample_rate_hz:
            raise DataError(
                f"scene {scene.id}: sample rate {scene.sample_rate_hz} Hz does not match "
                f"the configured {config.sample_rate_hz} Hz"
            )
        config.check_frames(scene.frames, f"scene {scene.id}")
        if scene.target.shape[0] < config.enc_kernel:
            raise DataError(
                f"scene {scene.id}: target length {scene.target.shape[0]} is shorter "
                f"than the encoder kernel {config.enc_kernel}"
            )
        mixture = mix_scene(
            scene.target,
            scene.interferer,
            scene.snr_db,
            seed=int(mix_stream.integers(1, 2**31)[0]),
            sample_rate_hz=scene.sample_rate_hz,
        )
        prepared.append(
            (
                scene.id,
                mixture.astype(np.float32),
                scene.target.astype(np.float32),
                scene.frames.astype(np.float32),
            )
        )
    params = init_parameters(config, seed, dtype=np.float32)
    state = init_optimizer(params, lr=lr)
    shuffle = root.spawn(_SUB_SHUFFLE)
    work: dict = {}  # written over by each step; see the module docstring
    logs: list[dict] = []
    for epoch in range(epochs):
        order = shuffle.permutation(len(prepared))
        losses = []
        sisdrs = []
        for step, idx in enumerate(order):
            scene_id, mixture, target, frames = prepared[int(idx)]
            out, cache = enhance_fwd(mixture, frames, params, config, work)
            loss, g_out = si_sdr_loss_vjp(target, out)
            if not math.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, step {step}, scene {scene_id}"
                )
            grads = enhance_bwd(cache, params, config, g_out, work)
            norm = clip_global_norm(grads, MAX_GRAD_NORM)
            if not math.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient at epoch {epoch}, step {step}, scene {scene_id}"
                )
            adam_step(params, grads, state)
            losses.append(loss)
            sisdrs.append(si_sdr(target, out))
        logs.append(
            {
                "epoch": epoch,
                "mean_loss": sum(losses) / len(losses),
                "mean_sisdr": sum(sisdrs) / len(sisdrs),
            }
        )
    return Checkpoint(config=config, params=params, optimizer=state), logs


def train(
    config: ModelConfig,
    entries: list[ManifestEntry],
    epochs: int,
    seed: int,
) -> tuple[Checkpoint, list[dict]]:
    """Train from manifest entries (files on disk)."""
    scenes = [load_scene(entry, config) for entry in entries]
    return train_scenes(config, scenes, epochs, seed)
