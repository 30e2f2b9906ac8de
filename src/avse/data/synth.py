"""Synthetic enhancement scenes.

Each scene is a speech-like target (three amplitude-modulated harmonics
under a slow 2-6 Hz envelope), a colored-noise interferer (one-pole
filtered white noise), and a 25 fps frame stream whose per-frame mean
intensity equals the target envelope sampled at the frame times.  The
frames therefore carry exactly the information a visual branch can use
to track the target.  Everything is drawn from the pinned counter-based
generator, so scenes are bit-identical per seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from avse.data.wavio import MAX_SAMPLES
from avse.errors import ConfigError
from avse.model.config import ModelConfig
from avse.prng import Stream

FPS = 25
SNR_RANGE_DB = (-5.0, 10.0)

# substream ids, one per independent random quantity
_SUB_ENVELOPE = 0
_SUB_HARMONICS = 1
_SUB_NOISE = 2
_SUB_TEXTURE = 3
_SUB_SNR = 4


@dataclass
class Scene:
    """One enhancement instance."""

    id: str
    target: np.ndarray  # [T]
    interferer: np.ndarray  # [T]
    frames: np.ndarray  # [F, 1, H, W]
    snr_db: float
    sample_rate_hz: int


def _envelope(stream: Stream, times: np.ndarray) -> np.ndarray:
    f1, f2 = stream.uniform(2, 2.0, 6.0)
    p1, p2 = stream.uniform(2, 0.0, 2.0 * np.pi)
    raw = 0.5 + 0.25 * np.sin(2 * np.pi * f1 * times + p1) + 0.25 * np.sin(
        2 * np.pi * f2 * times + p2
    )
    return 0.15 + 0.85 * raw  # stays well away from zero


def synth_scene(seed: int, duration_s: float, config: ModelConfig) -> Scene:
    """Deterministic scene of ``duration_s`` seconds at the config's rate."""
    if not (math.isfinite(duration_s) and duration_s >= 0.5):
        raise ConfigError(f"scene duration_s must be finite and at least 0.5 s, got {duration_s}")
    rate = config.sample_rate_hz
    if duration_s > MAX_SAMPLES / rate:
        raise ConfigError(
            f"scene duration_s must be at most {MAX_SAMPLES / rate:.0f} s, the longest WAV "
            f"file at {rate} Hz, got {duration_s}"
        )
    root = Stream(seed)
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate

    env_stream = root.spawn(_SUB_ENVELOPE)
    env = _envelope(env_stream, t)

    harm = root.spawn(_SUB_HARMONICS)
    f0 = harm.uniform(1, 120.0, 220.0)[0]
    phases = harm.uniform(3, 0.0, 2.0 * np.pi)
    amps = (1.0, 0.6, 0.35)
    carrier = np.zeros(n)
    for h, (a, ph) in enumerate(zip(amps, phases), start=1):
        carrier += a * np.sin(2 * np.pi * f0 * h * t + ph)
    target = env * carrier
    target *= 0.5 / np.abs(target).max()

    # Imported here, not at module level: scipy.signal takes most of a
    # second to import, and enhance and train never synthesize a scene.
    from scipy.signal import lfilter

    noise_stream = root.spawn(_SUB_NOISE)
    rho = noise_stream.uniform(1, 0.5, 0.95)[0]
    white = noise_stream.normal(n)
    interferer = lfilter([1.0], [1.0, -rho], white)
    interferer *= 0.5 / np.abs(interferer).max()

    h, w = config.frame_hw
    f_count = int(np.floor(FPS * duration_s))
    frame_times = np.arange(f_count) / FPS
    env_frames = _envelope(Stream(seed).spawn(_SUB_ENVELOPE), frame_times)
    # fixed spatial pattern normalized to mean exactly 1, scaled per frame
    window = np.hanning(h + 2)[1:-1]
    pattern = np.outer(window, np.hanning(w + 2)[1:-1]) + 0.2
    pattern /= pattern.mean()
    tex_stream = root.spawn(_SUB_TEXTURE)
    frames = np.empty((f_count, 1, h, w))
    for fi in range(f_count):
        tex = tex_stream.normal(h * w).reshape(h, w) * 0.02
        tex -= tex.mean()  # zero-mean texture keeps the frame mean on the envelope
        frames[fi, 0] = pattern * env_frames[fi] + tex

    snr_db = float(root.spawn(_SUB_SNR).uniform(1, *SNR_RANGE_DB)[0])
    return Scene(
        id=f"S{seed:05d}",
        target=target,
        interferer=interferer,
        frames=frames,
        snr_db=snr_db,
        sample_rate_hz=rate,
    )
