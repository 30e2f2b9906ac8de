"""Short-time objective intelligibility.

Standard pipeline with all constants pinned: resample both signals to
10 kHz; drop frames whose reference energy sits more than 40 dB below
the loudest reference frame; take Hann-windowed 256-sample frames at
hop 128 with 512-point spectra; collapse to 15 one-third-octave band
envelopes starting at 150 Hz; slide a 30-frame segment window; per
segment and band, scale the degraded envelope to the clean energy, clip
it at (1 + 10^(15/20)) times the clean envelope (the -15 dB
signal-to-distortion floor), and correlate; the score is the mean
correlation over all segments and bands.

The two signals travel stacked as one [2, ...] array, frames are
strided views, and all segments are scored at once over a
[bands, segments, 30] window view, whose size is 30 times that of the
envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from avse.errors import ConfigError, InsufficientSignalError, ShapeError
from avse.ops.dense import fold_halves

FS = 10000  # analysis rate, Hz
FRAME_LEN = 256
HOP = 128  # FRAME_LEN / 2: the overlap-add is the half-overlap fold
NFFT = 512
NUM_BANDS = 15
FIRST_CENTER_HZ = 150.0
SEGMENT_FRAMES = 30
DYN_RANGE_DB = 40.0
BETA_DB = -15.0  # clip threshold: 1 + 10^(-BETA/20)
# Rates whose reduced ratio to FS needs more phases than this are outside
# the intended use (16 kHz, 48 kHz and similar audio rates).
_MAX_FACTOR = 1000

_EPS = np.finfo(np.float64).eps
_CLIP = 1.0 + 10.0 ** (-BETA_DB / 20.0)
# Periodic-style Hann without zero endpoints; pairs at half-overlap sum to 1.
_WINDOW = np.hanning(FRAME_LEN + 2)[1:-1]


@dataclass(frozen=True)
class BandDefinition:
    """One analysis band: center frequency and half-open FFT bin range."""

    center_hz: float
    lo_bin: int
    hi_bin: int


def third_octave_bands() -> list[BandDefinition]:
    """Band edges snapped to the nearest FFT bin; contiguous and disjoint."""
    f = np.linspace(0, FS, NFFT + 1)[: NFFT // 2 + 1]
    bands = []
    for k in range(NUM_BANDS):
        center = FIRST_CENTER_HZ * 2.0 ** (k / 3.0)
        lo = int(np.argmin(np.square(f - center * 2.0 ** (-1.0 / 6.0))))
        hi = int(np.argmin(np.square(f - center * 2.0 ** (1.0 / 6.0))))
        bands.append(BandDefinition(center, lo, hi))
    return bands


_BANDS = third_octave_bands()


def _resample(x: np.ndarray, fs_hz: int) -> np.ndarray:
    """Polyphase-resample float64 ``x`` from ``fs_hz`` to FS.

    The rational factors are reduced from the integer rates; the output
    has ceil(T * up / down) samples.
    """
    if fs_hz <= 0:
        raise ConfigError(f"sample rates must be positive, got {fs_hz} -> {FS}")
    if int(fs_hz) != fs_hz:
        raise ConfigError(
            f"sample rates must be integers for a rational ratio, got {fs_hz} -> {FS}"
        )
    fs_hz = int(fs_hz)
    g = gcd(fs_hz, FS)
    up, down = FS // g, fs_hz // g
    if max(up, down) > _MAX_FACTOR:
        raise ConfigError(
            f"ratio {FS}/{fs_hz} reduces to {up}/{down}; factors above "
            f"{_MAX_FACTOR} are unsupported"
        )
    # Imported on first use: scipy.signal takes most of a second to import,
    # and a pair already at FS never needs it.
    from scipy.signal import resample_poly

    return resample_poly(x, up, down)


def _frames(x: np.ndarray) -> np.ndarray:
    """Windowed frames [2, M, FRAME_LEN] of [2, T]; a tail short of a frame is dropped."""
    return _WINDOW * sliding_window_view(x, FRAME_LEN, axis=1)[:, ::HOP]


def _remove_silent_frames(x: np.ndarray) -> np.ndarray:
    """Drop frames where the reference x[0] is quiet; overlap-add the rest.

    Selection depends only on the reference, so both signals lose the
    same frames and stay aligned.
    """
    if x.shape[1] < FRAME_LEN:
        raise InsufficientSignalError(
            f"signal of {x.shape[1]} samples is shorter than one {FRAME_LEN}-sample frame"
        )
    frames = _frames(x)
    energies_db = 20.0 * np.log10(np.linalg.norm(frames[0], axis=1) + _EPS)
    kept = energies_db > energies_db.max() - DYN_RANGE_DB
    return fold_halves(frames[:, kept].transpose(1, 2, 0))  # as chunks [M, FRAME_LEN, 2]


def _band_envelopes(x: np.ndarray) -> np.ndarray:
    """Third-octave envelopes [2, NUM_BANDS, M] of [2, T] waveforms."""
    power = np.square(np.abs(np.fft.rfft(_frames(x), n=NFFT, axis=2)))
    return np.sqrt(np.stack([power[..., b.lo_bin : b.hi_bin].sum(axis=2) for b in _BANDS], axis=1))


def stoi(ref: np.ndarray, est: np.ndarray, fs_hz: int) -> float:
    """Intelligibility score of ``est`` against clean ``ref``; near 1 is best."""
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape or ref.ndim != 1:
        raise ShapeError(f"signals must be equal-length 1-D, got {ref.shape} and {est.shape}")
    if fs_hz != FS:
        ref, est = _resample(ref, fs_hz), _resample(est, fs_hz)
    x, y = _band_envelopes(_remove_silent_frames(np.stack([ref, est])))  # clean, degraded
    m = x.shape[1]
    if m < SEGMENT_FRAMES:
        raise InsufficientSignalError(
            f"only {m} analysis frames after silence removal; need {SEGMENT_FRAMES}"
        )
    xs = sliding_window_view(x, SEGMENT_FRAMES, axis=1)  # [bands, segments, frames]
    ys = sliding_window_view(y, SEGMENT_FRAMES, axis=1)
    alpha = np.sqrt((xs * xs).sum(axis=2) / ((ys * ys).sum(axis=2) + _EPS))
    ys = np.minimum(ys * alpha[..., None], _CLIP * xs)
    xn = xs - xs.mean(axis=2, keepdims=True)
    yn = ys - ys.mean(axis=2, keepdims=True)
    xn /= np.linalg.norm(xn, axis=2, keepdims=True) + _EPS
    yn /= np.linalg.norm(yn, axis=2, keepdims=True) + _EPS
    return float((xn * yn).sum(axis=2).mean())
