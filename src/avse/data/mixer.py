"""Mixing a target and an interferer at a prescribed SNR.

The interferer is first fitted to the target's length: a shorter one is
looped with a 10 ms linear crossfade at each seam, a longer one is
trimmed starting at a seeded random offset.  The gain then follows from
the mean-square powers over the full overlapped region, so the achieved
SNR matches the request to float precision (a PCM16 file clamps samples
beyond full scale, and ``avse mix`` warns when that changes it).
"""

from __future__ import annotations

import math

import numpy as np

from avse.errors import ConfigError, DataError, DegenerateSignalError, ShapeError
from avse.prng import Stream

CROSSFADE_S = 0.010


def _loop_with_crossfade(x: np.ndarray, length: int, xfade: int) -> np.ndarray:
    """Repeat ``x`` (shorter than ``length``) to ``length`` samples, blending
    ``xfade`` samples at each seam, in time linear in ``length`` however
    short ``x`` is.

    Each pass fades the last ``xf`` samples into the head of ``x`` and
    appends the ``period = n - xf`` samples after that head.  A sample
    past the first copy is then the same function of ``x`` as every
    sample ``period`` later, once every pass that fades it has run.  So
    the passes run on a short output, as long as ``length`` modulo the
    period: ``head`` samples that reach past the first copy by two seams
    and periods, and a tail long enough that the last passes blend it as
    they blend the end of the full output.  The rest repeats the period
    just before ``head``, bit for bit as if every pass had run."""
    n = x.shape[0]
    # cap the fade so every pass appends at least one sample
    xf = min(xfade, n - 1)
    period = n - xf
    head = n + 2 * (xf + period)
    tail = xf + period + (length - head - xf - period) % period
    if head + tail >= length:
        return _crossfade_passes(x, length, xf)
    short = _crossfade_passes(x, head + tail, xf)
    out = np.empty(length, dtype=short.dtype)
    out[:head] = short[:head]
    out[head : length - tail].reshape(-1, period)[...] = short[head - period : head]
    out[length - tail :] = short[head:]
    return out


def _crossfade_passes(x: np.ndarray, length: int, xf: int) -> np.ndarray:
    """The looping rule one pass per seam, every pass writing into one
    array."""
    n = x.shape[0]
    ramp = (np.arange(xf) + 1.0) / (xf + 1.0)
    fade_out, faded_in = 1.0 - ramp, x[:xf] * ramp
    out = np.empty(length + n, dtype=np.result_type(x, ramp) if xf > 0 else x.dtype)
    out[:n] = x
    end = n
    while end < length:
        tail = out[end - xf : end]
        tail *= fade_out
        tail += faded_in
        out[end : end + n - xf] = x[xf:]
        end += n - xf
    return out[:length]


def fit_interferer(
    interferer: np.ndarray, length: int, seed: int = 0, *, sample_rate_hz: int
) -> np.ndarray:
    """Loop or trim the interferer to exactly ``length`` samples."""
    t_i = interferer.shape[0]
    if t_i == length:
        return interferer.copy()
    if t_i < length:
        return _loop_with_crossfade(interferer, length, int(CROSSFADE_S * sample_rate_hz))
    offset = int(Stream(seed).integers(1, t_i - length + 1)[0])
    return interferer[offset : offset + length].copy()


def mix_scene(
    target: np.ndarray,
    interferer: np.ndarray,
    snr_db: float,
    seed: int = 0,
    *,
    sample_rate_hz: int,
) -> np.ndarray:
    """Returns target + g * fitted interferer with the requested SNR in dB.

    The seed picks the trim offset when the interferer is longer than
    the target; it has no effect otherwise.
    """
    if target.ndim != 1 or interferer.ndim != 1:
        raise ShapeError(
            f"signals must be 1-D, got shapes {target.shape} and {interferer.shape}"
        )
    if target.shape[0] < 1:
        raise ShapeError("target is empty")
    for name, signal in (("target", target), ("interferer", interferer)):
        if not np.isfinite(signal).all():
            raise DataError(f"{name} contains non-finite samples")
    p_t = float((target * target).mean())
    if p_t <= 0.0:
        raise DegenerateSignalError("target has zero energy")
    if interferer.shape[0] < 1 or not np.any(interferer):
        raise DegenerateSignalError("interferer has zero energy")
    fitted = fit_interferer(interferer, target.shape[0], seed, sample_rate_hz=sample_rate_hz)
    p_i = float((fitted * fitted).mean())
    if p_i <= 0.0:
        raise DegenerateSignalError("interferer has zero energy over the mixed region")
    if not math.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite, got {snr_db}")
    try:
        gain = np.sqrt(p_t / (p_i * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10 ** (snr_db / 10) out of range
        gain = math.inf
    if not math.isfinite(gain):
        raise ConfigError(f"snr_db = {snr_db} dB puts the interferer gain out of float64 range")
    return target + gain * fitted

