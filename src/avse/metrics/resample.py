"""Rational-rate polyphase resampling.

Thin wrapper over scipy's polyphase resampler with the rational factors
reduced from the integer rates.  Output length is ceil(T * up / down).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from avse.errors import ConfigError

# Rates whose reduced ratio needs more phases than this are outside the
# intended use (16 kHz <-> 10 kHz and similar audio rates).
_MAX_FACTOR = 1000


def resample(x: np.ndarray, from_hz: int, to_hz: int) -> np.ndarray:
    """Resample 1-D ``x`` from ``from_hz`` to ``to_hz``."""
    if from_hz <= 0 or to_hz <= 0:
        raise ConfigError(f"sample rates must be positive, got {from_hz} -> {to_hz}")
    if int(from_hz) != from_hz or int(to_hz) != to_hz:
        raise ConfigError(
            f"sample rates must be integers for a rational ratio, got {from_hz} -> {to_hz}"
        )
    from_hz, to_hz = int(from_hz), int(to_hz)
    g = gcd(from_hz, to_hz)
    up, down = to_hz // g, from_hz // g
    if max(up, down) > _MAX_FACTOR:
        raise ConfigError(
            f"ratio {to_hz}/{from_hz} reduces to {up}/{down}; factors above "
            f"{_MAX_FACTOR} are unsupported"
        )
    if up == down:
        return np.asarray(x, dtype=np.float64).copy()
    # Imported on first use: scipy.signal takes most of a second to import,
    # and only STOI resamples.
    from scipy.signal import resample_poly

    return resample_poly(np.asarray(x, dtype=np.float64), up, down)
