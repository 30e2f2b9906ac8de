"""Scale-invariant signal-to-distortion ratio."""

from __future__ import annotations

import math

import numpy as np

from avse.errors import DegenerateSignalError, ShapeError

# Reported values are clamped to [-60, +60] dB: -60 when the projected
# target is empty (a silent or constant estimate, or one orthogonal to the
# reference), +60 when the residual is negligible.  The empty target is
# tested first: an all-zero estimate also has a zero residual.
SI_SDR_CAP_DB = 60.0
_RESIDUAL_CAP_RATIO = 1e-12


def project(ref: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the mean-removed ``est`` into (target, residual), in float64.

    The target is the projection onto the mean-removed reference,
    alpha * ref with alpha = <est,ref>/<ref,ref>; the residual is the
    rest, orthogonal to the reference.  Shared by the metric and the
    training loss.
    """
    if ref.shape != est.shape or ref.ndim != 1:
        raise ShapeError(f"signals must be equal-length 1-D, got {ref.shape} and {est.shape}")
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    ref = ref - ref.mean()
    est = est - est.mean()
    ref_energy = float(ref @ ref)
    if ref_energy <= 0.0:
        raise DegenerateSignalError("reference has zero energy after mean removal")
    target = float(est @ ref) / ref_energy * ref
    return target, est - target


def si_sdr(ref: np.ndarray, est: np.ndarray) -> float:
    """SI-SDR of ``est`` against ``ref`` in dB.

    The ratio of projected energy to residual energy (see ``project``),
    in dB.  The result is invariant under nonzero scaling of the
    estimate; a silent or constant estimate scores -60.
    """
    target, residual = project(ref, est)
    target_energy = float(target @ target)
    residual_energy = float(residual @ residual)
    if target_energy <= 0.0:
        return -SI_SDR_CAP_DB
    if residual_energy <= _RESIDUAL_CAP_RATIO * target_energy:
        return SI_SDR_CAP_DB
    return min(
        SI_SDR_CAP_DB,
        max(-SI_SDR_CAP_DB, 10.0 * math.log10(target_energy / residual_energy)),
    )
