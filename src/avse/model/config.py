"""Architecture hyperparameters and their serialization.

A ModelConfig pins every extent in the network, so parameter shapes and
the total parameter count are pure functions of it.  Configs round-trip
through JSON for the training CLI and for embedding in checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from avse.errors import ConfigError, DataError


def _is_int(value) -> bool:
    """True for Python and NumPy integers; bools are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(name: str, values) -> None:
    if not isinstance(values, tuple) or not all(_is_int(v) for v in values):
        raise ConfigError(f"{name} must be a tuple of integers (a JSON list), got {values!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural hyperparameter of the enhancement network.

    The fusion bottleneck is as wide as the encoder and chunks overlap by
    half, so ``fusion_channels`` and ``chunk_hop`` are derived, not set.
    The visual frontend is set by its kernel alone: it outputs the first
    trunk stage's channels, and its stride and padding live in
    ``model.network``.
    """

    sample_rate_hz: int = 16000
    enc_channels: int = 256
    enc_kernel: int = 16
    enc_stride: int = 8
    visual_embed: int = 256
    vfn_front_kernel: tuple[int, int, int] = (5, 7, 7)
    vfn_trunk_channels: tuple[int, ...] = (16, 32, 64, 128)
    vfn_blocks_per_stage: int = 2
    vfn_norm_groups: int = 8
    sep_units: int = 4
    sep_hidden: int = 128
    chunk_len: int = 100
    frame_hw: tuple[int, int] = (32, 32)

    def __post_init__(self) -> None:
        self.check()

    @property
    def fusion_channels(self) -> int:
        return self.enc_channels

    @property
    def chunk_hop(self) -> int:
        return self.chunk_len // 2

    def check(self) -> None:
        positive = {
            "sample_rate_hz": self.sample_rate_hz,
            "enc_channels": self.enc_channels,
            "enc_kernel": self.enc_kernel,
            "enc_stride": self.enc_stride,
            "visual_embed": self.visual_embed,
            "vfn_blocks_per_stage": self.vfn_blocks_per_stage,
            "vfn_norm_groups": self.vfn_norm_groups,
            "sep_units": self.sep_units,
            "sep_hidden": self.sep_hidden,
            "chunk_len": self.chunk_len,
        }
        for name, value in positive.items():
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        _check_ints("vfn_trunk_channels", self.vfn_trunk_channels)
        _check_ints("frame_hw", self.frame_hw)
        _check_ints("vfn_front_kernel", self.vfn_front_kernel)
        if self.enc_stride > self.enc_kernel:
            raise ConfigError(
                f"enc_stride {self.enc_stride} exceeds enc_kernel {self.enc_kernel}"
            )
        if self.chunk_len % 2 != 0:
            raise ConfigError(f"chunk_len must be even, got {self.chunk_len}")
        # Odd extents, so the frontend's k // 2 padding keeps the frame count.
        kernel = self.vfn_front_kernel
        if len(kernel) != 3 or any(k < 1 or k % 2 == 0 for k in kernel):
            raise ConfigError(f"vfn_front_kernel must be three positive odd extents, got {kernel}")
        if not self.vfn_trunk_channels:
            raise ConfigError("vfn_trunk_channels must be non-empty")
        for c in self.vfn_trunk_channels:
            if c < 1:
                raise ConfigError("trunk channel counts must be positive")
            if c % self.vfn_norm_groups != 0:
                raise ConfigError(
                    f"vfn_norm_groups {self.vfn_norm_groups} does not divide "
                    f"trunk channels {c}"
                )
        if len(self.frame_hw) != 2 or any(v < 1 for v in self.frame_hw):
            raise ConfigError(f"frame_hw must be two positive extents, got {self.frame_hw}")

    def check_frames(self, frames: np.ndarray, label: str) -> None:
        """Reject a frame stack the network cannot mean anything on: not
        [F, 1, H, W], H x W other than ``frame_hw``, or non-finite pixels."""
        if frames.ndim != 4 or frames.shape[1] != 1:
            raise DataError(f"{label}: frames must be [F, 1, H, W], got {frames.shape}")
        if tuple(frames.shape[2:]) != tuple(self.frame_hw):
            raise DataError(
                f"{label}: frames are {frames.shape[2]}x{frames.shape[3]}, the model "
                f"expects {self.frame_hw[0]}x{self.frame_hw[1]}"
            )
        if not np.isfinite(frames).all():
            raise DataError(f"{label}: frames contain non-finite pixels")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc


def default_config() -> ModelConfig:
    """The full desk-scale network, about 4.6M parameters."""
    return ModelConfig()


def tiny_config() -> ModelConfig:
    """A miniature network small enough for finite-difference checks.

    About two thousand parameters; used by gradient checking and the
    overfit experiment.
    """
    return ModelConfig(
        enc_channels=8,
        visual_embed=8,
        vfn_front_kernel=(3, 5, 5),
        vfn_trunk_channels=(2, 4),
        vfn_blocks_per_stage=1,
        vfn_norm_groups=2,
        sep_units=1,
        sep_hidden=4,
        chunk_len=4,
        frame_hw=(16, 16),
    )
