"""Checkpoint persistence.

Binary layout, little-endian throughout:

    bytes 0..3   magic "AVCK"
    byte  4      version, currently 1
    byte  5      flags; bit 0 set when optimizer state follows
    bytes 6..7   reserved, written 0
    uint32       config record length, then that many UTF-8 JSON bytes
    uint32       parameter tensor count
    per tensor   uint16 name length, name bytes, then an AVST tensor block
    [optimizer]  uint64 step t; float64 lr, beta1, beta2, eps;
                 then 2 * count tensor records named "m.<name>" / "v.<name>"

beta1, beta2 and eps are always written as the optimizer's constants
``BETA1``, ``BETA2`` and ``EPS``; the full load refuses a file holding
other values, which it could not save again byte for byte.

Tensor records are written in sorted-name order, so load followed by
save reproduces the file byte for byte.  Loading reads the open file
field by field with the field and array readers of ``data.tensorfile``,
so a length that claims more than the file holds is refused before it
sizes a buffer.  It refuses a tensor name that appears twice in a
section (the later copy would otherwise replace the earlier, and a
re-save would not reproduce the file), and validates every tensor shape
against the shape table derived from the embedded config.  A parameters-only load
(``moments=False``, as ``avse enhance`` asks) stops before the optimizer
section: it neither reads nor validates the moments, two thirds of a
trained checkpoint's bytes.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from avse.errors import ConfigError, CorruptCheckpointError
from avse.data.tensorfile import open_source, read_block, read_fields, tensor_block
from avse.model.config import ModelConfig
from avse.model.params import ModelParams, check_tensors, parameter_shapes
from avse.training.optimizer import BETA1, BETA2, EPS, OptimizerState

MAGIC = b"AVCK"
VERSION = 1
_FLAG_OPTIMIZER = 1


@dataclass
class Checkpoint:
    """Config, parameters, and optionally the optimizer state."""

    config: ModelConfig
    params: ModelParams
    optimizer: OptimizerState | None = None


def _named_blocks(tensors: dict[str, np.ndarray]) -> bytearray:
    out = bytearray()
    for name in sorted(tensors):
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += tensor_block(tensors[name])
    return out


def _read_named_blocks(fh, count: int, label: str) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = read_fields(fh, "<H", label, "tensor name length", CorruptCheckpointError)
        (raw,) = read_fields(fh, f"{name_len}s", label, "tensor name", CorruptCheckpointError)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"{label}: tensor name is not UTF-8: {exc}") from exc
        if name in tensors:
            raise CorruptCheckpointError(f"{label}: tensor {name!r} appears twice")
        tensors[name] = read_block(fh, f"{label}: tensor {name!r}", CorruptCheckpointError)
    return tensors


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    flags = _FLAG_OPTIMIZER if ckpt.optimizer is not None else 0
    config_bytes = ckpt.config.to_json().encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<BBH", VERSION, flags, 0)
    blob += struct.pack("<I", len(config_bytes))
    blob += config_bytes
    blob += struct.pack("<I", len(ckpt.params))
    blob += _named_blocks(ckpt.params)
    if ckpt.optimizer is not None:
        opt = ckpt.optimizer
        blob += struct.pack("<Qdddd", opt.t, opt.lr, BETA1, BETA2, EPS)
        moments = {f"m.{k}": v for k, v in opt.m.items()}
        moments.update({f"v.{k}": v for k, v in opt.v.items()})
        blob += _named_blocks(moments)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path, *, moments: bool = True) -> Checkpoint:
    """Config, parameters and, if the file has them and ``moments``, the
    optimizer state; with ``moments=False`` the optimizer section is left
    unread and the result has none."""
    label = str(path)
    with open_source(path, CorruptCheckpointError) as fh:
        header = read_fields(fh, "<4sBBH", label, "header", CorruptCheckpointError)
        magic, version, flags, _ = header
        if magic != MAGIC:
            raise CorruptCheckpointError(f"{label}: magic {magic!r} is not {MAGIC!r}")
        if version != VERSION:
            raise CorruptCheckpointError(f"{label}: unsupported version {version}")
        (config_len,) = read_fields(fh, "<I", label, "config length", CorruptCheckpointError)
        (raw,) = read_fields(fh, f"{config_len}s", label, "config record", CorruptCheckpointError)
        try:
            config = ModelConfig.from_json(raw.decode("utf-8"))
        except (UnicodeDecodeError, ConfigError) as exc:
            raise CorruptCheckpointError(f"{label}: bad embedded config: {exc}") from exc
        (count,) = read_fields(fh, "<I", label, "tensor count", CorruptCheckpointError)
        tensors = _read_named_blocks(fh, count, label)
        expected = parameter_shapes(config)
        check_tensors(tensors, expected, f"{label}: parameters", CorruptCheckpointError)
        params = {name: tensors[name] for name in expected}
        optimizer = None
        if flags & _FLAG_OPTIMIZER and not moments:
            fh.seek(0, io.SEEK_END)  # open_source refuses bytes left unread
        elif flags & _FLAG_OPTIMIZER:
            header = read_fields(fh, "<Qdddd", label, "optimizer header", CorruptCheckpointError)
            t, lr, *adam = header
            for field, value, fixed in zip(("beta1", "beta2", "eps"), adam, (BETA1, BETA2, EPS)):
                if value != fixed:
                    raise CorruptCheckpointError(f"{label}: {field} {value!r} is not {fixed!r}")
            stored = _read_named_blocks(fh, 2 * count, label)
            shapes = {f"{k}.{name}": s for k in "mv" for name, s in expected.items()}
            check_tensors(stored, shapes, f"{label}: optimizer moments", CorruptCheckpointError)
            m = {name: stored[f"m.{name}"] for name in expected}
            v = {name: stored[f"v.{name}"] for name in expected}
            optimizer = OptimizerState(m=m, v=v, t=t, lr=lr)
    return Checkpoint(config=config, params=params, optimizer=optimizer)
