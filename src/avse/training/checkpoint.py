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

Tensor records are written in sorted-name order, so load followed by
save reproduces the file byte for byte.  Loading validates every tensor
shape against the shape table derived from the embedded config.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from avse.errors import ConfigError, CorruptCheckpointError, CorruptFileError, ShapeError
from avse.data.tensorfile import parse_tensor, tensor_block
from avse.model.config import ModelConfig
from avse.model.params import ModelParams, check_tensors, parameter_shapes
from avse.training.optimizer import OptimizerState

MAGIC = b"AVCK"
VERSION = 1
_FLAG_OPTIMIZER = 1


@dataclass
class Checkpoint:
    """Config, parameters, and optionally the optimizer state."""

    config: ModelConfig
    params: ModelParams
    optimizer: OptimizerState | None = None


def _named_blocks(tensors: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    for name in sorted(tensors):
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += tensor_block(tensors[name])
    return bytes(out)


def _read_named_blocks(blob: bytes, pos: int, count: int, label: str):
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(blob) - pos < 2:
            raise CorruptCheckpointError(f"{label}: truncated tensor name length")
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if len(blob) - pos < name_len:
            raise CorruptCheckpointError(f"{label}: truncated tensor name")
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"{label}: tensor name is not UTF-8: {exc}") from exc
        pos += name_len
        try:
            arr, pos = parse_tensor(blob, f"{label}: tensor {name!r}", pos)
        except CorruptCheckpointError:
            raise
        except CorruptFileError as exc:
            # tensor-block problems inside a checkpoint are checkpoint corruption
            raise CorruptCheckpointError(str(exc)) from exc
        tensors[name] = arr
    return tensors, pos


def _check(tensors, shapes, what: str) -> None:
    """check_tensors, with a mismatch reported as checkpoint corruption."""
    try:
        check_tensors(tensors, shapes, what)
    except ShapeError as exc:
        raise CorruptCheckpointError(str(exc)) from exc


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
        blob += struct.pack("<Qdddd", opt.t, opt.lr, opt.beta1, opt.beta2, opt.eps)
        moments = {f"m.{k}": v for k, v in opt.m.items()}
        moments.update({f"v.{k}": v for k, v in opt.v.items()})
        blob += _named_blocks(moments)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptCheckpointError(f"cannot read {path}: {exc}") from exc
    label = str(path)
    if len(blob) < 8:
        raise CorruptCheckpointError(f"{label}: too short for a header")
    if blob[:4] != MAGIC:
        raise CorruptCheckpointError(f"{label}: magic {blob[:4]!r} is not {MAGIC!r}")
    version, flags, _ = struct.unpack_from("<BBH", blob, 4)
    if version != VERSION:
        raise CorruptCheckpointError(f"{label}: unsupported version {version}")
    pos = 8
    if len(blob) - pos < 4:
        raise CorruptCheckpointError(f"{label}: truncated config length")
    (config_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if len(blob) - pos < config_len:
        raise CorruptCheckpointError(f"{label}: truncated config record")
    try:
        config = ModelConfig.from_json(blob[pos : pos + config_len].decode("utf-8"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CorruptCheckpointError(f"{label}: bad embedded config: {exc}") from exc
    pos += config_len
    if len(blob) - pos < 4:
        raise CorruptCheckpointError(f"{label}: truncated tensor count")
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    tensors, pos = _read_named_blocks(blob, pos, count, label)
    expected = parameter_shapes(config)
    _check(tensors, expected, f"{label}: parameters")
    params = {name: tensors[name] for name in expected}
    optimizer = None
    if flags & _FLAG_OPTIMIZER:
        if len(blob) - pos < 8 + 4 * 8:
            raise CorruptCheckpointError(f"{label}: truncated optimizer header")
        t, lr, beta1, beta2, eps = struct.unpack_from("<Qdddd", blob, pos)
        pos += 8 + 4 * 8
        moments, pos = _read_named_blocks(blob, pos, 2 * count, label)
        moment_shapes = {f"{k}.{name}": s for k in "mv" for name, s in expected.items()}
        _check(moments, moment_shapes, f"{label}: optimizer moments")
        m = {name: moments[f"m.{name}"] for name in expected}
        v = {name: moments[f"v.{name}"] for name in expected}
        optimizer = OptimizerState(m=m, v=v, t=t, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    if pos != len(blob):
        raise CorruptCheckpointError(f"{label}: {len(blob) - pos} trailing bytes")
    return Checkpoint(config=config, params=params, optimizer=optimizer)
