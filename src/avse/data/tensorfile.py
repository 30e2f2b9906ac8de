"""AVST tensor files: a minimal raw-array container.

Layout, all little-endian:

    bytes 0..3   magic "AVST"
    byte  4      version, currently 1
    byte  5      dtype code, 0 = 32-bit float
    byte  6      ndim
    byte  7      reserved, written 0
    next ndim*4  uint32 extents
    rest         row-major float32 payload, 4 * product(extents) bytes

Round trips are bit-identical.
"""

from __future__ import annotations

import struct

import numpy as np

from avse.errors import CorruptFileError

MAGIC = b"AVST"
VERSION = 1
DTYPE_F32 = 0


def write_tensor(path, tensor: np.ndarray) -> None:
    """Write ``tensor`` as float32; shape must have at least one axis."""
    with open(path, "wb") as fh:
        fh.write(tensor_block(tensor))


def read_tensor(path) -> np.ndarray:
    """Read a float32 tensor; validates magic, version, dtype, and length."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptFileError(f"cannot read {path}: {exc}") from exc
    arr, used = parse_tensor(blob, str(path))
    if used != len(blob):
        raise CorruptFileError(f"{path}: {len(blob) - used} trailing bytes after payload")
    return arr


def parse_tensor(blob: bytes, label: str, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one tensor block at ``offset``; returns (array, end offset)."""
    if len(blob) - offset < 8:
        raise CorruptFileError(f"{label}: truncated header")
    magic = blob[offset : offset + 4]
    if magic != MAGIC:
        raise CorruptFileError(f"{label}: magic {magic!r} is not {MAGIC!r}")
    version, dtype, ndim, _ = struct.unpack_from("<BBBB", blob, offset + 4)
    if version != VERSION:
        raise CorruptFileError(f"{label}: unsupported version {version}")
    if dtype != DTYPE_F32:
        raise CorruptFileError(f"{label}: unsupported dtype code {dtype}")
    if ndim < 1:
        raise CorruptFileError(f"{label}: ndim must be at least 1")
    pos = offset + 8
    if len(blob) - pos < 4 * ndim:
        raise CorruptFileError(f"{label}: truncated extent list")
    shape = struct.unpack_from(f"<{ndim}I", blob, pos)
    pos += 4 * ndim
    count = 1
    for d in shape:
        if d < 1:
            raise CorruptFileError(f"{label}: zero extent in shape {shape}")
        count *= d
    nbytes = 4 * count
    if len(blob) - pos < nbytes:
        raise CorruptFileError(
            f"{label}: payload holds {len(blob) - pos} bytes, shape {shape} needs {nbytes}"
        )
    # A view of blob itself, so the payload is copied once, into the array.
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(shape).copy()
    return arr, pos + nbytes


def tensor_block(tensor: np.ndarray) -> bytes:
    """The exact bytes ``write_tensor`` would put in a file."""
    tensor = np.ascontiguousarray(tensor, dtype="<f4")
    if tensor.ndim < 1 or tensor.ndim > 255:
        raise CorruptFileError(f"cannot store a tensor of {tensor.ndim} dimensions")
    if any(d > 0xFFFFFFFF for d in tensor.shape):
        raise CorruptFileError(f"extent too large for uint32: {tensor.shape}")
    header = MAGIC + struct.pack("<BBBB", VERSION, DTYPE_F32, tensor.ndim, 0)
    header += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
    return header + tensor.tobytes()
