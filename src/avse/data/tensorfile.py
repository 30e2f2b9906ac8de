"""AVST tensor files: a minimal raw-array container.

Layout, all little-endian:

    bytes 0..3   magic "AVST"
    byte  4      version, currently 1
    byte  5      dtype code, 0 = 32-bit float
    byte  6      ndim
    byte  7      reserved, written 0
    next ndim*4  uint32 extents
    rest         row-major float32 payload, 4 * product(extents) bytes

Round trips are bit-identical.  Readers work on the open file, field by
field from its current position: every length is checked against the
bytes left before anything is read or allocated, so a corrupt extent
never sizes a buffer, and the payload is read straight into the array.
The same readers read checkpoints (``training.checkpoint``) and WAV files.
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager

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
    with open_source(path) as fh:
        return read_block(fh, str(path))


@contextmanager
def open_source(path, error=CorruptFileError):
    """Open ``path`` as a seekable binary file that the body must read to
    its end.  A source that cannot seek, such as a pipe, is read whole
    into memory first.  Bytes the body leaves unread, and an ``OSError``,
    raise ``error`` naming the path."""
    try:
        with open(path, "rb") as fh:
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            yield source
            if left := bytes_left(source):
                raise error(f"{path}: {left} trailing bytes")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def bytes_left(fh) -> int:
    """Bytes from the position of ``fh`` to the end of its source (< 0 past it)."""
    size = len(fh.getvalue()) if isinstance(fh, io.BytesIO) else os.fstat(fh.fileno()).st_size
    return size - fh.tell()


def read_array(fh, dtype, shape, label: str, what: str, error=CorruptFileError) -> np.ndarray:
    """The next ``shape`` array of ``dtype``, read straight into a new one.
    The bytes left are checked first, so a corrupt length never sizes a
    buffer; ``error`` names ``label`` and ``what``."""
    dtype = np.dtype(dtype)
    n = dtype.itemsize * math.prod(shape)
    if n > (left := bytes_left(fh)):
        raise error(f"{label}: truncated {what}: needs {n} bytes, {left} left")
    arr = np.empty(shape, dtype)
    fh.readinto(arr)
    return arr


def read_fields(fh, fmt: str, label: str, what: str, error=CorruptFileError) -> tuple:
    """The next struct ``fmt`` of ``fh`` (``f"{n}s"``: n raw bytes), by ``read_array``."""
    n = struct.calcsize(fmt)
    return struct.unpack(fmt, read_array(fh, np.uint8, (n,), label, what, error))


def read_block(fh, label: str, error=CorruptFileError) -> np.ndarray:
    """Read one tensor block from the position of ``fh``."""
    magic, version, dtype, ndim, _ = read_fields(fh, "<4sBBBB", label, "header", error)
    if magic != MAGIC:
        raise error(f"{label}: magic {magic!r} is not {MAGIC!r}")
    if version != VERSION:
        raise error(f"{label}: unsupported version {version}")
    if dtype != DTYPE_F32:
        raise error(f"{label}: unsupported dtype code {dtype}")
    if ndim < 1:
        raise error(f"{label}: ndim must be at least 1")
    shape = read_fields(fh, f"<{ndim}I", label, "extent list", error)
    if 0 in shape:
        raise error(f"{label}: zero extent in shape {shape}")
    return read_array(fh, "<f4", shape, label, f"payload of shape {shape}", error)


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
