"""16-bit mono PCM WAV reading and writing.

Reading accepts any RIFF/WAVE file holding PCM, 16-bit, single-channel
audio at 1 to ``MAX_RATE_HZ`` Hz.  It walks the chunks of the open file
with the bounded readers of ``data.tensorfile``, seeking past the ones
it does not read; the last ``fmt `` and ``data`` chunks count.  The
walk stops at the RIFF body's end, as its size field gives it, or at
the file's if that comes first, and ignores what follows it.  A data
chunk longer than the rest of the file is refused before it sizes a
buffer; another chunk may run past the end, which ends the walk, and
fewer than 8 bytes after the last chunk are ignored.  Writing always
produces the canonical 44-byte-header layout.
Samples map to floats by 1/32768 on load; saving clamps to [-1, 1],
scales by 32767, and rounds half away from zero, so a round trip moves
each sample by less than (0.5 + |x|)/32768.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from avse.data.tensorfile import bytes_left, open_source, read_array, read_fields
from avse.errors import CorruptFileError, DataError, UnsupportedFormatError

_PCM = 1
# The RIFF size field (36 header bytes + 2 per sample) is a uint32.
MAX_SAMPLES = (2**32 - 37) // 2
# So is the byte-rate field, 2 bytes per sample.
MAX_RATE_HZ = (2**32 - 1) // 2


def _check_rate(rate: int, where) -> None:
    if not 0 < rate <= MAX_RATE_HZ:
        raise UnsupportedFormatError(
            f"{where}: sample rate {rate} Hz is outside 1..{MAX_RATE_HZ} Hz"
        )


def load_wav(path) -> tuple[np.ndarray, int]:
    """Returns (waveform in [-1, 1), sample rate in Hz)."""
    label = str(path)
    fmt = data = None
    with open_source(path) as fh:
        magic, riff_size, wave_id = read_fields(fh, "<4sI4s", label, "RIFF header")
        if magic != b"RIFF":
            raise UnsupportedFormatError(f"{path}: magic {magic!r} is not RIFF")
        if wave_id != b"WAVE":
            raise UnsupportedFormatError(f"{path}: form type {wave_id!r} is not WAVE")
        while min(8 + riff_size - fh.tell(), bytes_left(fh)) >= 8:
            chunk_id, size = read_fields(fh, "<4sI", label, "chunk header")
            skip = size + (size & 1)  # chunks are word-aligned
            if chunk_id == b"fmt ":
                if size < 16:
                    raise CorruptFileError(f"{path}: fmt chunk truncated")
                fmt = read_fields(fh, "<HHIIHH", label, "fmt chunk")
                skip -= 16
            elif chunk_id == b"data":
                data = read_array(fh, np.uint8, (size,), label, "data chunk")
                skip -= size
            # Past the end of the walk, this ends it.
            fh.seek(skip, io.SEEK_CUR)
        fh.seek(0, io.SEEK_END)  # nothing past the walk is read
    if fmt is None:
        raise CorruptFileError(f"{path}: no fmt chunk")
    if data is None:
        raise CorruptFileError(f"{path}: no data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != _PCM:
        raise UnsupportedFormatError(f"{path}: audio format {audio_format} is not PCM")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: {channels} channels, only mono is supported")
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: {bits} bits per sample, only 16 is supported")
    _check_rate(rate, path)
    if len(data) % 2 != 0:
        raise CorruptFileError(f"{path}: odd data size {len(data)} for 16-bit samples")
    samples = data.view("<i2").astype(np.float64)
    samples /= 32768.0
    return samples, rate


def save_wav(path, wave: np.ndarray, sample_rate_hz: int) -> None:
    """Write a canonical PCM16 mono RIFF file (44-byte header + 2T bytes)."""
    _check_rate(sample_rate_hz, path)
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 1:
        raise UnsupportedFormatError(f"waveform must be 1-D, got shape {wave.shape}")
    if wave.shape[0] > MAX_SAMPLES:
        raise UnsupportedFormatError(
            f"{wave.shape[0]} samples exceed the {MAX_SAMPLES} a PCM16 WAV file can hold"
        )
    if not np.isfinite(wave).all():
        raise DataError("waveform contains non-finite samples")
    scaled = np.clip(wave, -1.0, 1.0) * 32767.0
    # round half away from zero, unlike numpy's round-half-even; |quantized|
    # <= 32767, so the int16 cast is exact
    quantized = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    payload = quantized.astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _PCM,
        1,
        sample_rate_hz,
        sample_rate_hz * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)
