"""Property tests for the file parsers: whatever the bytes, loading a WAV,
AVST tensor, AVCK checkpoint (in full, or its parameters only, as
``avse enhance`` loads it) or JSONL manifest either succeeds or raises
an AvseError subclass, never a bare Python exception.

Inputs are arbitrary byte strings, truncations of a valid file and bit
flips of a valid file.  Runs are derandomized, so they are reproducible.
"""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avse.data.manifest import load_manifest
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import load_wav, save_wav
from avse.errors import AvseError, CorruptCheckpointError, ManifestError
from avse.model.config import tiny_config
from avse.model.params import init_parameters
from avse.training.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from avse.training.optimizer import init_optimizer

FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _write_valid(directory):
    """One valid file per format; returns {format: (path, loader)}."""
    save_wav(directory / "a.wav", np.linspace(-0.5, 0.5, 40), 16000)
    write_tensor(directory / "a.avst", np.arange(24, dtype=np.float32).reshape(2, 1, 3, 4))
    config = tiny_config()
    params = init_parameters(config, 0)
    save_checkpoint(directory / "a.avck", Checkpoint(config, params, init_optimizer(params)))
    entry = {"id": "S0", "target_path": "t.wav", "interferer_path": "i.wav",
             "frames_path": "f.avst", "snr_db": 3.5}
    lines = [json.dumps(entry), json.dumps({**entry, "id": "S1", "snr_db": -2})]
    (directory / "m.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "wav": (directory / "a.wav", load_wav),
        "avst": (directory / "a.avst", read_tensor),
        "avck": (directory / "a.avck", load_checkpoint),
        "avck_params": (directory / "a.avck", partial(load_checkpoint, moments=False)),
        "manifest": (directory / "m.jsonl", load_manifest),
    }


FORMATS = ("wav", "avst", "avck", "avck_params", "manifest")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parsers")
    return directory, _write_valid(directory)


def _load_only_avse_errors(valid, fmt, blob):
    directory, files = valid
    path = directory / f"mutant.{fmt}"
    path.write_bytes(blob)
    try:
        files[fmt][1](path)
    except AvseError:
        pass


def _good(valid, fmt):
    return valid[1][fmt][0].read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(blob=st.binary(max_size=300))
def test_arbitrary_bytes(valid, fmt, blob):
    _load_only_avse_errors(valid, fmt, blob)


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_truncations(valid, fmt, cut):
    good = _good(valid, fmt)
    _load_only_avse_errors(valid, fmt, good[: int(cut * len(good))])


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(0, 7)), min_size=1, max_size=4))
def test_bit_flips(valid, fmt, flips):
    blob = bytearray(_good(valid, fmt))
    for where, bit in flips:
        blob[int(where * len(blob))] ^= 1 << bit
    _load_only_avse_errors(valid, fmt, bytes(blob))


def test_non_utf8_tensor_name_is_checkpoint_corruption(valid):
    directory, _ = valid
    blob = bytearray(_good(valid, "avck"))
    blob[blob.index(b"dec.w") + 1] |= 0x80  # 'e' becomes a stray continuation byte
    path = directory / "bad_name.avck"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError, match="bad_name.avck"):
        load_checkpoint(path)


def test_non_utf8_manifest_names_file_and_line(valid):
    directory, _ = valid
    path = directory / "bad.jsonl"
    path.write_bytes(_good(valid, "manifest").replace(b"S1", b"S\xff"))
    with pytest.raises(ManifestError, match="line 2.*bad.jsonl"):
        load_manifest(path)
