"""Data-layer contracts: WAV and tensor file formats, SNR mixing,
synthetic scene generation, and manifest parsing."""

import json
import struct

import numpy as np
import pytest

from avse.data.manifest import ManifestEntry, load_manifest, write_manifest
from avse.data.mixer import CROSSFADE_S, fit_interferer, mix_scene
from avse.data.synth import synth_scene
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import MAX_RATE_HZ, MAX_SAMPLES, load_wav, save_wav
from avse.errors import (
    ConfigError,
    CorruptFileError,
    DataError,
    DegenerateSignalError,
    ManifestError,
    UnsupportedFormatError,
)
from avse.metrics.sisdr import si_sdr
from avse.model.config import tiny_config
from avse.prng import Stream

from helpers import load_from_pipe, randn, traced_peak


def _pcm16_wav_bytes(samples, rate=16000):
    """Canonical RIFF/WAVE PCM16 mono bytes for raw int16 sample values."""
    payload = struct.pack(f"<{len(samples)}h", *samples)
    return (
        struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF",
            36 + len(payload),
            b"WAVE",
            b"fmt ",
            16,
            1,
            1,
            rate,
            rate * 2,
            2,
            16,
            b"data",
            len(payload),
        )
        + payload
    )


class TestLoadWav:
    def test_scaling_of_known_payload(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_pcm16_wav_bytes([0, 32767, -32768, 16384]))
        wave, rate = load_wav(path)
        assert rate == 16000
        assert np.array_equal(wave, [0.0, 32767.0 / 32768.0, -1.0, 0.5])

    def test_load_peak_is_the_file_and_the_returned_array(self, tmp_path):
        """The data chunk is read straight into one array of its bytes
        and the samples are scaled in place: no copy of the payload, no
        second float64 array."""
        path = tmp_path / "ten_seconds.wav"
        save_wav(path, Stream(93).uniform(160000, -1.0, 1.0), 16000)
        (wave, rate), peak = traced_peak(load_wav, path)
        raw = path.read_bytes()
        assert rate == 16000
        assert np.array_equal(wave, np.frombuffer(raw[44:], "<i2") / 32768.0)
        assert peak <= len(raw) + wave.nbytes + 2**16

    def test_rifx_magic_rejected(self, tmp_path):
        data = bytearray(_pcm16_wav_bytes([0, 0]))
        data[:4] = b"RIFX"
        path = tmp_path / "x.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_stereo_rejected_naming_field(self, tmp_path):
        data = bytearray(_pcm16_wav_bytes([0, 0]))
        data[22] = 2  # channel count field
        path = tmp_path / "x.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormatError, match="channel"):
            load_wav(path)

    def test_truncated_payload_rejected(self, tmp_path):
        data = _pcm16_wav_bytes([1, 2, 3, 4])
        path = tmp_path / "x.wav"
        path.write_bytes(data[:-3])
        with pytest.raises(CorruptFileError):
            load_wav(path)

    @pytest.mark.parametrize("rate", [0, MAX_RATE_HZ + 1, 2**32 - 1])
    def test_rate_the_byte_rate_field_cannot_hold_rejected(self, tmp_path, rate):
        data = bytearray(_pcm16_wav_bytes([0, 0]))
        data[24:28] = struct.pack("<I", rate)  # sample rate field
        path = tmp_path / "x.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedFormatError, match=f"sample rate {rate} Hz"):
            load_wav(path)


def _chunk(chunk_id, body, size=None, pad=True):
    """One RIFF chunk: id, size (the body's unless given), body, and the
    pad byte an odd body is followed by (unless ``pad`` is false)."""
    size = len(body) if size is None else size
    return struct.pack("<4sI", chunk_id, size) + body + (b"\0" if pad and len(body) % 2 else b"")


def _fmt(rate=16000, channels=1, extra=b""):
    return _chunk(b"fmt ", struct.pack("<HHIIHH", 1, channels, rate, 2 * rate, 2, 16) + extra)


def _data(samples):
    return _chunk(b"data", struct.pack(f"<{len(samples)}h", *samples))


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return struct.pack("<4sI", b"RIFF", len(body)) + body


_S1, _S2 = [3, -7, 32767, -32768], [100, 200]
_LIST = _chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 5) + b"avse\0\0")

# name -> (file bytes, (samples, rate) when accepted, else the error class)
WAV_VARIANTS = {
    "list_before_fmt": (_riff(_LIST, _fmt(), _data(_S1)), (_S1, 16000)),
    "fmt_of_18_bytes": (_riff(_fmt(extra=b"\0\0"), _data(_S1)), (_S1, 16000)),
    "odd_chunk_with_pad": (_riff(_fmt(), _chunk(b"junk", b"abc"), _data(_S1)), (_S1, 16000)),
    "odd_chunk_last_without_pad": (
        _riff(_fmt(), _data(_S1), _chunk(b"junk", b"abc", pad=False)), (_S1, 16000)),
    "two_data_chunks_last_counts": (_riff(_fmt(), _data(_S1), _data(_S2)), (_S2, 16000)),
    "two_fmt_chunks_last_counts": (_riff(_fmt(8000), _fmt(), _data(_S1)), (_S1, 16000)),
    "data_before_fmt": (_riff(_data(_S1), _fmt(22050)), (_S1, 22050)),
    "empty_data": (_riff(_fmt(), _data([])), ([], 16000)),
    "chunk_after_last_chunk": (_riff(_fmt(), _data(_S1)) + b"\xff" * 10, (_S1, 16000)),
    "data_after_riff_end": (_riff(_fmt(), _data(_S1)) + _data(_S2), (_S1, 16000)),
    "fmt_after_riff_end": (_riff(_fmt(), _data(_S1)) + _fmt(8000), (_S1, 16000)),
    "zero_chunk_after_last_chunk": (_riff(_fmt(), _data(_S1)) + bytes(12), (_S1, 16000)),
    "seven_trailing_bytes": (_riff(_fmt(), _data(_S1)) + b"abcdefg", (_S1, 16000)),
    "list_past_the_end": (
        _riff(_fmt(), _data(_S1)) + struct.pack("<4sI", b"LIST", 1000) + b"abcd", (_S1, 16000)),
    "fmt_past_the_end": (
        _riff(_data(_S1)) + struct.pack("<4sI", b"fmt ", 40) + _fmt()[8:], CorruptFileError),
    "list_past_the_end_before_data": (
        _riff(_fmt()) + struct.pack("<4sI", b"LIST", 1000) + _data(_S1), CorruptFileError),
    "truncated_data": (_riff(_fmt(), _data(_S1))[:-3], CorruptFileError),
    "data_claiming_more": (_riff(_fmt(), _chunk(b"data", bytes(4), size=8)), CorruptFileError),
    "odd_data_with_pad": (_riff(_fmt(), _chunk(b"data", bytes(5))), CorruptFileError),
    "odd_data_last_without_pad": (
        _riff(_fmt(), _chunk(b"data", bytes(5), pad=False)), CorruptFileError),
    "odd_data_stereo": (
        _riff(_fmt(channels=2), _chunk(b"data", bytes(5))), UnsupportedFormatError),
    "fmt_of_14_bytes": (
        _riff(_chunk(b"fmt ", _fmt()[8:22]), _data(_S1)), CorruptFileError),
    "fmt_truncated_by_the_end": (_riff(_data(_S1)) + _fmt()[:20], CorruptFileError),
    "no_fmt": (_riff(_LIST, _data(_S1)), CorruptFileError),
    "no_data": (_riff(_fmt(), _LIST), CorruptFileError),
    "no_chunks": (_riff(), CorruptFileError),
    "short_header": (b"RIFF\x04\x00\x00\x00WAV", CorruptFileError),
    "form_not_wave": (_riff(_fmt(), _data(_S1)).replace(b"WAVE", b"AVI ", 1),
                      UnsupportedFormatError),
}


class TestLoadWavChunkVariants:
    """What ``load_wav`` accepts and refuses across RIFF chunk layouts:
    each variant is accepted with its samples and rate, or refused with
    exactly its error class."""

    @pytest.mark.parametrize("name", sorted(WAV_VARIANTS))
    def test_variant(self, tmp_path, name):
        blob, expected = WAV_VARIANTS[name]
        path = tmp_path / f"{name}.wav"
        path.write_bytes(blob)
        if isinstance(expected, type):
            with pytest.raises(expected) as info:
                load_wav(path)
            assert type(info.value) is expected
            assert str(path) in str(info.value)
        else:
            samples, rate = expected
            wave, got_rate = load_wav(path)
            assert got_rate == rate
            assert wave.dtype == np.float64
            assert np.array_equal(wave, np.array(samples, dtype=np.float64) / 32768.0)

    @pytest.mark.parametrize("name", ["two_data_chunks_last_counts", "chunk_after_last_chunk",
                                      "data_after_riff_end", "odd_data_with_pad"])
    def test_pipe_reads_like_the_file(self, tmp_path, name):
        blob, expected = WAV_VARIANTS[name]
        path = tmp_path / f"{name}.wav"
        path.write_bytes(blob)
        if isinstance(expected, type):
            with pytest.raises(expected):
                load_from_pipe(load_wav, blob)
        else:
            wave, rate = load_from_pipe(load_wav, blob)
            assert rate == expected[1]
            assert np.array_equal(wave, load_wav(path)[0])


class TestSaveWav:
    def test_zeros_give_zero_payload(self, tmp_path):
        path = tmp_path / "z.wav"
        save_wav(path, np.zeros(100), 16000)
        raw = path.read_bytes()
        assert len(raw) == 44 + 200
        assert raw[44:] == bytes(200)

    def test_file_size_law(self, tmp_path):
        for t in (1, 7, 1234):
            path = tmp_path / f"s{t}.wav"
            save_wav(path, np.zeros(t), 8000)
            assert path.stat().st_size == 44 + 2 * t

    def test_clamps_out_of_range(self, tmp_path):
        """1.5 stores 32767; -2.0 clamps to -1.0 and stores -32767."""
        path = tmp_path / "c.wav"
        save_wav(path, np.array([1.5, -2.0]), 16000)
        wave, _ = load_wav(path)
        assert np.array_equal(wave, [32767.0 / 32768.0, -32767.0 / 32768.0])

    def test_round_trip_quantization_bound(self, tmp_path):
        """Half-scale signals round-trip within 1/32768 per sample."""
        wave = 0.5 * np.sin(np.linspace(0.0, 40.0, 3000))
        path = tmp_path / "r.wav"
        save_wav(path, wave, 16000)
        back, rate = load_wav(path)
        assert rate == 16000
        assert np.abs(back - wave).max() <= 1.0 / 32768.0 + 1e-12

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_wav(tmp_path / "n.wav", np.array([0.0, np.nan]), 16000)

    def test_more_samples_than_a_riff_size_field_holds_rejected(self, tmp_path):
        """Refused before any pass over the samples: the broadcast input
        allocates nothing, and no file is written."""
        wave = np.broadcast_to(np.float64(0), (MAX_SAMPLES + 1,))
        with pytest.raises(UnsupportedFormatError, match=str(MAX_SAMPLES)):
            save_wav(tmp_path / "big.wav", wave, 16000)
        assert not (tmp_path / "big.wav").exists()

    @pytest.mark.parametrize("rate", [0, MAX_RATE_HZ + 1])
    def test_rate_the_byte_rate_field_cannot_hold_rejected(self, tmp_path, rate):
        """Refused before the file is opened, so nothing is left behind."""
        with pytest.raises(UnsupportedFormatError, match=f"sample rate {rate} Hz"):
            save_wav(tmp_path / "r.wav", np.zeros(10), rate)
        assert not (tmp_path / "r.wav").exists()

    def test_largest_rate_round_trips(self, tmp_path):
        save_wav(tmp_path / "r.wav", np.zeros(10), MAX_RATE_HZ)
        assert load_wav(tmp_path / "r.wav")[1] == MAX_RATE_HZ


class TestTensorFile:
    def test_round_trip_bit_identical(self, tmp_path):
        x = randn(Stream(80), (3, 5, 2)).astype(np.float32)
        path = tmp_path / "t.avst"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, x)
        assert back.shape == x.shape

    def test_scalar_shape_layout(self, tmp_path):
        """dims [1]: 4 magic + 4 meta + 4 extent = 12 header bytes, then
        one float."""
        path = tmp_path / "s.avst"
        write_tensor(path, np.array([1.5], dtype=np.float32))
        raw = path.read_bytes()
        assert len(raw) == 12 + 4
        assert raw[:4] == b"AVST"
        assert raw[4] == 1  # version
        assert raw[5] == 0  # dtype code for 32-bit float
        assert raw[6] == 1  # ndim
        assert struct.unpack("<I", raw[8:12]) == (1,)
        assert struct.unpack("<f", raw[12:16]) == (1.5,)

    def test_short_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.avst"
        header = b"AVST" + bytes([1, 0, 2, 0]) + struct.pack("<II", 2, 3)
        path.write_bytes(header + struct.pack("<5f", *range(5)))
        with pytest.raises(CorruptFileError):
            read_tensor(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.avst"
        path.write_bytes(b"XVST" + bytes([1, 0, 1, 0]) + struct.pack("<I", 1) + bytes(4))
        with pytest.raises(CorruptFileError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.avst"
        write_tensor(path, np.zeros(3, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptFileError):
            read_tensor(path)

    def test_huge_extent_refused_before_any_allocation(self, tmp_path):
        """Extents (2**31, 3) claim a 24 GiB payload; the reader compares
        that with the bytes left before it sizes any buffer."""
        path = tmp_path / "huge.avst"
        path.write_bytes(b"AVST" + bytes([1, 0, 2, 0]) + struct.pack("<II", 2**31, 3) + bytes(64))
        err, peak = traced_peak(read_tensor, path)
        assert isinstance(err, CorruptFileError)
        assert "huge.avst" in str(err) and "(2147483648, 3)" in str(err)
        assert peak < 2**20

    def test_pipe_source_reads_like_the_file(self, tmp_path):
        x = randn(Stream(82), (4, 1, 3, 5)).astype(np.float32)
        path = tmp_path / "t.avst"
        write_tensor(path, x)
        back = load_from_pipe(read_tensor, path.read_bytes())
        assert back.dtype == np.float32
        assert np.array_equal(back, read_tensor(path))


def _loop_with_crossfade_reference(x, length, xfade):
    """The looping rule one pass at a time, concatenating the whole output
    on every pass."""
    out = x.copy()
    while out.shape[0] < length:
        xf = min(xfade, out.shape[0], x.shape[0] - 1)
        if xf > 0:
            ramp = (np.arange(xf) + 1.0) / (xf + 1.0)
            blended = out[-xf:] * (1.0 - ramp) + x[:xf] * ramp
            out = np.concatenate([out[:-xf], blended, x[xf:]])
        else:
            out = np.concatenate([out, x])
    return out[:length]


def _loop_with_crossfade_passes(x, length, xfade):
    """The looping rule one pass per seam over the whole output, every pass
    writing into one array: linear in the number of passes."""
    n = x.shape[0]
    xf = min(xfade, n - 1)
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


class TestMixScene:
    def test_unit_gain_at_zero_snr_equal_power(self):
        """Equal-power signals at 0 dB must use gain exactly 1: mixing a
        signal with its own negation cancels bit-exactly."""
        target = randn(Stream(81), (2000,))
        mix = mix_scene(target, -target, 0.0, sample_rate_hz=16000)
        assert np.array_equal(mix, np.zeros_like(mix))

    def test_tenth_gain_at_twenty_db(self):
        target = randn(Stream(82), (2000,))
        interferer = -target  # equal power bit-exactly
        mix = mix_scene(target, interferer, 20.0, sample_rate_hz=16000)
        recovered_gain = (mix - target) / interferer
        assert np.allclose(recovered_gain, 0.1, atol=1e-13)

    def test_requested_snr_achieved(self):
        """10*log10(P_t / P_gi) lands within 1e-6 dB of the request."""
        target = randn(Stream(83), (4000,))
        interferer = randn(Stream(84), (4000,))
        for snr in (-7.5, 0.0, 3.25, 18.0):
            mix = mix_scene(target, interferer, snr, sample_rate_hz=16000)
            scaled = mix - target
            got = 10.0 * np.log10((target**2).mean() / (scaled**2).mean())
            assert abs(got - snr) < 1e-6

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 10.0])
    def test_sisdr_matches_snr_for_white_noise(self, snr):
        """With a white-noise interferer the projection residual is nearly
        the injected noise, so si_sdr ~ requested SNR within 0.5 dB."""
        t = np.arange(16000) / 16000.0
        target = np.sin(2 * np.pi * 220.0 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t))
        noise = Stream(85).normal(len(target))
        mix = mix_scene(target, noise, snr, sample_rate_hz=16000)
        assert abs(si_sdr(target, mix) - snr) < 0.5

    def test_short_interferer_loops_to_target_length(self):
        target = randn(Stream(86), (3200,))
        interferer = randn(Stream(87), (700,))
        mix = mix_scene(target, interferer, 5.0, sample_rate_hz=16000)
        assert mix.shape == target.shape
        scaled = mix - target
        got = 10.0 * np.log10((target**2).mean() / (scaled**2).mean())
        assert abs(got - 5.0) < 1e-6

    def test_long_interferer_trim_is_seeded(self):
        target = randn(Stream(88), (800,))
        interferer = randn(Stream(89), (5000,))
        a = mix_scene(target, interferer, 0.0, seed=3, sample_rate_hz=16000)
        b = mix_scene(target, interferer, 0.0, seed=3, sample_rate_hz=16000)
        c = mix_scene(target, interferer, 0.0, seed=4, sample_rate_hz=16000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fit_preserves_length_and_loops(self):
        interferer = randn(Stream(90), (300,))
        fitted = fit_interferer(interferer, 1000, seed=0, sample_rate_hz=16000)
        assert fitted.shape == (1000,)

    @pytest.mark.parametrize("length", [1000, 5003])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n, rate", [(1, 16000), (2, 16000), (3, 16000), (100, 16000),
                                         (159, 16000), (160, 16000), (161, 16000),
                                         (300, 16000), (319, 16000), (320, 16000),
                                         (321, 16000), (7, 50)])
    def test_loop_matches_the_concatenating_reference(self, n, rate, dtype, length):
        """1-3 samples fade over all but one; 100 fades over more than half
        of the interferer, so seams blend into earlier seams; 159 and 160
        cap the 160-sample fade at all but one sample and 161 does not;
        319-321 make the period one below, at and one above the fade; 50 Hz
        gives a zero-sample fade.  At 5003 samples every case repeats a
        period; at 1000, 300-321 samples run every pass."""
        interferer = randn(Stream(92), (n,)).astype(dtype)
        xfade = int(CROSSFADE_S * rate)
        expected = _loop_with_crossfade_reference(interferer, length, xfade)
        got = fit_interferer(interferer, length, sample_rate_hz=rate)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_ten_second_loop_matches_every_pass(self, n):
        """A 10 s target takes 160000 passes of a 1-sample interferer; the
        repeated period must give the same bits as running them all."""
        interferer = randn(Stream(93), (n,))
        expected = _loop_with_crossfade_passes(interferer, 160000, int(CROSSFADE_S * 16000))
        got = fit_interferer(interferer, 160000, sample_rate_hz=16000)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_zero_energy_inputs_rejected(self):
        target = randn(Stream(91), (100,))
        with pytest.raises(DegenerateSignalError):
            mix_scene(np.zeros(100), target, 0.0, sample_rate_hz=16000)
        with pytest.raises(DegenerateSignalError):
            mix_scene(target, np.zeros(100), 0.0, sample_rate_hz=16000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("signal", ["target", "interferer"])
    def test_non_finite_sample_refused_naming_the_signal(self, signal, bad):
        """A NaN or infinite sample used to reach the gain and be reported
        as an out-of-range SNR; it is a data error about that signal."""
        signals = {"target": randn(Stream(94), (100,)), "interferer": randn(Stream(95), (100,))}
        signals[signal][37] = bad
        with pytest.raises(DataError, match=f"^{signal} contains non-finite samples") as info:
            mix_scene(signals["target"], signals["interferer"], 0.0, sample_rate_hz=16000)
        assert "snr_db" not in str(info.value)


class TestSynthScene:
    def test_deterministic_per_seed(self):
        a = synth_scene(9, 0.6, tiny_config())
        b = synth_scene(9, 0.6, tiny_config())
        assert a.id == b.id == "S00009"
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.interferer, b.interferer)
        assert np.array_equal(a.frames, b.frames)
        assert a.snr_db == b.snr_db

    def test_seeds_differ(self):
        a = synth_scene(0, 0.6, tiny_config())
        b = synth_scene(1, 0.6, tiny_config())
        assert not np.array_equal(a.target, b.target)

    def test_frame_count_law(self):
        config = tiny_config()
        for dur, frames in [(0.5, 12), (1.0, 25), (2.04, 51)]:
            scene = synth_scene(2, dur, config)
            assert scene.frames.shape[0] == frames
            h, w = config.frame_hw
            assert scene.frames.shape[1:] == (1, h, w)

    def test_frame_intensity_tracks_envelope(self):
        """Mean frame intensity correlates > 0.99 with the target's
        amplitude envelope sampled at frame times."""
        scene = synth_scene(4, 2.0, tiny_config())
        means = scene.frames.mean(axis=(1, 2, 3))
        # recover the envelope from the target by rectified smoothing
        rate = scene.sample_rate_hz
        analytic = np.abs(scene.target)
        kernel = np.ones(rate // 25) / (rate // 25)
        smooth = np.convolve(analytic, kernel, mode="same")
        idx = (np.arange(len(means)) * rate) // 25
        corr = np.corrcoef(means, smooth[idx])[0, 1]
        assert corr > 0.99

    def test_snr_within_declared_range(self):
        for seed in range(10):
            scene = synth_scene(seed, 0.5, tiny_config())
            assert -5.0 <= scene.snr_db <= 10.0

    def test_too_short_duration_rejected(self):
        with pytest.raises(ConfigError):
            synth_scene(0, 0.25, tiny_config())

    def test_signals_finite_and_bounded(self):
        scene = synth_scene(5, 1.0, tiny_config())
        assert np.isfinite(scene.target).all()
        assert np.isfinite(scene.interferer).all()
        assert np.abs(scene.target).max() <= 1.0


class TestLoadManifest:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    def test_single_valid_line_resolves_paths(self, tmp_path):
        path = tmp_path / "m.jsonl"
        entry = {
            "id": "S1",
            "target_path": "t.wav",
            "interferer_path": "i.wav",
            "frames_path": "f.avst",
            "snr_db": 2.5,
        }
        path.write_text(json.dumps(entry) + "\n")
        loaded = load_manifest(path)
        assert len(loaded) == 1
        assert loaded[0].id == "S1"
        assert loaded[0].target_path == str(tmp_path / "t.wav")
        assert loaded[0].snr_db == 2.5

    def test_write_then_load_round_trips(self, tmp_path):
        path = tmp_path / "m.jsonl"
        entries = [
            ManifestEntry("S1", "t.wav", "i.wav", "f.avst", 2.5),
            ManifestEntry("S2", str(tmp_path / "x" / "t2.wav"), "i2.wav", "f2.avst", -0.125),
        ]
        write_manifest(path, entries)
        resolved = [
            ManifestEntry(e.id, *(str(tmp_path / p) for p in (
                e.target_path, e.interferer_path, e.frames_path)), e.snr_db)
            for e in entries
        ]
        assert load_manifest(path) == resolved
        write_manifest(path, resolved)
        assert load_manifest(path) == resolved

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        entry = {
            "id": "S1",
            "target_path": "t.wav",
            "interferer_path": "i.wav",
            "frames_path": "f.avst",
            "snr_db": 0,
        }
        path.write_text("\n" + json.dumps(entry) + "\n\n")
        assert len(load_manifest(path)) == 1

    def test_missing_snr_reports_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        good = {
            "id": "S1",
            "target_path": "t.wav",
            "interferer_path": "i.wav",
            "frames_path": "f.avst",
            "snr_db": 0,
        }
        bad = {k: v for k, v in good.items() if k != "snr_db"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ManifestError, match="line 2") as err:
            load_manifest(path)
        assert err.value.line_no == 2

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ManifestError, match="line 1"):
            load_manifest(path)

    def test_non_finite_snr_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        entry = {
            "id": "S1",
            "target_path": "t.wav",
            "interferer_path": "i.wav",
            "frames_path": "f.avst",
            "snr_db": "loud",
        }
        path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ManifestError):
            load_manifest(path)
