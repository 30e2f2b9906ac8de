"""Metric contracts: SI-SDR algebra, STOI's rational resampling to
10 kHz, the intelligibility pipeline, and batch reports.

The 0 dB noise score is a frozen oracle: the value was produced by this
pipeline on a fixed seeded signal and pinned, so any later change to the
band edges, framing, or clipping shows up as a mismatch here.
"""

import json

import numpy as np
import pytest
from scipy.signal import lfilter

from avse.errors import (
    ConfigError,
    DataError,
    DegenerateSignalError,
    InsufficientSignalError,
    ShapeError,
)
from avse.metrics.report import evaluate_pair, write_report
from avse.metrics.sisdr import si_sdr
from avse.metrics.stoi import _resample, stoi, third_octave_bands
from avse.data.wavio import save_wav
from avse.prng import Stream

from helpers import stoi_reference

SI_SDR_HAND_CASE_DB = -4.771212547196625  # ref=[1,2,3], est=[1,3,2]
STOI_NOISE_ORACLE = 0.6578845451418572  # seed-11 reference, 0 dB white noise


def _speechlike_reference(seed: int, dur: float = 3.0, fs: int = 16000) -> np.ndarray:
    """Broadband envelope-modulated low-passed noise; energy in every band."""
    s = Stream(seed)
    n = int(dur * fs)
    t = np.arange(n) / fs
    f1, f2 = s.uniform(2, 2.0, 6.0)
    p1, p2 = s.uniform(2, 0.0, 2 * np.pi)
    env = 0.55 + 0.225 * np.sin(2 * np.pi * f1 * t + p1) + 0.225 * np.sin(2 * np.pi * f2 * t + p2)
    colored = lfilter([1.0], [1.0, -0.9], s.normal(n))
    return env * colored


class TestSiSdr:
    def test_identical_signals_hit_cap(self):
        ref = Stream(60).normal(400)
        assert si_sdr(ref, ref) == 60.0

    def test_projection_ignores_scale_and_sign(self):
        ref = Stream(61).normal(400)
        assert si_sdr(ref, -ref) == 60.0
        assert si_sdr(ref, 2.0 * ref) == 60.0

    def test_hand_case(self):
        got = si_sdr(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
        assert abs(got - (-4.771)) < 1e-3
        assert abs(got - SI_SDR_HAND_CASE_DB) < 1e-12

    def test_scale_invariance_general_estimate(self):
        """Scaling a noisy estimate moves the score only by rounding.

        Exact bit equality is impossible for arbitrary scales (a*x rounds
        unless a is a power of two); the projection cancels the scale to
        within ~1e-12 dB.
        """
        ref = Stream(62).normal(300)
        est = ref + 0.3 * Stream(63).normal(300)
        base = si_sdr(ref, est)
        for a in (-3.0, 0.1, 7.0):
            assert abs(si_sdr(ref, a * est) - base) < 1e-9
        assert si_sdr(ref, 2.0 * est) == base  # power-of-two scale is exact

    def test_monotone_in_noise_level(self):
        ref = Stream(64).normal(500)
        noise = Stream(65).normal(500)
        values = [si_sdr(ref, ref + b * noise) for b in (0.01, 0.1, 0.5, 1.0, 4.0)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    @pytest.mark.parametrize("level", [0.0, 0.5, -2.0])
    def test_silent_or_constant_estimate_scores_floor(self, level):
        """Mean removal leaves nothing of a constant estimate to project:
        it scores -60, the worst value, not the +60 of a perfect match."""
        ref = Stream(69).normal(400)
        assert si_sdr(ref, np.full(400, level)) == -60.0
        assert si_sdr(ref, ref) == 60.0

    def test_zero_reference_raises(self):
        with pytest.raises(DegenerateSignalError):
            si_sdr(np.zeros(100), Stream(66).normal(100))

    def test_constant_reference_raises(self):
        """Mean removal zeroes a constant reference."""
        with pytest.raises(DegenerateSignalError):
            si_sdr(np.full(100, 3.3), Stream(67).normal(100))

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            si_sdr(np.zeros(10), np.zeros(11))


class TestResample:
    """STOI's resampler from the signal's rate to its 10 kHz analysis rate."""

    def test_dc_preserved(self):
        y = _resample(np.full(1600, 0.7), 16000)
        interior = y[100:-100]
        assert np.abs(interior - 0.7).max() < 1e-3

    def test_length_law(self):
        assert _resample(np.zeros(800), 16000).shape == (500,)
        assert _resample(np.zeros(16000), 16000).shape == (10000,)

    def test_sine_amplitude_preserved(self):
        """100 Hz tone keeps its amplitude within 1% away from the edges."""
        t = np.arange(16000) / 16000.0
        x = np.sin(2 * np.pi * 100.0 * t)
        y = _resample(x, 16000)
        ty = np.arange(len(y)) / 10000.0
        interior = slice(500, len(y) - 500)
        basis_s = np.sin(2 * np.pi * 100.0 * ty[interior])
        basis_c = np.cos(2 * np.pi * 100.0 * ty[interior])
        amp = np.hypot(
            2 * (y[interior] * basis_s).mean(), 2 * (y[interior] * basis_c).mean()
        )
        assert abs(amp - 1.0) < 0.01

    def test_huge_ratio_terms_rejected(self):
        """16001 Hz reduces to 10000/16001 against 10 kHz, past the 1000 cap."""
        with pytest.raises(ConfigError):
            stoi(np.zeros(100), np.zeros(100), 16001)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigError):
            stoi(np.zeros(100), np.zeros(100), 0)


class TestThirdOctaveBands:
    def test_fifteen_ordered_disjoint_bands(self):
        bands = third_octave_bands()
        assert len(bands) == 15
        nyquist_bin = 512 // 2
        for k, band in enumerate(bands):
            assert abs(band.center_hz - 150.0 * 2.0 ** (k / 3.0)) < 1e-9
            assert band.lo_bin < band.hi_bin <= nyquist_bin + 1
        for prev, nxt in zip(bands, bands[1:]):
            assert prev.hi_bin <= nxt.lo_bin  # disjoint and ordered

    def test_first_band_bins(self):
        """150 Hz band at 10 kHz / 512 points covers bins [7, 9)."""
        band = third_octave_bands()[0]
        assert (band.lo_bin, band.hi_bin) == (7, 9)

    def test_highest_band_under_nyquist(self):
        assert third_octave_bands()[-1].center_hz < 5000.0


class TestStoi:
    def test_perfect_score_on_identity(self):
        ref = _speechlike_reference(1)
        assert abs(stoi(ref, ref, 16000) - 1.0) < 1e-9

    def test_positive_scaling_invariance(self):
        ref = _speechlike_reference(2)
        est = ref + 0.2 * Stream(70).normal(len(ref))
        base = stoi(ref, est, 16000)
        assert abs(stoi(ref, 3.7 * est, 16000) - base) < 1e-12
        # joint scaling of both signals is invariant too
        assert abs(stoi(0.5 * ref, 0.5 * est, 16000) - base) < 1e-12

    def test_frozen_noise_oracle(self):
        """0 dB white noise on the seed-11 reference scores the pinned value."""
        ref = _speechlike_reference(11)
        noise = Stream(11 + 1000).normal(len(ref))
        noise *= np.sqrt((ref**2).mean() / (noise**2).mean())
        got = stoi(ref, ref + noise, 16000)
        assert 0.5 < got < 0.95
        assert abs(got - STOI_NOISE_ORACLE) < 1e-12

    def test_decreases_with_noise_across_seeds(self):
        """Mean score over 20 seeds falls as the noise level rises."""
        means = []
        for snr in (10.0, 0.0, -10.0):
            scores = []
            for seed in range(20):
                ref = _speechlike_reference(seed, dur=1.0)
                noise = Stream(seed + 500).normal(len(ref))
                g = np.sqrt((ref**2).mean() / ((noise**2).mean() * 10 ** (snr / 10)))
                scores.append(stoi(ref, ref + g * noise, 16000))
            means.append(np.mean(scores))
        assert means[0] > means[1] > means[2]

    def test_silent_frames_follow_reference_only(self):
        """Samples inside a reference-silent region cannot move the score."""
        fs = 10000
        ref = np.concatenate(
            [_speechlike_reference(5, dur=1.0, fs=fs), np.zeros(2048), _speechlike_reference(6, dur=1.0, fs=fs)]
        )
        est = ref + 0.1 * Stream(71).normal(len(ref))
        est2 = est.copy()
        # only touch samples whose every containing frame is reference-silent
        gap = slice(10000 + 512, 10000 + 2048 - 512)
        est2[gap] = 5.0 * Stream(72).normal(gap.stop - gap.start)
        assert stoi(ref, est, fs) == stoi(ref, est2, fs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference(self, seed):
        """The strided, all-segments-at-once pipeline agrees with a per-frame,
        per-segment loop on speech-like signals with a silent gap; only
        the order of the final mean's sum differs."""
        ref = _speechlike_reference(20 + seed, dur=1.0, fs=10000)
        ref[3000:5000] *= 1e-3
        est = ref + (0.1 + seed) * Stream(80 + seed).normal(len(ref))
        assert abs(stoi(ref, est, 10000) - stoi_reference(ref, est)) < 1e-14

    def test_too_short_raises(self):
        with pytest.raises(InsufficientSignalError):
            stoi(np.ones(1000), np.ones(1000), 10000)

    def test_one_segment_boundary(self):
        """At 10 kHz, 3968 samples cut into exactly 30 frames: one segment.
        3840 samples give 29 frames, one short of a segment."""
        ref = Stream(73).normal(3968)
        assert abs(stoi(ref, ref, 10000) - 1.0) < 1e-9
        noisy = stoi(ref, ref + Stream(74).normal(3968), 10000)
        assert np.isfinite(noisy) and noisy < 1.0
        with pytest.raises(InsufficientSignalError, match="only 29 analysis frames"):
            stoi(ref[:3840], ref[:3840], 10000)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            stoi(np.zeros(30000), np.zeros(30001), 10000)


class TestEvaluatePair:
    def test_identical_files(self, tmp_path):
        wave = 0.2 * _speechlike_reference(3)
        path = tmp_path / "same.wav"
        save_wav(path, wave, 16000)
        report = evaluate_pair(path, path, "same")
        assert list(report) == ["id", "sisdr_db", "stoi"]
        assert report["id"] == "same"
        assert report["sisdr_db"] == 60.0
        assert abs(report["stoi"] - 1.0) < 1e-9

    def test_rate_mismatch_raises(self, tmp_path):
        wave = 0.2 * _speechlike_reference(4, dur=1.0)
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        save_wav(a, wave, 16000)
        save_wav(b, wave, 8000)
        with pytest.raises(DataError):
            evaluate_pair(a, b, "a")

    def test_lengths_trimmed_to_shorter(self, tmp_path):
        wave = 0.2 * _speechlike_reference(5)
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        save_wav(a, wave, 16000)
        save_wav(b, wave[:-1000], 16000)
        report = evaluate_pair(a, b, "a")
        assert report["sisdr_db"] == 60.0  # trimmed tails compare equal

    def test_report_round_trip(self, tmp_path):
        """A scored pair reads back from the report file unchanged."""
        wave = 0.2 * _speechlike_reference(6, dur=1.0)
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        save_wav(a, wave, 16000)
        save_wav(b, wave + 0.01 * Stream(69).normal(len(wave)), 16000)
        record = evaluate_pair(a, b, "x")
        path = tmp_path / "report.jsonl"
        write_report(path, [record])
        assert json.loads(path.read_text().splitlines()[0]) == record


class TestWriteReport:
    def test_sorted_lines_plus_aggregate(self, tmp_path):
        records = [
            {"id": "b", "sisdr_db": 2.0, "stoi": 0.5},
            {"id": "a", "sisdr_db": 4.0, "stoi": 0.7},
        ]
        path = tmp_path / "report.jsonl"
        agg = write_report(path, records)
        lines = path.read_text().strip().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == ["a", "b", "aggregate"]
        assert agg["sisdr_db"] == 3.0
        assert abs(agg["stoi"] - 0.6) < 1e-12

    def test_line_format_is_pinned(self, tmp_path):
        """Keys in the order id, sisdr_db, stoi; json.dumps's default
        separators and float repr; pairs sorted by id, then the aggregate
        of their means; one newline after every line."""
        wave = 0.2 * _speechlike_reference(7, dur=1.0)
        clean = tmp_path / "clean.wav"
        save_wav(clean, wave, 16000)
        records = []
        for pair_id, seed in (("b", 70), ("a", 71)):
            noisy = tmp_path / f"{pair_id}.wav"
            save_wav(noisy, wave + 0.05 * Stream(seed).normal(len(wave)), 16000)
            records.append(evaluate_pair(clean, noisy, pair_id=pair_id))
        path = tmp_path / "report.jsonl"
        write_report(path, records)
        text = path.read_text(encoding="utf-8")
        lines = [json.loads(line) for line in text.splitlines()]
        assert [line["id"] for line in lines] == ["a", "b", "aggregate"]
        a, b, agg = lines
        for key in ("sisdr_db", "stoi"):
            assert agg[key] == (a[key] + b[key]) / 2
        assert text == "".join(
            f'{{"id": "{v["id"]}", "sisdr_db": {v["sisdr_db"]!r}, "stoi": {v["stoi"]!r}}}\n'
            for v in lines
        )

    def test_empty_list_refused(self, tmp_path):
        path = tmp_path / "report.jsonl"
        with pytest.raises(DataError):
            write_report(path, [])
        assert not path.exists()
