"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION line with the measured values, then
asserts the criterion's pinned thresholds.  Criteria 8 and 9 share one
training run of the overfit recipe (4 one-second scenes, tiny config,
200 epochs, Adam at 3e-4).
"""

import io
import json
import shutil
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import lfilter

from avse import cli
from avse.data.mixer import mix_scene
from avse.data.synth import synth_scene
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import load_wav, save_wav
from avse.metrics.sisdr import si_sdr
from avse.metrics.stoi import stoi
from avse.model.config import default_config, tiny_config
from avse.model.network import (
    decode_audio,
    encode_audio,
    enhance,
    overlap_add,
    segment_time,
    separator_forward,
)
from avse.model.params import ModelParams, count_parameters, init_parameters
from avse.ops import conv, dense
from avse.ops.rnn import LstmParams, bilstm_backward_batched, bilstm_forward_batched
from avse.prng import Stream
from avse.training.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from avse.training.gradcheck import grad_check
from avse.training.loop import train_scenes

from helpers import fd_grad, randn, rel_err, scaled_config

PER_OP_TOL = 1e-4
END_TO_END_TOL = 1e-3
DEFAULT_PARAM_COUNT = 4_626_880


def _verdict(number, ok, detail):
    print(f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _speechlike(seed, dur=2.0, fs=16000):
    """Envelope-modulated colored noise with energy in every band."""
    s = Stream(seed)
    n = int(dur * fs)
    t = np.arange(n) / fs
    f1, f2 = s.uniform(2, 2.0, 6.0)
    p1, p2 = s.uniform(2, 0.0, 2 * np.pi)
    env = 0.55 + 0.225 * np.sin(2 * np.pi * f1 * t + p1) + 0.225 * np.sin(2 * np.pi * f2 * t + p2)
    return env * lfilter([1.0], [1.0, -0.9], s.normal(n))


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def overfit():
    """The shared overfit experiment: train once, keep scenes and mixtures."""
    tiny = tiny_config()
    scenes = [synth_scene(s, 1.0, tiny) for s in range(4)]
    start = time.perf_counter()
    ckpt, logs = train_scenes(tiny, scenes, 200, seed=0, lr=3e-4)
    wall = time.perf_counter() - start
    mix_stream = Stream(0).spawn(102)
    mixes = [
        mix_scene(
            sc.target,
            sc.interferer,
            sc.snr_db,
            seed=int(mix_stream.integers(1, 2**31)[0]),
            sample_rate_hz=sc.sample_rate_hz,
        )
        for sc in scenes
    ]
    return SimpleNamespace(tiny=tiny, scenes=scenes, ckpt=ckpt, logs=logs, wall=wall, mixes=mixes)


def _mean_sisdr(run, frames_of):
    scores = []
    for scene, mix in zip(run.scenes, run.mixes):
        out = enhance(
            mix.astype(np.float32),
            frames_of(scene).astype(np.float32),
            run.ckpt.params,
            run.tiny,
        )
        scores.append(si_sdr(scene.target, out))
    return float(np.mean(scores))


def test_criterion_01_gradients_match_finite_differences():
    """Per-op VJPs within 1e-4 and the end-to-end check within 1e-3, under 2 min."""
    start = time.perf_counter()
    worst_per_op = 0.0

    def track(f, x, analytic):
        nonlocal worst_per_op
        worst_per_op = max(worst_per_op, rel_err(fd_grad(f, x), analytic))

    def cot(op, gy):
        return lambda *args: float((op(*args) * gy).sum())

    s = Stream(900)
    x = randn(s, (2, 14)); w = randn(s, (3, 2, 4)); b = randn(s, (3,))
    gy = randn(s, conv.conv1d(x, w, b, stride=2, pad=1).shape)
    gx, gw, gb = conv.conv1d_vjp(x, w, b, gy, stride=2, pad=1)
    f = cot(lambda x, w, b: conv.conv1d(x, w, b, stride=2, pad=1), gy)
    track(lambda v: f(v, w, b), x, gx)
    track(lambda v: f(x, v, b), w, gw)
    track(lambda v: f(x, w, v), b, gb)

    x = randn(s, (3, 6)); w = randn(s, (3, 2, 5)); b = randn(s, (2,))
    gy = randn(s, conv.conv_transpose1d(x, w, b, stride=3).shape)
    gx, gw, gb = conv.conv_transpose1d_vjp(x, w, b, gy, stride=3)
    f = cot(lambda x, w, b: conv.conv_transpose1d(x, w, b, stride=3), gy)
    track(lambda v: f(v, w, b), x, gx)
    track(lambda v: f(x, v, b), w, gw)
    track(lambda v: f(x, w, v), b, gb)

    x = randn(s, (1, 4, 5, 5)); w = randn(s, (2, 1, 3, 3, 3)); b = randn(s, (2,))
    kwargs = {"stride": (1, 2, 2), "pad": (1, 1, 1)}
    gy = randn(s, conv.conv3d(x, w, b, **kwargs).shape)
    gx, gw, gb = conv.conv3d_vjp(x, w, b, gy, **kwargs)
    f = cot(lambda x, w, b: conv.conv3d(x, w, b, **kwargs), gy)
    track(lambda v: f(v, w, b), x, gx)
    track(lambda v: f(x, v, b), w, gw)
    track(lambda v: f(x, w, v), b, gb)

    x = randn(s, (4, 7, 3)); w = randn(s, (5, 3)); b = randn(s, (5,))
    gy = randn(s, (4, 7, 5))
    gx, gw, gb = dense.linear_vjp(x, w, b, gy)
    f = cot(dense.linear, gy)
    track(lambda v: f(v, w, b), x, gx)
    track(lambda v: f(x, v, b), w, gw)
    track(lambda v: f(x, w, v), b, gb)

    x = randn(s, (6, 11)); gamma = randn(s, (6,)); beta = randn(s, (6,))
    gy = randn(s, (6, 11))
    gx, gg, gb = dense.group_norm_vjp(x, 3, gamma, beta, gy)
    f = cot(lambda x, g, b: dense.group_norm(x, 3, g, b), gy)
    track(lambda v: f(v, gamma, beta), x, gx)
    track(lambda v: f(x, v, beta), gamma, gg)
    track(lambda v: f(x, gamma, v), beta, gb)

    x = randn(s, (7, 3)); gy = randn(s, (12, 3))
    track(cot(lambda v: dense.resize_linear_time(v, 12), gy), x,
          dense.resize_linear_time_vjp(x, 12, gy))

    d, h, t = 3, 2, 5
    p = LstmParams(
        w_fw=0.4 * randn(s, (4 * h, d + h)),
        b_fw=0.4 * randn(s, (4 * h,)),
        w_bw=0.4 * randn(s, (4 * h, d + h)),
        b_bw=0.4 * randn(s, (4 * h,)),
    )
    x = randn(s, (1, t, d)); gy = randn(s, (1, t, 2 * h))
    _, cache = bilstm_forward_batched(x, p)
    gx, gwf, gbf, gwb, gbb = bilstm_backward_batched(cache, gy)

    def lstm_loss(x, wf, bf, wb, bb):
        y, _ = bilstm_forward_batched(x, LstmParams(wf, bf, wb, bb), keep_cache=False)
        return float((y * gy).sum())

    track(lambda v: lstm_loss(v, p.w_fw, p.b_fw, p.w_bw, p.b_bw), x, gx)
    track(lambda v: lstm_loss(x, v, p.b_fw, p.w_bw, p.b_bw), p.w_fw, gwf)
    track(lambda v: lstm_loss(x, p.w_fw, v, p.w_bw, p.b_bw), p.b_fw, gbf)
    track(lambda v: lstm_loss(x, p.w_fw, p.b_fw, v, p.b_bw), p.w_bw, gwb)
    track(lambda v: lstm_loss(x, p.w_fw, p.b_fw, p.w_bw, v), p.b_bw, gbb)

    end_to_end = grad_check(tiny_config(), seed=0)
    elapsed = time.perf_counter() - start
    ok = worst_per_op < PER_OP_TOL and end_to_end < END_TO_END_TOL and elapsed < 120.0
    _verdict(
        1, ok,
        f"per-op max {worst_per_op:.2e} (< 1e-4), end-to-end {end_to_end:.2e} (< 1e-3), "
        f"{elapsed:.0f} s (< 120 s)",
    )


def test_criterion_02_encoder_decoder_adjoint_identity():
    """<conv1d(x), y> == <x, conv_transpose1d(y)> to 1e-10 over 120 shapes."""
    stream = Stream(901)
    worst = 0.0
    for _ in range(120):
        c_in = 1 + int(stream.integers(1, 4)[0])
        c_out = 1 + int(stream.integers(1, 4)[0])
        k = 1 + int(stream.integers(1, 16)[0])
        st = 1 + int(stream.integers(1, min(k, 8))[0])
        t_out = 1 + int(stream.integers(1, 25)[0])
        t = (t_out - 1) * st + k
        x = randn(stream, (c_in, t))
        w = randn(stream, (c_out, c_in, k))
        y = randn(stream, (c_out, t_out))
        lhs = float((conv.conv1d(x, w, stride=st) * y).sum())
        rhs = float((x * conv.conv_transpose1d(y, w, stride=st)).sum())
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    _verdict(2, worst < 1e-10, f"worst relative error {worst:.2e} over 120 shapes (< 1e-10)")


def test_criterion_03_codec_shape_law():
    """K=16/S=8/N=256: encode(16000) -> 1999 frames, decode back to 16000;
    enhance preserves length for T in {16, 1000, 16000, 16007}."""
    config = default_config()
    params = init_parameters(config, 0, dtype=np.float32)
    wave = (0.1 * Stream(902).normal(16000)).astype(np.float32)
    encoded = encode_audio(wave, params, config)
    decoded = decode_audio(encoded, params, config)
    frames = Stream(903).normal(3 * 1 * 32 * 32).reshape(3, 1, 32, 32).astype(np.float32)
    lengths_ok = True
    for t in (16, 1000, 16000, 16007):
        w = (0.1 * Stream(904 + t).normal(t)).astype(np.float32)
        lengths_ok = lengths_ok and enhance(w, frames, params, config).shape == (t,)
    ok = encoded.shape == (256, 1999) and decoded.shape == (16000,) and lengths_ok
    _verdict(
        3, ok,
        f"encode(16000) -> {encoded.shape}, decode -> {decoded.shape}, "
        f"enhance length preserved for 16/1000/16000/16007: {lengths_ok}",
    )


def test_criterion_04_mask_bounded_and_zero_network_neutral():
    """Mask entries always in [0,1]; zeroing every separator tensor gives 0.5."""
    tiny = tiny_config()
    params = init_parameters(tiny, 5, dtype=np.float64)
    bounded = True
    for seed, t_a in ((0, 1), (1, 37), (2, 211)):
        fused = 5.0 * randn(Stream(910 + seed), (tiny.fusion_channels, t_a))
        mask = separator_forward(fused, params, tiny)
        bounded = bounded and bool(np.all(mask >= 0.0) and np.all(mask <= 1.0))
    zeroed = ModelParams(
        {
            name: np.zeros_like(v) if name.startswith(("sep.", "mask.")) else v
            for name, v in params.items()
        }
    )
    fused = randn(Stream(913), (tiny.fusion_channels, 57))
    neutral_mask = separator_forward(fused, zeroed, tiny)
    neutral = bool(np.all(neutral_mask == 0.5))
    _verdict(4, bounded and neutral, f"bounded on random inputs: {bounded}, "
             f"all-zero separator gives exactly 0.5: {neutral}")


def test_criterion_05_segmentation_overlap_add_round_trip():
    """Chunk 100 / hop 50 round trip below 1e-12 for every T_a in 1..300."""
    stream = Stream(920)
    worst = 0.0
    for t_a in range(1, 301):
        x = randn(stream, (3, t_a))
        back = overlap_add(segment_time(x, 50), t_a)
        worst = max(worst, float(np.abs(back - x).max()))
    _verdict(5, worst < 1e-12, f"worst reconstruction error {worst:.2e} over T_a 1..300 (< 1e-12)")


def test_criterion_06_metric_fidelity():
    """SI-SDR cap, scale invariance, hand-derived value; STOI identity and
    positive-scaling invariance."""
    ref = _speechlike(930)
    cap = si_sdr(ref, ref)
    scale_ok = all(si_sdr(ref, a * ref) == 60.0 for a in (-3.0, 0.1, 7.0))
    hand = si_sdr(np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0]))
    noise = Stream(931).normal(len(ref))
    est = ref + 0.3 * noise * np.sqrt((ref**2).mean() / (noise**2).mean())
    stoi_identity = stoi(ref, ref, 16000)
    stoi_gap = abs(stoi(ref, 3.7 * est, 16000) - stoi(ref, est, 16000))
    ok = (
        cap == 60.0
        and scale_ok
        and abs(hand - (-4.771)) <= 0.001
        and abs(stoi_identity - 1.0) <= 1e-9
        and stoi_gap <= 1e-12
    )
    _verdict(
        6, ok,
        f"cap {cap:.1f}, scaled-reference cap {scale_ok}, hand case {hand:.4f} dB "
        f"(-4.771 +/- 0.001), stoi(ref,ref) {stoi_identity:.12f}, "
        f"scaling gap {stoi_gap:.1e}",
    )


def test_criterion_07_mixer_snr_law():
    """Requested SNR achieved within 1e-6 dB; white-noise mixtures score
    si_sdr within 0.5 dB of the requested SNR."""
    target = _speechlike(940)
    interferer = _speechlike(941)
    worst_snr_err = 0.0
    for snr in (-7.5, 0.0, 3.25, 18.0):
        mix = mix_scene(target, interferer, snr, sample_rate_hz=16000)
        scaled = mix - target
        achieved = 10.0 * np.log10((target**2).sum() / (scaled**2).sum())
        worst_snr_err = max(worst_snr_err, abs(achieved - snr))
    n = 32000
    tau = np.arange(n) / 16000.0
    am_sine = (0.6 + 0.3 * np.sin(2 * np.pi * 3.0 * tau)) * np.sin(2 * np.pi * 440.0 * tau)
    white = Stream(942).normal(n)
    worst_sisdr_err = 0.0
    for s in (-5.0, 0.0, 10.0):
        got = si_sdr(am_sine, mix_scene(am_sine, white, s, sample_rate_hz=16000))
        worst_sisdr_err = max(worst_sisdr_err, abs(got - s))
    ok = worst_snr_err < 1e-6 and worst_sisdr_err <= 0.5
    _verdict(
        7, ok,
        f"worst SNR error {worst_snr_err:.1e} dB (< 1e-6), "
        f"worst white-noise si_sdr deviation {worst_sisdr_err:.2f} dB (<= 0.5)",
    )


def test_criterion_08_overfit_recipe(overfit):
    """4 scenes, tiny config, 200 epochs: >= +5 dB mean improvement, loss
    non-increasing in >= 90% of epochs after epoch 20, under 10 minutes."""
    noisy = float(np.mean([si_sdr(sc.target, mx) for sc, mx in zip(overfit.scenes, overfit.mixes)]))
    enhanced = _mean_sisdr(overfit, lambda sc: sc.frames)
    improvement = enhanced - noisy
    losses = [record["mean_loss"] for record in overfit.logs][20:]
    non_increasing = sum(1 for i in range(1, len(losses)) if losses[i] <= losses[i - 1])
    frac = non_increasing / (len(losses) - 1)
    ok = improvement >= 5.0 and frac >= 0.90 and overfit.wall < 600.0
    _verdict(
        8, ok,
        f"improvement {improvement:+.2f} dB (>= +5), non-increasing "
        f"{non_increasing}/{len(losses) - 1} = {frac:.1%} (>= 90%), "
        f"wall {overfit.wall:.0f} s (< 600 s)",
    )


def test_criterion_09_visual_contribution(overfit):
    """True frames score at least as well as seed-shuffled frames (3 seeds)."""
    true_score = _mean_sisdr(overfit, lambda sc: sc.frames)
    shuffled = []
    for seed in (1, 2, 3):
        shuffled.append(
            _mean_sisdr(
                overfit,
                lambda sc: sc.frames[Stream(seed).permutation(sc.frames.shape[0])],
            )
        )
    mean_shuffled = float(np.mean(shuffled))
    ok = true_score >= mean_shuffled
    _verdict(
        9, ok,
        f"true frames {true_score:+.2f} dB >= shuffled mean {mean_shuffled:+.2f} dB "
        f"(advantage {true_score - mean_shuffled:+.2f} dB)",
    )


def test_criterion_10_parameter_budget():
    """Default config total inside [4.5e6, 5.7e6] with an exact golden count."""
    total = count_parameters(default_config())
    ok = 4.5e6 <= total <= 5.7e6 and total == DEFAULT_PARAM_COUNT
    _verdict(10, ok, f"default total {total:,} (band [4.5e6, 5.7e6], golden {DEFAULT_PARAM_COUNT:,})")


def test_criterion_11_persistence_round_trips(tmp_path):
    """WAV quantization bound, lossless tensor files, byte-stable
    checkpoints, enhance bit-identical after reload."""
    rate = 16000
    tau = np.arange(8000) / rate
    half_scale = 0.5 * np.sin(2 * np.pi * 440.0 * tau)
    wav_path = tmp_path / "w.wav"
    save_wav(wav_path, half_scale, rate)
    loaded, _ = load_wav(wav_path)
    wav_err = float(np.abs(loaded - half_scale).max())

    tensor = Stream(950).normal(24).reshape(2, 3, 4).astype(np.float32)
    tensor_path = tmp_path / "t.avst"
    write_tensor(tensor_path, tensor)
    tensor_back = read_tensor(tensor_path)
    tensor_ok = tensor_back.dtype == tensor.dtype and np.array_equal(tensor_back, tensor)

    tiny = tiny_config()
    params = init_parameters(tiny, 3, dtype=np.float32)
    ck_a = tmp_path / "a.avck"
    ck_b = tmp_path / "b.avck"
    save_checkpoint(ck_a, Checkpoint(tiny, params))
    reloaded = load_checkpoint(ck_a)
    save_checkpoint(ck_b, reloaded)
    checkpoint_ok = ck_a.read_bytes() == ck_b.read_bytes()

    wave = (0.1 * Stream(951).normal(4000)).astype(np.float32)
    frames = Stream(952).normal(6 * 16 * 16).reshape(6, 1, 16, 16).astype(np.float32)
    before = enhance(wave, frames, params, tiny)
    after = enhance(wave, frames, reloaded.params, reloaded.config)
    enhance_ok = np.array_equal(before, after)

    ok = wav_err <= 1.0 / 32768 and tensor_ok and checkpoint_ok and enhance_ok
    _verdict(
        11, ok,
        f"wav error {wav_err:.2e} (<= 1/32768), tensor lossless {tensor_ok}, "
        f"checkpoint bytes stable {checkpoint_ok}, enhance identical after reload {enhance_ok}",
    )


def test_criterion_12_every_command_bit_reproducible(tmp_path):
    """Each subcommand, run twice with the same seeds, produces identical
    bytes on disk and identical stdout."""
    details = []
    ok = True

    def check(label, same):
        nonlocal ok
        ok = ok and same
        details.append(f"{label}:{'=' if same else '!'}")

    data = tmp_path / "data"
    mix_path = tmp_path / "mix.wav"
    model = tmp_path / "model.avck"
    enhanced = tmp_path / "enhanced.wav"
    report = tmp_path / "report.jsonl"
    cfg = tmp_path / "tiny.json"
    # `avse synth` writes frames at the default config's size.
    synth_frames_tiny = scaled_config(tiny_config(), frame_hw=default_config().frame_hw)
    cfg.write_text(synth_frames_tiny.to_json(), encoding="utf-8")

    # Bootstrap once just to learn the manifest file names, then wipe so
    # both measured runs start from the same state with identical argv.
    synth_argv = ["synth", "--out", str(data), "--scenes", "1", "--seed", "0",
                  "--duration", "0.5"]
    assert _run_cli(synth_argv)[0] == 0
    entry = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
    target = data / entry["target_path"]
    commands = {
        "synth": synth_argv,
        "mix": ["mix", "--target", str(target),
                "--interferer", str(data / entry["interferer_path"]),
                "--snr", str(entry["snr_db"]), "--out", str(mix_path)],
        "train": ["train", "--data", str(data), "--config", str(cfg), "--epochs", "2",
                  "--seed", "0", "--out", str(model)],
        "enhance": ["enhance", "--model", str(model), "--audio", str(mix_path),
                    "--frames", str(data / entry["frames_path"]), "--out", str(enhanced)],
        "evaluate": ["evaluate", "--clean", str(target), "--enhanced", str(enhanced),
                     "--report", str(report)],
        "info": ["info", "--config", str(cfg)],
        "gradcheck": ["gradcheck", "--seed", "0"],
    }
    shutil.rmtree(data)

    runs = []
    for _ in range(2):
        state = {}
        for name, argv in commands.items():
            code, out = _run_cli(argv)
            assert code == 0, f"{name} exited {code} on repeat run"
            state[f"{name}_out"] = out
        state["synth_files"] = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
        for label, path in (("mix", mix_path), ("model", model), ("enhanced", enhanced),
                            ("report", report)):
            state[label] = path.read_bytes()
        runs.append(state)
        shutil.rmtree(data)
        for path in (mix_path, model, enhanced, report):
            path.unlink()
    first, second = runs
    check("synth", first["synth_files"] == second["synth_files"]
          and first["synth_out"] == second["synth_out"])
    check("mix", first["mix"] == second["mix"] and first["mix_out"] == second["mix_out"])
    check("train", first["model"] == second["model"] and first["train_out"] == second["train_out"])
    check("enhance", first["enhanced"] == second["enhanced"]
          and first["enhance_out"] == second["enhance_out"])
    check("evaluate", first["report"] == second["report"]
          and first["evaluate_out"] == second["evaluate_out"])
    check("info", first["info_out"] == second["info_out"])
    check("gradcheck", first["gradcheck_out"] == second["gradcheck_out"])
    _verdict(12, ok, "two runs identical for " + " ".join(details))
