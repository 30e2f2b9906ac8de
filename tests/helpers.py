"""Shared test utilities: finite differences, relative error, the per-step
BiLSTM reference and the pinned golden case."""

import numpy as np

from avse.data.mixer import mix_scene
from avse.data.synth import synth_scene
from avse.model.config import tiny_config
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.params import init_parameters
from avse.prng import Stream
from avse.training.loss import si_sdr_loss_vjp

FD_STEP = 1e-5


def rel_err(numeric, analytic) -> float:
    """Worst symmetric relative error between two gradient arrays."""
    numeric = np.asarray(numeric, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    denom = np.abs(numeric) + np.abs(analytic)
    mask = denom > 1e-10
    if not mask.any():
        return 0.0
    return float((np.abs(numeric - analytic)[mask] / denom[mask]).max())


def fd_grad(f, x, step=FD_STEP) -> np.ndarray:
    """Central finite differences of scalar f at every entry of x (64-bit)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        mi = it.multi_index
        orig = x[mi]
        x[mi] = orig + step
        fp = f(x)
        x[mi] = orig - step
        fm = f(x)
        x[mi] = orig
        g[mi] = (fp - fm) / (2 * step)
    return g


def randn(stream: Stream, shape) -> np.ndarray:
    """Deterministic standard-normal tensor from a seeded stream."""
    n = int(np.prod(shape))
    return stream.normal(n).reshape(shape)


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_reference(x, w_fw, b_fw, w_bw, b_bw) -> np.ndarray:
    """Bidirectional LSTM over [T, D] in float64, one direction and one
    step at a time, straight from the gate equations; returns [T, 2H].

    Each direction's weight is [4H, D + H] (input columns, then state
    columns; gate rows i, f, g, o); states start at zero and the second
    direction walks time backwards.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[0]
    halves = []
    for w, b, order in ((w_fw, b_fw, range(t)), (w_bw, b_bw, range(t - 1, -1, -1))):
        hs = w.shape[0] // 4
        h = np.zeros(hs)
        c = np.zeros(hs)
        out = np.zeros((t, hs))
        for step in order:
            z = w @ np.concatenate([x[step], h]) + b
            i, f, o = _sigmoid(z[:hs]), _sigmoid(z[hs : 2 * hs]), _sigmoid(z[3 * hs :])
            g = np.tanh(z[2 * hs : 3 * hs])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[step] = h
        halves.append(out)
    return np.concatenate(halves, axis=1)


def stoi_reference(ref, est) -> float:
    """STOI of two 10 kHz float64 signals, one frame, one overlap-add and
    one 30-frame segment at a time, straight from the definition in
    ``avse.metrics.stoi``'s docstring."""
    from avse.metrics.stoi import third_octave_bands

    eps = np.finfo(np.float64).eps
    window = np.hanning(258)[1:-1]

    def frames(x):
        return [window * x[s : s + 256] for s in range(0, len(x) - 255, 128)]

    ref_frames, est_frames = frames(ref), frames(est)
    db = [20 * np.log10(np.linalg.norm(f) + eps) for f in ref_frames]
    kept = [k for k in range(len(db)) if db[k] > max(db) - 40]
    envelopes = []
    for framed in (ref_frames, est_frames):
        out = np.zeros(128 * len(kept) + 128)
        for i, k in enumerate(kept):
            out[128 * i : 128 * i + 256] += framed[k]
        power = [np.abs(np.fft.rfft(f, 512)) ** 2 for f in frames(out)]
        bands = third_octave_bands()
        envelopes.append(np.array([[p[b.lo_bin : b.hi_bin].sum() for p in power] for b in bands]))
    x, y = np.sqrt(envelopes[0]), np.sqrt(envelopes[1])
    scores = []
    for end in range(30, x.shape[1] + 1):
        for band in range(len(x)):
            xs, ys = x[band, end - 30 : end], y[band, end - 30 : end]
            ys = np.minimum(ys * np.sqrt((xs @ xs) / (ys @ ys + eps)), (1 + 10**0.75) * xs)
            xs, ys = xs - xs.mean(), ys - ys.mean()
            scores.append(xs @ ys / ((np.linalg.norm(xs) + eps) * (np.linalg.norm(ys) + eps)))
    return float(np.mean(scores))


GOLDEN_SCENE, GOLDEN_SEED, GOLDEN_SECONDS = 7, 3, 0.5


def golden_inputs():
    """The tiny config in float64 on one fixed scene and parameter seed:
    returns (config, scene, mixture, parameters)."""
    config = tiny_config()
    scene = synth_scene(GOLDEN_SCENE, GOLDEN_SECONDS, config)
    mixture = mix_scene(scene.target, scene.interferer, scene.snr_db, seed=GOLDEN_SCENE)
    return config, scene, mixture, init_parameters(config, GOLDEN_SEED, dtype=np.float64)


def golden_case():
    """The golden inputs' enhanced waveform, negative SI-SDR loss and
    parameter cotangents."""
    config, scene, mixture, params = golden_inputs()
    out, cache = enhance_fwd(mixture, scene.frames, params, config)
    loss, g_out = si_sdr_loss_vjp(scene.target, out)
    return out, loss, enhance_bwd(cache, params, config, g_out)
