"""Shared test utilities: config variants, finite differences, relative
error, the per-step BiLSTM reference, out-of-place references for the
dense ops, the pinned golden case, the arrays of a training workspace
and the file-reader probes."""

import os
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np

from avse.data.mixer import mix_scene
from avse.data.synth import synth_scene
from avse.model.config import ModelConfig, tiny_config
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.params import init_parameters
from avse.prng import Stream
from avse.training.loss import si_sdr_loss_vjp

FD_STEP = 1e-5


def scaled_config(base: ModelConfig, **overrides) -> ModelConfig:
    """A copy of ``base`` with the given fields replaced (revalidated).

    Derived values (``chunk_hop``, ``fusion_channels``) are not fields and
    are refused like any other unknown name.
    """
    return ModelConfig.from_dict({**asdict(base), **overrides})


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


# Out-of-place formulas of linear, group_norm and their VJPs, one
# expression per result.  The ops build their results in place in the
# same rounded operations, so they must match these bit for bit, dtype
# promotion included.


def linear_reference(x, w, b=None):
    y = x @ w.T
    return y if b is None else y + b


def linear_vjp_reference(x, w, b, gy):
    gy_flat = gy.reshape(-1, w.shape[0])
    gb = gy_flat.sum(axis=0) if b is not None else None
    return gy @ w, gy_flat.T @ x.reshape(-1, w.shape[1]), gb


def _group_norm_stats_reference(x, groups, eps, keep_axes):
    """(xhat, inv_std, pooled axes) in the [groups, C // groups, ...] layout."""
    xg = x.reshape((groups, x.shape[0] // groups) + x.shape[1:])
    axes = (1,) + tuple(a + 1 for a in range(1, x.ndim) if a not in keep_axes)
    mu = xg.mean(axis=axes, keepdims=True)
    d = xg - mu
    var = (d * d).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return d * inv, inv, axes


def group_norm_reference(x, groups, gamma, beta, eps=1e-5, *, keep_axes=()):
    xhat, _, _ = _group_norm_stats_reference(x, groups, eps, keep_axes)
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    return gamma.reshape(per_channel) * xhat.reshape(x.shape) + beta.reshape(per_channel)


def group_norm_vjp_reference(x, groups, gamma, beta, gy, eps=1e-5, *, keep_axes=()):
    xh, inv, axes = _group_norm_stats_reference(x, groups, eps, keep_axes)
    positions = tuple(range(1, x.ndim))
    ggamma = (gy * xh.reshape(x.shape)).sum(axis=positions)
    gbeta = gy.sum(axis=positions)
    gxh = (gy * gamma.reshape((-1,) + (1,) * (x.ndim - 1))).reshape(xh.shape)
    mean_g = gxh.mean(axis=axes, keepdims=True)
    mean_gx = (gxh * xh).mean(axis=axes, keepdims=True)
    gx = (inv * (gxh - mean_g - xh * mean_gx)).reshape(x.shape)
    return gx, ggamma, gbeta


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
    mixture = mix_scene(
        scene.target, scene.interferer, scene.snr_db, seed=GOLDEN_SCENE,
        sample_rate_hz=scene.sample_rate_hz,
    )
    return config, scene, mixture, init_parameters(config, GOLDEN_SEED, dtype=np.float64)


def golden_case():
    """The golden inputs' enhanced waveform, negative SI-SDR loss and
    parameter cotangents."""
    config, scene, mixture, params = golden_inputs()
    out, cache = enhance_fwd(mixture, scene.frames, params, config)
    loss, g_out = si_sdr_loss_vjp(scene.target, out)
    return out, loss, enhance_bwd(cache, params, config, g_out)


def workspace_arrays(work: dict) -> list[np.ndarray]:
    """Every array of a training workspace, the per-path entries' too."""
    arrays = []
    for value in work.values():
        arrays.extend(workspace_arrays(value) if isinstance(value, dict) else [value])
    return arrays


def traced_peak(fn, *args):
    """Run fn(*args) under tracemalloc; returns (its result, or the
    exception it raised, and the peak of traced memory in bytes)."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except Exception as exc:  # returned for the caller to check
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_from_pipe(loader, data: bytes):
    """loader("/dev/fd/N") where N is the read end of a pipe that one
    writer thread fills with ``data``; the reader cannot seek."""
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return loader(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)  # a reader that stopped early leaves the writer blocked
        writer.join()
