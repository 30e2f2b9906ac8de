"""Forward pass of the enhancement network.

Pipeline: strided 1-D encoder over the waveform; 3-D frontend plus
frame-wise residual trunk over the mouth frames; linear-in-time
alignment of the visual embeddings to the audio frame rate; 1x1 fusion
bottleneck; dual-path separator whose units run a BiLSTM within each
time chunk (local) and another across chunks (global); sigmoid mask
head; mask applied to the encoded audio; transposed-convolution decoder.

Each stage comes in a cached flavor, ``*_fwd``, returning the
intermediates the backward pass needs; the public functions discard the
cache.  Gradients live in ``avse.model.grad``.

Each fact about an input is checked once: what a command reads by the
file readers and ``ModelConfig.check_frames``, the rest by the ops (rank,
channels, feature width, an extent under the kernel).  A stage checks
only what no op would catch: ``pad_to_hop`` a wave that is not 1-D,
whose length it reads first, and one its padding would lift to the
kernel's length, ``visual_forward`` a second channel that
``frames[:, 0]`` would drop, ``fuse`` each width where its convolution
sees only their sum, and ``segment_time``, ``overlap_add`` and
``apply_mask`` shapes that NumPy would broadcast or truncate.
"""

from __future__ import annotations

import numpy as np

from avse.errors import InputTooShortError, ShapeError
from avse.model.config import ModelConfig
from avse.model.params import ModelParams
from avse.ops.conv import conv1d, conv3d, conv_transpose1d
from avse.ops.dense import _update, fold_halves, group_norm, linear, resize_linear_time
from avse.ops.rnn import LstmParams, bilstm_forward_batched, work_array


def encode_audio(wave: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Waveform [T] -> non-negative feature map [N, T_a]."""
    a, _ = encode_audio_fwd(wave, params, config)
    return a


def encode_audio_fwd(wave, params, config):
    pre = conv1d(wave[None], params["enc.w"], params["enc.b"], stride=config.enc_stride)
    return np.maximum(pre, 0), {"wave": wave, "pre": pre}


# The frontend keeps the frame count and halves H and W; its padding is
# half its (odd) kernel on every axis.
FRONT_STRIDE = (1, 2, 2)


def _conv_norm_fwd(x, params, conv, norm, stride, pad, config):
    """Bias-free 3-D convolution, then a group norm that keeps the frame
    axis of [C, F, H, W].  The cache entry carries the unit's geometry."""
    pre = conv3d(x, params[f"{conv}.w"], None, stride=stride, pad=pad)
    gamma, beta = params[f"{norm}.gamma"], params[f"{norm}.beta"]
    out = group_norm(pre, config.vfn_norm_groups, gamma, beta, keep_axes=(1,))
    return out, (x, pre, conv, norm, stride, pad)


def _trunk_block_fwd(x, params, base, s, config):
    """One residual block; downsampling blocks (s != 1) carry a
    projection shortcut."""
    n1, unit1 = _conv_norm_fwd(
        x, params, f"{base}.conv1", f"{base}.gn1", (1, s, s), (0, 1, 1), config
    )
    h1 = np.maximum(n1, 0)
    n2, unit2 = _conv_norm_fwd(
        h1, params, f"{base}.conv2", f"{base}.gn2", (1, 1, 1), (0, 1, 1), config
    )
    sc, shortcut = x, None
    if s != 1:
        sc, shortcut = _conv_norm_fwd(
            x, params, f"{base}.proj", f"{base}.proj_gn", (1, s, s), 0, config
        )
    total = n2 + sc
    out = np.maximum(total, 0)
    return out, {"conv1": unit1, "n1": n1, "conv2": unit2, "shortcut": shortcut, "total": total}


def visual_forward(frames: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Mouth frames [F, 1, H, W] -> one embedding row per frame [F, D_v]."""
    v, _ = visual_forward_fwd(frames, params, config)
    return v


def visual_forward_fwd(frames, params, config):
    if frames.ndim != 4 or frames.shape[1] != 1:
        raise ShapeError(f"frames must be [F, 1, H, W], got shape {frames.shape}")
    x = frames[:, 0][None]  # [1, F, H, W]
    pad = tuple(k // 2 for k in config.vfn_front_kernel)
    pre_front = conv3d(
        x, params["vfn.front.w"], params["vfn.front.b"], stride=FRONT_STRIDE, pad=pad
    )
    h = np.maximum(pre_front, 0)
    blocks = []
    for i in range(len(config.vfn_trunk_channels)):
        for j in range(config.vfn_blocks_per_stage):
            stride = 2 if j == 0 else 1
            h, cache = _trunk_block_fwd(h, params, f"vfn.trunk.s{i}.b{j}", stride, config)
            blocks.append(cache)
    pooled = h.mean(axis=(2, 3))  # [C, F]
    feats = pooled.T  # [F, C]
    v = linear(feats, params["vfn.proj.w"], params["vfn.proj.b"])
    cache = {
        "frames_x": x,
        "pre_front": pre_front,
        "front_pad": pad,
        "blocks": blocks,
        "trunk_out_shape": h.shape,
        "feats": feats,
    }
    return v, cache


def fuse(a: np.ndarray, v: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Align embeddings to [D_v, T_a], concatenate under the audio channels,
    and mix through the 1x1 bottleneck with ReLU."""
    f, _ = fuse_fwd(a, v, params, config)
    return f


def fuse_fwd(a, v, params, config):
    if a.ndim != 2 or a.shape[0] != config.enc_channels:
        raise ShapeError(f"audio features must be [{config.enc_channels}, T_a], got {a.shape}")
    if a.shape[1] < 1:
        raise ShapeError("audio feature map has no frames")
    if v.ndim != 2 or v.shape[1] != config.visual_embed:
        raise ShapeError(f"embeddings must be [F, {config.visual_embed}], got {v.shape}")
    t_a = a.shape[1]
    vr = resize_linear_time(v, t_a)  # [T_a, D_v]
    cat = np.concatenate([a, vr.T], axis=0)  # audio first, visual after
    pre = conv1d(cat, params["fusion.w"], params["fusion.b"])
    return np.maximum(pre, 0), {"v": v, "t_a": t_a, "cat": cat, "pre": pre}


def segment_time(x: np.ndarray, hop: int) -> np.ndarray:
    """Slice [C, T] into chunks [Q, 2 * hop, C] that overlap by exactly half
    a chunk, zero-padding the tail."""
    if x.ndim != 2:
        raise ShapeError(f"expected [C, T], got shape {x.shape}")
    c, t = x.shape
    if t < 1:
        raise ShapeError("cannot segment an empty time axis")
    q = max(1, -(-t // hop) - 1)  # fewest chunks whose Q + 1 halves cover T
    halves = np.zeros(((q + 1) * hop, c), dtype=x.dtype)
    halves[:t] = x.T
    halves = halves.reshape(q + 1, hop, c)
    return np.concatenate([halves[:-1], halves[1:]], axis=1)


def overlap_add(chunks: np.ndarray, t_out: int) -> np.ndarray:
    """Invert segment_time by averaging overlapped positions; exact when all
    chunks agree (each position is covered once or twice, and 2x/2 == x)."""
    if chunks.ndim != 3:
        raise ShapeError(f"expected [Q, chunk, C], got shape {chunks.shape}")
    q, chunk, _ = chunks.shape
    if chunk % 2:
        raise ShapeError(f"chunk length {chunk} is odd, so it has no half-chunk hop")
    hop = chunk // 2
    t_pad = (q + 1) * hop
    if t_out > t_pad:
        raise ShapeError(f"target length {t_out} exceeds padded extent {t_pad}")
    acc = fold_halves(chunks)
    acc[:, hop : q * hop] /= 2
    return acc[:, :t_out]


def _unit_lstm(params: ModelParams, base: str) -> LstmParams:
    return LstmParams(
        w_fw=params[f"{base}.lstm.w_fw"],
        b_fw=params[f"{base}.lstm.b_fw"],
        w_bw=params[f"{base}.lstm.w_bw"],
        b_bw=params[f"{base}.lstm.b_bw"],
    )


def _sep_path_fwd(x, params, base, keep_cache=True, work=None):
    """One dual-path half: BiLSTM over axis 1 of [B, T, C], projection,
    chunk-wide norm, residual.  Caller transposes to pick the axis; any
    strided view will do.

    With a cache and a workspace (see ``ops/rnn.py``) the LSTM output,
    its records and the projection are written into the arrays of
    ``work[base]``.  Without a cache every path of a call shares
    ``work``'s LSTM output buffer ``y``, and writes its projection into
    ``proj.intra`` or ``proj.inter``, so no path writes the buffer that
    holds its input.  The norm then centres, scales and shifts the
    projection in place, and squares the centred values into ``y``,
    whose values the projection has consumed; the residual is added in
    place.  Three [B, T, C] arrays are alive at once: the input, ``y``
    and the projection."""
    lstm = _unit_lstm(params, base)
    if keep_cache:
        path = None if work is None else work.setdefault(base, {})
        proj_key = "proj"
    else:
        path, proj_key = work, "proj." + base.rsplit(".", 1)[-1]  # intra or inter
    y, lstm_cache = bilstm_forward_batched(x, lstm, keep_cache, path)
    w = params[f"{base}.proj.w"]
    proj_shape = y.shape[:-1] + (w.shape[0],)
    proj_out = work_array(path, proj_key, proj_shape, np.result_type(y, w))
    proj = linear(y, w, params[f"{base}.proj.b"], out=proj_out)
    cache = {"lstm_cache": lstm_cache, "proj": proj, "base": base} if keep_cache else None
    # Layer norm: one mean and variance over all of [C, Q, P] (one group),
    # gain and bias per channel.  The backward reads the cached projection,
    # so only the forward without a cache normalizes in place.
    gamma, beta = params[f"{base}.gn.gamma"], params[f"{base}.gn.beta"]
    norm_in = np.moveaxis(proj, -1, 0)
    if keep_cache:
        normed = group_norm(norm_in, 1, gamma, beta)
    else:
        square = work_array(path, "y", proj.shape, proj.dtype)
        normed = group_norm(norm_in, 1, gamma, beta, out=norm_in,
                            scratch=np.moveaxis(square, -1, 0))
    return _update(np.add, np.moveaxis(normed, 0, -1), x), cache


def separator_forward(fused: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Fused features [C, T_a] -> mask [N, T_a] with entries in [0, 1]."""
    m, _ = separator_forward_fwd(fused, params, config, keep_cache=False)
    return m


def separator_forward_fwd(fused, params, config, keep_cache=True, work=None):
    """The separator, with its cache if ``keep_cache``.  ``work`` is a
    training workspace for the cached paths; without a cache the call
    runs its paths in a workspace of its own (see ``_sep_path_fwd``),
    dropped before the overlap-add."""
    chunks = segment_time(fused, config.chunk_hop)  # [Q, P, C]; checks the rank
    t_a = fused.shape[1]
    if not keep_cache:
        work = {}
    units = []
    # Rebinding chunks drops each path's input as soon as the next path
    # has its own (unless a cache keeps it).
    for u in range(config.sep_units):
        chunks, intra_cache = _sep_path_fwd(
            chunks, params, f"sep.u{u}.intra", keep_cache, work
        )
        chunks = chunks.transpose(1, 0, 2)  # [P, Q, C], a view
        chunks, inter_cache = _sep_path_fwd(
            chunks, params, f"sep.u{u}.inter", keep_cache, work
        )
        chunks = chunks.transpose(1, 0, 2)
        units.append({"intra": intra_cache, "inter": inter_cache})
    # The last projection buffer stays alive as chunks' base; the other
    # buffers go now (a training workspace lives on in its caller).
    del work
    mask_in = overlap_add(chunks, t_a)
    mask = _logistic_in_place(conv1d(mask_in, params["mask.w"], params["mask.b"]))
    if not keep_cache:
        return mask, None
    cache = {
        "t_a": t_a,
        "units": units,
        "n_chunks": chunks.shape[0],
        "mask_in": mask_in,
        "mask": mask,
    }
    return mask, cache


def _logistic_in_place(z: np.ndarray) -> np.ndarray:
    """Overwrite ``z`` with 1 / (1 + exp(-z)) in its own dtype and return
    it, with one bool array beside it and no other full-size array.

    Clipped to +-cut, exp stays finite and every intermediate and result
    stays a normal number, so no step raises a floating-point flag; below
    -cut the result is exact 0, and above cut the formula gives exact 1.
    Not the LSTM gates' 1/2 + 1/2 tanh(z/2): that loses relative accuracy
    towards 0."""
    cut = float(np.floor(-np.log(np.finfo(z.dtype).tiny)))  # 87 or 708
    below = z < -cut
    np.clip(z, -cut, cut, out=z)
    np.negative(z, out=z)
    # NumPy's float32 exp flags underflow on a subnormal input, whose exp
    # is exactly 1; after the clip no other input can underflow.
    with np.errstate(under="ignore"):
        np.exp(z, out=z)
    z += 1
    np.reciprocal(z, out=z)
    z[below] = 0
    return z


def apply_mask(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise gain on the encoded audio."""
    if a.shape != m.shape:
        raise ShapeError(f"feature map {a.shape} and mask {m.shape} differ in shape")
    return a * m


def decode_audio(masked: np.ndarray, params: ModelParams, config: ModelConfig) -> np.ndarray:
    """Masked features [N, T_a] -> waveform [(T_a - 1) * S + K]."""
    out = conv_transpose1d(masked, params["dec.w"], stride=config.enc_stride)
    return out[0]


def pad_to_hop(wave: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Right-pad with zeros so the decoder output covers the whole input."""
    if wave.ndim != 1:
        raise ShapeError(f"waveform must be 1-D [T], got shape {wave.shape}")
    t = wave.shape[0]
    if t < config.enc_kernel:
        raise InputTooShortError(
            f"waveform length {t} is shorter than the encoder kernel {config.enc_kernel}"
        )
    rem = (t - config.enc_kernel) % config.enc_stride
    pad = (config.enc_stride - rem) % config.enc_stride
    return np.pad(wave, (0, pad)) if pad else wave


def enhance(
    wave: np.ndarray,
    frames: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
) -> np.ndarray:
    """Full pipeline; output has exactly the input's length."""
    padded = pad_to_hop(wave, config)
    t = wave.shape[0]
    a = encode_audio(padded, params, config)
    v = visual_forward(frames, params, config)
    f = fuse(a, v, params, config)
    m = separator_forward(f, params, config)
    y = decode_audio(apply_mask(a, m), params, config)
    return y[:t]
