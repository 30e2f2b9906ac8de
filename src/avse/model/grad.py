"""Reverse-mode gradients through the whole enhancement pipeline.

``enhance_fwd`` mirrors ``model.network.enhance`` but keeps every
intermediate; ``enhance_bwd`` walks them in reverse and writes each
named parameter's cotangent once, as the stage that uses the parameter
returns it.  The topology is fixed, so the backward pass is written out
stage by stage instead of through a general tape.
"""

from __future__ import annotations

import numpy as np

from avse.errors import ShapeError
from avse.model.config import ModelConfig
from avse.model.params import ModelParams
from avse.model.network import (
    FRONT_STRIDE,
    apply_mask,
    encode_audio_fwd,
    fuse_fwd,
    pad_to_hop,
    segment_time,
    separator_forward_fwd,
    visual_forward_fwd,
)
from avse.ops.conv import conv1d_vjp, conv3d_vjp, conv_transpose1d, conv_transpose1d_vjp
from avse.ops.dense import fold_halves, group_norm_vjp, linear_vjp, resize_linear_time_vjp
from avse.ops.rnn import bilstm_backward_batched


def enhance_fwd(wave, frames, params: ModelParams, config: ModelConfig, work=None):
    """Forward pass retaining intermediates; returns (waveform [T], cache).

    With a workspace dict (see ``ops/rnn.py``) the separator writes its
    BiLSTM records, outputs and projections into that dict's arrays."""
    padded = pad_to_hop(wave, config)
    t = wave.shape[0]
    a, enc_cache = encode_audio_fwd(padded, params, config)
    v, vis_cache = visual_forward_fwd(frames, params, config)
    f, fuse_cache = fuse_fwd(a, v, params, config)
    m, sep_cache = separator_forward_fwd(f, params, config, work=work)
    am = apply_mask(a, m)
    dec_out = conv_transpose1d(am, params["dec.w"], stride=config.enc_stride)
    cache = {
        "t": t,
        "a": a,
        "m": m,
        "am": am,
        "enc": enc_cache,
        "vis": vis_cache,
        "fuse": fuse_cache,
        "sep": sep_cache,
    }
    return dec_out[0][:t], cache


def _conv_norm_bwd(unit, params, config, g, grads):
    """Adjoint of network._conv_norm_fwd, read from its cache entry."""
    x, pre, conv, norm, stride, pad = unit
    gamma, beta = params[f"{norm}.gamma"], params[f"{norm}.beta"]
    g_pre, ggamma, gbeta = group_norm_vjp(
        pre, config.vfn_norm_groups, gamma, beta, g, keep_axes=(1,)
    )
    grads[f"{norm}.gamma"] = ggamma
    grads[f"{norm}.beta"] = gbeta
    g_x, gw, _ = conv3d_vjp(x, params[f"{conv}.w"], None, g_pre, stride=stride, pad=pad)
    grads[f"{conv}.w"] = gw
    return g_x


def _trunk_block_bwd(cache, params, config, g_out, grads):
    g_total = g_out * (cache["total"] > 0)
    g_h1 = _conv_norm_bwd(cache["conv2"], params, config, g_total, grads)
    g_n1 = g_h1 * (cache["n1"] > 0)
    g_x = _conv_norm_bwd(cache["conv1"], params, config, g_n1, grads)
    if cache["shortcut"] is None:
        return g_x + g_total
    return g_x + _conv_norm_bwd(cache["shortcut"], params, config, g_total, grads)


def _visual_bwd(cache, params, config, g_v, grads):
    feats = cache["feats"]
    g_feats, gw, gb = linear_vjp(feats, params["vfn.proj.w"], params["vfn.proj.b"], g_v)
    grads["vfn.proj.w"] = gw
    grads["vfn.proj.b"] = gb
    c, f, h, w = cache["trunk_out_shape"]
    g_h = np.broadcast_to(g_feats.T[:, :, None, None] / (h * w), (c, f, h, w)).copy()
    for block in reversed(cache["blocks"]):
        g_h = _trunk_block_bwd(block, params, config, g_h, grads)
    g_pre = g_h * (cache["pre_front"] > 0)
    _, gw, gb = conv3d_vjp(
        cache["frames_x"],
        params["vfn.front.w"],
        params["vfn.front.b"],
        g_pre,
        stride=FRONT_STRIDE,
        pad=cache["front_pad"],
    )
    grads["vfn.front.w"] = gw
    grads["vfn.front.b"] = gb


def _sep_path_bwd(cache, params, g_out, grads, work):
    base = cache["base"]
    g_norm_in, ggamma, gbeta = group_norm_vjp(
        np.moveaxis(cache["proj"], -1, 0),
        1,
        params[f"{base}.gn.gamma"],
        params[f"{base}.gn.beta"],
        np.moveaxis(g_out, -1, 0),
    )
    grads[f"{base}.gn.gamma"] = ggamma
    grads[f"{base}.gn.beta"] = gbeta
    g_proj = np.moveaxis(g_norm_in, 0, -1)
    lstm_cache = cache["lstm_cache"]
    g_y, gw, gb = linear_vjp(
        lstm_cache["y"], params[f"{base}.proj.w"], params[f"{base}.proj.b"], g_proj
    )
    grads[f"{base}.proj.w"] = gw
    grads[f"{base}.proj.b"] = gb
    g_x, gw_fw, gb_fw, gw_bw, gb_bw = bilstm_backward_batched(lstm_cache, g_y, work)
    grads[f"{base}.lstm.w_fw"] = gw_fw
    grads[f"{base}.lstm.b_fw"] = gb_fw
    grads[f"{base}.lstm.w_bw"] = gw_bw
    grads[f"{base}.lstm.b_bw"] = gb_bw
    # The residual path bypasses the whole unit.
    return g_x + g_out


def _separator_bwd(cache, params, config, g_mask, grads, work):
    mask = cache["mask"]
    g_pre = g_mask * mask * (1.0 - mask)
    g_mask_in, gw, gb = conv1d_vjp(cache["mask_in"], params["mask.w"], params["mask.b"], g_pre)
    grads["mask.w"] = gw
    grads["mask.b"] = gb
    # Adjoint of overlap_add: halve the twice-covered positions, then segment.
    hop = config.chunk_hop
    g_mask_in[:, hop : cache["n_chunks"] * hop] /= 2
    g_chunks = segment_time(g_mask_in, hop)
    for unit in reversed(cache["units"]):
        g_swapped = _sep_path_bwd(
            unit["inter"], params, g_chunks.transpose(1, 0, 2), grads, work
        )
        g_chunks = _sep_path_bwd(
            unit["intra"], params, g_swapped.transpose(1, 0, 2), grads, work
        )
    # Adjoint of segment_time: sum the overlapping halves, drop the padding.
    return fold_halves(g_chunks)[:, : cache["t_a"]]


def _fuse_bwd(cache, params, config, g_f, grads):
    g_pre = g_f * (cache["pre"] > 0)
    g_cat, gw, gb = conv1d_vjp(cache["cat"], params["fusion.w"], params["fusion.b"], g_pre)
    grads["fusion.w"] = gw
    grads["fusion.b"] = gb
    n = config.enc_channels
    g_a = g_cat[:n]
    g_v = resize_linear_time_vjp(cache["v"], cache["t_a"], np.ascontiguousarray(g_cat[n:].T))
    return g_a, g_v


def enhance_bwd(
    cache, params: ModelParams, config: ModelConfig, g_out, work=None
) -> ModelParams:
    """Parameter cotangents of <g_out, enhance(wave, frames)>; the BiLSTM
    backward takes its block buffers from ``work`` when one is given."""
    if g_out.shape != (cache["t"],):
        raise ShapeError(f"cotangent shape {g_out.shape} does not match output {(cache['t'],)}")
    grads = {}
    am = cache["am"]
    t_pad_frames = am.shape[1]
    t_pad = (t_pad_frames - 1) * config.enc_stride + config.enc_kernel
    g_dec = np.zeros((1, t_pad), dtype=am.dtype)
    g_dec[0, : cache["t"]] = g_out
    g_am, gw, _ = conv_transpose1d_vjp(
        am, params["dec.w"], None, g_dec, stride=config.enc_stride
    )
    grads["dec.w"] = gw
    g_a = g_am * cache["m"]
    g_mask = g_am * cache["a"]
    g_f = _separator_bwd(cache["sep"], params, config, g_mask, grads, work)
    g_a2, g_v = _fuse_bwd(cache["fuse"], params, config, g_f, grads)
    g_a = g_a + g_a2
    _visual_bwd(cache["vis"], params, config, g_v, grads)
    g_enc_pre = g_a * (cache["enc"]["pre"] > 0)
    _, gw, gb = conv1d_vjp(
        cache["enc"]["wave"][None],
        params["enc.w"],
        params["enc.b"],
        g_enc_pre,
        stride=config.enc_stride,
    )
    grads["enc.w"] = gw
    grads["enc.b"] = gb
    return grads
