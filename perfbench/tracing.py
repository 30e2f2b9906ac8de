"""Spans for the traced run, recorded from the benchmark's own files.

The package binds its layers with ``from ... import``, so each public
function is wrapped at the name the *calling* module bound, and the
original is put back afterwards.  Nothing inside the recurrence is
wrapped: ``_dir_forward`` calls ``activation`` once per time step.

A span is ``[name, start, end, parent, request, counts]``; spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the part its direct children cover.  Counts (recurrent
steps, batch rows, FLOPs, megabytes) come from argument and result
shapes, taken after the span's end stamp.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rnn_forward_counts(args, kwargs, out):
    x, params = args[0], args[1]
    nb, t, d = x.shape
    h = params.w_fw.shape[0] // 4
    flop = 2 * 2 * nb * t * 4 * h * (d + h)  # both directions
    return {"steps": 2 * t, "row_steps": 2 * t * nb, "gflop": flop / 1e9}


def _rnn_backward_counts(args, kwargs, out):
    gx = out[0]
    nb, t, d = gx.shape
    h = args[0]["hidden_size"]
    # dh, gx and the two weight cotangents: twice the forward's products
    flop = 2 * 2 * 2 * nb * t * 4 * h * (d + h)
    return {"steps": 2 * t, "gflop": flop / 1e9}


def _conv_forward_counts(args, kwargs, out):
    w = args[1]
    return {"gflop": 2 * int(np.prod(w.shape[1:])) * out.size / 1e9}


def _conv_vjp_counts(args, kwargs, out):
    # conv1d_vjp / conv3d_vjp(x, w, b, gy): gx and gw each cost a forward
    w, gy = args[1], args[3]
    return {"gflop": 2 * 2 * int(np.prod(w.shape[1:])) * gy.size / 1e9}


def _conv_transpose_counts(args, kwargs, out):
    x, w = args[0], args[1]
    return {"gflop": 2 * w.size * x.shape[1] / 1e9}


def _conv_transpose_vjp_counts(args, kwargs, out):
    x, w = args[0], args[1]
    return {"gflop": 2 * 2 * w.size * x.shape[1] / 1e9}


def _checkpoint_counts(args, kwargs, out):
    return {"mb": os.path.getsize(args[0]) / 2**20}


# (module, attribute bound there, span name, counter).  Stage functions
# are wrapped in both model.network (inference) and model.grad
# (training, the cached *_fwd flavours) under the same span names.
LAYERS = [
    ("avse.cli", "load_checkpoint", "training.checkpoint.load", _checkpoint_counts),
    ("avse.cli", "load_wav", "data.io", None),
    ("avse.cli", "read_tensor", "data.io", None),
    ("avse.cli", "save_wav", "data.io", None),
    ("avse.model.network", "encode_audio", "model.network.encode", None),
    ("avse.model.network", "visual_forward", "model.network.visual", None),
    ("avse.model.network", "fuse", "model.network.fuse", None),
    ("avse.model.network", "separator_forward", "model.network.separator", None),
    ("avse.model.network", "decode_audio", "model.network.decode", None),
    ("avse.model.network", "segment_time", "model.network.segment", None),
    ("avse.model.network", "overlap_add", "model.network.overlap_add", None),
    ("avse.model.network", "bilstm_forward_batched", "ops.rnn.fwd", _rnn_forward_counts),
    ("avse.model.network", "conv1d", "ops.conv.fwd", _conv_forward_counts),
    ("avse.model.network", "conv3d", "ops.conv.fwd", _conv_forward_counts),
    ("avse.model.network", "conv_transpose1d", "ops.conv.fwd", _conv_transpose_counts),
    ("avse.model.network", "group_norm", "ops.dense.group_norm", None),
    ("avse.model.network", "linear", "ops.dense.linear", None),
    ("avse.model.network", "resize_linear_time", "ops.dense.resize", None),
    ("avse.model.grad", "encode_audio_fwd", "model.network.encode", None),
    ("avse.model.grad", "visual_forward_fwd", "model.network.visual", None),
    ("avse.model.grad", "fuse_fwd", "model.network.fuse", None),
    ("avse.model.grad", "separator_forward_fwd", "model.network.separator", None),
    ("avse.model.grad", "conv_transpose1d", "ops.conv.fwd", _conv_transpose_counts),
    ("avse.model.grad", "bilstm_backward_batched", "ops.rnn.bwd", _rnn_backward_counts),
    ("avse.model.grad", "conv1d_vjp", "ops.conv.bwd", _conv_vjp_counts),
    ("avse.model.grad", "conv3d_vjp", "ops.conv.bwd", _conv_vjp_counts),
    ("avse.model.grad", "conv_transpose1d_vjp", "ops.conv.bwd", _conv_transpose_vjp_counts),
    ("avse.model.grad", "group_norm_vjp", "ops.dense.group_norm_vjp", None),
    ("avse.model.grad", "linear_vjp", "ops.dense.linear_vjp", None),
    ("avse.model.grad", "resize_linear_time_vjp", "ops.dense.resize", None),
    ("avse.training.loop", "enhance_fwd", "model.grad.enhance_fwd", None),
    ("avse.training.loop", "enhance_bwd", "model.grad.enhance_bwd", None),
    ("avse.training.loop", "clip_global_norm", "training.clip", None),
    ("avse.training.loop", "si_sdr", "metrics.si_sdr", None),
    ("avse.training.loop", "mix_scene", "data.mix", None),
]


class Recorder:
    """In-memory span log with an on/off switch for the layer wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if counter is not None:
            span[5] = counter(args, kwargs, out)
        return out

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "request": request, "counts": counts}
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


# Metric name -> span name.  Times are divided by traced audio seconds.
SELF_TIME = {
    "ops.rnn.fwd_self_s": "ops.rnn.fwd",
    "ops.rnn.bwd_self_s": "ops.rnn.bwd",
    "ops.conv.fwd_self_s": "ops.conv.fwd",
    "ops.conv.bwd_self_s": "ops.conv.bwd",
    "ops.dense.group_norm_self_s": "ops.dense.group_norm",
    "ops.dense.group_norm_vjp_self_s": "ops.dense.group_norm_vjp",
    "ops.dense.linear_self_s": "ops.dense.linear",
    "ops.dense.linear_vjp_self_s": "ops.dense.linear_vjp",
    "ops.dense.resize_self_s": "ops.dense.resize",
    "model.network.separator_self_s": "model.network.separator",
    "model.grad.bwd_self_s": "model.grad.enhance_bwd",
}
TOTAL_TIME = {
    "model.network.encode_s": "model.network.encode",
    "model.network.visual_s": "model.network.visual",
    "model.network.fuse_s": "model.network.fuse",
    "model.network.separator_s": "model.network.separator",
    "model.network.decode_s": "model.network.decode",
    "model.network.segment_s": "model.network.segment",
    "model.network.overlap_add_s": "model.network.overlap_add",
    "model.grad.enhance_fwd_s": "model.grad.enhance_fwd",
    "model.grad.enhance_bwd_s": "model.grad.enhance_bwd",
    "training.loss_s": "training.loss",
    "training.clip_s": "training.clip",
    "training.adam_s": "training.adam",
    "metrics.si_sdr_s": "metrics.si_sdr",
    "training.checkpoint.load_s": "training.checkpoint.load",
    "data.io_s": "data.io",
}
# Preparation work, in seconds per preparation: a set-up, or the start
# of a train_scenes call, which mixes its own scenes.
PREPARATION_TIME = {
    "training.checkpoint.save_s": "training.checkpoint.save",
    "data.synth_s": "data.synth",
    "data.mix_s": "data.mix",
}


def layer_metrics(spans, request_wall: dict, audio_s: float, preparations: dict) -> dict:
    """Per-layer metrics of the traced requests.

    ``request_wall`` maps each traced request id to its wall time; the
    part of it no top-level span covers is ``cli.glue_s``.
    ``preparations`` maps the other request ids (set-up, the start of a
    training unit) to how many times they ran.
    """
    selfs = self_times(spans)
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    prep_by = defaultdict(float)
    counts = defaultdict(float)
    calls = defaultdict(int)
    top_level = defaultdict(float)
    for (name, start, end, parent, request, cnt), own in zip(spans, selfs):
        if request in preparations:
            prep_by[name] += (end - start) / preparations[request]
        if request not in request_wall:
            continue
        self_by[name] += own
        total_by[name] += end - start
        calls[name] += 1
        for key, value in (cnt or {}).items():
            counts[f"{name}.{key}"] += value
        if parent is None:
            top_level[request] += end - start
    per_audio = 1.0 / audio_s if audio_s > 0 else 0.0
    out = {}
    for metric, name in SELF_TIME.items():
        out[metric] = self_by[name] * per_audio
    for metric, name in TOTAL_TIME.items():
        out[metric] = total_by[name] * per_audio
    for metric, name in PREPARATION_TIME.items():
        out[metric] = prep_by[name]
    out["cli.glue_s"] = sum(request_wall[r] - top_level[r] for r in request_wall) * per_audio
    steps = counts["ops.rnn.fwd.steps"]
    out["ops.rnn.fwd_steps"] = steps * per_audio
    out["ops.rnn.fwd_batch_mean"] = counts["ops.rnn.fwd.row_steps"] / steps if steps else 0.0
    out["ops.rnn.fwd_gflop"] = counts["ops.rnn.fwd.gflop"] * per_audio
    fwd_self = self_by["ops.rnn.fwd"]
    out["ops.rnn.fwd_gflops_rate"] = counts["ops.rnn.fwd.gflop"] / fwd_self if fwd_self else 0.0
    out["ops.rnn.bwd_steps"] = counts["ops.rnn.bwd.steps"] * per_audio
    out["ops.rnn.bwd_gflop"] = counts["ops.rnn.bwd.gflop"] * per_audio
    out["ops.conv.gflop"] = (counts["ops.conv.fwd.gflop"] + counts["ops.conv.bwd.gflop"]) * per_audio
    loads = calls["training.checkpoint.load"]
    out["training.checkpoint.load_mb"] = counts["training.checkpoint.load.mb"] / loads if loads else 0.0
    return out
