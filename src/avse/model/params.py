"""Named parameter tensors: shape table, initialization, counting.

A parameter set is a plain ``dict`` from tensor name to array, in
shape-table order; gradients and Adam moments are dicts of the same
names.  The shape table is an ordered name -> shape map derived purely
from the config, so the parameter count is a closed-form function of the
config.  ``check_tensors`` is the one place a set of named tensors is
held against a shape table: checkpoint parameters and moments, and the
gradients and moments ``adam_step`` receives.  Names are dotted paths:

    enc.w, enc.b                       audio encoder kernel and bias
    vfn.front.{w,b}                    3-D frontend
    vfn.trunk.s{i}.b{j}.*              residual trunk, stage i block j
    vfn.proj.{w,b}                     pooled trunk output -> embedding
    fusion.{w,b}                       1x1 bottleneck after concatenation
    sep.u{u}.{intra,inter}.lstm.*      per-unit dual-path BiLSTM weights
    sep.u{u}.{intra,inter}.proj.{w,b}  2H -> C projection
    sep.u{u}.{intra,inter}.gn.{gamma,beta}
    mask.{w,b}                         1x1 mask head
    dec.w                              decoder; no bias, as SI-SDR ignores offsets

Initialization: weight matrices and kernels draw uniform in
+-sqrt(1/fan_in); biases start at zero except LSTM forget gates, which
start at one; norm gammas start at one, betas at zero.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

from avse.errors import ShapeError
from avse.model.config import ModelConfig
from avse.prng import Stream


ModelParams = dict[str, np.ndarray]


def check_tensors(
    tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]], what: str,
    error=ShapeError,
) -> None:
    """Raise ``error`` unless ``tensors`` holds exactly the names of
    ``shapes``, each with its shape; the message names the missing and
    extra names and the first mis-shaped tensor."""
    missing = sorted(set(shapes) - set(tensors))
    extra = sorted(set(tensors) - set(shapes))
    bad = next(
        (n for n, shape in shapes.items() if n in tensors and tensors[n].shape != shape), None
    )
    problems = []
    if missing:
        problems.append(f"missing {missing}")
    if extra:
        problems.append(f"extra {extra}")
    if bad is not None:
        problems.append(f"{bad!r} has shape {tensors[bad].shape}, expected {shapes[bad]}")
    if problems:
        raise error(f"{what} do not match the shape table: " + "; ".join(problems))


def _trunk_stages(config: ModelConfig) -> list[tuple[int, int]]:
    """(in_channels, out_channels) per trunk stage."""
    chans = config.vfn_trunk_channels
    ins = (chans[0],) + chans[:-1]  # the frontend outputs chans[0]
    return list(zip(ins, chans))


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table for every learnable tensor."""
    n = config.enc_channels
    k = config.enc_kernel
    dv = config.visual_embed
    c_fuse = config.fusion_channels
    h = config.sep_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["enc.w"] = (n, 1, k)
    shapes["enc.b"] = (n,)
    c_front = config.vfn_trunk_channels[0]
    shapes["vfn.front.w"] = (c_front, 1) + config.vfn_front_kernel
    shapes["vfn.front.b"] = (c_front,)
    for i, (c_in, c_out) in enumerate(_trunk_stages(config)):
        for j in range(config.vfn_blocks_per_stage):
            base = f"vfn.trunk.s{i}.b{j}"
            first = c_in if j == 0 else c_out
            shapes[f"{base}.conv1.w"] = (c_out, first, 1, 3, 3)
            shapes[f"{base}.gn1.gamma"] = (c_out,)
            shapes[f"{base}.gn1.beta"] = (c_out,)
            shapes[f"{base}.conv2.w"] = (c_out, c_out, 1, 3, 3)
            shapes[f"{base}.gn2.gamma"] = (c_out,)
            shapes[f"{base}.gn2.beta"] = (c_out,)
            if j == 0:
                # Downsampling block: the shortcut needs its own projection.
                shapes[f"{base}.proj.w"] = (c_out, c_in, 1, 1, 1)
                shapes[f"{base}.proj_gn.gamma"] = (c_out,)
                shapes[f"{base}.proj_gn.beta"] = (c_out,)
    c_last = config.vfn_trunk_channels[-1]
    shapes["vfn.proj.w"] = (dv, c_last)
    shapes["vfn.proj.b"] = (dv,)
    shapes["fusion.w"] = (c_fuse, n + dv, 1)
    shapes["fusion.b"] = (c_fuse,)
    for u in range(config.sep_units):
        for path in ("intra", "inter"):
            base = f"sep.u{u}.{path}"
            shapes[f"{base}.lstm.w_fw"] = (4 * h, c_fuse + h)
            shapes[f"{base}.lstm.b_fw"] = (4 * h,)
            shapes[f"{base}.lstm.w_bw"] = (4 * h, c_fuse + h)
            shapes[f"{base}.lstm.b_bw"] = (4 * h,)
            shapes[f"{base}.proj.w"] = (c_fuse, 2 * h)
            shapes[f"{base}.proj.b"] = (c_fuse,)
            shapes[f"{base}.gn.gamma"] = (c_fuse,)
            shapes[f"{base}.gn.beta"] = (c_fuse,)
    shapes["mask.w"] = (n, c_fuse, 1)
    shapes["mask.b"] = (n,)
    shapes["dec.w"] = (n, 1, k)
    return shapes


def count_parameters(config: ModelConfig) -> int:
    """Total scalar count across all named tensors."""
    return sum(prod(shape) for shape in parameter_shapes(config).values())


def _init_tensor(
    name: str, shape: tuple[int, ...], stream: Stream, hidden: int, dtype
) -> np.ndarray:
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gamma":
        return np.ones(shape, dtype=dtype)
    if leaf == "beta":
        return np.zeros(shape, dtype=dtype)
    if leaf in ("b_fw", "b_bw"):
        b = np.zeros(shape, dtype=dtype)
        b[hidden : 2 * hidden] = 1.0  # forget gate opens at init
        return b
    if leaf == "b":
        return np.zeros(shape, dtype=dtype)
    if leaf in ("w", "w_fw", "w_bw"):
        fan_in = prod(shape[1:])
        bound = sqrt(1.0 / fan_in)
        vals = stream.uniform(prod(shape), -bound, bound)
        return vals.reshape(shape).astype(dtype)
    raise ShapeError(f"no initialization rule for tensor {name!r}")


def init_parameters(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Draw a fresh parameter set; bit-deterministic in (config, seed)."""
    shapes = parameter_shapes(config)
    stream = Stream(seed)
    tensors = {}
    for idx, (name, shape) in enumerate(shapes.items()):
        tensors[name] = _init_tensor(
            name, shape, stream.spawn(idx), config.sep_hidden, dtype
        )
    return tensors
