"""Bidirectional LSTM layer with a hand-written backward pass.

Weights for each direction are packed as a single [4H, D + H] matrix:
the first D columns multiply the input, the remaining H columns multiply
the recurrent state, and the four H-row blocks hold the input, forget,
cell, and output gates in that order.  States start at zero.  The
backward direction runs the same cell on the time-reversed sequence.

Both directions run in one loop over [B, T, D], stacked on a leading
axis of 2: step s reads and writes time s for the forward direction and
time T-1-s for the backward one, so nothing is reversed by copying.  The
input may be any strided view, such as a transposed [T, B, D] array.

Each step is one GEMM of the rows [x_t, 1, h] by both directions'
[W_x, b, W_h] and one tanh over every gate.  For that the forward
repacks the gate blocks as i, f, o, g and halves the i, f and o rows,
bias included (exact in binary floating point): then
sigmoid(z) = 1/2 + 1/2 tanh(z/2) for the first three blocks is one
in-place multiply-add on the tanh slab, and the cell gate keeps its
tanh.  SciPy's ``expit`` is several times slower per element than
NumPy's tanh.  The mask head in ``model/network.py`` keeps ``expit``
all the same: 1/2 + 1/2 tanh(z/2) loses relative accuracy where the
sigmoid saturates towards 0, and the mask is held to 1e-15 of the
logistic formula for |z| <= 30.

The forward keeps the step rows of a block of steps in one buffer of at
most ROW_BLOCK_BYTES (512 KB; 2 MB per thread raised the default
config's 1 s inference peak by 1.8 MiB): each block's inputs come in
with one copy per direction, each step writes its new h straight into
the next step's row, and the block's outputs go to y with one copy per
direction.  That replaces four row copies a step, most of a tiny-config
step's Python calls.

The gate and cell records are kept in step order, gate-major and packed
([T, 4, 2, B, H], blocks i, f, o, g).  The backward pass walks the same
steps in reverse, in blocks of as many steps as fit BLOCK_BYTES of gate
records: each block's coefficients, step rows [x_t, 1, h_prev], gate
cotangents and its input and weight cotangent products stay in cache,
and nothing sized by all T steps is built besides the output.

Training passes a workspace, a plain dict that lives for one
``train_scenes`` call (``training/loop.py``).  Each separator path's
forward writes its output, gate records and cell records into the
buffers of its own entry (``work[base]``, next to its projection), and
every backward takes its block buffers, which live only for the call,
from entries that all paths share.  Step n + 1 writes over step n's
arrays after step n's backward has read them, so no second set of
records is alive and nothing is freed and faulted in again.  A buffer
is flat and serves any shape that fits: a shorter scene uses its head,
and only a longer one (or another dtype) replaces it, so a run's
buffers grow to its longest scene and stay there.  Only where the
results go changes, so the bits do not.  Inference passes a workspace
too, one per separator call (``model/network.py``): every path of the
call writes its output into the same buffer, so the output and the step
slabs are allocated once a call, not once a path.  Callers without a
workspace (the gradient check) get new arrays on every call.  The
packed weights are filled in place, block by block.  A cache keeps the
``LstmParams`` the forward ran with, not a copy of the weights: the
backward stacks both directions' W_x and W_h from them.

The two directions share no state, so in inference each may run on
its own core.  The time loop is one function over a slice of the
direction axis: the calling thread runs slice(0, 2), or slice(0, 1)
while a worker thread that lives only for that call runs slice(1, 2).
Starting and joining it adds about 70 us a call over a pooled thread
(2-core guest), and the default config's enhance makes at most 8 such
calls.  Either schedule gives the same bits.  Every GEMM keeps its
shape and operands, every elementwise step is the same per element, and
each thread writes only its own direction's parts of the output.

Only the forward without a cache splits; training (the forward that
keeps its records, and the backward) stays on the calling thread.
Split, a training step runs as fast as the slower of the two cores
allows, and on a host whose cores other tenants share that swings from
run to run.  Default-config training at 1 s per step read 0.59-0.67
audio s per s split with the second core idle, 0.45 with another
process on it, and 0.39-0.46 on one thread either way; over ten runs
the split's quartiles lay 0.18 audio s per s apart against 0.02 for
one thread.  A training run lasts long enough to meet every load the
host goes through, so its time would be the least predictable figure
the package reports.

``split_directions`` picks the worker when a per-step, per-direction
GEMM [B, D+1+H] x [D+1+H, 4H] is at least SPLIT_FLOPS and this process
may use at least two CPUs per BLAS thread.  A multi-threaded BLAS
already spreads the fused loop's GEMMs over the cores, and two callers
of it oversubscribe them: on 2 cores with OpenBLAS's default 2 threads
the split read 0.6-1.0x of the fused loop, and a 10 s enhance took
7.7-7.9 s against 6.5-7.3 s.  Below SPLIT_FLOPS the threads spend more
on handing the interpreter lock back and forth than they save.
Measured on a 2-core guest (one BLAS thread, float32, medians of 11
alternating pairs, fused time over split time), the forward crossed 1
between 6 and 13 MFLOP per step: D=64, H=32 read 0.83 at 3.2 MFLOP,
1.22 at 6.4 and 1.56 at 12.7; D=128, H=64 read 0.78, 0.99 and 1.18;
D=256, H=128 read 0.96 at 4.7 and 1.49 at 9.5.  The default config's
steps are 15 MFLOP (intra, 1 s) and 39 MFLOP (inter), the tiny
config's 0.4 MFLOP and 1.7 kFLOP.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from avse.errors import EmptySequenceError, ShapeError

# Packed gate blocks: i, f, o, g from the stored i, f, g, o.
PACKED = [0, 1, 3, 2]
BLOCK_BYTES = 1 << 21
ROW_BLOCK_BYTES = 1 << 19  # see the module docstring
SPLIT_FLOPS = 1 << 23  # 8.4 MFLOP; see the module docstring


@dataclass
class LstmParams:
    """Packed weights for both directions of one bidirectional layer."""

    w_fw: np.ndarray  # [4H, D + H]
    b_fw: np.ndarray  # [4H]
    w_bw: np.ndarray  # [4H, D + H]
    b_bw: np.ndarray  # [4H]

    @property
    def hidden_size(self) -> int:
        return self.w_fw.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_fw.shape[1] - self.hidden_size

    def check(self) -> None:
        for name, w, b in (("forward", self.w_fw, self.b_fw), ("backward", self.w_bw, self.b_bw)):
            if w.ndim != 2 or w.shape[0] % 4 != 0:
                raise ShapeError(f"{name} weight must be [4H, D+H], got shape {w.shape}")
            if w.shape != self.w_fw.shape:
                raise ShapeError(
                    f"direction weight shapes differ: {self.w_fw.shape} vs {w.shape}"
                )
            if b.shape != (w.shape[0],):
                raise ShapeError(f"{name} bias shape {b.shape} does not match {w.shape[0]} rows")


def split_directions(nb: int, d: int, hs: int) -> bool:
    """Whether the two directions run on two threads: a per-step,
    per-direction GEMM [B, D+1+H] x [D+1+H, 4H] of at least SPLIT_FLOPS,
    and at least two CPUs in this process's affinity set per BLAS thread."""
    flops = 2 * nb * (d + 1 + hs) * 4 * hs
    return flops >= SPLIT_FLOPS and _cpu_count() >= 2 * _blas_threads()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """BLAS threads per call, as the variables that OpenBLAS, MKL and
    OpenMP read at load time set them; unset, they use every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            return max(1, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    return _cpu_count()


def _by_direction(run, split: bool) -> None:
    """run(slice(0, 2)) on this thread; or, split, run(slice(0, 1)) here
    while a worker thread started for this call runs run(slice(1, 2)) in a
    copy of this thread's context (so np.errstate holds there too).
    Returns after the worker has ended, also when this thread's direction
    raised; re-raises the worker's exception here."""
    if not split:
        run(slice(0, 2))
        return
    # Leaving the block joins the worker, which writes into the caller's arrays.
    with ThreadPoolExecutor(1, thread_name_prefix="avse-bilstm") as worker:
        job = worker.submit(contextvars.copy_context().run, run, slice(1, 2))
        run(slice(0, 1))
    job.result()


def work_array(work: dict | None, key: str, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array of this shape and dtype.  With a
    workspace it is a view of the first elements of ``work[key]``, a flat
    buffer that is replaced by one of this size when it is shorter or of
    another dtype."""
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = work.get(key)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = work[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _forward_steps(dirs: slice, x, w_t, y, gates, cells) -> None:
    """The time loop for the directions in ``dirs``: fills their parts of
    y, gates and cells and touches nothing of the other direction."""
    nb, t, d = x.shape
    hs = w_t.shape[-1]
    w_t, gates, cells = w_t[:, dirs], gates[:, :, dirs], cells[:, dirs]
    # Direction 1 walks time backwards; as reversed views, step s of
    # every direction reads and writes index s.
    xs = [x, x[:, ::-1]][dirs]
    ys = [y[:, :, :hs], y[:, ::-1, hs:]][dirs]
    # Row j of a block holds step s0 + j's [x_t, 1, h_prev], and the step
    # writes its state into row j + 1: inputs come in and outputs go out
    # once a block, and the last row carries the state to the next block.
    row_bytes = len(xs) * nb * (d + 1 + hs) * y.itemsize
    k = max(1, min(t, ROW_BLOCK_BYTES // row_bytes))
    xh = np.empty((len(xs), k + 1, nb, d + 1 + hs), dtype=y.dtype)
    xh[:, :, :, d] = 1
    xh[:, 0, :, d + 1 :] = 0
    rows = list(xh.transpose(1, 0, 2, 3))  # rows[j]: [dirs, B, D+1+H]
    h_out = [r[:, :, d + 1 :] for r in rows]
    tmp = np.empty((len(xs), nb, hs), dtype=y.dtype)
    for s0 in range(0, t, k):
        n = min(k, t - s0)
        for xb, xd in zip(xh, xs):
            xb[:n, :, :d] = xd[:, s0 : s0 + n].transpose(1, 0, 2)
        for j in range(n):
            s = s0 + j
            g = gates[s % len(gates)]
            c_prev, c = cells[s % len(cells)], cells[(s + 1) % len(cells)]
            np.matmul(rows[j], w_t, out=g)
            np.tanh(g, out=g)
            sig = g[:3]
            sig *= 0.5
            sig += 0.5
            np.multiply(g[1], c_prev, out=c)
            np.multiply(g[0], g[3], out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            np.multiply(g[2], tmp, out=h_out[j + 1])
        for yd, xb in zip(ys, xh):
            yd[:, s0 : s0 + n] = xb[1 : n + 1, :, d + 1 :].transpose(1, 0, 2)
        h_out[0][...] = h_out[n]


def bilstm_forward_batched(
    x: np.ndarray, params: LstmParams, keep_cache: bool = True, work: dict | None = None
) -> tuple[np.ndarray, dict | None]:
    """Both directions over [B, T, D]; returns ([B, T, 2H], cache).

    With keep_cache=False the gate and cell records that only the
    backward pass reads are never stored.  The cache holds the input,
    the returned output and ``params`` themselves, which must not be
    written to before the backward.  With a ``work`` dict the output and
    the records are written into its arrays (see the module docstring),
    so they live until the next call with the same dict.
    """
    if x.ndim != 3:
        raise ShapeError(f"batched BiLSTM input must be [B, T, D], got shape {x.shape}")
    if x.shape[1] < 1:
        raise EmptySequenceError("BiLSTM input must have at least one time step")
    params.check()
    if x.shape[2] != params.input_size:
        raise ShapeError(
            f"input feature size {x.shape[2]} does not match weights ({params.input_size})"
        )
    nb, t, d = x.shape
    hs = params.hidden_size
    # One dtype (NumPy's own promotion) keeps every matmul on the BLAS path.
    ct = np.result_type(x.dtype, params.w_fw.dtype)
    x = x.astype(ct, copy=False)
    # [4, 2, D+1+H, H], packed i, f, o, g with the sigmoid rows halved: the
    # product lands as one [B, H] block per gate and direction.  Filled
    # block by block, with no stacked or concatenated copy in between.
    w_t = np.empty((4, 2, d + 1 + hs, hs), dtype=ct)
    for k, (w_dir, b_dir) in enumerate(((params.w_fw, params.b_fw), (params.w_bw, params.b_bw))):
        for j, gate in enumerate(PACKED):
            rows = slice(gate * hs, (gate + 1) * hs)
            w_t[j, k, :d] = w_dir[rows, :d].T
            w_t[j, k, d] = b_dir[rows]
            w_t[j, k, d + 1 :] = w_dir[rows, d:].T
    w_t[:3] *= 0.5
    y = work_array(work, "y", (nb, t, 2 * hs), ct)
    # Records of every step, cell states from the zero state on; without a
    # cache, one gate slab and two alternating cell slabs.
    gates = work_array(work, "gates", (t if keep_cache else 1, 4, 2, nb, hs), ct)
    cells = work_array(work, "cells", (t + 1 if keep_cache else 2, 2, nb, hs), ct)
    cells[0] = 0
    # Only inference splits; see the module docstring.
    split = not keep_cache and split_directions(nb, d, hs)
    _by_direction(lambda dirs: _forward_steps(dirs, x, w_t, y, gates, cells), split)
    if not keep_cache:
        return y, None
    return y, {"x": x, "params": params, "gates": gates, "cells": cells, "y": y, "hidden_size": hs}


def bilstm_backward_batched(
    cache: dict, gy: np.ndarray, work: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward through both directions; returns (gx, gw_fw, gb_fw, gw_bw, gb_bw).

    With a ``work`` dict the block buffers are its arrays, which every
    call shares.
    """
    x, params, gates, cells, y = (cache[k] for k in ("x", "params", "gates", "cells", "y"))
    hs = cache["hidden_size"]
    nb, t, d = x.shape
    if gy.shape != (nb, t, 2 * hs):
        raise ShapeError(f"cotangent shape {gy.shape} does not match output {(nb, t, 2 * hs)}")
    ct = gates.dtype
    # Gate cotangents dz follow the stored i, f, g, o order, so the
    # products below take both directions' weights as stored.
    wx = np.stack([params.w_fw[:, :d], params.w_bw[:, :d]]).astype(ct, copy=False)  # [2, 4H, D]
    wh = np.stack([params.w_fw[:, d:], params.w_bw[:, d:]]).astype(ct, copy=False)  # [2, 4H, H]
    k = max(1, min(t, BLOCK_BYTES // gates[0].nbytes))
    coef = work_array(work, "bwd.coef", (k, 4, 2, nb, hs), ct)
    ci, cf, cg, co = coef.transpose(1, 0, 2, 3, 4)
    gh = work_array(work, "bwd.gh", (k, 2, nb, hs), ct)  # output cotangent in step order
    dz = work_array(work, "bwd.dz", (2, k, nb, 4 * hs), ct)
    dz_gates = dz.reshape(2, k, nb, 4, hs).transpose(1, 3, 0, 2, 4)  # [k, 4, 2, B, H]
    xh = work_array(work, "bwd.xh", (2, k, nb, d + 1 + hs), ct)  # step rows [x_t, 1, h_prev]
    xh[:, :, :, d] = 1
    gx = np.zeros((t, nb, d), dtype=ct)  # time-major; returned as a [B, T, D] view
    gwb = np.zeros((2, 4 * hs, d + 1 + hs), dtype=ct)  # rows [W_x, b, W_h]
    # Step-order views, as in the forward: index s of direction 1 is time T-1-s.
    xs = [x, x[:, ::-1]]
    ys = [y[:, :, :hs], y[:, ::-1, hs:]]
    gys = [gy[:, :, :hs], gy[:, ::-1, hs:]]
    gxs = [gx, gx[::-1]]
    dh = np.zeros((2, nb, hs), dtype=ct)
    dc = np.zeros((2, nb, hs), dtype=ct)
    tmp = np.empty((2, nb, hs), dtype=ct)
    for s1 in range(t, 0, -k):
        s0 = max(0, s1 - k)
        n = s1 - s0
        # Everything that needs only the forward records, for the whole
        # block: dz of the i, f and g gates is dc times coef, dz of the o
        # gate is dh times coef, and dc gains dh times dc_dh.
        gi, gf, go, gg = gates[s0:s1].transpose(1, 0, 2, 3, 4)
        tc = np.tanh(cells[s0 + 1 : s1 + 1])
        for c, gate, other in ((ci, gi, gg), (cf, gf, cells[s0:s1]), (co, go, tc)):
            np.subtract(1, gate, out=c[:n])  # sigmoid' = gate * (1 - gate)
            c[:n] *= gate
            c[:n] *= other
        np.multiply(gg, gg, out=cg[:n])
        np.subtract(1, cg[:n], out=cg[:n])
        cg[:n] *= gi
        dc_dh = np.square(tc, out=tc)  # tc is not read again
        np.subtract(1, dc_dh, out=dc_dh)
        dc_dh *= go
        for e, gyd in enumerate(gys):
            gh[:n, e] = gyd[:, s0:s1].transpose(1, 0, 2)
        for j in range(n - 1, -1, -1):
            dh += gh[j]
            np.multiply(dh, dc_dh[j], out=tmp)
            dc += tmp
            np.multiply(coef[j, :3], dc, out=dz_gates[j, :3])
            np.multiply(coef[j, 3], dh, out=dz_gates[j, 3])
            dc *= gf[j]
            np.matmul(dz[:, j], wh, out=dh)
        dz_rows = dz[:, :n].reshape(2, n * nb, 4 * hs)
        gx_steps = np.matmul(dz_rows, wx).reshape(2, n, nb, d)
        # Weight and bias cotangents: dz against the block's step rows;
        # the first step's previous state is zero.
        lo = max(s0, 1)
        for e, (xd, yd, gxd) in enumerate(zip(xs, ys, gxs)):
            gxd[s0:s1] += gx_steps[e]
            xh[e, :n, :, :d] = xd[:, s0:s1].transpose(1, 0, 2)
            xh[e, lo - s0 : n, :, d + 1 :] = yd[:, lo - 1 : s1 - 1].transpose(1, 0, 2)
        if s0 == 0:
            xh[:, 0, :, d + 1 :] = 0
        gwb += np.matmul(dz_rows.transpose(0, 2, 1), xh[:, :n].reshape(2, n * nb, -1))
    gw = np.delete(gwb, d, axis=2)
    gb = gwb[:, :, d].copy()  # a view would hold all of gwb alive
    return gx.transpose(1, 0, 2), gw[0], gb[0], gw[1], gb[1]
