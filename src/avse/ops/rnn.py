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
NumPy's tanh.  ``activation("sigmoid")`` in ``ops/dense.py`` keeps
``expit`` all the same: 1/2 + 1/2 tanh(z/2) loses relative accuracy
where the sigmoid saturates towards 0, and that function is held to
1e-15 of the logistic formula for |z| <= 30.

The gate and cell records are kept in step order, gate-major and packed
([T, 4, 2, B, H], blocks i, f, o, g).  The backward pass walks the same
steps in reverse, in blocks of as many steps as fit BLOCK_BYTES of gate
records: each block's coefficients, step rows [x_t, 1, h_prev], gate
cotangents and its input and weight cotangent products stay in cache,
and nothing sized by all T steps is built besides the output.

The two directions share no state, so in inference each may run on
its own core.  The time loop is one function over a slice of the
direction axis: the calling thread runs slice(0, 2), or slice(0, 1)
while one persistent worker thread runs slice(1, 2).  Either schedule
gives the same bits.  Every GEMM keeps its shape and operands, every
elementwise step is the same per element, and each thread writes only
its own direction's parts of the output.

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
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from avse.errors import EmptySequenceError, ShapeError

# Packed gate blocks: i, f, o, g from the stored i, f, g, o.
PACKED = [0, 1, 3, 2]
BLOCK_BYTES = 1 << 21
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


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker() -> ThreadPoolExecutor:
    """The one persistent thread that runs the time-reversed direction."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="avse-bilstm")
        return _pool


def _drop_worker() -> None:
    global _pool, _pool_lock
    # A forked child has no copy of the parent's thread, and the lock may
    # have been held by another of the parent's threads.
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _by_direction(run, split: bool) -> list:
    """run(slice(0, 2)) on this thread; or, split, run(slice(0, 1)) here
    while the worker runs run(slice(1, 2)) in a copy of this thread's
    context (so np.errstate holds there too).  Returns the results in
    direction order and re-raises the worker's exception here."""
    if not split:
        return [run(slice(0, 2))]
    job = _worker().submit(contextvars.copy_context().run, run, slice(1, 2))
    try:
        mine = run(slice(0, 1))
    finally:
        wait([job])  # the worker writes into the caller's arrays
    return [mine, job.result()]


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
    xh = np.zeros((len(xs), nb, d + 1 + hs), dtype=y.dtype)
    xh[:, :, d] = 1
    h = xh[:, :, d + 1 :]  # the state is written in place, next to the next input
    x_rows = list(zip(xh[:, :, :d], xs))
    y_rows = list(zip(ys, h))
    tmp = np.empty((len(xs), nb, hs), dtype=y.dtype)
    for s in range(t):
        g = gates[s % len(gates)]
        c_prev, c = cells[s % len(cells)], cells[(s + 1) % len(cells)]
        for row, xd in x_rows:
            row[...] = xd[:, s]
        np.matmul(xh, w_t, out=g)
        np.tanh(g, out=g)
        sig = g[:3]
        sig *= 0.5
        sig += 0.5
        np.multiply(g[1], c_prev, out=c)
        np.multiply(g[0], g[3], out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(g[2], tmp, out=h)
        for yd, hd in y_rows:
            yd[:, s] = hd


def bilstm_forward_batched(
    x: np.ndarray, params: LstmParams, keep_cache: bool = True
) -> tuple[np.ndarray, dict | None]:
    """Both directions over [B, T, D]; returns ([B, T, 2H], cache).

    With keep_cache=False the gate and cell records that only the
    backward pass reads are never stored.  The cache holds the input and
    the returned output themselves, which must not be written to.
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
    w, b = np.stack([params.w_fw, params.w_bw]), np.stack([params.b_fw, params.b_bw])
    wb = np.concatenate([w[:, :, :d], b[:, :, None], w[:, :, d:]], axis=2).astype(ct, copy=False)
    # [4, 2, D+1+H, H], packed i, f, o, g with the sigmoid rows halved: the
    # product lands as one [B, H] block per gate and direction.
    w_t = wb.reshape(2, 4, hs, -1)[:, PACKED].transpose(1, 0, 3, 2).copy()
    w_t[:3] *= 0.5
    y = np.empty((nb, t, 2 * hs), dtype=ct)
    # Records of every step, cell states from the zero state on; without a
    # cache, one gate slab and two alternating cell slabs.
    gates = np.empty((t if keep_cache else 1, 4, 2, nb, hs), dtype=ct)
    cells = np.zeros((t + 1 if keep_cache else 2, 2, nb, hs), dtype=ct)
    # Only inference splits; see the module docstring.
    split = not keep_cache and split_directions(nb, d, hs)
    _by_direction(lambda dirs: _forward_steps(dirs, x, w_t, y, gates, cells), split)
    if not keep_cache:
        return y, None
    return y, {"x": x, "wb": wb, "gates": gates, "cells": cells, "y": y, "hidden_size": hs}


def bilstm_backward_batched(
    cache: dict, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward through both directions; returns (gx, gw_fw, gb_fw, gw_bw, gb_bw)."""
    x, wb, gates, cells, y = (cache[k] for k in ("x", "wb", "gates", "cells", "y"))
    hs = cache["hidden_size"]
    nb, t, d = x.shape
    ct = gates.dtype
    # Gate cotangents dz follow the stored i, f, g, o order, so the
    # products below take wb as it is.
    wx = np.ascontiguousarray(wb[:, :, :d])  # [2, 4H, D]
    wh = np.ascontiguousarray(wb[:, :, d + 1 :])  # [2, 4H, H]
    k = max(1, min(t, BLOCK_BYTES // gates[0].nbytes))
    coef = np.empty((k, 4, 2, nb, hs), dtype=ct)
    ci, cf, cg, co = coef.transpose(1, 0, 2, 3, 4)
    gh = np.empty((k, 2, nb, hs), dtype=ct)  # output cotangent in step order
    dz = np.empty((2, k, nb, 4 * hs), dtype=ct)
    dz_gates = dz.reshape(2, k, nb, 4, hs).transpose(1, 3, 0, 2, 4)  # [k, 4, 2, B, H]
    xh = np.empty((2, k, nb, d + 1 + hs), dtype=ct)  # step rows [x_t, 1, h_prev]
    xh[:, :, :, d] = 1
    gx = np.zeros((t, nb, d), dtype=ct)  # time-major; returned as a [B, T, D] view
    gwb = np.zeros_like(wb)
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
        # The backward direction's step s is time T-1-s.
        gh[:n, 0] = gy[:, s0:s1, :hs].transpose(1, 0, 2)
        gh[:n, 1] = gy[:, t - s1 : t - s0, hs:][:, ::-1].transpose(1, 0, 2)
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
        gx[s0:s1] += gx_steps[0]
        gx[t - s1 : t - s0] += gx_steps[1, ::-1]
        # Weight and bias cotangents: dz against the block's step rows;
        # the first step's previous state is zero.
        xh[0, :n, :, :d] = x[:, s0:s1].transpose(1, 0, 2)
        xh[1, :n, :, :d] = x[:, t - s1 : t - s0][:, ::-1].transpose(1, 0, 2)
        lo = max(s0, 1)
        xh[0, lo - s0 : n, :, d + 1 :] = y[:, lo - 1 : s1 - 1, :hs].transpose(1, 0, 2)
        h_bw = y[:, t - s1 + 1 : t - lo + 1, hs:]
        xh[1, lo - s0 : n, :, d + 1 :] = h_bw[:, ::-1].transpose(1, 0, 2)
        if s0 == 0:
            xh[:, 0, :, d + 1 :] = 0
        gwb += np.matmul(dz_rows.transpose(0, 2, 1), xh[:, :n].reshape(2, n * nb, -1))
    gw = np.delete(gwb, d, axis=2)
    gb = gwb[:, :, d]
    return gx.transpose(1, 0, 2), gw[0], gb[0], gw[1], gb[1]


def bilstm_layer(x: np.ndarray, params: LstmParams) -> np.ndarray:
    """Bidirectional LSTM over [T, D]; returns [T, 2H]."""
    if x.ndim != 2:
        raise ShapeError(f"BiLSTM input must be [T, D], got shape {x.shape}")
    y, _ = bilstm_forward_batched(x[None], params, keep_cache=False)
    return y[0]


def bilstm_layer_vjp(
    x: np.ndarray, params: LstmParams, gy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents of bilstm_layer: returns (gx, gw_fw, gb_fw, gw_bw, gb_bw)."""
    if gy.shape != (x.shape[0], 2 * params.hidden_size):
        raise ShapeError(
            f"cotangent shape {gy.shape} does not match ({x.shape[0]}, {2 * params.hidden_size})"
        )
    _, cache = bilstm_forward_batched(x[None], params)
    gx, gw_fw, gb_fw, gw_bw, gb_bw = bilstm_backward_batched(cache, gy[None])
    return gx[0], gw_fw, gb_fw, gw_bw, gb_bw
