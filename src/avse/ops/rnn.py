"""Bidirectional LSTM layer with a hand-written backward pass.

Weights for each direction are packed as a single [4H, D + H] matrix:
the first D columns multiply the input, the remaining H columns multiply
the recurrent state, and the four H-row blocks hold the input, forget,
cell, and output gates in that order.  States start at zero.  The
backward direction runs the same cell on the time-reversed sequence.

Both directions run in one loop over [B, T, D], stacked on a leading
axis of 2: step s reads and writes time s for the forward direction and
time T-1-s for the backward one, so nothing is reversed by copying.
Each step is one GEMM of the rows [x_t, 1, h] by both directions'
[W_x, b, W_h] and one sigmoid over every gate; the gate and cell records
are kept in step order, gate-major ([T, 4, 2, B, H]).  The backward pass
walks the same steps in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from avse.errors import EmptySequenceError, ShapeError


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


def bilstm_forward_batched(
    x: np.ndarray, params: LstmParams, keep_cache: bool = True
) -> tuple[np.ndarray, dict | None]:
    """Both directions over [B, T, D]; returns ([B, T, 2H], cache).

    With keep_cache=False the gate and cell records that only the
    backward pass reads are never stored.  The cache holds the returned
    output itself, which must not be written to.
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
    x = np.ascontiguousarray(x, dtype=ct)
    w, b = np.stack([params.w_fw, params.w_bw]), np.stack([params.b_fw, params.b_bw])
    wb = np.concatenate([w[:, :, :d], b[:, :, None], w[:, :, d:]], axis=2).astype(ct, copy=False)
    # [4, 2, D+1+H, H]: the product lands as one [B, H] block per gate and direction.
    w_t = np.ascontiguousarray(wb.reshape(2, 4, hs, -1).transpose(1, 0, 3, 2))
    xh = np.zeros((2, nb, d + 1 + hs), dtype=ct)
    xh[:, :, d] = 1
    h = xh[:, :, d + 1 :]  # the state is written in place, next to the next input
    z = np.empty((4, 2, nb, hs), dtype=ct)
    tmp = np.empty((2, nb, hs), dtype=ct)
    y = np.empty((nb, t, 2 * hs), dtype=ct)
    # Records of every step, cell states from the zero state on; without a
    # cache, one gate slab and two alternating cell slabs.
    gates = np.empty((t if keep_cache else 1, 4, 2, nb, hs), dtype=ct)
    cells = np.zeros((t + 1 if keep_cache else 2, 2, nb, hs), dtype=ct)
    for s in range(t):
        g = gates[s % len(gates)]
        c_prev, c = cells[s % len(cells)], cells[(s + 1) % len(cells)]
        xh[0, :, :d] = x[:, s]
        xh[1, :, :d] = x[:, t - 1 - s]
        np.matmul(xh, w_t, out=z)
        expit(z, out=g)
        np.tanh(z[2], out=g[2])  # the cell gate takes tanh, not the sigmoid
        np.multiply(g[1], c_prev, out=c)
        np.multiply(g[0], g[2], out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(g[3], tmp, out=h)
        y[:, s, :hs] = h[0]
        y[:, t - 1 - s, hs:] = h[1]
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
    # Everything that needs only the forward records, for all steps at
    # once: dz of the i, f and g gates is dc times coef, dz of the o gate
    # is dh times coef, and dc gains dh times dc_dh.
    gi, gf, gg, go = gates.transpose(1, 0, 2, 3, 4)
    coef = np.empty_like(gates)
    ci, cf, cg, co = coef.transpose(1, 0, 2, 3, 4)
    tc = np.tanh(cells[1:])
    np.multiply(gi * (1 - gi), gg, out=ci)
    np.multiply(gf * (1 - gf), cells[:-1], out=cf)
    np.multiply(1 - gg * gg, gi, out=cg)
    np.multiply(go * (1 - go), tc, out=co)
    dc_dh = go * (1 - tc * tc)
    gh = np.empty((t, 2, nb, hs), dtype=ct)  # output cotangent in step order
    gh[:, 0] = gy[:, :, :hs].transpose(1, 0, 2)
    gh[:, 1] = gy[:, ::-1, hs:].transpose(1, 0, 2)
    wh = np.ascontiguousarray(wb[:, :, d + 1 :])  # [2, 4H, H]
    dz_all = np.empty((2, t, nb, 4 * hs), dtype=ct)  # in step order
    dz_gates = dz_all.reshape(2, t, nb, 4, hs).transpose(1, 3, 0, 2, 4)  # [T, 4, 2, B, H]
    dh = np.zeros((2, nb, hs), dtype=ct)
    dc = np.zeros((2, nb, hs), dtype=ct)
    tmp = np.empty((2, nb, hs), dtype=ct)
    for s in range(t - 1, -1, -1):
        dh += gh[s]
        np.multiply(dh, dc_dh[s], out=tmp)
        dc += tmp
        np.multiply(coef[s, :3], dc, out=dz_gates[s, :3])
        np.multiply(coef[s, 3], dh, out=dz_gates[s, 3])
        dc *= gf[s]
        np.matmul(dz_all[:, s], wh, out=dh)
    dz_rows = dz_all.reshape(2, t * nb, 4 * hs)
    # Input cotangent: the backward direction's step s is time T-1-s.
    gx_steps = np.matmul(dz_rows, wb[:, :, :d]).reshape(2, t, nb, d)
    gx = np.empty((nb, t, d), dtype=ct)
    np.add(gx_steps[0].transpose(1, 0, 2), gx_steps[1, ::-1].transpose(1, 0, 2), out=gx)
    # Weight and bias cotangents: dz against each direction's step rows
    # [x_t, 1, h_prev], rebuilt in step order.
    xh = np.zeros((2, t, nb, d + 1 + hs), dtype=ct)
    xh[0, :, :, :d] = x.transpose(1, 0, 2)
    xh[1, :, :, :d] = x[:, ::-1].transpose(1, 0, 2)
    xh[:, :, :, d] = 1
    xh[0, 1:, :, d + 1 :] = y[:, :-1, :hs].transpose(1, 0, 2)
    xh[1, 1:, :, d + 1 :] = y[:, :0:-1, hs:].transpose(1, 0, 2)
    gwb = np.matmul(dz_rows.transpose(0, 2, 1), xh.reshape(2, t * nb, -1))
    gw = np.delete(gwb, d, axis=2)
    gb = gwb[:, :, d]
    return gx, gw[0], gb[0], gw[1], gb[1]


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
