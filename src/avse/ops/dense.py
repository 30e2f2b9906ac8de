"""Affine, normalization and linear time-resize operations with VJPs,
and the half-overlap fold (overlap-add, segmentation's adjoint, STOI).

Every result owns its memory, and no input is written unless the caller
hands it over: ``linear`` and ``group_norm`` take an ``out=`` array for
their result (``group_norm``'s may be its input), and ``group_norm`` a
``scratch=`` array for its squared deviations; the inference separator
passes buffers it reuses (``model/network.py``).  The affine and normalization ops build their result in one
array, their own or ``out``, and update it in place, in the same
rounded operations, and so to the same bits, as the out-of-place
formulas; an update whose NumPy result dtype differs from the array's
(float32 activations with a float64 bias, say) allocates instead, so
mixed dtypes promote as they always did.
"""

from __future__ import annotations

import numpy as np

from avse.errors import ConfigError, ShapeError

GROUP_NORM_EPS = 1e-5  # added to every group's variance


def _update(ufunc: np.ufunc, a: np.ndarray, b) -> np.ndarray:
    """ufunc(a, b), written into a when that keeps the result dtype.

    Only for an ``a`` the caller allocated itself."""
    if np.result_type(a, b) == a.dtype:
        return ufunc(a, b, out=a)
    return ufunc(a, b)


def linear(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Affine map over the trailing axis: y[..., o] = sum_i x[..., i] w[o, i] + b[o].

    ``out``, a C-contiguous array of the product's shape and dtype, takes
    the result in place of a new array (unless the bias promotes it)."""
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be [D_out, D_in], got shape {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(
            f"input feature size {x.shape[-1]} does not match weight input size {w.shape[1]}"
        )
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} does not match {w.shape[0]} output features")
    if out is not None:
        out = out.reshape(-1, w.shape[0])
    y = np.matmul(x.reshape(-1, w.shape[1]), w.T, out=out)
    if b is not None:
        y = _update(np.add, y, b)
    return y.reshape(x.shape[:-1] + (w.shape[0],))


def linear_vjp(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None,
    gy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Cotangents of linear: returns (gx, gw, gb)."""
    if gy.shape != x.shape[:-1] + (w.shape[0],):
        raise ShapeError(f"cotangent shape {gy.shape} does not match output")
    gy_flat = gy.reshape(-1, w.shape[0])
    gx = (gy_flat @ w).reshape(x.shape[:-1] + (w.shape[1],))
    gw = gy_flat.T @ x.reshape(-1, w.shape[1])
    gb = gy_flat.sum(axis=0) if b is not None else None
    return gx, gw, gb


def _grouped(x: np.ndarray, groups: int) -> np.ndarray:
    """[C, ...] -> [groups, C // groups, ...], a view of any layout."""
    return x.reshape((groups, x.shape[0] // groups) + x.shape[1:])


def _pooled_axes(ndim: int, keep_axes: tuple[int, ...]) -> tuple[int, ...]:
    """Axes of the grouped view that statistics pool over: the channels
    of a group and every position axis not kept."""
    return (1,) + tuple(a + 1 for a in range(1, ndim) if a not in keep_axes)


def _group_norm_stats(
    x: np.ndarray,
    groups: int,
    keep_axes: tuple[int, ...],
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (xhat, inv_std) in the grouped layout of _grouped; xhat is
    ``out`` (see group_norm) or a new array, and the squared deviations go
    to ``scratch`` or a new array."""
    xg = _grouped(x, groups)
    axes = _pooled_axes(x.ndim, keep_axes)
    mu = xg.mean(axis=axes, keepdims=True)
    d = np.subtract(xg, mu, out=None if out is None else _grouped(out, groups))
    sq = None if scratch is None else _grouped(scratch, groups)
    var = np.multiply(d, d, out=sq).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + GROUP_NORM_EPS)
    return _update(np.multiply, d, inv), inv


def _check_group_norm(x, groups, gamma, beta, keep_axes) -> None:
    if x.ndim < 2:
        raise ShapeError(f"group_norm input must be [C, ...], got shape {x.shape}")
    if len(set(keep_axes)) != len(keep_axes) or any(not 0 < a < x.ndim for a in keep_axes):
        raise ShapeError(f"keep_axes {keep_axes} must name distinct axes 1..{x.ndim - 1}")
    c = x.shape[0]
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"groups={groups} does not divide {c} channels")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"gamma/beta shapes {gamma.shape}/{beta.shape} do not match {c} channels"
        )


def group_norm(
    x: np.ndarray,
    groups: int,
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    keep_axes: tuple[int, ...] = (),
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Normalize [C, ...] per channel group, then scale and shift per channel.

    Statistics pool over all channels of a group and over every axis not
    named in ``keep_axes``; each index along the kept axes gets its own
    statistics.  A single group with nothing kept gives layer
    normalization over the whole tensor.

    ``out``, ``x`` itself or an array of its shape and dtype, takes the
    result in place of a new array (unless gamma or beta promotes it).
    ``scratch``, an array of x's shape and dtype laid out in memory as x
    is, takes the squared deviations and is left holding them.  So laid
    out, the reductions walk the same order, and the bits are those of
    the call without them.
    """
    _check_group_norm(x, groups, gamma, beta, keep_axes)
    xhat, _ = _group_norm_stats(x, groups, keep_axes, out, scratch)
    per_channel = (-1,) + (1,) * (x.ndim - 1)
    y = _update(np.multiply, xhat.reshape(x.shape), gamma.reshape(per_channel))
    return _update(np.add, y, beta.reshape(per_channel))


def group_norm_vjp(
    x: np.ndarray,
    groups: int,
    gamma: np.ndarray,
    beta: np.ndarray,
    gy: np.ndarray,
    *,
    keep_axes: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents of group_norm: returns (gx, ggamma, gbeta)."""
    if gy.shape != x.shape:
        raise ShapeError(f"cotangent shape {gy.shape} does not match input {x.shape}")
    _check_group_norm(x, groups, gamma, beta, keep_axes)
    xh, inv = _group_norm_stats(x, groups, keep_axes)
    positions = tuple(range(1, x.ndim))
    ggamma = (gy * xh.reshape(x.shape)).sum(axis=positions)
    gbeta = gy.sum(axis=positions)
    gxh = _grouped(gy * gamma.reshape((-1,) + (1,) * (x.ndim - 1)), groups)
    axes = _pooled_axes(x.ndim, keep_axes)
    mean_g = gxh.mean(axis=axes, keepdims=True)
    mean_gx = (gxh * xh).mean(axis=axes, keepdims=True)
    # inv * (gxh - mean_g - xh * mean_gx), built inside gxh
    gx = _update(np.subtract, gxh, mean_g)
    gx = _update(np.subtract, gx, _update(np.multiply, xh, mean_gx))
    gx = _update(np.multiply, gx, inv)
    return gx.reshape(x.shape), ggamma, gbeta


def _resize_positions(t_in: int, t_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and interpolation weights for endpoint-aligned resize."""
    # Multiply before dividing so position t_out-1 lands exactly on t_in-1.
    idx = np.arange(t_out)
    pos = idx * (t_in - 1) / (t_out - 1)
    i0 = np.minimum(np.floor(pos).astype(np.int64), t_in - 2)
    frac = pos - i0
    return i0, frac


def resize_linear_time(x: np.ndarray, t_out: int) -> np.ndarray:
    """Resample [T_in, D] to [t_out, D] by endpoint-aligned linear interpolation.

    Output row j samples source position j * (T_in - 1) / (t_out - 1), so
    the first and last rows of the input are reproduced exactly.  A
    single-row input broadcasts to every output row.
    """
    if x.ndim != 2:
        raise ShapeError(f"resize input must be [T, D], got shape {x.shape}")
    t_in = x.shape[0]
    if t_in < 1:
        raise ShapeError("resize input must have at least one row")
    if t_out < 1:
        raise ConfigError(f"target length must be positive, got {t_out}")
    if t_in == 1 or t_out == 1:
        return np.repeat(x[:1], t_out, axis=0)
    i0, frac = _resize_positions(t_in, t_out)
    frac = frac.astype(x.dtype, copy=False)  # keep the output in the input dtype
    return (1.0 - frac)[:, None] * x[i0] + frac[:, None] * x[i0 + 1]


def resize_linear_time_vjp(x: np.ndarray, t_out: int, gy: np.ndarray) -> np.ndarray:
    """Cotangent of the input of resize_linear_time."""
    t_in = x.shape[0]
    if gy.shape != (t_out, x.shape[1]):
        raise ShapeError(f"cotangent shape {gy.shape} does not match ({t_out}, {x.shape[1]})")
    gx = np.zeros_like(x)
    if t_in == 1 or t_out == 1:
        gx[0] = gy.sum(axis=0) if t_in == 1 else gy[0]
        return gx
    i0, frac = _resize_positions(t_in, t_out)
    frac = frac.astype(x.dtype, copy=False)
    np.add.at(gx, i0, (1.0 - frac)[:, None] * gy)
    np.add.at(gx, i0 + 1, frac[:, None] * gy)
    return gx


def fold_halves(chunks: np.ndarray) -> np.ndarray:
    """Sum half-overlapping chunks [Q, 2 * hop, C] into [C, (Q + 1) * hop];
    all first halves are added before all second halves."""
    q, chunk, c = chunks.shape
    hop = chunk // 2
    acc = np.zeros((c, q + 1, hop), dtype=chunks.dtype)
    acc[:, :-1] += chunks[:, :hop].transpose(2, 0, 1)
    acc[:, 1:] += chunks[:, hop:].transpose(2, 0, 1)
    return acc.reshape(c, (q + 1) * hop)
