"""Strided 1-D and 3-D convolutions with hand-written VJPs.

Every convolution here rests on two pieces.  ``_correlate`` contracts the
strided input windows of ``_windows`` (a ``sliding_window_view``) against
the kernel in one ``tensordot`` call.  ``_input_adjoint`` is its adjoint
in the input: one ``tensordot`` of kernel and cotangent, then one strided
slice-add per kernel offset, so the loop length is the kernel size, never
the signal length.  The transposed convolution is that adjoint, and its
VJP is a correlation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from avse.errors import InputTooShortError, ShapeError

Array = np.ndarray
_Ints = int | tuple[int, ...]  # one value for every spatial axis, or one per axis
_Cotangents = tuple[Array, Array, Array | None]  # (gx, gw, gb)


def _per_axis(v, n: int) -> tuple[int, ...]:
    return tuple(v) if isinstance(v, (tuple, list)) else (v,) * n


def _check(name, x, w, b, n, transposed=False) -> int:
    """Rank-check ``x`` [C_in, *D] and ``w`` for ``n`` spatial axes, match
    input channels and bias; returns C_out."""
    if x.ndim != n + 1 or w.ndim != n + 2:
        raise ShapeError(
            f"{name} needs an input with {n + 1} axes and a weight with {n + 2}, "
            f"got shapes {x.shape} and {w.shape}"
        )
    c_in, c_out = (w.shape[0], w.shape[1]) if transposed else (w.shape[1], w.shape[0])
    if c_in != x.shape[0]:
        raise ShapeError(f"weight expects {c_in} input channels, input has {x.shape[0]}")
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"bias shape {b.shape} does not match {c_out} output channels")
    return c_out


def _check_cotangent(gy: Array, shape: tuple[int, ...]) -> None:
    if gy.shape != shape:
        raise ShapeError(f"cotangent shape {gy.shape} does not match output {shape}")


def _windows(x, kern, stride, pad) -> Array:
    """Zero-pad the spatial axes of ``x`` [C, *D]; return the strided
    window view [C, *D', *K]."""
    if any(pad):
        x = np.pad(x, ((0, 0),) + tuple((p, p) for p in pad))
    for axis, (d, k) in enumerate(zip(x.shape[1:], kern)):
        if d < k:
            raise InputTooShortError(
                f"padded extent {d} on axis {axis} is shorter than kernel size {k}"
            )
    win = sliding_window_view(x, kern, axis=tuple(range(1, len(kern) + 1)))
    return win[(slice(None),) + tuple(slice(None, None, s) for s in stride)]


def _correlate(win: Array, w: Array, b=None) -> Array:
    """Contract windows [C_in, *D', *K] with ``w`` [C_out, C_in, *K]."""
    n = w.ndim - 2
    y = np.tensordot(w, win, axes=(list(range(1, n + 2)), [0] + list(range(n + 1, 2 * n + 1))))
    return y + b.reshape((-1,) + (1,) * n) if b is not None else y


def _input_adjoint(w, gy, stride, shape) -> Array:
    """Adjoint of ``_correlate`` in its input: scatter ``gy`` [C_out, *D']
    through ``w`` [C_out, C_in, *K] into [C_in, *shape]."""
    # contrib[i, *k, *d] = sum_o w[o, i, *k] * gy[o, *d]
    contrib = np.tensordot(w, gy, axes=([0], [0]))
    gx = np.zeros((w.shape[1],) + tuple(shape), dtype=contrib.dtype)
    spans = [(d - 1) * s + 1 for d, s in zip(gy.shape[1:], stride)]
    for offset in np.ndindex(*w.shape[2:]):
        dst = tuple(slice(k, k + span, s) for k, span, s in zip(offset, spans, stride))
        gx[(slice(None),) + dst] += contrib[(slice(None),) + offset]
    return gx


def _conv_vjp(name, x, w, b, gy, stride, pad, n):
    c_out = _check(name, x, w, b, n)
    stride, pad = _per_axis(stride, n), _per_axis(pad, n)
    win = _windows(x, w.shape[2:], stride, pad)
    _check_cotangent(gy, (c_out,) + win.shape[1 : n + 1])
    gx = _input_adjoint(w, gy, stride, [d + 2 * p for d, p in zip(x.shape[1:], pad)])
    crop = tuple(slice(p, p + d) for p, d in zip(pad, x.shape[1:]))
    axes = list(range(1, n + 1))
    gb = gy.sum(axis=tuple(axes)) if b is not None else None
    return gx[(slice(None),) + crop], np.tensordot(gy, win, axes=(axes, axes)), gb


def conv1d(x: Array, w: Array, b: Array | None = None, stride: int = 1, pad: int = 0) -> Array:
    """Cross-correlate ``x`` [C_in, T] with ``w`` [C_out, C_in, K].

    Returns [C_out, T'] with T' = floor((T + 2*pad - K) / stride) + 1.
    """
    _check("conv1d", x, w, b, 1)
    return _correlate(_windows(x, w.shape[2:], (stride,), (pad,)), w, b)


def conv1d_vjp(
    x: Array, w: Array, b: Array | None, gy: Array, stride: int = 1, pad: int = 0
) -> _Cotangents:
    """Cotangents of conv1d: returns (gx, gw, gb); gb is None when b is."""
    return _conv_vjp("conv1d_vjp", x, w, b, gy, stride, pad, 1)


def conv3d(x: Array, w: Array, b: Array | None = None, stride: _Ints = 1, pad: _Ints = 0) -> Array:
    """Cross-correlate ``x`` [C_in, F, H, W] with ``w`` [C_out, C_in, KF, KH, KW].

    ``stride`` and ``pad`` are ints or per-axis triples (frame, height,
    width).  Returns [C_out, F', H', W'] with the usual
    floor((D + 2p - K)/s) + 1 extent on each axis.
    """
    _check("conv3d", x, w, b, 3)
    return _correlate(_windows(x, w.shape[2:], _per_axis(stride, 3), _per_axis(pad, 3)), w, b)


def conv3d_vjp(
    x: Array, w: Array, b: Array | None, gy: Array, stride: _Ints = 1, pad: _Ints = 0
) -> _Cotangents:
    """Cotangents of conv3d: returns (gx, gw, gb)."""
    return _conv_vjp("conv3d_vjp", x, w, b, gy, stride, pad, 3)


def conv_transpose1d(x: Array, w: Array, b: Array | None = None, stride: int = 1) -> Array:
    """Transposed convolution of ``x`` [C_in, T] with ``w`` [C_in, C_out, K].

    Returns [C_out, L] with L = (T - 1) * stride + K.  It is the input
    adjoint of conv1d with the same kernel: for any x, y,
    <conv1d(x; w), y> == <x, conv_transpose1d(y; w)>.
    """
    _check("conv_transpose1d", x, w, b, 1, transposed=True)
    if x.shape[1] < 1:
        raise InputTooShortError("conv_transpose1d needs at least one input step")
    y = _input_adjoint(w, x, (stride,), ((x.shape[1] - 1) * stride + w.shape[2],))
    return y + b[:, None] if b is not None else y


def conv_transpose1d_vjp(
    x: Array, w: Array, b: Array | None, gy: Array, stride: int = 1
) -> _Cotangents:
    """Cotangents of conv_transpose1d: returns (gx, gw, gb)."""
    c_out = _check("conv_transpose1d_vjp", x, w, b, 1, transposed=True)
    _check_cotangent(gy, (c_out, (x.shape[1] - 1) * stride + w.shape[2]))
    win = _windows(gy, w.shape[2:], (stride,), (0,))  # [C_out, T, K]
    gb = gy.sum(axis=1) if b is not None else None
    return _correlate(win, w), np.tensordot(x, win, axes=([1], [1])), gb
