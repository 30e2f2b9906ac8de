"""Dense-array operations used by the enhancement network.

Every differentiable operation comes in a forward/VJP pair: ``op(...)``
computes the result, ``op_vjp(...)`` maps an upstream cotangent of the
output back to cotangents of every differentiable input.  All functions
are pure, compute in the dtype of their inputs (float64 inputs give
float64 results, as required by gradient checking), and use fixed
reduction orders so repeated calls are bit-identical.
"""

from avse.ops.conv import (
    conv1d,
    conv1d_vjp,
    conv3d,
    conv3d_vjp,
    conv_transpose1d,
    conv_transpose1d_vjp,
)
from avse.ops.dense import (
    activation,
    activation_vjp,
    group_norm,
    group_norm_vjp,
    linear,
    linear_vjp,
    resize_linear_time,
    resize_linear_time_vjp,
)
from avse.ops.rnn import (
    LstmParams,
    bilstm_layer,
    bilstm_layer_vjp,
)

__all__ = [
    "conv1d",
    "conv1d_vjp",
    "conv_transpose1d",
    "conv_transpose1d_vjp",
    "conv3d",
    "conv3d_vjp",
    "linear",
    "linear_vjp",
    "activation",
    "activation_vjp",
    "group_norm",
    "group_norm_vjp",
    "resize_linear_time",
    "resize_linear_time_vjp",
    "LstmParams",
    "bilstm_layer",
    "bilstm_layer_vjp",
]
