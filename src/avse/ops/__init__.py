"""Dense-array operations used by the enhancement network.

Every differentiable operation comes in a forward/VJP pair: ``op(...)``
computes the result, ``op_vjp(...)`` maps an upstream cotangent of the
output back to cotangents of every differentiable input.  All functions
are pure, compute in the dtype of their inputs (float64 inputs give
float64 results, as required by gradient checking), and use fixed
reduction orders so repeated calls are bit-identical.

Elementwise ReLU and sigmoid are not ops here: the network writes them
inline (``np.maximum(x, 0)``, SciPy's ``expit`` for the mask) and the
backward writes their cotangents inline too.
"""
