"""Forward-path contracts for the tensor operations.

Hand cases pin exact arithmetic; shape laws and error paths pin the
contracts.  Gradient agreement lives in test_gradients.py.
"""

import sys
import threading

import numpy as np
import pytest

from avse import ops
from avse.errors import ConfigError, EmptySequenceError, InputTooShortError, ShapeError
from avse.model.config import default_config, tiny_config
from avse.ops import rnn
from avse.ops.rnn import LstmParams, bilstm_backward_batched, bilstm_forward_batched
from avse.prng import Stream

from helpers import FD_STEP, lstm_reference, randn, rel_err


class TestConv1d:
    def test_sum_kernel_stride_two(self):
        """Kernel [1,1] at stride 2 sums adjacent pairs: [1,2,3,4] -> [3,7]."""
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        w = np.array([[[1.0, 1.0]]])
        y = ops.conv1d(x, w, stride=2)
        assert np.array_equal(y, np.array([[3.0, 7.0]]))

    def test_identity_kernel(self):
        """A size-1 unit kernel at stride 1 reproduces the input exactly."""
        x = randn(Stream(3), (2, 17))
        w = np.zeros((2, 2, 1))
        w[0, 0, 0] = 1.0
        w[1, 1, 0] = 1.0
        assert np.array_equal(ops.conv1d(x, w), x)

    def test_output_length_law(self):
        """T' = floor((T + 2p - K)/s) + 1 over a grid of shapes."""
        stream = Stream(4)
        for t in (5, 16, 33):
            for k in (1, 3, 5):
                for s in (1, 2, 3):
                    for p in (0, 1, 2):
                        if t + 2 * p < k:
                            continue
                        x = randn(stream, (1, t))
                        w = randn(stream, (1, 1, k))
                        y = ops.conv1d(x, w, stride=s, pad=p)
                        assert y.shape == (1, (t + 2 * p - k) // s + 1)

    def test_bias_adds_per_channel(self):
        x = np.ones((1, 4))
        w = np.ones((2, 1, 2))
        y = ops.conv1d(x, w, b=np.array([10.0, -10.0]))
        assert np.array_equal(y[0], np.full(3, 12.0))
        assert np.array_equal(y[1], np.full(3, -8.0))

    def test_input_shorter_than_kernel_raises(self):
        with pytest.raises(InputTooShortError):
            ops.conv1d(np.zeros((1, 3)), np.zeros((1, 1, 5)))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv1d(np.zeros((2, 8)), np.zeros((1, 3, 2)))


class TestConvTranspose1d:
    def test_spreads_ones(self):
        """x=[1,1], kernel [1,1], stride 2 -> [1,1,1,1]."""
        x = np.array([[1.0, 1.0]])
        w = np.array([[[1.0, 1.0]]])
        y = ops.conv_transpose1d(x, w, stride=2)
        assert np.array_equal(y, np.array([[1.0, 1.0, 1.0, 1.0]]))

    def test_overlapping_stride_accumulates(self):
        """Stride 1 with kernel [1,1] adds neighbouring contributions."""
        x = np.array([[1.0, 2.0, 3.0]])
        w = np.array([[[1.0, 1.0]]])
        y = ops.conv_transpose1d(x, w, stride=1)
        assert np.array_equal(y, np.array([[1.0, 3.0, 5.0, 3.0]]))

    def test_output_length_law(self):
        stream = Stream(5)
        for t in (1, 7, 20):
            for k in (1, 4, 16):
                for s in (1, 2, 8):
                    x = randn(stream, (3, t))
                    w = randn(stream, (3, 2, k))
                    y = ops.conv_transpose1d(x, w, stride=s)
                    assert y.shape == (2, (t - 1) * s + k)


class TestConv3d:
    def test_identity_kernel(self):
        x = randn(Stream(6), (1, 4, 5, 6))
        w = np.ones((1, 1, 1, 1, 1))
        assert np.array_equal(ops.conv3d(x, w), x)

    def test_volume_sum_kernel(self):
        """An all-ones full-extent kernel reduces to the volume sum."""
        x = randn(Stream(7), (1, 3, 4, 4))
        w = np.ones((1, 1, 3, 4, 4))
        y = ops.conv3d(x, w)
        assert y.shape == (1, 1, 1, 1)
        assert abs(y.item() - x.sum()) < 1e-12

    def test_video_frontend_shape(self):
        """Kernel (5,7,7), stride (1,2,2), pad (2,3,3) keeps F and halves H, W."""
        x = randn(Stream(8), (1, 16, 32, 32))
        w = randn(Stream(9), (2, 1, 5, 7, 7))
        y = ops.conv3d(x, w, stride=(1, 2, 2), pad=(2, 3, 3))
        assert y.shape == (2, 16, 16, 16)

    def test_per_axis_stride(self):
        x = randn(Stream(10), (2, 6, 8, 10))
        w = randn(Stream(11), (3, 2, 1, 3, 3))
        y = ops.conv3d(x, w, stride=(2, 1, 2), pad=(0, 1, 1))
        assert y.shape == (3, 3, 8, 5)

    def test_too_small_volume_raises(self):
        with pytest.raises(InputTooShortError):
            ops.conv3d(np.zeros((1, 2, 8, 8)), np.zeros((1, 1, 5, 3, 3)))


# A valid (x shape, w shape, C_out, gy shape, stride) for each forward op.
_CONV_CASES = {
    "conv1d": ((2, 9), (3, 2, 3), 3, (3, 7), 1),
    "conv3d": ((2, 3, 4, 4), (3, 2, 1, 3, 3), 3, (3, 3, 2, 2), 1),
    "conv_transpose1d": ((2, 5), (2, 3, 4), 3, (3, 12), 2),
}


def _conv_call(name, fault):
    base = name.removesuffix("_vjp")
    x_shape, w_shape, c_out, gy_shape, stride = _CONV_CASES[base]
    x, w, b, gy = np.ones(x_shape), np.ones(w_shape), np.ones(c_out), np.ones(gy_shape)
    if fault == "rank":
        x = x[None]
    elif fault == "channels":
        x = np.ones((x_shape[0] + 1,) + x_shape[1:])
    elif fault == "bias":
        b = np.ones(c_out + 1)
    elif fault == "cotangent":
        gy = np.ones(gy_shape[:-1] + (gy_shape[-1] + 1,))
    fn = getattr(ops, name)
    if name.endswith("_vjp"):
        return lambda: fn(x, w, b, gy, stride=stride)
    return lambda: fn(x, w, b, stride=stride)


@pytest.mark.parametrize(
    "name, fault",
    [
        (name + suffix, fault)
        for name in _CONV_CASES
        for suffix in ("", "_vjp")
        for fault in ("rank", "channels", "bias") + (("cotangent",) if suffix else ())
    ],
)
def test_conv_entry_points_reject_bad_shapes(name, fault):
    """Every conv entry point raises ShapeError on a wrong-rank input, a
    channel mismatch and a wrong bias shape; every VJP also on a wrong
    cotangent shape.  The unfaulted call succeeds."""
    _conv_call(name, None)()
    with pytest.raises(ShapeError):
        _conv_call(name, fault)()


class TestLinear:
    def test_hand_case(self):
        """y = x W^T + b on a 2x2 system."""
        x = np.array([[1.0, 2.0]])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        b = np.array([0.5, -0.5])
        assert np.array_equal(ops.linear(x, w, b), np.array([[1.5, 2.5]]))

    def test_batch_axes_preserved(self):
        x = randn(Stream(12), (4, 7, 3))
        w = randn(Stream(13), (5, 3))
        assert ops.linear(x, w).shape == (4, 7, 5)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.linear(np.zeros((2, 3)), np.zeros((4, 5)))


class TestActivation:
    def test_relu_clamps_negatives(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(ops.activation("relu", x), [0.0, 0.0, 3.0])

    def test_sigmoid_saturates_without_overflow(self):
        """Extreme inputs hit exactly 0 and 1 with no overflow warnings."""
        with np.errstate(over="raise"):
            y = ops.activation("sigmoid", np.array([-800.0, 800.0, 0.0]))
        assert np.array_equal(y, [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_extremes_raise_nothing_and_keep_dtype(self, dtype):
        x = np.array([-1e4, 1e4, 0.0], dtype=dtype)
        with np.errstate(all="raise"):
            y = ops.activation("sigmoid", x)
        assert y.dtype == dtype
        assert np.array_equal(y, [0.0, 1.0, 0.5])

    def test_sigmoid_matches_logistic_formula(self):
        x = np.linspace(-30.0, 30.0, 6001)
        ref = 1.0 / (1.0 + np.exp(-x))
        assert np.abs(ops.activation("sigmoid", x) / ref - 1.0).max() < 1e-15

    def test_tanh_is_odd(self):
        x = randn(Stream(14), (9,))
        assert np.allclose(
            ops.activation("tanh", x), -ops.activation("tanh", -x), atol=1e-15
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            ops.activation("gelu", np.zeros(3))


class TestGroupNorm:
    def test_single_channel_hand_case(self):
        """x=[1,3]: mean 2, var 1 -> +-1/sqrt(1+eps) with unit affine."""
        y = ops.group_norm(np.array([[1.0, 3.0]]), 1, np.ones(1), np.zeros(1))
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.allclose(y, [[-expected, expected]], atol=1e-15)

    def test_output_statistics(self):
        """Each group is ~zero-mean unit-variance before the affine."""
        x = 3.0 + 2.0 * randn(Stream(15), (6, 50))
        y = ops.group_norm(x, 3, np.ones(6), np.zeros(6))
        for g in range(3):
            block = y[2 * g : 2 * g + 2]
            assert abs(block.mean()) < 1e-12
            assert abs(block.std() - 1.0) < 1e-3  # eps shifts variance slightly

    def test_affine_applied_per_channel(self):
        x = randn(Stream(16), (2, 8))
        gamma = np.array([2.0, -1.0])
        beta = np.array([5.0, 0.0])
        base = ops.group_norm(x, 1, np.ones(2), np.zeros(2))
        y = ops.group_norm(x, 1, gamma, beta)
        assert np.allclose(y, gamma[:, None] * base + beta[:, None], atol=1e-12)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ConfigError):
            ops.group_norm(np.zeros((6, 4)), 4, np.ones(6), np.zeros(6))

    def test_kept_frame_axis_matches_frame_by_frame(self):
        """[C, F, H, W] with the frame axis kept == one [C, H*W] call per frame."""
        stream = Stream(17)
        x = 2.0 + randn(stream, (6, 4, 3, 5))
        gamma = randn(stream, (6,))
        beta = randn(stream, (6,))
        y = ops.group_norm(x, 3, gamma, beta, keep_axes=(1,))
        for f in range(4):
            ref = ops.group_norm(x[:, f].reshape(6, 15), 3, gamma, beta)
            assert np.abs(y[:, f].reshape(6, 15) - ref).max() < 1e-12

    def test_keep_axes_must_name_position_axes(self):
        for axes in ((0,), (3,), (1, 1)):
            with pytest.raises(ShapeError):
                ops.group_norm(np.zeros((2, 3, 4)), 1, np.ones(2), np.zeros(2), keep_axes=axes)


class TestResizeLinearTime:
    def test_two_to_three(self):
        """[0, 2] resized to 3 rows -> [0, 1, 2]."""
        y = ops.resize_linear_time(np.array([[0.0], [2.0]]), 3)
        assert np.array_equal(y.ravel(), [0.0, 1.0, 2.0])

    def test_endpoints_exact(self):
        """First and last input rows are reproduced bit-exactly."""
        stream = Stream(17)
        for t_in, t_out in [(25, 999), (2, 1000), (13, 7), (999, 2)]:
            x = randn(stream, (t_in, 2))
            y = ops.resize_linear_time(x, t_out)
            assert np.array_equal(y[0], x[0])
            assert np.array_equal(y[-1], x[-1])

    def test_single_row_broadcasts(self):
        x = np.array([[3.0, -1.0]])
        y = ops.resize_linear_time(x, 5)
        assert y.shape == (5, 2)
        assert np.array_equal(y, np.repeat(x, 5, axis=0))

    def test_identity_when_lengths_match(self):
        x = randn(Stream(18), (9, 3))
        assert np.allclose(ops.resize_linear_time(x, 9), x, atol=1e-12)


class TestBilstm:
    def test_output_shape_concatenates_directions(self):
        d, h, t = 5, 4, 9
        stream = Stream(19)
        p = LstmParams(
            w_fw=randn(stream, (4 * h, d + h)),
            b_fw=randn(stream, (4 * h,)),
            w_bw=randn(stream, (4 * h, d + h)),
            b_bw=randn(stream, (4 * h,)),
        )
        y = ops.bilstm_layer(randn(stream, (t, d)), p)
        assert y.shape == (t, 2 * h)

    def test_zero_parameters_give_zero_output(self):
        p = LstmParams(
            w_fw=np.zeros((8, 5)),
            b_fw=np.zeros(8),
            w_bw=np.zeros((8, 5)),
            b_bw=np.zeros(8),
        )
        y = ops.bilstm_layer(randn(Stream(20), (6, 3)), p)
        assert np.array_equal(y, np.zeros((6, 4)))

    def test_single_step_cell_oracle(self):
        """One step from zero state follows the gate equations exactly.

        With shared per-direction weights and T=1, both halves equal
        o * tanh(i * g) where (i, f, g, o) come from rows of W.
        """
        w = np.array([[0.3, 9.0], [0.1, 9.0], [-0.2, 9.0], [0.4, 9.0]])
        b = np.array([0.05, 1.0, -0.1, 0.2])
        p = LstmParams(w, b, w.copy(), b.copy())
        x = np.array([[0.7]])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        z = w[:, 0] * 0.7 + b
        expected = sig(z[3]) * np.tanh(sig(z[0]) * np.tanh(z[2]))
        y = ops.bilstm_layer(x, p)
        assert np.allclose(y, [[expected, expected]], atol=1e-12)
        assert abs(expected - (-0.08166088090772124)) < 1e-12

    def test_direction_symmetry(self):
        """Reversing time and swapping direction weights reverses the halves."""
        d, h, t = 3, 2, 7
        stream = Stream(21)
        p = LstmParams(
            w_fw=0.4 * randn(stream, (4 * h, d + h)),
            b_fw=0.4 * randn(stream, (4 * h,)),
            w_bw=0.4 * randn(stream, (4 * h, d + h)),
            b_bw=0.4 * randn(stream, (4 * h,)),
        )
        x = randn(stream, (t, d))
        y = ops.bilstm_layer(x, p)
        swapped = LstmParams(p.w_bw, p.b_bw, p.w_fw, p.b_fw)
        y2 = ops.bilstm_layer(x[::-1].copy(), swapped)
        recon = np.concatenate([y2[::-1, h:], y2[::-1, :h]], axis=1)
        assert np.abs(recon - y).max() < 1e-12

    def test_empty_sequence_raises(self):
        p = LstmParams(
            w_fw=np.zeros((8, 5)),
            b_fw=np.zeros(8),
            w_bw=np.zeros((8, 5)),
            b_bw=np.zeros(8),
        )
        with pytest.raises(EmptySequenceError):
            ops.bilstm_layer(np.zeros((0, 3)), p)


def _random_lstm(stream, d, h, scale=0.5):
    shapes = ((4 * h, d + h), (4 * h,), (4 * h, d + h), (4 * h,))
    return LstmParams(*(scale * randn(stream, shape) for shape in shapes))


@pytest.fixture
def schedule(request, monkeypatch):
    """Forces the schedule of the BiLSTM forward without a cache: "fused"
    runs both directions on the calling thread, "split" runs the
    time-reversed one on the worker."""
    split = request.param == "split"
    monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: split)
    return request.param


def over_schedules(argnames, cases):
    """Every case under both schedules: a fused case keeps the case's own
    id, a split case's id starts with "split-"."""

    def case_id(case):
        return "-".join(getattr(v, "__name__", str(v)) for v in case)

    params = [
        pytest.param(schedule, *case, id=prefix + case_id(case))
        for schedule, prefix in (("fused", ""), ("split", "split-"))
        for case in cases
    ]
    return pytest.mark.parametrize(f"schedule,{argnames}", params, indirect=["schedule"])


class TestBilstmBatched:
    @over_schedules("t,nb", [(t, nb) for t in (1, 2, 7) for nb in (1, 3)])
    def test_matches_per_step_reference(self, schedule, nb, t):
        d, h = 5, 3
        stream = Stream(400 + 10 * nb + t)
        p = _random_lstm(stream, d, h)
        x = randn(stream, (nb, t, d))
        y, _ = bilstm_forward_batched(x, p)
        y_plain, _ = bilstm_forward_batched(x, p, keep_cache=False)
        assert y.shape == (nb, t, 2 * h)
        for row in range(nb):
            ref = lstm_reference(x[row], p.w_fw, p.b_fw, p.w_bw, p.b_bw)
            assert np.abs(y[row] - ref).max() < 1e-12
            assert np.abs(y_plain[row] - ref).max() < 1e-12

    def test_batch_rows_equal_single_row_calls(self):
        """Rows never mix: a batch of B gives what B one-row calls give
        (up to float64 rounding, as BLAS may block each product differently)."""
        stream = Stream(420)
        p = _random_lstm(stream, 4, 3)
        x = randn(stream, (5, 6, 4))
        y, _ = bilstm_forward_batched(x, p)
        rows = np.concatenate([bilstm_forward_batched(x[r : r + 1], p)[0] for r in range(5)])
        assert np.abs(y - rows).max() < 1e-12

    @over_schedules("dtype", [(np.float32,), (np.float64,)])
    def test_output_without_cache_is_bit_identical(self, schedule, dtype):
        stream = Stream(421)
        p = _random_lstm(stream, 4, 3)
        p = LstmParams(*(a.astype(dtype) for a in (p.w_fw, p.b_fw, p.w_bw, p.b_bw)))
        x = randn(stream, (3, 9, 4)).astype(dtype)
        y_cached, cache = bilstm_forward_batched(x, p, keep_cache=True)
        y_plain, none = bilstm_forward_batched(x, p, keep_cache=False)
        assert none is None and cache["hidden_size"] == 3
        assert y_plain.dtype == dtype
        assert np.array_equal(y_cached, y_plain)

    @over_schedules("dtype", [(np.float32,), (np.float64,)])
    def test_saturated_gates_raise_nothing(self, schedule, dtype):
        """Pre-activations at +-1e4 saturate every gate without a floating
        point warning, forward and backward."""
        stream = Stream(422)
        d, h = 3, 4
        p = _random_lstm(stream, d, h, scale=1e-2)
        signs = np.where(np.arange(4 * h) % 2 == 0, 1e4, -1e4)
        p = LstmParams(*(a.astype(dtype) for a in (p.w_fw, signs, p.w_bw, -signs)))
        x = randn(stream, (2, 5, d)).astype(dtype)
        gy = randn(stream, (2, 5, 2 * h)).astype(dtype)
        with np.errstate(all="raise"):
            y, cache = bilstm_forward_batched(x, p)
            cotangents = bilstm_backward_batched(cache, gy)
            y_plain, _ = bilstm_forward_batched(x, p, keep_cache=False)
        assert np.array_equal(y_plain, y)
        assert y.dtype == dtype and np.isfinite(y).all()
        assert np.abs(y).max() > 0.7  # saturated, not zeroed
        assert all(np.isfinite(c).all() for c in cotangents)

    def test_blocked_backward_matches_reference(self):
        """Across several backward blocks, ending in a partial one, the
        output matches the per-step reference and each of the five
        cotangents matches the reference's central difference along a
        random direction."""
        nb, t, d, h = 40, 10, 3, 256
        stream = Stream(423)
        p = _random_lstm(stream, d, h, scale=0.1)
        x = randn(stream, (nb, t, d))
        gy = randn(stream, (nb, t, 2 * h))
        y, cache = bilstm_forward_batched(x, p)
        block = rnn.BLOCK_BYTES // cache["gates"][0].nbytes
        assert 1 <= block < t and t % block != 0
        refs = [lstm_reference(x[r], p.w_fw, p.b_fw, p.w_bw, p.b_bw) for r in range(nb)]
        assert np.abs(y - np.stack(refs)).max() < 1e-12
        cotangents = bilstm_backward_batched(cache, gy)

        def loss(args):
            xs, wf, bf, wb, bb = args
            return sum(
                float((lstm_reference(xs[r], wf, bf, wb, bb) * gy[r]).sum()) for r in range(nb)
            )

        base = [x, p.w_fw, p.b_fw, p.w_bw, p.b_bw]
        for i, analytic in enumerate(cotangents):
            v = randn(stream, base[i].shape)
            plus, minus = list(base), list(base)
            plus[i], minus[i] = base[i] + FD_STEP * v, base[i] - FD_STEP * v
            numeric = (loss(plus) - loss(minus)) / (2 * FD_STEP)
            assert rel_err(numeric, float((analytic * v).sum())) < 1e-4, i

    def test_transposed_view_input_is_bit_identical(self):
        """A [B, T, D] view of time-major data gives what the same data
        made contiguous gives, output and all five cotangents."""
        stream = Stream(424)
        p = _random_lstm(stream, 4, 3)
        p = LstmParams(*(a.astype(np.float32) for a in (p.w_fw, p.b_fw, p.w_bw, p.b_bw)))
        x_view = randn(stream, (7, 5, 4)).astype(np.float32).transpose(1, 0, 2)
        x_copy = np.ascontiguousarray(x_view)
        gy = randn(stream, (5, 7, 6)).astype(np.float32)
        y_view, cache_view = bilstm_forward_batched(x_view, p)
        y_copy, cache_copy = bilstm_forward_batched(x_copy, p)
        assert np.array_equal(y_view, y_copy)
        for a, b in zip(
            bilstm_backward_batched(cache_view, gy), bilstm_backward_batched(cache_copy, gy)
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_forward_is_bit_identical_to_fused(self, monkeypatch, dtype):
        """The forward without a cache, on a transposed view of time-major
        data as the separator passes it, gives the same bits on either
        schedule as the forward that keeps its records."""
        nb, t, d, h = 40, 10, 3, 256
        stream = Stream(425)
        p = _random_lstm(stream, d, h, scale=0.1)
        p = LstmParams(*(a.astype(dtype) for a in (p.w_fw, p.b_fw, p.w_bw, p.b_bw)))
        x = randn(stream, (t, nb, d)).astype(dtype).transpose(1, 0, 2)
        y, _ = bilstm_forward_batched(x, p)
        for split in (False, True):
            monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: split)
            assert np.array_equal(bilstm_forward_batched(x, p, keep_cache=False)[0], y)

    def test_errstate_holds_in_the_worker(self):
        """np.errstate(all="raise") set on the calling thread raises inside
        the worker's direction, and the error reaches the caller."""

        def run(dirs):
            return np.divide(np.ones(2), 0.0) if dirs.start == 1 else None

        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            rnn._by_direction(run, True)
        with np.errstate(divide="ignore"):
            assert np.isinf(rnn._by_direction(run, True)[1]).all()

    def test_split_runs_the_reversed_direction_on_the_worker(self):
        threads = {}

        def run(dirs):
            threads[dirs.start] = threading.get_ident()
            return dirs

        assert rnn._by_direction(run, False) == [slice(0, 2)]
        assert threads == {0: threading.get_ident()}
        assert rnn._by_direction(run, True) == [slice(0, 1), slice(1, 2)]
        assert threads[0] == threading.get_ident() != threads[1]

    def test_worker_exception_reaches_the_caller(self):
        done = []

        def run(dirs):
            if dirs.start == 1:
                raise ValueError("worker direction failed")
            done.append(dirs)

        with pytest.raises(ValueError, match="worker direction failed"):
            rnn._by_direction(run, True)
        assert done == [slice(0, 1)]

    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        """Six threads call the split BiLSTM at once, with the interpreter
        switching threads every microsecond; each gets exactly what a
        lone fused call gives."""
        stream = Stream(427)
        p = _random_lstm(stream, 5, 6)
        cases = [randn(stream, (3, 8, 5)) for _ in range(6)]

        def forward(x):
            return bilstm_forward_batched(x, p, keep_cache=False)[0]

        monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: False)
        expected = [forward(x) for x in cases]
        monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: True)
        results = [None] * len(cases)

        def work(i):
            for _ in range(5):
                results[i] = forward(cases[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(got, want) for got, want in zip(results, expected))

    def test_small_steps_one_cpu_or_threaded_blas_never_touch_the_worker(self, monkeypatch):
        def no_worker():
            raise AssertionError("the worker was used")

        monkeypatch.setattr(rnn, "_worker", no_worker)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        tiny, full = tiny_config(), default_config()
        tiny_dh = (tiny.fusion_channels, tiny.sep_hidden)
        full_dh = (full.fusion_channels, full.sep_hidden)
        stream = Stream(426)
        for cpus, blas, nb, (d, h) in (
            ({0, 1}, "1", 4, tiny_dh),
            ({0, 1}, "1", 999, tiny_dh),
            ({0}, "1", 100, full_dh),
            ({0, 1}, "2", 100, full_dh),
            ({0, 1}, None, 100, full_dh),  # unset: BLAS uses both CPUs
        ):
            monkeypatch.setattr(rnn.os, "sched_getaffinity", lambda pid: cpus)
            if blas is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS")
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
            assert not rnn.split_directions(nb, d, h)
            p = _random_lstm(stream, d, h, scale=0.1)
            bilstm_forward_batched(randn(stream, (nb, 2, d)), p, keep_cache=False)
        # The default config's intra step at 1 s (39 chunks) splits on two
        # CPUs with one BLAS thread, however that thread count is set.
        monkeypatch.setattr(rnn.os, "sched_getaffinity", lambda pid: {0, 1})
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
            assert rnn.split_directions(39, *full_dh)
            monkeypatch.delenv(var)

    def test_training_stays_on_the_calling_thread(self, monkeypatch):
        """Where the forward without a cache splits, the forward that keeps
        its records and the backward still never touch the worker."""

        def no_worker():
            raise AssertionError("the worker was used")

        monkeypatch.setattr(rnn, "_worker", no_worker)
        monkeypatch.setattr(rnn, "split_directions", lambda nb, d, hs: True)
        stream = Stream(428)
        p = _random_lstm(stream, 5, 6)
        x = randn(stream, (3, 8, 5))
        y, cache = bilstm_forward_batched(x, p)
        bilstm_backward_batched(cache, y)
        with pytest.raises(AssertionError, match="the worker was used"):
            bilstm_forward_batched(x, p, keep_cache=False)
