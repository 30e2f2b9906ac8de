"""Gradient agreement: adjoint identity, per-op finite differences, and
the end-to-end parameter gradient check.

Per-op tolerance is 1e-4 and end-to-end is 1e-3; both comfortably above
the ~1e-7..1e-6 errors a correct backward pass produces at step 1e-5.
"""

import re

import numpy as np
import pytest

from avse.cli import GRADCHECK_THRESHOLD
from avse.data.synth import synth_scene
from avse.errors import ShapeError
from avse.model.config import tiny_config
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.params import init_parameters
from avse.ops import conv, dense
from avse.ops.rnn import (
    LstmParams,
    bilstm_backward_batched,
    bilstm_forward_batched,
)
from avse.prng import Stream
from avse.training import gradcheck
from avse.training.gradcheck import FD_STEP, REL_FLOOR, grad_check
from avse.training.loss import si_sdr_loss_vjp

from helpers import fd_grad, lstm_reference, randn, rel_err, scaled_config, workspace_arrays

PER_OP_TOL = 1e-4
END_TO_END_TOL = 1e-3


class TestAdjointIdentity:
    def test_conv_pair_is_adjoint_over_random_shapes(self):
        """<conv1d(x; w, s), y> == <x, conv_transpose1d(y; w, s)>.

        120 random (channels, kernel, stride, length) draws, relative
        error below 1e-10.  Output length is chosen so the transpose
        reconstructs the input extent exactly.
        """
        stream = Stream(100)
        for trial in range(120):
            c_in = 1 + int(stream.integers(1, 4)[0])
            c_out = 1 + int(stream.integers(1, 4)[0])
            k = 1 + int(stream.integers(1, 16)[0])
            s = 1 + int(stream.integers(1, min(k, 8))[0])
            t_out = 1 + int(stream.integers(1, 25)[0])
            t = (t_out - 1) * s + k
            x = randn(stream, (c_in, t))
            w = randn(stream, (c_out, c_in, k))
            y = randn(stream, (c_out, t_out))
            lhs = float((conv.conv1d(x, w, stride=s) * y).sum())
            rhs = float((x * conv.conv_transpose1d(y, w, stride=s)).sum())
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) < 1e-10


def _cotangent_loss(op, gy):
    def f(*args):
        return float((op(*args) * gy).sum())

    return f


class TestPerOpFiniteDifferences:
    def test_conv1d(self):
        stream = Stream(101)
        x = randn(stream, (2, 14))
        w = randn(stream, (3, 2, 4))
        b = randn(stream, (3,))
        gy = randn(stream, conv.conv1d(x, w, b, stride=2).shape)
        gx, gw, gb = conv.conv1d_vjp(x, w, b, gy, stride=2)
        f = _cotangent_loss(lambda x, w, b: conv.conv1d(x, w, b, stride=2), gy)
        assert rel_err(fd_grad(lambda v: f(v, w, b), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, b), w), gw) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, w, v), b), gb) < PER_OP_TOL

    def test_conv1d_with_padding(self):
        stream = Stream(102)
        x = randn(stream, (1, 10))
        w = randn(stream, (2, 1, 3))
        gy = randn(stream, conv.conv1d(x, w, stride=1, pad=2).shape)
        gx, gw, _ = conv.conv1d_vjp(x, w, None, gy, stride=1, pad=2)
        f = _cotangent_loss(lambda x, w: conv.conv1d(x, w, stride=1, pad=2), gy)
        assert rel_err(fd_grad(lambda v: f(v, w), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v), w), gw) < PER_OP_TOL

    def test_conv_transpose1d(self):
        stream = Stream(103)
        x = randn(stream, (3, 6))
        w = randn(stream, (3, 2, 5))
        b = randn(stream, (2,))
        gy = randn(stream, conv.conv_transpose1d(x, w, b, stride=3).shape)
        gx, gw, gb = conv.conv_transpose1d_vjp(x, w, b, gy, stride=3)
        f = _cotangent_loss(lambda x, w, b: conv.conv_transpose1d(x, w, b, stride=3), gy)
        assert rel_err(fd_grad(lambda v: f(v, w, b), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, b), w), gw) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, w, v), b), gb) < PER_OP_TOL

    def test_conv3d(self):
        stream = Stream(104)
        x = randn(stream, (1, 4, 5, 5))
        w = randn(stream, (2, 1, 3, 3, 3))
        b = randn(stream, (2,))
        kwargs = {"stride": (1, 2, 2), "pad": (1, 1, 1)}
        gy = randn(stream, conv.conv3d(x, w, b, **kwargs).shape)
        gx, gw, gb = conv.conv3d_vjp(x, w, b, gy, **kwargs)
        f = _cotangent_loss(lambda x, w, b: conv.conv3d(x, w, b, **kwargs), gy)
        assert rel_err(fd_grad(lambda v: f(v, w, b), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, b), w), gw) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, w, v), b), gb) < PER_OP_TOL

    def test_linear(self):
        stream = Stream(105)
        x = randn(stream, (4, 7, 3))
        w = randn(stream, (5, 3))
        b = randn(stream, (5,))
        gy = randn(stream, (4, 7, 5))
        gx, gw, gb = dense.linear_vjp(x, w, b, gy)
        f = _cotangent_loss(dense.linear, gy)
        assert rel_err(fd_grad(lambda v: f(v, w, b), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, b), w), gw) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, w, v), b), gb) < PER_OP_TOL

    def test_group_norm(self):
        stream = Stream(107)
        x = randn(stream, (6, 11))
        gamma = randn(stream, (6,))
        beta = randn(stream, (6,))
        gy = randn(stream, (6, 11))
        gx, gg, gb = dense.group_norm_vjp(x, 3, gamma, beta, gy)
        f = _cotangent_loss(lambda x, g, b: dense.group_norm(x, 3, g, b), gy)
        assert rel_err(fd_grad(lambda v: f(v, gamma, beta), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, beta), gamma), gg) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, gamma, v), beta), gb) < PER_OP_TOL

        # [C, F, H, W] with statistics per frame, as in the visual trunk.
        x = randn(stream, (4, 3, 2, 3))
        gamma = randn(stream, (4,))
        beta = randn(stream, (4,))
        gy = randn(stream, (4, 3, 2, 3))
        gx, gg, gb = dense.group_norm_vjp(x, 2, gamma, beta, gy, keep_axes=(1,))
        f = _cotangent_loss(lambda x, g, b: dense.group_norm(x, 2, g, b, keep_axes=(1,)), gy)
        assert rel_err(fd_grad(lambda v: f(v, gamma, beta), x), gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, v, beta), gamma), gg) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(x, gamma, v), beta), gb) < PER_OP_TOL

        # Layer norm of chunked features [Q, P, C] through a [C, Q, P] view,
        # as in the separator.
        y = randn(stream, (3, 4, 5))
        gamma = randn(stream, (5,))
        beta = randn(stream, (5,))
        gy = randn(stream, (5, 3, 4))
        gx, gg, gb = dense.group_norm_vjp(np.moveaxis(y, -1, 0), 1, gamma, beta, gy)
        f = _cotangent_loss(lambda y, g, b: dense.group_norm(np.moveaxis(y, -1, 0), 1, g, b), gy)
        gx_fd = np.moveaxis(fd_grad(lambda v: f(v, gamma, beta), y), -1, 0)
        assert rel_err(gx_fd, gx) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(y, v, beta), gamma), gg) < PER_OP_TOL
        assert rel_err(fd_grad(lambda v: f(y, gamma, v), beta), gb) < PER_OP_TOL

    def test_resize_linear_time(self):
        stream = Stream(108)
        x = randn(stream, (7, 3))
        gy = randn(stream, (12, 3))
        gx = dense.resize_linear_time_vjp(x, 12, gy)
        f = _cotangent_loss(lambda v: dense.resize_linear_time(v, 12), gy)
        assert rel_err(fd_grad(f, x), gx) < PER_OP_TOL

    def test_bilstm_all_five_cotangents(self):
        d, h, t = 3, 2, 5
        stream = Stream(109)
        p = LstmParams(
            w_fw=0.4 * randn(stream, (4 * h, d + h)),
            b_fw=0.4 * randn(stream, (4 * h,)),
            w_bw=0.4 * randn(stream, (4 * h, d + h)),
            b_bw=0.4 * randn(stream, (4 * h,)),
        )
        x = randn(stream, (1, t, d))
        gy = randn(stream, (1, t, 2 * h))
        _, cache = bilstm_forward_batched(x, p)
        gx, gwf, gbf, gwb, gbb = bilstm_backward_batched(cache, gy)

        def loss(x, wf, bf, wb, bb):
            y, _ = bilstm_forward_batched(x, LstmParams(wf, bf, wb, bb), keep_cache=False)
            return float((y * gy).sum())

        pairs = [
            (gx, lambda v: loss(v, p.w_fw, p.b_fw, p.w_bw, p.b_bw), x),
            (gwf, lambda v: loss(x, v, p.b_fw, p.w_bw, p.b_bw), p.w_fw),
            (gbf, lambda v: loss(x, p.w_fw, v, p.w_bw, p.b_bw), p.b_fw),
            (gwb, lambda v: loss(x, p.w_fw, p.b_fw, v, p.b_bw), p.w_bw),
            (gbb, lambda v: loss(x, p.w_fw, p.b_fw, p.w_bw, v), p.b_bw),
        ]
        for analytic, f, arg in pairs:
            assert rel_err(fd_grad(f, arg), analytic) < PER_OP_TOL


    @pytest.mark.parametrize("nb, t", [(1, 1), (1, 4), (3, 3)])
    def test_batched_bilstm_against_reference(self, nb, t):
        """bilstm_backward_batched gives the cotangents of the per-step
        float64 reference, found by finite differences."""
        d, h = 3, 2
        stream = Stream(110 + 10 * nb + t)
        p = LstmParams(
            w_fw=0.4 * randn(stream, (4 * h, d + h)),
            b_fw=0.4 * randn(stream, (4 * h,)),
            w_bw=0.4 * randn(stream, (4 * h, d + h)),
            b_bw=0.4 * randn(stream, (4 * h,)),
        )
        x = randn(stream, (nb, t, d))
        gy = randn(stream, (nb, t, 2 * h))
        _, cache = bilstm_forward_batched(x, p)
        gx, gwf, gbf, gwb, gbb = bilstm_backward_batched(cache, gy)

        def loss(x, wf, bf, wb, bb):
            ys = [lstm_reference(x[r], wf, bf, wb, bb) for r in range(nb)]
            return float((np.stack(ys) * gy).sum())

        pairs = [
            (gx, lambda v: loss(v, p.w_fw, p.b_fw, p.w_bw, p.b_bw), x),
            (gwf, lambda v: loss(x, v, p.b_fw, p.w_bw, p.b_bw), p.w_fw),
            (gbf, lambda v: loss(x, p.w_fw, v, p.w_bw, p.b_bw), p.b_fw),
            (gwb, lambda v: loss(x, p.w_fw, p.b_fw, v, p.b_bw), p.w_bw),
            (gbb, lambda v: loss(x, p.w_fw, p.b_fw, p.w_bw, v), p.b_bw),
        ]
        for analytic, f, arg in pairs:
            assert analytic.shape == arg.shape
            assert rel_err(fd_grad(f, arg), analytic) < PER_OP_TOL


def _assert_cotangents_own_their_memory(grads, params):
    """One cotangent per parameter, with its dtype and shape, and the
    arrays behind them hold those cotangents and no more: no view keeps a
    larger work array alive."""
    assert set(grads) == set(params)
    for name, p in params.items():
        assert (grads[name].dtype, grads[name].shape) == (p.dtype, p.shape), name
    bases = {}
    for g in grads.values():
        while g.base is not None:
            g = g.base
        bases[id(g)] = g
    assert sum(b.nbytes for b in bases.values()) == sum(p.nbytes for p in params.values())


class TestEndToEnd:
    def test_tiny_model_matches_finite_differences(self):
        assert grad_check(tiny_config(), seed=0) < END_TO_END_TOL

    def test_same_seed_repeats_identically(self):
        assert grad_check(tiny_config(), seed=7) == grad_check(tiny_config(), seed=7)

    def test_different_seeds_sample_differently(self):
        values = {grad_check(tiny_config(), seed=s) for s in range(3)}
        assert len(values) > 1

    def test_every_tensor_is_sampled(self, monkeypatch):
        """Corrupting any one tensor's analytic gradient is detected.

        Rotates through seeds 0..4, so detection also demonstrates
        coverage of every named tensor across those seeds.
        """
        names = list(init_parameters(tiny_config(), 0))
        real_bwd = gradcheck.enhance_bwd
        for i, name in enumerate(names):
            def corrupted(cache, params, config, g_out, _name=name):
                grads = real_bwd(cache, params, config, g_out)
                grads[_name] = grads[_name] * 3.0 + 1.0
                return grads

            monkeypatch.setattr(gradcheck, "enhance_bwd", corrupted)
            assert grad_check(tiny_config(), seed=i % 5) > END_TO_END_TOL, name

    def test_deeper_topology_matches_finite_differences(self):
        """Two blocks per trunk stage and two separator units, so the
        identity-shortcut branch of ``_trunk_block_bwd`` and the
        unit-to-unit chain of ``_separator_bwd`` are checked too; the tiny
        config has neither.  Central differences at ``FD_STEP`` on 4
        sampled entries of each of the 73 tensors.  Seed 1 holds no ReLU
        kink within a step of any sampled entry: differences at FD_STEP and
        FD_STEP / 10 agree within 6e-7, and the worst entry reads about 1e-7."""
        config = scaled_config(tiny_config(), vfn_blocks_per_stage=2, sep_units=2)
        root = Stream(1)
        h, w = config.frame_hw
        wave = root.spawn(0).normal(64)
        frames = root.spawn(1).normal(2 * h * w).reshape(2, 1, h, w)
        target = root.spawn(2).normal(64)
        params = init_parameters(config, 1, dtype=np.float64)
        out, cache = enhance_fwd(wave, frames, params, config)
        grads = enhance_bwd(cache, params, config, si_sdr_loss_vjp(target, out)[1])

        def loss_at(tensor, idx, value):
            orig, tensor[idx] = tensor[idx], value
            try:
                return si_sdr_loss_vjp(target, enhance_fwd(wave, frames, params, config)[0])[0]
            finally:
                tensor[idx] = orig

        pick, worst = root.spawn(3), 0.0
        for name in sorted(params):
            tensor = params[name]
            for flat in pick.integers(4, tensor.size):
                idx = np.unravel_index(int(flat), tensor.shape)
                x = tensor[idx]
                numeric = (loss_at(tensor, idx, x + FD_STEP)
                           - loss_at(tensor, idx, x - FD_STEP)) / (2 * FD_STEP)
                analytic = float(grads[name][idx])
                rel = abs(numeric - analytic) / max(abs(numeric) + abs(analytic), REL_FLOOR)
                worst = max(worst, rel)
        assert worst < GRADCHECK_THRESHOLD

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cotangents_own_exactly_their_memory(self, dtype):
        """enhance_bwd returns one cotangent per parameter, with its dtype
        and shape, and the arrays behind them hold those cotangents and no
        more: no view keeps a larger work array alive."""
        config = tiny_config()
        params = init_parameters(config, 0, dtype=dtype)
        scene = synth_scene(0, 0.5, config)
        out, cache = enhance_fwd(
            scene.target.astype(dtype), scene.frames.astype(dtype), params, config
        )
        grads = enhance_bwd(cache, params, config, np.ones_like(out))
        _assert_cotangents_own_their_memory(grads, params)

    def test_cotangents_own_their_memory_after_steps_through_a_workspace(self):
        """After two steps that write into one workspace, the cotangents
        still hold their own memory and share none with the workspace."""
        config = tiny_config()
        params = init_parameters(config, 0, dtype=np.float32)
        scene = synth_scene(0, 0.5, config)
        wave, frames = scene.target.astype(np.float32), scene.frames.astype(np.float32)
        work = {}
        for _ in range(2):
            out, cache = enhance_fwd(wave, frames, params, config, work)
            grads = enhance_bwd(cache, params, config, np.ones_like(out), work)
        _assert_cotangents_own_their_memory(grads, params)
        arrays = workspace_arrays(work)
        assert arrays
        assert not any(np.shares_memory(g, a) for g in grads.values() for a in arrays)

    @pytest.mark.parametrize("shape", [(), (1,), (65,), (63,), (64, 1)])
    def test_cotangent_of_the_wrong_shape_is_refused(self, shape):
        """A cotangent that is not [T] raises ShapeError naming both shapes.
        () and (1,) used to broadcast over all T samples and return the
        cotangents of the output's sum."""
        config = tiny_config()
        params = init_parameters(config, 0)
        stream = Stream(64)
        h, w = config.frame_hw
        out, cache = enhance_fwd(
            randn(stream, (64,)), randn(stream, (2, 1, h, w)), params, config
        )
        assert out.shape == (64,)
        with pytest.raises(ShapeError, match=re.escape(f"{shape} does not match output (64,)")):
            enhance_bwd(cache, params, config, np.ones(shape))
