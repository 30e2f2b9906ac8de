"""Training-harness contracts: loss gradient, optimizer algebra,
checkpoint bytes, and the loop's determinism and failure modes."""

import dataclasses
import re
import struct

import numpy as np
import pytest

from avse.data.synth import synth_scene
from avse.data.tensorfile import tensor_block
from avse.errors import (
    ConfigError,
    CorruptCheckpointError,
    DataError,
    DegenerateSignalError,
    NumericError,
    ShapeError,
)
from avse.model.config import default_config, tiny_config
from avse.model.grad import enhance_bwd, enhance_fwd
from avse.model.network import enhance
from avse.model.params import init_parameters
from avse.prng import Stream
from avse.training.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from avse.training.loss import si_sdr_loss_vjp
from avse.training import loop
from avse.training.loop import MAX_GRAD_NORM, train_scenes
from avse.training.optimizer import (
    BETA1,
    BETA2,
    EPS,
    OptimizerState,
    adam_step,
    clip_global_norm,
    init_optimizer,
)

from helpers import (
    fd_grad,
    load_from_pipe,
    rel_err,
    scaled_config,
    traced_peak,
    workspace_arrays,
)


def _zeros_like(params):
    return {name: np.zeros_like(p) for name, p in params.items()}


class TestSiSdrLoss:
    def test_perfect_enhancement_strongly_negative(self):
        clean = Stream(110).normal(500)
        assert si_sdr_loss_vjp(clean, clean.copy())[0] <= -60.0

    def test_matches_negated_metric_away_from_cap(self):
        from avse.metrics.sisdr import si_sdr

        clean = Stream(111).normal(500)
        enhanced = clean + 0.3 * Stream(112).normal(500)
        assert abs(si_sdr_loss_vjp(clean, enhanced)[0] + si_sdr(clean, enhanced)) < 1e-9

    def test_gradient_matches_finite_differences(self):
        clean = Stream(113).normal(80)
        enhanced = clean + 0.5 * Stream(114).normal(80)
        loss, grad = si_sdr_loss_vjp(clean, enhanced)
        numeric = fd_grad(lambda e: si_sdr_loss_vjp(clean, e)[0], enhanced)
        assert rel_err(numeric, grad) < 1e-4

    def test_positive_scaling_invariance(self):
        """The 1e-8 denominator stabilizer bounds the scale sensitivity at
        roughly (10/ln 10) * 1e-8 / residual_energy dB."""
        clean = Stream(115).normal(300)
        enhanced = clean + 0.2 * Stream(116).normal(300)
        base = si_sdr_loss_vjp(clean, enhanced)[0]
        for a in (0.25, 4.0, 11.0):
            assert abs(si_sdr_loss_vjp(clean, a * enhanced)[0] - base) < 1e-6

    def test_gradient_dtype_follows_enhanced(self):
        clean = Stream(117).normal(64)
        enhanced = (clean + 0.1).astype(np.float32)
        _, grad = si_sdr_loss_vjp(clean.astype(np.float32), enhanced)
        assert grad.dtype == np.float32

    def test_degenerate_clean_rejected(self):
        with pytest.raises(DegenerateSignalError):
            si_sdr_loss_vjp(np.zeros(100), Stream(118).normal(100))


class TestAdamStep:
    def _setup(self, lr=1e-3):
        params = init_parameters(tiny_config(), 0, dtype=np.float64)
        return params, init_optimizer(params, lr=lr)

    def test_zero_gradients_leave_parameters_unchanged(self):
        params, state = self._setup()
        before = {n: params[n].copy() for n in params}
        adam_step(params, _zeros_like(params), state)
        assert state.t == 1
        for name in params:
            assert np.array_equal(params[name], before[name]), name
            assert not state.m[name].any()
            assert not state.v[name].any()

    def test_moments_decay_toward_zero_on_zero_gradients(self):
        params, state = self._setup()
        grads = _zeros_like(params)
        for name in grads:
            grads[name][...] = 1.0
        adam_step(params, grads, state)
        m_after_one = {n: np.abs(state.m[n]).max() for n in params}
        zero = _zeros_like(params)
        for _ in range(10):
            adam_step(params, zero, state)
        for name in params:
            assert np.abs(state.m[name]).max() < m_after_one[name]

    def test_state_holds_only_run_state(self):
        """β1, β2 and ε are the module's constants, not per-state fields."""
        assert [f.name for f in dataclasses.fields(OptimizerState)] == ["m", "v", "t", "lr"]

    def test_first_step_with_unit_gradient(self):
        """Bias correction makes step one move by -lr/(1+eps) exactly."""
        params, state = self._setup(lr=1e-3)
        before = {n: params[n].copy() for n in params}
        grads = _zeros_like(params)
        for name in grads:
            grads[name][...] = 1.0
        adam_step(params, grads, state)
        expected = -1e-3 / (1.0 + 1e-8)
        for name in params:
            delta = params[name] - before[name]
            assert np.allclose(delta, expected, rtol=1e-9, atol=0), name

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params, state = self._setup()
            grads = _zeros_like(params)
            for i, name in enumerate(grads):
                grads[name][...] = 0.1 * (i + 1)
            for _ in range(3):
                adam_step(params, grads, state)
            runs.append({n: params[n].copy() for n in params})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name])

    def test_shape_mismatch_rejected(self):
        params, state = self._setup()
        grads = _zeros_like(params)
        grads["enc.w"] = np.zeros((1, 1, 1))
        with pytest.raises(ShapeError):
            adam_step(params, grads, state)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_mis_shaped_moment_rejected_before_any_update(self, moment):
        params, state = self._setup()
        getattr(state, moment)["mask.b"] = np.zeros(2)
        before = params["enc.w"].copy()
        with pytest.raises(ShapeError, match="'mask.b' has shape"):
            adam_step(params, _zeros_like(params), state)
        assert state.t == 0
        assert np.array_equal(params["enc.w"], before)


class TestClipGlobalNorm:
    def test_reports_pre_clip_norm_and_rescales(self):
        params = init_parameters(tiny_config(), 0, dtype=np.float64)
        grads = _zeros_like(params)
        for name in grads:
            grads[name][...] = 1.0
        total = np.sqrt(sum(g.size for g in grads.values()))
        norm = clip_global_norm(grads, 5.0)
        assert abs(norm - total) < 1e-9
        after = np.sqrt(sum((g**2).sum() for g in grads.values()))
        assert abs(after - 5.0) < 1e-9

    def test_small_gradients_untouched(self):
        params = init_parameters(tiny_config(), 0, dtype=np.float64)
        grads = _zeros_like(params)
        grads["enc.w"][0, 0, 0] = 0.25
        norm = clip_global_norm(grads, 5.0)
        assert norm == 0.25
        assert grads["enc.w"][0, 0, 0] == 0.25


class TestCheckpoint:
    def _checkpoint(self, with_optimizer=True):
        config = tiny_config()
        params = init_parameters(config, 1)
        optimizer = None
        if with_optimizer:
            optimizer = init_optimizer(params)
            grads = _zeros_like(params)
            grads["enc.w"][...] = 0.5
            adam_step(params, grads, optimizer)
        return Checkpoint(config=config, params=params, optimizer=optimizer)

    @pytest.mark.parametrize("with_optimizer", [False, True])
    def test_round_trip_bit_identical(self, tmp_path, with_optimizer):
        ckpt = self._checkpoint(with_optimizer)
        path = tmp_path / "a.avck"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        path2 = tmp_path / "b.avck"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        assert loaded.config == ckpt.config
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name])

    def test_enhance_identical_after_reload(self, tmp_path):
        ckpt = self._checkpoint(with_optimizer=False)
        path = tmp_path / "m.avck"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        wave = Stream(120).normal(400).astype(np.float32)
        frames = Stream(121).normal(2 * 16 * 16).reshape(2, 1, 16, 16).astype(np.float32)
        before = enhance(wave, frames, ckpt.params, ckpt.config)
        after = enhance(wave, frames, loaded.params, loaded.config)
        assert np.array_equal(before, after)

    def test_shape_inconsistent_tensor_rejected(self, tmp_path):
        ckpt = self._checkpoint(with_optimizer=False)
        ckpt.params["enc.w"] = np.zeros((2, 1, 16), dtype=np.float32)
        path = tmp_path / "bad.avck"
        save_checkpoint(path, ckpt)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_mis_shaped_moment_rejected(self, tmp_path, moment):
        ckpt = self._checkpoint(with_optimizer=True)
        getattr(ckpt.optimizer, moment)["mask.b"] = np.zeros(2, dtype=np.float32)
        path = tmp_path / "bad.avck"
        save_checkpoint(path, ckpt)
        with pytest.raises(CorruptCheckpointError, match=f"bad.avck.*'{moment}.mask.b' has shape"):
            load_checkpoint(path)

    def test_parameters_only_load_leaves_the_moments_unread(self, tmp_path):
        """A parameters-only load returns the full load's parameters and no
        optimizer state, and does not see a moment section that the full
        load refuses."""
        ckpt = self._checkpoint(with_optimizer=True)
        path = tmp_path / "a.avck"
        save_checkpoint(path, ckpt)
        full, params_only = load_checkpoint(path), load_checkpoint(path, moments=False)
        assert params_only.optimizer is None and full.optimizer is not None
        assert params_only.config == full.config
        assert params_only.params.keys() == full.params.keys()
        assert all(np.array_equal(params_only.params[n], full.params[n]) for n in full.params)
        ckpt.optimizer.m["mask.b"] = np.zeros(2, dtype=np.float32)
        save_checkpoint(path, ckpt)
        with pytest.raises(CorruptCheckpointError, match="'m.mask.b' has shape"):
            load_checkpoint(path)
        assert load_checkpoint(path, moments=False).params.keys() == full.params.keys()

    def test_parameters_only_load_still_refuses_trailing_bytes(self, tmp_path):
        """Without the optimizer flag nothing may follow the parameters,
        whichever load reads the file."""
        path = tmp_path / "a.avck"
        save_checkpoint(path, self._checkpoint(with_optimizer=False))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        for moments in (True, False):
            with pytest.raises(CorruptCheckpointError, match="8 trailing bytes"):
                load_checkpoint(path, moments=moments)

    @staticmethod
    def _record(name, array):
        """One named tensor record as a checkpoint stores it."""
        return struct.pack("<H", len(name)) + name.encode() + tensor_block(array)

    @pytest.mark.parametrize("moments", [True, False])
    def test_parameter_named_twice_rejected(self, tmp_path, moments):
        """count + 1 parameter records whose first name comes twice: the
        later copy used to replace the earlier, so the file loaded and a
        re-save did not reproduce it."""
        ckpt = self._checkpoint(with_optimizer=False)
        path = tmp_path / "twice.avck"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        (config_len,) = struct.unpack_from("<I", raw, 8)
        at = 12 + config_len  # the tensor count, then the first record
        first = min(ckpt.params)
        raw[at : at + 4] = struct.pack("<I", len(ckpt.params) + 1)
        raw[at + 4 : at + 4] = self._record(first, np.zeros_like(ckpt.params[first]))
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match=f"twice.avck: tensor '{first}' appears twice"):
            load_checkpoint(path, moments=moments)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_moment_named_twice_rejected(self, tmp_path, moment):
        """The second record of a moment's section repeats the first name."""
        ckpt = self._checkpoint(with_optimizer=True)
        path = tmp_path / "twice.avck"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        names = sorted(ckpt.params)[:3]
        first, second, third = (f"{moment}.{n}" for n in names)
        starts = [raw.index(struct.pack("<H", len(n)) + n.encode()) for n in (second, third)]
        raw[starts[0] : starts[1]] = self._record(first, np.zeros_like(ckpt.params[names[0]]))
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError, match=f"twice.avck: tensor '{first}' appears twice"):
            load_checkpoint(path)
        assert load_checkpoint(path, moments=False).params.keys() == ckpt.params.keys()

    @pytest.mark.parametrize("slot, field, fixed", [(2, "beta1", BETA1), (3, "beta2", BETA2),
                                                   (4, "eps", EPS)])
    def test_other_adam_setting_refused_by_the_full_load(self, tmp_path, slot, field, fixed):
        """The header stores β1, β2 and ε as the optimizer's constants; a
        file holding another value could not be saved again byte for
        byte, so the full load refuses it, naming the field and both
        values.  The parameters-only load never reads that header."""
        ckpt = self._checkpoint(with_optimizer=True)
        path = tmp_path / "a.avck"
        save_checkpoint(path, Checkpoint(ckpt.config, ckpt.params))
        at = len(path.read_bytes())  # the parameters end where the optimizer header starts
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        header = list(struct.unpack_from("<Qdddd", raw, at))
        assert header[2:] == [BETA1, BETA2, EPS]
        header[slot] = 2.0 * fixed
        struct.pack_into("<Qdddd", raw, at, *header)
        path.write_bytes(bytes(raw))
        message = f"a.avck: {field} {2.0 * fixed!r} is not {fixed!r}"
        with pytest.raises(CorruptCheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        params_only = load_checkpoint(path, moments=False)
        assert all(np.array_equal(params_only.params[n], ckpt.params[n]) for n in ckpt.params)

    def test_bad_magic_rejected(self, tmp_path):
        ckpt = self._checkpoint(with_optimizer=False)
        path = tmp_path / "bad.avck"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"AVCX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        ckpt = self._checkpoint(with_optimizer=True)
        path = tmp_path / "bad.avck"
        save_checkpoint(path, ckpt)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)


    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """A 1.9 MB checkpoint with moments: 160 k parameters, so the bytes
        of its arrays outweigh the loader's Python objects."""
        config = scaled_config(tiny_config(), enc_channels=64, sep_hidden=64)
        params = init_parameters(config, 2, dtype=np.float32)
        optimizer = init_optimizer(params)
        adam_step(params, {n: np.ones_like(p) for n, p in params.items()}, optimizer)
        path = tmp_path_factory.mktemp("ckpt") / "big.avck"
        save_checkpoint(path, Checkpoint(config, params, optimizer))
        return path

    def test_load_peak_is_the_returned_arrays(self, saved):
        """Each payload is read into its array, with no whole-file buffer."""
        loaded, peak = traced_peak(load_checkpoint, saved)
        opt = loaded.optimizer
        arrays = [*loaded.params.values(), *opt.m.values(), *opt.v.values()]
        assert peak <= 1.25 * sum(a.nbytes for a in arrays)

    def test_parameters_only_load_peak_is_the_parameters(self, saved):
        """The moments, two thirds of the file, are never read into memory."""
        loaded, peak = traced_peak(lambda p: load_checkpoint(p, moments=False), saved)
        assert peak <= 1.25 * sum(a.nbytes for a in loaded.params.values())

    def test_parameters_only_load_from_a_pipe(self, saved):
        piped = load_from_pipe(lambda p: load_checkpoint(p, moments=False), saved.read_bytes())
        direct = load_checkpoint(saved)
        assert piped.optimizer is None and piped.config == direct.config
        assert all(np.array_equal(piped.params[n], direct.params[n]) for n in direct.params)

    @pytest.mark.parametrize("field", ["config length", "tensor name length"])
    def test_length_past_the_end_refused_before_any_allocation(self, saved, tmp_path, field):
        raw = bytearray(saved.read_bytes())
        if field == "config length":
            raw[8:12] = struct.pack("<I", 0xFFFFFFFF)
        else:  # the first record's name length, with the file cut just after it
            (config_len,) = struct.unpack_from("<I", raw, 8)
            at = 12 + config_len + 4
            raw[at : at + 2] = struct.pack("<H", 0xFFFF)
            del raw[at + 10 :]
        path = tmp_path / "long.avck"
        path.write_bytes(bytes(raw))
        err, peak = traced_peak(load_checkpoint, path)
        assert isinstance(err, CorruptCheckpointError)
        assert "long.avck" in str(err) and field.removesuffix(" length") in str(err)
        assert peak < 2**20

    def test_pipe_source_loads_like_the_file(self, saved):
        piped, direct = load_from_pipe(load_checkpoint, saved.read_bytes()), load_checkpoint(saved)
        assert piped.config == direct.config
        for got, want in [(piped.params, direct.params), (piped.optimizer.m, direct.optimizer.m),
                          (piped.optimizer.v, direct.optimizer.v)]:
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[n], want[n]) for n in want)


class TestTrainScenes:
    def _scenes(self, n=2, dur=0.5):
        return [synth_scene(s, dur, tiny_config()) for s in range(n)]

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_non_positive_epochs_rejected(self, epochs):
        """An epoch count below 1 would return an untrained checkpoint."""
        with pytest.raises(ConfigError, match="epochs"):
            train_scenes(tiny_config(), self._scenes(), epochs, seed=0)

    def test_loss_trace_bit_reproducible(self):
        config = tiny_config()
        _, logs_a = train_scenes(config, self._scenes(), 3, seed=5)
        _, logs_b = train_scenes(config, self._scenes(), 3, seed=5)
        assert logs_a == logs_b
        assert len(logs_a) == 3
        for record in logs_a:
            assert set(record) == {"epoch", "mean_loss", "mean_sisdr"}

    def test_parameters_reproducible(self):
        config = tiny_config()
        ckpt_a, _ = train_scenes(config, self._scenes(), 2, seed=9)
        ckpt_b, _ = train_scenes(config, self._scenes(), 2, seed=9)
        for name in ckpt_a.params:
            assert np.array_equal(ckpt_a.params[name], ckpt_b.params[name])

    def test_loss_improves_on_short_run(self):
        config = tiny_config()
        _, logs = train_scenes(config, self._scenes(), 12, seed=0)
        assert logs[-1]["mean_loss"] < logs[0]["mean_loss"]

    @pytest.mark.parametrize("fault", ["frame_size", "sample_rate", "nan_frames"])
    def test_scene_the_config_cannot_mean_refused_before_any_step(self, monkeypatch, fault):
        """Scenes passed in directly get the checks ``load_scene`` makes on
        files: frames of another size (a default-config scene under the
        tiny config), another sample rate, and non-finite frames are data
        errors naming the scene, raised before the first forward pass."""
        good = synth_scene(0, 0.5, tiny_config())
        bad = synth_scene(1, 0.5, tiny_config())
        if fault == "frame_size":
            bad = synth_scene(1, 0.5, default_config())
            match = "frames are 32x32, the model expects 16x16"
        elif fault == "sample_rate":
            bad, match = dataclasses.replace(bad, sample_rate_hz=8000), "sample rate 8000 Hz"
        else:
            bad.frames[1, 0, 3, 4] = np.nan
            match = "frames contain non-finite pixels"

        def no_step(*args):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(loop, "enhance_fwd", no_step)
        with pytest.raises(DataError, match=f"scene {bad.id}.*{match}"):
            train_scenes(tiny_config(), [good, bad], 1, seed=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train_scenes(tiny_config(), [], 1, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_names_the_step(self):
        """An absurd learning rate overflows the forward pass; the abort
        message names the epoch and step."""
        with pytest.raises(NumericError, match=r"epoch \d+, step \d+"):
            train_scenes(tiny_config(), self._scenes(), 30, seed=0, lr=1e18)


class TestWorkspace:
    """Training steps write into one workspace (see ops/rnn.py); that
    changes where results go and nothing else."""

    # The default config's BiLSTM and projection shapes, so that forward
    # and backward blocks end partway through the sequence, with two
    # units sharing the backward's buffers and a smaller visual trunk.
    DEFAULT_SHAPED = scaled_config(
        default_config(), sep_units=2, vfn_trunk_channels=(16, 32), vfn_blocks_per_stage=1
    )

    @staticmethod
    def _steps(config, lengths, new_work):
        """The steps of train_scenes on one scene per length, each step
        through ``new_work()`` or, if that is None, through the previous
        step's workspace; returns (losses, cotangents, parameters,
        optimizer state, the intra path's gate record buffer after each
        step)."""
        params = init_parameters(config, 1, dtype=np.float32)
        state = init_optimizer(params)
        work, losses, cotangents, buffers = {}, [], [], []
        for i, seconds in enumerate(lengths):
            scene = synth_scene(i, seconds, config)
            mixture = (scene.target + scene.interferer).astype(np.float32)
            if new_work is not None:
                work = new_work()
            out, cache = enhance_fwd(mixture, scene.frames.astype(np.float32), params, config, work)
            loss, g_out = si_sdr_loss_vjp(scene.target.astype(np.float32), out)
            grads = enhance_bwd(cache, params, config, g_out, work)
            clip_global_norm(grads, MAX_GRAD_NORM)
            adam_step(params, grads, state)
            losses.append(loss)
            cotangents.append(grads)
            buffers.append(work and work["sep.u0.intra"]["gates"])
        return losses, cotangents, params, state, buffers

    @pytest.mark.parametrize("config", [tiny_config(), DEFAULT_SHAPED], ids=["tiny", "default"])
    def test_reused_workspace_gives_the_bits_of_fresh_ones(self, config):
        """Steps through one workspace give every loss, cotangent,
        parameter and moment of the same steps through a new workspace
        each step, and of the same steps without one (new arrays for
        every path).  A longer scene replaces the workspace's buffers, and
        a shorter one, or one as long, writes into them."""
        lengths = (0.5, 0.7, 0.5, 0.7)
        losses, cotangents, params, state, buffers = self._steps(config, lengths, None)
        assert buffers[1] is not buffers[0] and buffers[2] is buffers[1] is buffers[3]
        for new_work in (dict, lambda: None):
            want = self._steps(config, lengths, new_work)
            assert losses == want[0]
            for step, (got, expected) in enumerate(zip(cotangents, want[1])):
                for name in expected:
                    assert np.array_equal(got[name], expected[name]), (step, name)
            for got, expected in ((params, want[2]), (state.m, want[3].m), (state.v, want[3].v)):
                for name in expected:
                    assert np.array_equal(got[name], expected[name]), name

    def test_returned_state_shares_no_memory_with_the_workspace(self, monkeypatch):
        """Every step of a train_scenes call gets the same workspace, and
        the parameters and moments it returns share no memory with it."""
        seen = []

        def spy(mixture, frames, params, config, work):
            seen.append(work)
            return enhance_fwd(mixture, frames, params, config, work)

        monkeypatch.setattr(loop, "enhance_fwd", spy)
        scenes = [synth_scene(s, 0.5, tiny_config()) for s in range(2)]
        ckpt, _ = train_scenes(tiny_config(), scenes, 1, seed=0)
        assert len(seen) == 2 and seen[0] is seen[1]
        arrays = workspace_arrays(seen[0])
        assert arrays
        state = [*ckpt.params.values(), *ckpt.optimizer.m.values(), *ckpt.optimizer.v.values()]
        assert not any(np.shares_memory(a, b) for a in arrays for b in state)
