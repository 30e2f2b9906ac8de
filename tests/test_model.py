"""Network contracts: configuration validation, parameter tables and
initialization, and the forward pipeline's shape and value laws."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from avse.errors import ConfigError, InputTooShortError, ShapeError
from avse.model.config import ModelConfig, default_config, tiny_config
from avse.model.grad import enhance_fwd
from avse.model.network import (
    apply_mask,
    decode_audio,
    encode_audio,
    enhance,
    fuse,
    overlap_add,
    segment_time,
    separator_forward,
    separator_forward_fwd,
    visual_forward,
    visual_forward_fwd,
)
from avse.model.params import check_tensors, count_parameters, init_parameters, parameter_shapes
from avse.prng import Stream

from helpers import randn, scaled_config, traced_peak

# Exact default-config size; the band check against [4.5e6, 5.7e6] lives
# in the acceptance suite.
DEFAULT_PARAM_COUNT = 4_626_880
ENCODER_PARAM_COUNT = 1 * 256 * 16 + 256  # kernel + bias = 4352


class TestModelConfig:
    def test_json_round_trip(self):
        for config in (default_config(), tiny_config()):
            assert ModelConfig.from_json(config.to_json()) == config

    def test_rejects_stride_over_kernel(self):
        with pytest.raises(ConfigError):
            scaled_config(default_config(), enc_kernel=8, enc_stride=16)

    def test_rejects_bad_chunk_hop(self):
        """chunk_hop is chunk_len / 2, not a field; overriding it is refused."""
        with pytest.raises(ConfigError, match="chunk_hop"):
            scaled_config(default_config(), chunk_len=100, chunk_hop=30)

    def test_rejects_fusion_width_mismatch(self):
        """fusion_channels follows enc_channels; overriding it is refused."""
        with pytest.raises(ConfigError, match="fusion_channels"):
            scaled_config(default_config(), fusion_channels=128)

    def test_rejects_derived_fields_in_json(self):
        """chunk_hop and fusion_channels follow from chunk_len and
        enc_channels; a config that sets them is refused."""
        for key, value in (("chunk_hop", 50), ("fusion_channels", 256)):
            with pytest.raises(ConfigError, match=key):
                ModelConfig.from_json(f'{{"chunk_len": 100, "{key}": {value}}}')

    def test_rejects_odd_chunk_len(self):
        with pytest.raises(ConfigError, match="even"):
            scaled_config(default_config(), chunk_len=99)

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"enc_channels": 2.5, "visual_embed": 8}, "enc_channels"),
            ({"sep_hidden": True}, "sep_hidden"),
            ({"chunk_len": 100.0}, "chunk_len"),
            ({"vfn_trunk_channels": [16, 32.0, 64, 128]}, "vfn_trunk_channels"),
            ({"frame_hw": [32, True]}, "frame_hw"),
            ({"frame_hw": 32}, "frame_hw"),
            ({"vfn_front_kernel": [5, True, 7]}, "vfn_front_kernel"),
            ({"vfn_front_kernel": [5, 7, 7.5]}, "vfn_front_kernel"),
            ({"vfn_front_kernel": [5, 7]}, "vfn_front_kernel"),
            ({"vfn_front_kernel": [1, 5, 7, 7]}, "vfn_front_kernel"),
            ({"vfn_front_kernel": [4, 7, 7]}, "vfn_front_kernel"),  # k // 2 pads odd k only
        ],
    )
    def test_rejects_non_integer_extents(self, raw, field):
        """A bool, non-integer or malformed count or extent is refused,
        naming the field."""
        with pytest.raises(ConfigError, match=re.escape(field) + " must be"):
            ModelConfig.from_json(json.dumps(raw))

    def test_rejects_the_old_frontend_object(self):
        """The frontend is set by its kernel alone; the former nested
        object is an unknown field."""
        raw = {"vfn_frontend": {"out_channels": 16, "kernel": [5, 7, 7],
                                "stride": [1, 2, 2], "pad": [2, 3, 3]}}
        with pytest.raises(ConfigError, match="vfn_frontend"):
            ModelConfig.from_json(json.dumps(raw))

    def test_accepts_numpy_integers(self):
        assert scaled_config(default_config(), sep_hidden=np.int64(64)).sep_hidden == 64

    def test_rejects_nonpositive_extents(self):
        with pytest.raises(ConfigError):
            scaled_config(default_config(), sep_hidden=0)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json('{"dropout": 0.5}')

    def test_rejects_invalid_json(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json("{not json")

    def test_rejects_norm_groups_not_dividing_channels(self):
        with pytest.raises(ConfigError):
            scaled_config(default_config(), vfn_norm_groups=7)

    def test_audio_frame_formula(self):
        """The encoder gives (T - K) // S + 1 frames: one per whole kernel
        window at stride S, a partial last hop dropped."""
        config = default_config()
        params = init_parameters(config, 0)
        for n, frames in ((16, 1), (23, 1), (24, 2), (16000, 1999)):
            assert encode_audio(np.zeros(n), params, config).shape == (256, frames)


class TestInitParameters:
    def test_same_seed_bit_identical(self):
        a = init_parameters(tiny_config(), 42)
        b = init_parameters(tiny_config(), 42)
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seeds_differ(self):
        a = init_parameters(tiny_config(), 0)
        b = init_parameters(tiny_config(), 1)
        assert any(not np.array_equal(a[name], b[name]) for name in a)

    def test_shapes_match_table(self):
        for config in (tiny_config(), default_config()):
            table = parameter_shapes(config)
            params = init_parameters(config, 0)
            assert list(params) == list(table)
            for name, shape in table.items():
                assert params[name].shape == shape, name

    def test_structured_initial_values(self):
        """Norm affines start at identity, forget-gate biases at 1, and
        every other bias at 0; kernels stay inside +-sqrt(1/fan_in)."""
        config = tiny_config()
        params = init_parameters(config, 3)
        h = config.sep_hidden
        for name in params:
            tensor = params[name]
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "gamma":
                assert np.array_equal(tensor, np.ones_like(tensor)), name
            elif leaf == "beta":
                assert np.array_equal(tensor, np.zeros_like(tensor)), name
            elif leaf in ("b_fw", "b_bw"):
                expected = np.zeros_like(tensor)
                expected[h : 2 * h] = 1.0
                assert np.array_equal(tensor, expected), name
            elif leaf == "b":
                assert np.array_equal(tensor, np.zeros_like(tensor)), name
            else:
                bound = np.sqrt(1.0 / np.prod(tensor.shape[1:]))
                assert np.abs(tensor).max() <= bound, name
                assert tensor.std() > 0, name


class TestCheckTensors:
    def test_matching_set_passes(self):
        config = tiny_config()
        check_tensors(init_parameters(config, 0), parameter_shapes(config), "parameters")

    def test_names_missing_extra_and_first_mis_shaped(self):
        shapes = {"a": (2,), "b": (3, 1), "c": (1,)}
        tensors = {"b": np.zeros((1, 3)), "c": np.zeros(2), "z": np.zeros(1)}
        with pytest.raises(ShapeError) as err:
            check_tensors(tensors, shapes, "gradients")
        assert str(err.value) == (
            "gradients do not match the shape table: missing ['a']; extra ['z']; "
            "'b' has shape (1, 3), expected (3, 1)"
        )


class TestCountParameters:
    def test_encoder_closed_form(self):
        shapes = parameter_shapes(default_config())
        enc = sum(
            int(np.prod(s)) for n, s in shapes.items() if n.startswith("enc.")
        )
        assert enc == ENCODER_PARAM_COUNT

    def test_default_total_golden(self):
        assert count_parameters(default_config()) == DEFAULT_PARAM_COUNT

    def test_additive_over_tensors(self):
        for config in (tiny_config(), default_config()):
            shapes = parameter_shapes(config)
            total = sum(int(np.prod(s)) for s in shapes.values())
            assert total == count_parameters(config)
            assert sum(v.size for v in init_parameters(config, 0).values()) == total


class TestEncodeAudio:
    def test_boundary_single_frame(self):
        config = default_config()
        params = init_parameters(config, 0)
        y = encode_audio(np.zeros(16), params, config)
        assert y.shape == (256, 1)

    def test_one_second_gives_1999_frames(self):
        config = default_config()
        params = init_parameters(config, 0)
        y = encode_audio(randn(Stream(30), (16000,)), params, config)
        assert y.shape == (256, 1999)

    def test_zero_wave_zero_bias_gives_zero_map(self):
        config = default_config()
        params = init_parameters(config, 0)  # bias initializes to zero
        y = encode_audio(np.zeros(1000), params, config)
        assert np.array_equal(y, np.zeros_like(y))

    def test_short_input_raises(self):
        config = default_config()
        params = init_parameters(config, 0)
        with pytest.raises(InputTooShortError):
            encode_audio(np.zeros(15), params, config)

    def test_outputs_nonnegative(self):
        config = tiny_config()
        params = init_parameters(config, 1)
        y = encode_audio(randn(Stream(31), (500,)), params, config)
        assert y.min() >= 0.0

    def test_relu_clamps_negatives(self):
        """enc.w = 0: each channel is ReLU of its bias, exactly."""
        config = tiny_config()
        params = init_parameters(config, 1)
        params["enc.w"] = np.zeros_like(params["enc.w"])
        params["enc.b"] = np.resize([-2.0, 0.0, 3.0], config.enc_channels)
        y = encode_audio(randn(Stream(31), (500,)), params, config)
        expected = np.resize([0.0, 0.0, 3.0], config.enc_channels)[:, None]
        assert np.array_equal(y, np.broadcast_to(expected, y.shape))


class TestVisualForward:
    def test_one_embedding_per_frame(self):
        config = tiny_config()
        params = init_parameters(config, 0)
        for f in (1, 2, 7):
            frames = randn(Stream(32), (f, 1, 16, 16))
            v = visual_forward(frames, params, config)
            assert v.shape == (f, config.visual_embed)

    def test_frontend_keeps_frames_and_halves_height_and_width(self):
        for config in (tiny_config(), default_config()):
            params = init_parameters(config, 0)
            h, w = config.frame_hw
            for f in (1, 5):
                _, cache = visual_forward_fwd(randn(Stream(35), (f, 1, h, w)), params, config)
                assert cache["pre_front"].shape == (config.vfn_trunk_channels[0], f, h // 2, w // 2)

    def test_default_embedding_dimension(self):
        config = default_config()
        params = init_parameters(config, 0)
        v = visual_forward(randn(Stream(33), (3, 1, 32, 32)), params, config)
        assert v.shape == (3, 256)

    def test_constant_in_time_input_equal_interior_rows(self):
        """Constancy in time survives everything except the temporal
        zero-padding, so interior embeddings must be identical."""
        config = tiny_config()
        params = init_parameters(config, 5)
        one = randn(Stream(34), (1, 1, 16, 16))
        frames = np.repeat(one, 7, axis=0)
        v = visual_forward(frames, params, config)
        # temporal kernel 3, pad 1: only the first and last rows see the pad
        interior = v[1:-1]
        assert np.allclose(interior, interior[0], atol=1e-12)

    def test_empty_frames_raise(self):
        config = tiny_config()
        params = init_parameters(config, 0)
        with pytest.raises(ShapeError):
            visual_forward(np.zeros((0, 1, 16, 16)), params, config)


class TestFuse:
    def test_output_shape(self):
        """25 video frames against 1999 audio frames fuse to [256, 1999]."""
        config = default_config()
        params = init_parameters(config, 0)
        a = np.abs(randn(Stream(35), (256, 1999)))
        v = randn(Stream(36), (25, 256))
        y = fuse(a, v, params, config)
        assert y.shape == (256, 1999)

    def test_concatenation_layout(self):
        """Audio occupies channels 0..N-1, visual N..N+D_v-1 before the
        bottleneck; verified through a channel-selecting bottleneck."""
        config = tiny_config()
        params = init_parameters(config, 0)
        n = config.enc_channels
        a = np.abs(randn(Stream(37), (n, 6)))
        v = randn(Stream(38), (6, config.visual_embed))
        w = np.zeros_like(params["fusion.w"])  # [C, N + D_v, 1]
        for c in range(n):
            w[c, c, 0] = 1.0  # select the audio half, identity per channel
        params["fusion.w"] = w
        y = fuse(a, v, params, config)
        assert np.allclose(y, a, atol=1e-12)  # a >= 0 so relu is identity
        w2 = np.zeros_like(w)
        for c in range(n):
            w2[c, n + c, 0] = 1.0  # select the visual half instead
        params["fusion.w"] = w2
        y2 = fuse(a, v, params, config)
        assert np.allclose(y2, np.maximum(v.T, 0.0), atol=1e-12)

    def test_relu_clamps_negatives(self):
        """fusion.w = 0: each channel is ReLU of its bias, exactly."""
        config = tiny_config()
        params = init_parameters(config, 0)
        params["fusion.w"] = np.zeros_like(params["fusion.w"])
        params["fusion.b"] = np.resize([-2.0, 0.0, 3.0], config.fusion_channels)
        a = np.abs(randn(Stream(37), (config.enc_channels, 6)))
        v = randn(Stream(38), (6, config.visual_embed))
        y = fuse(a, v, params, config)
        expected = np.resize([0.0, 0.0, 3.0], config.fusion_channels)[:, None]
        assert np.array_equal(y, np.broadcast_to(expected, y.shape))

    def test_empty_time_axis_raises(self):
        config = tiny_config()
        params = init_parameters(config, 0)
        with pytest.raises(ShapeError):
            fuse(np.zeros((config.enc_channels, 0)), np.zeros((2, config.visual_embed)), params, config)


class TestSegmentationRoundTrip:
    def test_exact_identity_all_lengths(self):
        """overlap_add(segment(x)) == x to < 1e-12 for T in 1..300."""
        stream = Stream(39)
        worst = 0.0
        for t in range(1, 301):
            x = randn(stream, (3, t))
            chunks = segment_time(x, 50)
            back = overlap_add(chunks, t)
            worst = max(worst, float(np.abs(back - x).max()))
        assert worst < 1e-12

    def test_chunk_count_law(self):
        for t, q in [(1, 1), (100, 1), (101, 2), (150, 2), (151, 3), (300, 5)]:
            assert segment_time(np.zeros((1, t)), 50).shape[0] == q

    def test_odd_chunk_axis_rejected(self):
        with pytest.raises(ShapeError, match="101"):
            overlap_add(np.zeros((5, 101, 1)), 200)


class TestSeparator:
    def test_mask_bounded(self):
        config = tiny_config()
        params = init_parameters(config, 2)
        fused = 5.0 * randn(Stream(40), (config.fusion_channels, 37))
        mask = separator_forward(fused, params, config)
        assert mask.shape == fused.shape
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_zero_network_gives_half(self):
        config = tiny_config()
        params = init_parameters(config, 0)
        zeroed = {k: np.zeros_like(v) for k, v in params.items()}
        fused = randn(Stream(41), (config.fusion_channels, 23))
        mask = separator_forward(fused, zeroed, config)
        assert np.array_equal(mask, np.full_like(fused, 0.5))

    @pytest.mark.parametrize("seconds", [1.0, 3.0])
    def test_inference_peak_memory_within_four_chunk_arrays(self, seconds):
        """Without a cache a path holds at most its input, the projection,
        the norm's centred copy and that copy's square at once: four
        [Q, P, C] arrays, plus the LSTM's small step buffers.  Holding the
        LSTM output past the projection, or the intra path's input while
        the inter path runs, adds a whole fifth."""
        config = default_config()
        params = init_parameters(config, 3, dtype=np.float32)
        t_a = int(seconds * config.sample_rate_hz) // config.enc_stride
        fused = np.abs(randn(Stream(97), (config.fusion_channels, t_a))).astype(np.float32)
        chunk_bytes = segment_time(fused, config.chunk_hop).nbytes
        tracemalloc.start()
        try:
            separator_forward(fused, params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * chunk_bytes, f"peak {peak / chunk_bytes:.2f} chunk arrays"


    @pytest.mark.parametrize("seconds", [3.0, 10.0])
    def test_inference_peak_memory_within_three_reused_chunk_buffers(self, seconds):
        """Without a cache the paths share one LSTM output buffer and keep
        one projection buffer per direction; the norm works in place and
        squares into the LSTM output's buffer.  So a path holds its input,
        that buffer and its projection: three [Q, P, C] arrays, plus the
        packed weights and the LSTM's step buffers.  Measured: 3.31 chunk
        arrays at 3 s and 3.17 at 10 s (4.00 with fresh arrays and the
        norm's centred copy and its square)."""
        config = default_config()
        params = init_parameters(config, 3, dtype=np.float32)
        t_a = int(seconds * config.sample_rate_hz) // config.enc_stride
        fused = np.abs(randn(Stream(97), (config.fusion_channels, t_a))).astype(np.float32)
        chunk_bytes = segment_time(fused, config.chunk_hop).nbytes
        mask, peak = traced_peak(separator_forward, fused, params, config)
        assert isinstance(mask, np.ndarray) and mask.shape == fused.shape
        assert peak <= 3.4 * chunk_bytes, f"peak {peak / chunk_bytes:.2f} chunk arrays"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["tiny", "default_two_units"])
    def test_reused_buffers_give_the_cached_forward_bits(self, name, dtype):
        """The forward without a cache, in its reused buffers and in-place
        norms, equals the cached forward, whose paths each get arrays of
        their own, bit for bit; neither writes ``fused``.  Q differs from
        P, so a buffer laid out for one path's [B, T, C] would not fit the
        other's."""
        if name == "tiny":
            config, t_a = tiny_config(), 37  # Q = 18 chunks of P = 4
        else:  # Q = 50 chunks of P = 8
            config, t_a = scaled_config(default_config(), sep_units=2, chunk_len=8), 201
        params = init_parameters(config, 4, dtype=dtype)
        fused = np.abs(randn(Stream(98), (config.fusion_channels, t_a))).astype(dtype)
        before = fused.copy()
        assert segment_time(fused, config.chunk_hop).shape[0] != config.chunk_len
        mask = separator_forward(fused, params, config)
        cached, _ = separator_forward_fwd(fused, params, config, keep_cache=True)
        assert mask.dtype == cached.dtype and mask.tobytes() == cached.tobytes()
        assert fused.tobytes() == before.tobytes()


def _mask_of_bias(config, dtype, bias):
    """separator_forward with mask.w = 0: every column of the mask is the
    sigmoid of mask.b, whatever the separator's paths compute."""
    params = init_parameters(config, 0, dtype=dtype)
    params["mask.w"] = np.zeros_like(params["mask.w"])
    params["mask.b"] = np.asarray(bias, dtype=dtype)
    fused = randn(Stream(42), (config.fusion_channels, 9)).astype(dtype)
    return separator_forward(fused, params, config)


class TestMaskHead:
    """Why the mask's sigmoid is SciPy's expit and not the LSTM gates'
    1/2 + 1/2 tanh(z/2) (see ops/rnn.py): it saturates to exactly 0 and 1
    without a floating-point warning, keeps the dtype, and keeps its
    relative accuracy where it tends to 0."""

    def test_saturates_without_overflow(self):
        """+-800 overflows a naive exp in float64; the mask still hits
        exactly 0 and 1."""
        config = tiny_config()
        pattern = np.resize([-800.0, 800.0, 0.0], config.enc_channels)
        with np.errstate(over="raise"):
            mask = _mask_of_bias(config, np.float64, pattern)
        expected = np.resize([0.0, 1.0, 0.5], config.enc_channels)[:, None]
        assert np.array_equal(mask, np.broadcast_to(expected, mask.shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes_saturate_raise_nothing_and_keep_dtype(self, dtype):
        config = tiny_config()
        pattern = np.resize([-1e4, 1e4, 0.0], config.enc_channels)
        with np.errstate(all="raise"):
            mask = _mask_of_bias(config, dtype, pattern)
        assert mask.dtype == dtype
        expected = np.resize([0.0, 1.0, 0.5], config.enc_channels)[:, None]
        assert np.array_equal(mask, np.broadcast_to(expected, mask.shape))

    def test_matches_logistic_formula(self):
        config = scaled_config(tiny_config(), enc_channels=601)
        bias = np.linspace(-30.0, 30.0, config.enc_channels)
        mask = _mask_of_bias(config, np.float64, bias)
        ref = 1.0 / (1.0 + np.exp(-bias))
        assert np.abs(mask / ref[:, None] - 1.0).max() < 1e-15


class TestApplyMask:
    def test_unit_mask_identity(self):
        a = randn(Stream(42), (4, 9))
        assert np.array_equal(apply_mask(a, np.ones_like(a)), a)

    def test_zero_mask_silences(self):
        a = randn(Stream(43), (4, 9))
        assert np.array_equal(apply_mask(a, np.zeros_like(a)), np.zeros_like(a))

    def test_commutes_with_channel_permutation(self):
        a = randn(Stream(44), (5, 7))
        m = np.abs(randn(Stream(45), (5, 7)))
        perm = Stream(46).permutation(5)
        assert np.array_equal(apply_mask(a, m)[perm], apply_mask(a[perm], m[perm]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            apply_mask(np.zeros((2, 3)), np.zeros((2, 4)))


class TestDecodeAudio:
    def test_single_frame_gives_kernel_length(self):
        config = default_config()
        params = init_parameters(config, 0)
        assert decode_audio(np.zeros((256, 1)), params, config).shape == (16,)

    def test_1999_frames_give_16000_samples(self):
        config = default_config()
        params = init_parameters(config, 0)
        y = decode_audio(randn(Stream(47), (256, 1999)), params, config)
        assert y.shape == (16000,)

    def test_zero_map_zero_bias_gives_silence(self):
        config = default_config()
        params = init_parameters(config, 0)
        y = decode_audio(np.zeros((256, 10)), params, config)
        assert np.array_equal(y, np.zeros_like(y))


@pytest.fixture(scope="module", params=["tiny", "default"])
def stage_model(request):
    config = {"tiny": tiny_config, "default": default_config}[request.param]()
    return config, init_parameters(config, 0)


class TestStageInputsReachTheOpChecks:
    """The encoder, VisualFeatNet, separator and decoder leave these
    checks to the ops below them; each input is still refused, with the
    class the ops raise."""

    @pytest.mark.parametrize("shape", [(2, 100), ()], ids=["2-D", "0-D"])
    def test_encoder_rank(self, stage_model, shape):
        config, params = stage_model
        with pytest.raises(ShapeError):
            encode_audio(np.zeros(shape), params, config)

    def test_encoder_one_sample_short_of_the_kernel(self, stage_model):
        config, params = stage_model
        with pytest.raises(InputTooShortError):
            encode_audio(np.zeros(config.enc_kernel - 1), params, config)

    def test_visual_without_frames(self, stage_model):
        config, params = stage_model
        with pytest.raises(ShapeError):
            visual_forward(np.zeros((0, 1, *config.frame_hw)), params, config)

    @pytest.mark.parametrize("kind", ["1-D", "3-D", "C-1", "C+1"])
    def test_separator(self, stage_model, kind):
        config, params = stage_model
        c = config.fusion_channels
        shape = {"1-D": (c,), "3-D": (c, 3, 1), "C-1": (c - 1, 3), "C+1": (c + 1, 3)}[kind]
        with pytest.raises(ShapeError):
            separator_forward(np.zeros(shape), params, config)

    @pytest.mark.parametrize("kind", ["1-D", "3-D", "N+1"])
    def test_decoder(self, stage_model, kind):
        config, params = stage_model
        n = config.enc_channels
        shape = {"1-D": (n,), "3-D": (n, 3, 1), "N+1": (n + 1, 3)}[kind]
        with pytest.raises(ShapeError):
            decode_audio(np.zeros(shape), params, config)


class TestEnhance:
    @pytest.mark.parametrize("t", [16, 1000, 16000, 16007])
    def test_length_preserved(self, t):
        config = tiny_config()
        params = init_parameters(config, 0)
        wave = randn(Stream(48), (t,))
        frames = randn(Stream(49), (2, 1, 16, 16))
        assert enhance(wave, frames, params, config).shape == (t,)

    def test_deterministic(self):
        config = tiny_config()
        params = init_parameters(config, 0)
        wave = randn(Stream(50), (777,))
        frames = randn(Stream(51), (3, 1, 16, 16))
        a = enhance(wave, frames, params, config)
        b = enhance(wave, frames, params, config)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(), (2, 100)], ids=["0-D", "2-D"])
    @pytest.mark.parametrize("run", [enhance, enhance_fwd], ids=["enhance", "enhance_fwd"])
    def test_wave_that_is_not_1d_is_refused_naming_its_shape(self, run, shape):
        """``pad_to_hop`` checks the rank before it reads the length."""
        config = tiny_config()
        params = init_parameters(config, 0)
        frames = randn(Stream(49), (2, 1, 16, 16))
        with pytest.raises(ShapeError, match=re.escape(f"shape {shape}")):
            run(np.zeros(shape), frames, params, config)

    def test_open_mask_with_adjoint_decoder_correlates(self):
        """Mask head biased hard positive (mask ~ 1) and the decoder set to
        the encoder's adjoint reconstruct something input-like."""
        config = tiny_config()
        params = init_parameters(config, 6)
        params["mask.b"] = np.full_like(params["mask.b"], 20.0)
        # decoder weight [N, 1, K] = encoder weight [N, 1, K] transposed in
        # channel sense; same array works because shapes coincide.
        params["dec.w"] = params["enc.w"].copy()
        wave = randn(Stream(52), (2000,))
        frames = randn(Stream(53), (2, 1, 16, 16))
        out = enhance(wave, frames, params, config)
        corr = float(np.corrcoef(wave, out)[0, 1])
        assert corr > 0.0

    def test_zeroed_visual_embeddings_change_output(self):
        """The fused visual branch is live: nulling the embeddings moves
        the enhanced waveform."""
        from avse.model import network

        config = tiny_config()
        params = init_parameters(config, 7)
        wave = randn(Stream(54), (600,))
        frames = randn(Stream(55), (4, 1, 16, 16))
        baseline = enhance(wave, frames, params, config)

        padded = network.pad_to_hop(wave, config)
        a = encode_audio(padded, params, config)
        v = np.zeros((frames.shape[0], config.visual_embed))
        fused = fuse(a, v, params, config)
        mask = separator_forward(fused, params, config)
        out = decode_audio(apply_mask(a, mask), params, config)[: wave.shape[0]]
        assert not np.allclose(out, baseline, atol=1e-9)
