"""Command-line contract: exit codes, flag validation, per-command
determinism, and the synth -> train -> enhance -> evaluate pipeline."""

import io
import json
import re
import shutil
import time
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from avse import cli
from avse.data.synth import synth_scene
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import load_wav, save_wav
from avse.model.config import default_config, tiny_config
from avse.model.params import count_parameters, init_parameters, parameter_shapes
from avse.prng import Stream
from avse.training.checkpoint import Checkpoint, save_checkpoint
from avse.training.optimizer import init_optimizer

from helpers import scaled_config


def _run(argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert cli.main([]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_subcommand_prints_synopsis_to_stderr(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_unknown_flag_is_rejected_not_ignored(self, capsys):
        assert cli.main(["info", "--bogus", "1"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli.main(["mix", "--target", "a.wav"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_train_rejects_both_data_and_manifest(self, capsys, tmp_path):
        code = cli.main(
            [
                "train",
                "--data", str(tmp_path),
                "--manifest", str(tmp_path / "m.jsonl"),
                "--epochs", "1",
                "--out", str(tmp_path / "ck"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_train_rejects_non_positive_epochs(self, value, capsys, tmp_path):
        out = tmp_path / "m.avck"
        code = cli.main(["train", "--data", str(tmp_path), "--epochs", value, "--out", str(out)])
        assert code == 1
        assert "--epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_synth_rejects_non_positive_scenes(self, value, capsys, tmp_path):
        out = tmp_path / "scenes"
        assert cli.main(["synth", "--out", str(out), "--scenes", value]) == 1
        assert "--scenes" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_failures_never_exit_two(self, capsys):
        # argparse's native behavior is SystemExit(2); 2 is reserved for
        # data errors here.
        assert cli.main(["evaluate"]) == 1


class TestInfo:
    def test_default_total_is_in_the_advertised_band(self):
        code, out = _run(["info"])
        assert code == 0
        total_line = out.strip().splitlines()[-1]
        assert total_line.startswith("total")
        total = int(total_line.split()[-1])
        assert 4.5e6 <= total <= 5.7e6
        assert total == count_parameters(default_config())

    def test_config_file_is_honored(self, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(tiny_config().to_json(), encoding="utf-8")
        code, out = _run(["info", "--config", str(cfg)])
        assert code == 0
        total = int(out.strip().splitlines()[-1].split()[-1])
        assert total == count_parameters(tiny_config())

    def test_table_has_one_row_per_tensor(self):
        code, out = _run(["info"])
        rows = out.strip().splitlines()
        assert len(rows) == len(parameter_shapes(default_config())) + 1

    def test_unreadable_config_is_a_data_error(self, tmp_path):
        assert cli.main(["info", "--config", str(tmp_path / "absent.json")]) == 2

    def test_non_integer_extent_is_a_data_error(self, tmp_path, capsys):
        """A fractional channel count is refused by name, not printed as shapes."""
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"enc_channels": 2.5, "visual_embed": 8}', encoding="utf-8")
        assert cli.main(["info", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "enc_channels" in captured.err
        assert captured.out == ""


class TestGradcheckCommand:
    def test_prints_error_and_passes(self):
        code, out = _run(["gradcheck", "--seed", "0"])
        assert code == 0
        assert "max relative error" in out

    def test_exit_three_above_threshold(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "grad_check", lambda config, seed: 5e-3)
        assert cli.main(["gradcheck"]) == 3
        assert "failed" in capsys.readouterr().err


class TestSynth:
    def test_writes_scene_files_and_manifest(self, tmp_path):
        out = tmp_path / "scenes"
        code, _ = _run(
            ["synth", "--out", str(out), "--scenes", "2", "--seed", "3", "--duration", "0.5"]
        )
        assert code == 0
        entries = [
            json.loads(line)
            for line in (out / "manifest.jsonl").read_text().splitlines()
        ]
        assert len(entries) == 2
        for entry in entries:
            assert set(entry) == {"id", "target_path", "interferer_path", "frames_path", "snr_db"}
            for key in ("target_path", "interferer_path", "frames_path"):
                assert (out / entry[key]).exists()

    def test_two_runs_are_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            _run(["synth", "--out", str(d), "--scenes", "2", "--seed", "0", "--duration", "0.5"])
            dirs.append(d)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_changes_the_scenes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run(["synth", "--out", str(a), "--scenes", "1", "--seed", "0", "--duration", "0.5"])
        _run(["synth", "--out", str(b), "--scenes", "1", "--seed", "9", "--duration", "0.5"])
        wav_a = next(a.glob("*_target.wav"))
        wav_b = next(b.glob("*_target.wav"))
        assert wav_a.read_bytes() != wav_b.read_bytes()

    def test_config_sets_the_frame_size_and_train_accepts_it(self, tmp_path):
        cfg = tmp_path / "tiny.json"
        cfg.write_text(tiny_config().to_json(), encoding="utf-8")
        data, full = tmp_path / "data", tmp_path / "full"
        common = ["--scenes", "1", "--seed", "0", "--duration", "0.5"]
        assert _run(["synth", "--out", str(data), "--config", str(cfg), *common])[0] == 0
        assert _run(["synth", "--out", str(full), *common])[0] == 0
        assert read_tensor(next(data.glob("*_frames.avst"))).shape[1:] == (1, 16, 16)
        assert read_tensor(next(full.glob("*_frames.avst"))).shape[1:] == (1, 32, 32)
        code, _ = _run(["train", "--data", str(data), "--config", str(cfg), "--epochs", "1",
                        "--out", str(tmp_path / "m.avck")])
        assert code == 0

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_exits_two_naming_it(self, tmp_path, capsys, duration):
        code = cli.main(["synth", "--out", str(tmp_path), "--scenes", "1",
                         "--duration", duration])
        assert code == 2
        err = capsys.readouterr().err
        assert "duration_s" in err and f"got {float(duration)}" in err

    def test_duration_beyond_a_wav_file_exits_two_naming_it(self, tmp_path, capsys):
        """Refused before anything is allocated, not a traceback from np.arange."""
        code = cli.main(["synth", "--out", str(tmp_path), "--scenes", "1",
                         "--duration", "1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert "duration_s" in err and "got 1e+300" in err


class TestMix:
    def test_writes_a_mixture_of_the_same_length(self, tmp_path):
        _run(["synth", "--out", str(tmp_path), "--scenes", "1", "--seed", "0", "--duration", "0.5"])
        target = next(tmp_path.glob("*_target.wav"))
        interferer = next(tmp_path.glob("*_interferer.wav"))
        out = tmp_path / "mix.wav"
        code, _ = _run(
            ["mix", "--target", str(target), "--interferer", str(interferer),
             "--snr", "5.0", "--out", str(out)]
        )
        assert code == 0
        mixture, rate = load_wav(out)
        clean, rate_t = load_wav(target)
        assert rate == rate_t
        assert len(mixture) == len(clean)

    def test_sample_rate_mismatch_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.wav"
        b = tmp_path / "b.wav"
        save_wav(a, np.zeros(100) + 0.1, 16000)
        save_wav(b, np.zeros(100) + 0.1, 8000)
        code = cli.main(
            ["mix", "--target", str(a), "--interferer", str(b), "--snr", "0", "--out",
             str(tmp_path / "m.wav")]
        )
        assert code == 2

    @pytest.mark.parametrize("snr", ["1e308", "-1e308", "nan", "inf"])
    def test_unusable_snr_exits_two_naming_it(self, tmp_path, capsys, snr):
        """NaN, infinite and out-of-range SNRs are refused before mixing:
        no traceback, no late "non-finite samples" from the WAV writer."""
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        save_wav(a, Stream(0).uniform(800, -0.5, 0.5), 16000)
        save_wav(b, Stream(1).uniform(800, -0.5, 0.5), 16000)
        code = cli.main(["mix", "--target", str(a), "--interferer", str(b),
                         f"--snr={snr}", "--out", str(tmp_path / "m.wav")])
        assert code == 2
        err = capsys.readouterr().err
        assert "snr_db" in err and str(float(snr)) in err
        assert not (tmp_path / "m.wav").exists()

    @pytest.mark.parametrize("rate", [0, 2**31])
    def test_rate_the_header_cannot_hold_exits_two(self, tmp_path, capsys, rate):
        """Refused on load: a 2**31 Hz byte rate overflows the uint32 field
        the writer fills, and 0 Hz describes no audio."""
        paths = []
        for name, seed in (("a.wav", 0), ("b.wav", 1)):
            path = tmp_path / name
            save_wav(path, Stream(seed).uniform(800, -0.5, 0.5), 16000)
            data = bytearray(path.read_bytes())
            data[24:28] = rate.to_bytes(4, "little")  # sample rate field
            path.write_bytes(bytes(data))
            paths.append(str(path))
        code = cli.main(["mix", "--target", paths[0], "--interferer", paths[1],
                         "--snr", "0", "--out", str(tmp_path / "m.wav")])
        assert code == 2
        assert f"sample rate {rate} Hz" in capsys.readouterr().err
        assert not (tmp_path / "m.wav").exists()

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = cli.main(
            ["mix", "--target", str(tmp_path / "no.wav"),
             "--interferer", str(tmp_path / "no2.wav"),
             "--snr", "0", "--out", str(tmp_path / "m.wav")]
        )
        assert code == 2


class TestEvaluate:
    def _scene_wav(self, tmp_path, name, seed=0):
        scene = synth_scene(seed, 0.5, tiny_config())
        path = tmp_path / name
        save_wav(path, scene.target, scene.sample_rate_hz)
        return path

    def test_file_mode_identical_pair_scores_the_cap(self, tmp_path):
        wav = self._scene_wav(tmp_path, "x.wav")
        report = tmp_path / "report.jsonl"
        code, out = _run(["evaluate", "--clean", str(wav), "--enhanced", str(wav),
                          "--report", str(report)])
        assert code == 0
        agg = json.loads(out.strip().splitlines()[-1])
        assert agg["id"] == "aggregate"
        assert agg["sisdr_db"] == pytest.approx(60.0)
        lines = report.read_text().splitlines()
        assert len(lines) == 2  # one pair plus the aggregate

    def test_directory_mode_skips_mismatched_stems_with_a_warning(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        enhanced = tmp_path / "enh"
        clean.mkdir()
        enhanced.mkdir()
        a = self._scene_wav(clean, "a.wav", seed=1)
        self._scene_wav(clean, "only_clean.wav", seed=2)
        shutil.copy(a, enhanced / "a.wav")
        report = tmp_path / "report.jsonl"
        code = cli.main(["evaluate", "--clean", str(clean), "--enhanced", str(enhanced),
                         "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0
        assert "only_clean" in captured.err
        ids = [json.loads(line)["id"] for line in report.read_text().splitlines()]
        assert ids == ["a", "aggregate"]

    def test_directory_mode_with_no_pairs_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        enhanced = tmp_path / "enh"
        clean.mkdir()
        enhanced.mkdir()
        self._scene_wav(clean, "a.wav")
        self._scene_wav(enhanced, "b.wav")
        code = cli.main(["evaluate", "--clean", str(clean), "--enhanced", str(enhanced),
                         "--report", str(tmp_path / "r.jsonl")])
        assert code == 2

    def test_mixed_file_and_directory_exits_two(self, tmp_path, capsys):
        wav = self._scene_wav(tmp_path, "x.wav")
        code = cli.main(["evaluate", "--clean", str(wav), "--enhanced", str(tmp_path),
                         "--report", str(tmp_path / "r.jsonl")])
        assert code == 2


class TestEnhanceErrors:
    def test_missing_checkpoint_exits_two(self, tmp_path, capsys):
        code = cli.main(
            ["enhance", "--model", str(tmp_path / "no.avck"),
             "--audio", str(tmp_path / "no.wav"),
             "--frames", str(tmp_path / "no.avst"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert code == 2

    def test_wrong_sample_rate_exits_two(self, tmp_path, capsys):
        config = tiny_config()
        model = tmp_path / "m.avck"
        save_checkpoint(model, Checkpoint(config, init_parameters(config, 0, dtype=np.float32)))
        audio = tmp_path / "a.wav"
        save_wav(audio, Stream(0).uniform(4000, -0.5, 0.5), 8000)
        frames = tmp_path / "f.avst"
        write_tensor(frames, np.zeros((4, 1, 16, 16), dtype=np.float32))
        code = cli.main(["enhance", "--model", str(model), "--audio", str(audio),
                         "--frames", str(frames), "--out", str(tmp_path / "o.wav")])
        assert code == 2

    def test_malformed_frames_exit_two(self, tmp_path, capsys):
        config = tiny_config()
        model = tmp_path / "m.avck"
        save_checkpoint(model, Checkpoint(config, init_parameters(config, 0, dtype=np.float32)))
        audio = tmp_path / "a.wav"
        save_wav(audio, Stream(0).uniform(4000, -0.5, 0.5), config.sample_rate_hz)
        frames = tmp_path / "f.avst"
        write_tensor(frames, np.zeros((4, 16, 16), dtype=np.float32))  # missing channel axis
        code = cli.main(["enhance", "--model", str(model), "--audio", str(audio),
                         "--frames", str(frames), "--out", str(tmp_path / "o.wav")])
        assert code == 2


class TestEnhanceMemory:
    def test_adam_moments_are_freed_before_the_forward_pass(self, tmp_path, monkeypatch):
        """The command loads parameters only, so no moment array exists
        when the forward pass runs, though the file carries them."""
        config = tiny_config()
        params = init_parameters(config, 0, dtype=np.float32)
        model = tmp_path / "m.avck"
        save_checkpoint(model, Checkpoint(config, params, init_optimizer(params)))
        audio = tmp_path / "a.wav"
        save_wav(audio, Stream(0).uniform(4000, -0.5, 0.5), config.sample_rate_hz)
        frames = tmp_path / "f.avst"
        write_tensor(frames, np.zeros((4, 1, 16, 16), dtype=np.float32))
        loaded = []
        real_load, real_enhance = cli.load_checkpoint, cli.enhance

        def load(path, **kwargs):
            ckpt = real_load(path, **kwargs)
            loaded.append(ckpt.optimizer)
            return ckpt

        def enhance(*args):
            assert loaded == [None]
            assert real_load(model).optimizer is not None
            return real_enhance(*args)

        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(cli, "enhance", enhance)
        code = cli.main(["enhance", "--model", str(model), "--audio", str(audio),
                         "--frames", str(frames), "--out", str(tmp_path / "o.wav")])
        assert code == 0


def _bad_frames(kind):
    """[F, 1, H, W] frames wrong for tiny_config's 16x16 frame_hw."""
    if kind == "size":
        return np.zeros((4, 1, 48, 48), dtype=np.float32)
    frames = np.zeros((4, 1, 16, 16), dtype=np.float32)
    frames[2, 0, 5, 7] = np.nan
    return frames


_BAD_FRAME_MESSAGES = {"size": "48x48.*16x16", "nan": "non-finite"}


class TestFrameValidation:
    """enhance and train reject frames of the wrong size or with non-finite
    pixels, naming the file, with exit 2."""

    @pytest.mark.parametrize("kind", sorted(_BAD_FRAME_MESSAGES))
    def test_enhance_rejects(self, kind, tmp_path, capsys):
        config = tiny_config()
        model = tmp_path / "m.avck"
        save_checkpoint(model, Checkpoint(config, init_parameters(config, 0, dtype=np.float32)))
        audio = tmp_path / "a.wav"
        save_wav(audio, Stream(0).uniform(4000, -0.5, 0.5), config.sample_rate_hz)
        frames = tmp_path / "f.avst"
        write_tensor(frames, _bad_frames(kind))
        code = cli.main(["enhance", "--model", str(model), "--audio", str(audio),
                         "--frames", str(frames), "--out", str(tmp_path / "o.wav")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(frames) in err
        assert re.search(_BAD_FRAME_MESSAGES[kind], err)
        assert not (tmp_path / "o.wav").exists()

    @pytest.mark.parametrize("kind", sorted(_BAD_FRAME_MESSAGES))
    def test_train_rejects(self, kind, tmp_path, capsys):
        scene = synth_scene(0, 0.5, tiny_config())
        save_wav(tmp_path / "t.wav", scene.target, scene.sample_rate_hz)
        save_wav(tmp_path / "i.wav", scene.interferer, scene.sample_rate_hz)
        write_tensor(tmp_path / "f.avst", _bad_frames(kind))
        entry = {"id": "s", "target_path": "t.wav", "interferer_path": "i.wav",
                 "frames_path": "f.avst", "snr_db": 0.0}
        (tmp_path / "manifest.jsonl").write_text(json.dumps(entry) + "\n", encoding="utf-8")
        cfg = tmp_path / "tiny.json"
        cfg.write_text(tiny_config().to_json(), encoding="utf-8")
        code = cli.main(["train", "--data", str(tmp_path), "--config", str(cfg),
                         "--epochs", "1", "--out", str(tmp_path / "m.avck")])
        assert code == 2
        err = capsys.readouterr().err
        assert "f.avst" in err
        assert re.search(_BAD_FRAME_MESSAGES[kind], err)


class TestTrainShortScene:
    def test_exits_two_naming_the_scene_before_any_step(self, tmp_path, capsys, monkeypatch):
        """A scene shorter than the encoder kernel is refused while the
        scenes are mixed, before the first step, naming it and both lengths."""
        from avse.training import loop

        steps, forward = [], loop.enhance_fwd

        def counted(*args):
            steps.append(args[0].shape)
            return forward(*args)

        monkeypatch.setattr(loop, "enhance_fwd", counted)
        lines = []
        for i, n in enumerate((8000, 8000, 10)):
            scene = synth_scene(i, 0.5, tiny_config())
            save_wav(tmp_path / f"{i}_t.wav", scene.target[:n], scene.sample_rate_hz)
            save_wav(tmp_path / f"{i}_i.wav", scene.interferer[:n], scene.sample_rate_hz)
            write_tensor(tmp_path / f"{i}_f.avst", scene.frames)
            lines.append(json.dumps({
                "id": f"scene{n}_{i}", "target_path": f"{i}_t.wav",
                "interferer_path": f"{i}_i.wav", "frames_path": f"{i}_f.avst", "snr_db": 0.0,
            }))
        (tmp_path / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "tiny.json"
        cfg.write_text(tiny_config().to_json(), encoding="utf-8")
        code = cli.main(["train", "--data", str(tmp_path), "--config", str(cfg),
                         "--epochs", "1", "--out", str(tmp_path / "m.avck")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scene scene10_2" in err and "length 10" in err and "kernel 16" in err
        assert steps == []
        assert not (tmp_path / "m.avck").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> mix -> enhance -> evaluate, all through the CLI.

    Two half-length scenes and a short schedule keep this under half a
    minute; the acceptance suite runs the full overfit recipe.
    """
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    noisy = root / "noisy"
    enhanced = root / "enhanced"
    clean = root / "clean"
    code, _ = _run(["synth", "--out", str(data), "--scenes", "2", "--seed", "0",
                    "--duration", "1.0"])
    assert code == 0
    for d in (noisy, enhanced, clean):
        d.mkdir()
    cfg = root / "tiny.json"
    # `avse synth` writes frames at the default config's size.
    synth_frames_tiny = scaled_config(tiny_config(), frame_hw=default_config().frame_hw)
    cfg.write_text(synth_frames_tiny.to_json(), encoding="utf-8")
    model = root / "model.avck"
    code, train_stdout = _run(
        ["train", "--data", str(data), "--config", str(cfg), "--epochs", "40",
         "--seed", "0", "--out", str(model)]
    )
    assert code == 0
    entries = [json.loads(line) for line in (data / "manifest.jsonl").read_text().splitlines()]
    for entry in entries:
        target = data / entry["target_path"]
        shutil.copy(target, clean / target.name)
        code, _ = _run(
            ["mix", "--target", str(target),
             "--interferer", str(data / entry["interferer_path"]),
             "--snr", str(entry["snr_db"]), "--out", str(noisy / target.name)]
        )
        assert code == 0
        code, _ = _run(
            ["enhance", "--model", str(model), "--audio", str(noisy / target.name),
             "--frames", str(data / entry["frames_path"]),
             "--out", str(enhanced / target.name)]
        )
        assert code == 0
    reports = {}
    for label, directory in (("noisy", noisy), ("enhanced", enhanced)):
        report = root / f"{label}.jsonl"
        code, _ = _run(["evaluate", "--clean", str(clean), "--enhanced", str(directory),
                        "--report", str(report)])
        assert code == 0
        reports[label] = report
    return SimpleNamespace(
        root=root, data=data, noisy=noisy, enhanced=enhanced, clean=clean,
        model=model, entries=entries, train_stdout=train_stdout, reports=reports,
    )


def _aggregate(report_path):
    return json.loads(report_path.read_text().splitlines()[-1])


class TestPipeline:
    def test_training_log_is_json_lines_with_the_contract_keys(self, pipeline):
        records = [json.loads(line) for line in pipeline.train_stdout.strip().splitlines()]
        assert len(records) == 40
        for record in records:
            assert set(record) == {"epoch", "mean_loss", "mean_sisdr"}

    def test_enhanced_beats_noisy(self, pipeline):
        noisy = _aggregate(pipeline.reports["noisy"])
        enhanced = _aggregate(pipeline.reports["enhanced"])
        assert enhanced["sisdr_db"] > noisy["sisdr_db"]

    def test_enhance_is_deterministic(self, pipeline):
        entry = pipeline.entries[0]
        name = entry["target_path"]
        outs = []
        for run in range(2):
            out = pipeline.root / f"again{run}.wav"
            code, _ = _run(
                ["enhance", "--model", str(pipeline.model),
                 "--audio", str(pipeline.noisy / name),
                 "--frames", str(pipeline.data / entry["frames_path"]),
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_is_deterministic(self, pipeline):
        report = pipeline.root / "again.jsonl"
        code, _ = _run(["evaluate", "--clean", str(pipeline.clean),
                        "--enhanced", str(pipeline.enhanced), "--report", str(report)])
        assert code == 0
        assert report.read_bytes() == pipeline.reports["enhanced"].read_bytes()

    def test_train_is_deterministic(self, pipeline):
        model2 = pipeline.root / "model2.avck"
        cfg = pipeline.root / "tiny.json"
        code, stdout = _run(
            ["train", "--data", str(pipeline.data), "--config", str(cfg),
             "--epochs", "40", "--seed", "0", "--out", str(model2)]
        )
        assert code == 0
        assert stdout == pipeline.train_stdout
        assert model2.read_bytes() == pipeline.model.read_bytes()


class TestEnhanceSpeed:
    def test_three_second_default_scene_under_five_seconds(self, tmp_path):
        # Soft wall-clock bound on commodity hardware.
        config = default_config()
        model = tmp_path / "m.avck"
        save_checkpoint(model, Checkpoint(config, init_parameters(config, 0, dtype=np.float32)))
        scene = synth_scene(0, 3.0, config)
        audio = tmp_path / "noisy.wav"
        save_wav(audio, scene.target + scene.interferer, scene.sample_rate_hz)
        frames = tmp_path / "f.avst"
        write_tensor(frames, scene.frames.astype(np.float32))
        start = time.perf_counter()
        code, _ = _run(["enhance", "--model", str(model), "--audio", str(audio),
                        "--frames", str(frames), "--out", str(tmp_path / "out.wav")])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0
