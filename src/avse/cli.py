"""Command-line entry point.

Subcommands: synth, mix, train, enhance, evaluate, info, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.
All randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from avse.data.manifest import load_manifest
from avse.data.mixer import mix_scene
from avse.data.synth import synth_scene
from avse.data.tensorfile import read_tensor, write_tensor
from avse.data.wavio import load_wav, save_wav
from avse.errors import AvseError, DataError, NumericError
from avse.metrics.report import evaluate_pair, write_report
from avse.model.config import ModelConfig, default_config, tiny_config
from avse.model.network import enhance
from avse.model.params import count_parameters, parameter_shapes
from avse.training.checkpoint import load_checkpoint, save_checkpoint
from avse.training.gradcheck import grad_check
from avse.training.loop import train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_THRESHOLD = 1e-3


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so usage maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract reserves 2 for
    # data problems, so route all usage failures through _UsageError.
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    """argparse type for --scenes and --epochs: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="avse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate synthetic scenes into a directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scenes", type=_count, default=4, help="number of scenes")
    p.add_argument("--seed", type=int, default=0, help="base seed; scene i uses seed+i")
    p.add_argument("--duration", type=float, default=3.0, help="scene length in seconds")
    p.add_argument("--config", help="model config JSON for sample rate and frame size "
                   "(default: full-size config)")

    p = sub.add_parser("mix", help="mix a target and an interferer at a given SNR")
    p.add_argument("--target", required=True, help="target WAV")
    p.add_argument("--interferer", required=True, help="interferer WAV")
    p.add_argument("--snr", type=float, required=True, help="target SNR in dB")
    p.add_argument("--out", required=True, help="output WAV")

    p = sub.add_parser("train", help="train a model on a scene manifest")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="directory containing manifest.jsonl")
    group.add_argument("--manifest", help="manifest file")
    p.add_argument("--config", help="model config JSON (default: full-size config)")
    p.add_argument("--epochs", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output checkpoint path")

    p = sub.add_parser("enhance", help="enhance one noisy recording")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--audio", required=True, help="noisy WAV")
    p.add_argument("--frames", required=True, help="video frames tensor file")
    p.add_argument("--out", required=True, help="output WAV")

    p = sub.add_parser("evaluate", help="score enhanced audio against clean references")
    p.add_argument("--clean", required=True, help="clean WAV or directory")
    p.add_argument("--enhanced", required=True, help="enhanced WAV or directory")
    p.add_argument("--report", required=True, help="output report path (JSON lines)")

    p = sub.add_parser("info", help="print the parameter table for a config")
    p.add_argument("--config", help="model config JSON (default: full-size config)")

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_config(path: str | None) -> ModelConfig:
    if path is None:
        return default_config()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return ModelConfig.from_json(text)


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _load_config(args.config)
    entries = []
    for i in range(args.scenes):
        scene = synth_scene(args.seed + i, args.duration, config)
        target_name = f"{scene.id}_target.wav"
        interferer_name = f"{scene.id}_interferer.wav"
        frames_name = f"{scene.id}_frames.avst"
        save_wav(out_dir / target_name, scene.target, scene.sample_rate_hz)
        save_wav(out_dir / interferer_name, scene.interferer, scene.sample_rate_hz)
        write_tensor(out_dir / frames_name, scene.frames.astype(np.float32))
        entries.append(
            {
                "id": scene.id,
                "target_path": target_name,
                "interferer_path": interferer_name,
                "frames_path": frames_name,
                "snr_db": scene.snr_db,
            }
        )
    manifest_path = out_dir / "manifest.jsonl"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    print(f"wrote {len(entries)} scenes to {out_dir}")
    return EXIT_OK


def _cmd_mix(args) -> int:
    target, rate_t = load_wav(args.target)
    interferer, rate_i = load_wav(args.interferer)
    if rate_t != rate_i:
        raise DataError(f"sample rates differ: {rate_t} Hz vs {rate_i} Hz")
    mixture = mix_scene(target, interferer, args.snr, sample_rate_hz=rate_t)
    save_wav(args.out, mixture, rate_t)
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.data is not None:
        manifest_path = Path(args.data) / "manifest.jsonl"
    else:
        manifest_path = Path(args.manifest)
    entries = load_manifest(manifest_path)
    config = _load_config(args.config)
    checkpoint, logs = train(config, entries, args.epochs, args.seed)
    for record in logs:
        print(json.dumps(record))
    save_checkpoint(args.out, checkpoint)
    return EXIT_OK


def _cmd_enhance(args) -> int:
    checkpoint = load_checkpoint(args.model)
    wave, rate = load_wav(args.audio)
    if rate != checkpoint.config.sample_rate_hz:
        raise DataError(
            f"audio is {rate} Hz but the model expects "
            f"{checkpoint.config.sample_rate_hz} Hz"
        )
    frames = read_tensor(args.frames)
    checkpoint.config.check_frames(frames, args.frames)
    out = enhance(
        wave.astype(np.float32), frames, checkpoint.params, checkpoint.config
    )
    save_wav(args.out, np.clip(out.astype(np.float64), -1.0, 1.0), rate)
    return EXIT_OK


def _wav_stems(directory: Path) -> dict[str, Path]:
    return {p.stem: p for p in sorted(directory.glob("*.wav"))}


def _cmd_evaluate(args) -> int:
    clean = Path(args.clean)
    enhanced = Path(args.enhanced)
    if clean.is_dir() != enhanced.is_dir():
        raise DataError("--clean and --enhanced must both be files or both directories")
    reports = []
    if clean.is_dir():
        clean_map = _wav_stems(clean)
        enhanced_map = _wav_stems(enhanced)
        for stem in sorted(set(clean_map) | set(enhanced_map)):
            if stem not in clean_map or stem not in enhanced_map:
                side = "clean" if stem not in clean_map else "enhanced"
                print(f"warning: no {side} file for '{stem}', skipped", file=sys.stderr)
                continue
            reports.append(evaluate_pair(clean_map[stem], enhanced_map[stem], pair_id=stem))
        if not reports:
            raise DataError("no matching file pairs to evaluate")
    else:
        reports.append(evaluate_pair(clean, enhanced, pair_id=clean.stem))
    aggregate = write_report(args.report, reports)
    print(aggregate.to_json())
    return EXIT_OK


def _cmd_info(args) -> int:
    config = _load_config(args.config)
    shapes = parameter_shapes(config)
    width = max(len(name) for name in shapes)
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        print(f"{name:<{width}}  {str(tuple(shape)):<20}  {count}")
    print(f"{'total':<{width}}  {'':<20}  {count_parameters(config)}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    worst = grad_check(tiny_config(), seed=args.seed)
    print(f"max relative error: {worst:.3e}")
    if not worst < GRADCHECK_THRESHOLD:
        print(
            f"gradient check failed: {worst:.3e} >= {GRADCHECK_THRESHOLD:.0e}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "mix": _cmd_mix,
    "train": _cmd_train,
    "enhance": _cmd_enhance,
    "evaluate": _cmd_evaluate,
    "info": _cmd_info,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AvseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
