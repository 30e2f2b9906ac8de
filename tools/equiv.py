"""Compare two source trees' model outputs and gradients, array by array.

    python3 tools/equiv.py PARENT CHANGE [--tol REL]

PARENT and CHANGE are checkouts of this repository.  Each runs in its
own subprocess with its own ``src`` first on the import path, on synth
scene 7 and parameter seed 3, for the tiny and the default config, each
in float32 and float64.  A run dumps ``network.enhance``,
``grad.enhance_fwd`` and every parameter cotangent of
``grad.enhance_bwd`` under the negative SI-SDR loss, plus that loss and
the ``si_sdr`` and ``stoi`` scores of the ``enhance_fwd`` output
against the scene target.  For the tiny float32 run it also dumps the
``stoi`` score of both signals repeated x3 sample by sample and scored
at 48 kHz (STOI resamples by 5/24 there, by 5/8 from 16 kHz), the bytes
``save_checkpoint`` writes for those parameters with the moments of one
Adam step on those cotangents, and the bytes after one
``load_checkpoint`` -> ``save_checkpoint`` round trip, the bytes stored
as float64 values.  A single step cannot show state that one training
step leaves for the next, so each tree also runs ``train_scenes`` on
three scenes of 1, 0.5 and 1 s, for 2 epochs on the tiny config and one
on the default config (6 and 3 steps), and dumps each step's loss and
the final parameters and both Adam moments.  Last come two
default-config float32 ``network.enhance`` calls under ``tracemalloc``,
on 1 s and on 10 s of scene 7: the 10 s output is dumped too, because
only there does the inter-chunk BiLSTM run 400 steps, and both peaks are
reported, the memory figures a change to the inference path cites.  The
file readers and writers are covered apart from the model: the samples
``load_wav`` returns for three multi-chunk WAV files that this script
builds (a LIST chunk and an odd-sized chunk before the data, two data
chunks, an 18-byte fmt chunk with trailing bytes), and the bytes
``write_tensor`` writes for the tiny scene's frames, with what
``read_tensor`` reads back.  934 arrays in all.

Each tree is dumped twice, with one BLAS thread set in its child's
environment, to cover both BiLSTM schedules
(``avse.ops.rnn.split_directions``).  The first child keeps the affinity
set it was launched with: on two or more CPUs, a checkout that splits
the directions runs the default config's inference BiLSTMs on two
threads, and its training ones and all of the tiny config's still on
one.  The second child pins itself to one CPU of that set, so every
BiLSTM runs on one thread.  Each schedule gets its own table and its own
count line.  With one CPU in the affinity set, both children would run
the one-thread schedule, so only the pinned one runs and the output says
that the split schedule was not covered.  Each checkout's line states
how many CPUs its child's affinity set held.

Every array's worst deviation is printed relative to that array's
largest entry, and the exit code is 1 if any exceeds ``--tol`` (default
0, meaning bit-identical) under either schedule.  An array that only one
tree dumps gets a FAIL row naming that tree, and the rest are compared.
"""

from __future__ import annotations

import argparse
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

SCENE, PARAM_SEED, SECONDS = 7, 3, 1.0
LONG_SECONDS = 10.0  # the traced enhance's second length


def dump(out_path: str) -> list[int]:
    """Write every compared array of this interpreter's ``avse`` to an .npz;
    returns the tracemalloc peaks of the default float32 enhance at
    SECONDS and LONG_SECONDS, in bytes."""
    from avse.data.mixer import mix_scene
    from avse.data.synth import synth_scene
    from avse.metrics.sisdr import si_sdr
    from avse.metrics.stoi import stoi
    from avse.model import network
    from avse.model.config import default_config, tiny_config
    from avse.model.grad import enhance_bwd, enhance_fwd
    from avse.model.params import init_parameters
    from avse.training.loss import si_sdr_loss_vjp
    from avse.training.optimizer import adam_step, init_optimizer

    arrays = {}
    for cname, config in (("tiny", tiny_config()), ("default", default_config())):
        scene = synth_scene(SCENE, SECONDS, config)
        mixture = mix_scene(scene.target, scene.interferer, scene.snr_db, seed=SCENE,
                            sample_rate_hz=config.sample_rate_hz)
        for dtype in (np.float32, np.float64):
            run = f"{cname}/{np.dtype(dtype).name}"
            params = init_parameters(config, PARAM_SEED, dtype=dtype)
            wave, frames = mixture.astype(dtype), scene.frames.astype(dtype)
            arrays[f"{run}/enhance"] = network.enhance(wave, frames, params, config)
            out, cache = enhance_fwd(wave, frames, params, config)
            arrays[f"{run}/enhance_fwd"] = out
            loss, g_out = si_sdr_loss_vjp(scene.target, out)
            arrays[f"{run}/loss"] = np.float64(loss)
            arrays[f"{run}/si_sdr"] = np.float64(si_sdr(scene.target, out))
            arrays[f"{run}/stoi"] = np.float64(stoi(scene.target, out, config.sample_rate_hz))
            grads = enhance_bwd(cache, params, config, g_out)
            for name, g in grads.items():
                arrays[f"{run}/grad/{name}"] = g
            if run == "tiny/float32":
                arrays[f"{run}/stoi_48k"] = np.float64(stoi(
                    np.repeat(scene.target, 3), np.repeat(out, 3), 3 * config.sample_rate_hz))
                state = init_optimizer(params)
                adam_step(params, grads, state)
                arrays.update(checkpoint_bytes(config, params, state, f"{run}/checkpoint"))
    arrays.update(training_run("tiny", tiny_config(), (1.0, 0.5, 1.0), epochs=2))
    arrays.update(training_run("default", default_config(), (1.0, 0.5, 1.0), epochs=1))

    config = default_config()
    params = init_parameters(config, PARAM_SEED, dtype=np.float32)
    peaks = []
    for seconds in (SECONDS, LONG_SECONDS):
        scene = synth_scene(SCENE, seconds, config)
        mixture = mix_scene(scene.target, scene.interferer, scene.snr_db, seed=SCENE,
                            sample_rate_hz=config.sample_rate_hz)
        wave, frames = mixture.astype(np.float32), scene.frames.astype(np.float32)
        tracemalloc.start()
        try:
            out = network.enhance(wave, frames, params, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    arrays[f"default/float32/enhance_{LONG_SECONDS:g}s"] = out
    arrays.update(file_io())
    np.savez(out_path, **arrays)
    return peaks


def training_run(name, config, lengths, epochs) -> dict[str, np.ndarray]:
    """Each step's loss, and the parameters and both Adam moments after a
    ``train_scenes`` run on one synth scene per length."""
    from avse.data.synth import synth_scene
    from avse.training import loop

    scenes = [synth_scene(SCENE + i, seconds, config) for i, seconds in enumerate(lengths)]
    losses, loss_vjp = [], loop.si_sdr_loss_vjp

    def recorded(target, out):
        result = loss_vjp(target, out)
        losses.append(result[0])
        return result

    loop.si_sdr_loss_vjp = recorded
    try:
        ckpt, _ = loop.train_scenes(config, scenes, epochs, seed=PARAM_SEED)
    finally:
        loop.si_sdr_loss_vjp = loss_vjp
    prefix = f"train/{name}"
    arrays = {f"{prefix}/step_loss": np.array(losses)}
    state = {"param": ckpt.params, "m": ckpt.optimizer.m, "v": ckpt.optimizer.v}
    for kind, tensors in state.items():
        arrays.update({f"{prefix}/{kind}/{key}": a for key, a in tensors.items()})
    return arrays


def checkpoint_bytes(config, params, state, prefix: str) -> dict[str, np.ndarray]:
    """The file ``save_checkpoint`` writes and the file after a load and a
    save of it, as float64 byte values (``compare`` takes float arrays)."""
    from avse.training.checkpoint import Checkpoint, load_checkpoint, save_checkpoint

    with tempfile.TemporaryDirectory() as tmp:
        saved, resaved = Path(tmp) / "saved.avck", Path(tmp) / "resaved.avck"
        save_checkpoint(saved, Checkpoint(config, params, state))
        save_checkpoint(resaved, load_checkpoint(saved))
        return {f"{prefix}/{p.stem}": np.frombuffer(p.read_bytes(), np.uint8).astype(np.float64)
                for p in (saved, resaved)}


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    """A RIFF chunk with its pad byte."""
    return struct.pack("<4sI", chunk_id, len(body)) + body + b"\0" * (len(body) & 1)


def file_io() -> dict[str, np.ndarray]:
    """What ``load_wav`` returns for three multi-chunk WAV files, and the
    bytes ``write_tensor`` writes (as float64 values) and ``read_tensor``
    reads back for the tiny config's scene frames."""
    from avse.data.synth import synth_scene
    from avse.data.tensorfile import read_tensor, write_tensor
    from avse.data.wavio import load_wav
    from avse.model.config import tiny_config

    samples = np.arange(-1000, 1000, 7, dtype="<i2")
    fmt_body = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    fmt, data = _chunk(b"fmt ", fmt_body), _chunk(b"data", samples.tobytes())
    wavs = {
        "list_and_odd_chunk": [_chunk(b"LIST", b"INFOISFT\5\0\0\0avse\0\0"), fmt,
                               _chunk(b"junk", b"abc"), data],
        "two_data_chunks": [fmt, _chunk(b"data", samples[::-1].tobytes()), data],
        "long_fmt": [_chunk(b"fmt ", fmt_body + b"\0\0"), data],
    }
    arrays = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, chunks in wavs.items():
            body = b"WAVE" + b"".join(chunks)
            trailing = b"\xff" * 7 if name == "long_fmt" else b""
            path = Path(tmp) / f"{name}.wav"
            path.write_bytes(struct.pack("<4sI", b"RIFF", len(body)) + body + trailing)
            arrays[f"io/wav/{name}"], rate = load_wav(path)
            arrays[f"io/wav/{name}/rate"] = np.float64(rate)
        path = Path(tmp) / "frames.avst"
        write_tensor(path, synth_scene(SCENE, SECONDS, tiny_config()).frames)
        arrays["io/avst/bytes"] = np.frombuffer(path.read_bytes(), np.uint8).astype(np.float64)
        arrays["io/avst/read"] = read_tensor(path)
    return arrays


# One BLAS thread in every child, under each vendor's variable.
ONE_BLAS_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"), "1"
)


def run_tree(tree: Path, out_path: Path, pin: bool) -> dict[str, np.ndarray]:
    """Dump ``tree`` in a child process, pinned to one CPU if ``pin``."""
    src = tree / "src"
    if not (src / "avse").is_dir():
        raise SystemExit(f"{tree} has no src/avse")
    env = dict(os.environ, PYTHONPATH=str(src), **ONE_BLAS_THREAD)
    code = (
        "import os, sys\n"
        "if sys.argv[4] == 'pin':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import avse; sys.path.insert(0, sys.argv[1])\n"
        "if not avse.__file__.startswith(sys.argv[2]):\n"
        "    raise SystemExit(f'imported {avse.__file__}, not {sys.argv[2]}')\n"
        "import equiv; peaks = equiv.dump(sys.argv[3])\n"
        "print(len(os.sched_getaffinity(0)), *peaks)"
    )
    here = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, here, str(src.resolve()), str(out_path),
         "pin" if pin else "keep"],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    cpus, short, long = proc.stdout.split()[-3:]
    print(f"{tree}: ran with {cpus} CPUs in its affinity set, one BLAS thread; "
          f"default float32 enhance peaked at {int(short) / 2**20:.1f} MiB at {SECONDS:g} s "
          f"and {int(long) / 2**20:.1f} MiB at {LONG_SECONDS:g} s (tracemalloc)")
    with np.load(out_path) as z:
        return {k: z[k] for k in z.files}


def compare(parent: dict, change: dict, tol: float) -> int:
    """Print the per-array table; returns the number of arrays that fail:
    over tol, of another shape, or dumped by one tree only."""
    over, worst = 0, {}
    print(f"{'array':<52} {'max |a|':>10} {'rel dev':>10}")
    for key in sorted(parent.keys() | change.keys()):
        if key not in change or key not in parent:
            print(f"{key:<52} {'parent' if key in parent else 'change'} only  FAIL")
            over += 1
            continue
        a, b = parent[key].astype(np.float64), change[key].astype(np.float64)
        if a.shape != b.shape:
            print(f"{key:<52} shape {a.shape} -> {b.shape}  FAIL")
            over += 1
            continue
        top, dev = float(np.abs(a).max()), float(np.abs(a - b).max())
        rel = dev / top if top else dev
        run = "/".join(key.split("/")[:2])  # "default/float32"
        worst[run] = max(worst.get(run, 0.0), rel)
        over += rel > tol
        print(f"{key:<52} {top:>10.3g} {rel:>10.3g}{'  FAIL' if rel > tol else ''}")
    for run, rel in sorted(worst.items()):
        print(f"worst {run:<16} {rel:.3g}")
    return over


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest allowed deviation relative to each array's largest entry")
    args = ap.parse_args(argv)
    schedules = [("split", False), ("one-thread", True)]
    if len(os.sched_getaffinity(0)) < 2:
        print("one CPU in the affinity set: the split schedule was not covered")
        schedules = schedules[1:]
    failed = False
    for name, pin in schedules:
        print(f"== {name} schedule ==")
        with tempfile.TemporaryDirectory() as tmp:
            parent = run_tree(args.parent, Path(tmp) / "parent.npz", pin)
            change = run_tree(args.change, Path(tmp) / "change.npz", pin)
        over = compare(parent, change, args.tol)
        print(f"{name} schedule: {len(parent.keys() | change.keys())} arrays, "
              f"{over} over tolerance {args.tol:g}")
        failed |= over > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
