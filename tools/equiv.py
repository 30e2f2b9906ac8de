"""Compare two source trees' model outputs and gradients, array by array.

    python3 tools/equiv.py PARENT CHANGE [--tol REL]

PARENT and CHANGE are checkouts of this repository.  Each runs in its
own subprocess with its own ``src`` first on the import path, on synth
scene 7 and parameter seed 3, for the tiny and the default config, each
in float32 and float64.  A run dumps ``network.enhance``,
``grad.enhance_fwd`` and every parameter cotangent of
``grad.enhance_bwd`` under the negative SI-SDR loss, plus that loss and
the ``si_sdr`` and ``stoi`` scores of the ``enhance_fwd`` output
against the scene target: 384 arrays.

Each checkout's line states how many CPUs its subprocess's affinity set
held and the BLAS thread variable it saw.  They decide which BiLSTM
schedule the run covered (``avse.ops.rnn.split_directions``): with two
CPUs per BLAS thread, a checkout that splits the directions runs the
default config's inference BiLSTMs on two threads, and its training
ones and all of the tiny config's still on one; otherwise every BiLSTM
runs on one thread.  Run with
``OPENBLAS_NUM_THREADS=1`` on two or more CPUs to cover the split, and
under ``taskset -c 0`` to cover the one-thread schedule.

Every array's worst deviation is printed relative to that array's
largest entry, and the exit code is 1 if any exceeds ``--tol`` (default
0, meaning bit-identical).  A cotangent whose largest entry is below
NEAR_ZERO_EPS machine epsilons of the largest cotangent of its run is
rounding noise, not a value (``dec.b``'s is a sum of the loss gradient, which has zero
mean): it is listed apart, against that run-wide scale, and does not
decide the exit code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCENE, PARAM_SEED, SECONDS = 7, 3, 1.0
NEAR_ZERO_EPS = 1000  # real cotangents here stay above 1e-3 of the largest


def dump(out_path: str) -> None:
    """Write every compared array of this interpreter's ``avse`` to an .npz."""
    from avse.data.mixer import mix_scene
    from avse.data.synth import synth_scene
    from avse.metrics import si_sdr, stoi
    from avse.model import network
    from avse.model.config import default_config, tiny_config
    from avse.model.grad import enhance_bwd, enhance_fwd
    from avse.model.params import init_parameters
    from avse.training.loss import si_sdr_loss_vjp

    arrays = {}
    for cname, config in (("tiny", tiny_config()), ("default", default_config())):
        scene = synth_scene(SCENE, SECONDS, config)
        mixture = mix_scene(scene.target, scene.interferer, scene.snr_db, seed=SCENE)
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
            for name, g in enhance_bwd(cache, params, config, g_out).items():
                arrays[f"{run}/grad/{name}"] = g
    np.savez(out_path, **arrays)


def run_tree(tree: Path, out_path: Path) -> dict[str, np.ndarray]:
    src = tree / "src"
    if not (src / "avse").is_dir():
        raise SystemExit(f"{tree} has no src/avse")
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import os, sys, avse; sys.path.insert(0, sys.argv[1])\n"
        "if not avse.__file__.startswith(sys.argv[2]):\n"
        "    raise SystemExit(f'imported {avse.__file__}, not {sys.argv[2]}')\n"
        "import equiv; equiv.dump(sys.argv[3])\n"
        "print(len(os.sched_getaffinity(0)))"
    )
    here = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, here, str(src.resolve()), str(out_path)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"{tree}: ran with {proc.stdout.split()[-1]} CPUs in its affinity set, "
          f"OPENBLAS_NUM_THREADS {blas}")
    with np.load(out_path) as z:
        return {k: z[k] for k in z.files}


def compare(parent: dict, change: dict, tol: float) -> int:
    """Print the per-array table; returns the number of arrays over tol."""
    if sorted(parent) != sorted(change):
        print(f"array sets differ: {sorted(set(parent) ^ set(change))[:10]}")
        return 1

    def run_of(key):  # "default/float32"
        return "/".join(key.split("/")[:2])

    scale = {}
    for key, v in parent.items():
        if "/grad/" in key:
            scale[run_of(key)] = max(scale.get(run_of(key), 0.0), float(np.abs(v).max()))
    over, worst, noise = 0, {}, []
    print(f"{'array':<52} {'max |a|':>10} {'rel dev':>10}")
    for key in sorted(parent):
        a, b = parent[key].astype(np.float64), change[key].astype(np.float64)
        if a.shape != b.shape:
            print(f"{key:<52} shape {a.shape} -> {b.shape}  FAIL")
            over += 1
            continue
        top, dev, run = float(np.abs(a).max()), float(np.abs(a - b).max()), run_of(key)
        noise_floor = NEAR_ZERO_EPS * np.finfo(parent[key].dtype).eps * scale[run]
        if "/grad/" in key and top < noise_floor:
            noise.append(f"  {key:<50} {top:>10.3g} {dev / scale[run]:>10.3g}")
            continue
        rel = dev / top if top else dev
        worst[run] = max(worst.get(run, 0.0), rel)
        over += rel > tol
        print(f"{key:<52} {top:>10.3g} {rel:>10.3g}{'  FAIL' if rel > tol else ''}")
    for run, rel in sorted(worst.items()):
        print(f"worst {run:<16} {rel:.3g}")
    if noise:
        print("near-zero cotangents, not judged (deviation relative to the run's largest cotangent):")
        print("\n".join(noise))
    return over


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest allowed deviation relative to each array's largest entry")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_tree(args.parent, Path(tmp) / "parent.npz")
        change = run_tree(args.change, Path(tmp) / "change.npz")
    over = compare(parent, change, args.tol)
    print(f"{len(parent)} arrays, {over} over tolerance {args.tol:g}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
