"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py

Runs every input set through the same requests and training units as
the benchmark and writes perfbench/reference.npz: every 16th sample of
each enhance output (PCM16), and each training unit's per-step and
per-epoch losses.  The committed file was recorded from the seed code;
re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import numpy as np

import run
from tracing import Recorder


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    arrays = {}
    work = run.OUT / "record-work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for slot in range(run.SLOTS):
            model, inputs = run.enhance_inputs(slot, work, Recorder())
            for length, (audio, frames, n_samples) in inputs.items():
                out = work / "out.wav"
                if run.enhance_request(model, audio, frames, out) != 0:
                    raise SystemExit(f"enhance failed on input set {slot}, {length} s")
                samples = run.read_pcm16(out)
                if samples.shape[0] != n_samples:
                    raise SystemExit(f"enhance output on input set {slot}, {length} s has "
                                     f"{samples.shape[0]} samples, input {n_samples}")
                arrays[f"enhance/{slot}/{length}"] = samples[:: run.REFERENCE_STRIDE].copy()
            for workload in ("train_tiny", "train_default"):
                scenes = run.train_inputs(workload, slot, Recorder())
                with run.StepHooks(Recorder(), 0, float("inf")) as hooks:
                    hooks.start_unit()
                    _, logs = run.loop.train_scenes(
                        run.workload_config(workload), scenes, run.TRAIN_UNIT_EPOCHS[workload],
                        seed=slot, lr=run.TRAIN_LR,
                    )
                arrays[f"{workload}/{slot}/step_loss"] = np.array(hooks.losses)
                arrays[f"{workload}/{slot}/epoch_loss"] = np.array([r["mean_loss"] for r in logs])
            print(f"input set {slot} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    np.savez_compressed(run.REFERENCE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
