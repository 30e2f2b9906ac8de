"""Record the golden forward and gradient values that test_golden.py checks.

    PYTHONPATH=src python3 tests/record_golden.py

Runs ``helpers.golden_case`` (tiny config, float64, synth scene 7,
parameter seed 3, 0.5 s) and writes tests/data/golden_tiny.npz: the
enhanced waveform, the loss and every parameter cotangent, plus the
commit and library versions it came from.

The committed file was recorded at commit 7b80594, before the BiLSTM
recurrence moved to one tanh per step and a blocked backward, so that
rewrite is checked against the code it replaced.  It is that recording
minus the cotangent of the decoder's bias, a tensor the model no longer
has; every other array and the provenance are as recorded.  Re-recording is a
change in its own right: state and justify it; never re-record to make
the test pass.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import golden_case

OUT = Path(__file__).resolve().parent / "data" / "golden_tiny.npz"


def main() -> int:
    out, loss, grads = golden_case()
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
        cwd=OUT.parent,
    ).stdout.strip()
    provenance = f"commit {commit or 'unknown'}; numpy {np.__version__}"
    arrays = {f"grad/{name}": g for name, g in grads.items()}
    np.savez_compressed(
        OUT, out=out, loss=np.float64(loss), provenance=np.array(provenance), **arrays
    )
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes): {provenance}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
