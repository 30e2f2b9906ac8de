"""Compare two commits on the benchmark's end-to-end metrics.

Run alternating pairs in two checkouts (parent first on even pairs,
change first on odd ones), then compare:

    python3 perfbench/compare.py --run PARENT_DIR CHANGE_DIR [--pairs 10] [--held-out]

Compare results saved earlier (``perfbench/out/runs.jsonl`` of each
checkout, or the files ``--run`` writes):

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Development runs use input sets 0-6 only (``seed % 8 != 7``);
``--held-out`` runs every pair on input set 7, which is kept out of
development for confirming a claim.

Each workload and metric gets its own row: each side's median and
quartiles, how many pairs the change won, and a verdict:

* improved: the change wins at least 9/10 of the pairs (ties count for
  neither), the medians differ by more than the parent's quartile
  distance, and the change failed no more operations than the parent;
* worse: the change's median is worse than the parent's by more than
  the bound, and either the parent's quartile distance is within the
  bound or every change run is worse than every parent run;
* unresolved: the parent's own quartile distance, as a share of its
  median, is wider than the bound;
* within bound: otherwise.

The exit code is 1 if any row is worse, or if any change run failed an
output check; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SLOTS = 8  # run.py picks input set seed % SLOTS
HELD_OUT_SLOT = 7


def pair_seeds(pairs, held_out):
    """Seeds for the pairs: input set 7 only, or input sets 0-6 only."""
    if held_out:
        return [HELD_OUT_SLOT + SLOTS * i for i in range(pairs)]
    seeds, seed = [], 0
    while len(seeds) < pairs:
        if seed % SLOTS != HELD_OUT_SLOT:
            seeds.append(seed)
        seed += 1
    return seeds


def load_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_runs(path):
    """Untraced results by workload, in run order."""
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                runs.setdefault(record["workload"], []).append(record["result"])
    return runs


def run_pairs(parent_dir, change_dir, workloads, seeds, spec):
    """Run both checkouts alternately; return (parent runs, change runs)."""
    sides = {"parent": (Path(parent_dir), {}), "change": (Path(change_dir), {})}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                directory, runs = sides[side]
                argv = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True,
                                      timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{side} run of {workload} failed (exit {proc.returncode})")
                result = json.loads(lines[-1])
                runs.setdefault(workload, []).append(result)
                with open(HERE / "out" / f"compare-{side}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0,
                                         "result": result}) + "\n")
                print(f"pair {i} {workload} {side}: done", file=sys.stderr)
    return sides["parent"][1], sides["change"][1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, more_failures):
    """(verdict, wins, pairs) for one metric on one workload.

    ``more_failures``: the change failed more operations than the parent,
    so no gain counts.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    if (pairs and not more_failures and wins >= 0.9 * len(pairs)
            and sign * (c_med - p_med) > spread):
        return "improved", wins, len(pairs)
    noisy = spread > bound * abs(p_med)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if -sign * (c_med - p_med) > bound * abs(p_med) and (not noisy or all_worse):
        return "worse", wins, len(pairs)
    if noisy:
        return "unresolved", wins, len(pairs)
    return "within bound", wins, len(pairs)


def compare(parent_runs, change_runs, spec) -> int:
    worse = broken = 0
    print(f"{'workload':14s} {'metric':12s} {'unit':10s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get(workload), change_runs.get(workload)
        if not parent or not change:
            continue
        failed = [sum(r["failed"] for r in runs) for runs in (parent, change)]
        incorrect = sum(not r["correct"] for r in change)
        broken += incorrect + failed[1]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            result, wins, n = verdict(p, c, metric["better"], metric["bound"],
                                      failed[1] > failed[0])
            worse += result == "worse"
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:14s} {name:12s} {metric['unit']:10s} {cells[0]:34s} {cells[1]:34s} "
                  f"{wins:>2d}/{n:<3d}  {result} (bound {metric['bound']:.0%})")
        print(f"{workload:14s} failed operations: parent {failed[0]}, change {failed[1]}; "
              f"change runs not correct: {incorrect}")
    return 1 if worse or broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent results file, or checkout with --run")
    parser.add_argument("change", help="change results file, or checkout with --run")
    parser.add_argument("--run", action="store_true", help="run the benchmark in both checkouts")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--held-out", action="store_true",
                        help="run every pair on the held-out input set 7")
    parser.add_argument("--workload", action="append", help="limit to this workload")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.run:
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        (HERE / "out").mkdir(exist_ok=True)
        parent, change = run_pairs(args.parent, args.change, workloads,
                                   pair_seeds(args.pairs, args.held_out), spec)
    else:
        parent, change = load_runs(args.parent), load_runs(args.change)
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
