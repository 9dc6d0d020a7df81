"""Record one point of the benchmark trajectory as a BENCH_<n>.json file.

    python3 tools/record_bench.py BENCH_6.json                      # this checkout
    python3 tools/record_bench.py BENCH_0.json --checkout ../parent

Runs `python3 perfbench/run.py --seed N` in the checkout once for each of the
seeds 1, 2 and 3, one after another, and writes the commit, the command, the
seeds, the machine (nproc, numpy and Python versions), each run's last-line
JSON and the median of every metric across the runs. A run that exits
non-zero, or that reports `"correct": false` or a failed operation, stops
the recording without writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# Fixed, so that every point of the trajectory is measured on the same inputs.
SEEDS = (1, 2, 3)


def _commit(checkout: Path) -> str:
    """HEAD of the checkout, with `-dirty` when the working tree differs from it."""
    return subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout.strip()


def run_perfbench(checkout: Path, args: list[str]) -> dict:
    """The last-line JSON of `python3 perfbench/run.py ARGS` run in the checkout; exits if it fails."""
    command = ["python3", "perfbench/run.py", *args]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench exited {proc.returncode}: {' '.join(command)} in {checkout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def medians(runs: list[dict]) -> dict:
    """{group: {metric: median value}} over the runs, for every metric of the first run."""
    out = {}
    for group, metrics in runs[0]["metrics"].items():
        out[group] = {
            name: statistics.median(run["metrics"][group][name]["value"] for run in runs)
            for name in metrics
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="BENCH file to write")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    runs = []
    for seed in SEEDS:
        run = run_perfbench(checkout, ["--seed", str(seed)])
        print(f"seed {seed}: correct {run['correct']}, failed {run['failed']}", file=sys.stderr)
        if run["correct"] is not True or run["failed"] != 0:
            raise SystemExit(
                f"perfbench run on seed {seed} is not correct ({run['failed']} failed); {args.out} not written"
            )
        runs.append(run)
    record = {
        "commit": _commit(checkout),
        "command": "python3 perfbench/run.py --seed N",
        "seeds": list(SEEDS),
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__, "python": platform.python_version()},
        "runs": runs,
        "median": medians(runs),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
