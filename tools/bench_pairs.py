"""Compare two checkouts on one perfbench workload in alternating pairs of runs.

    python3 tools/bench_pairs.py ../parent . --workload tta_files --seed 4
    python3 tools/bench_pairs.py ../parent . --workload serve_single --pairs 12

Runs `python3 perfbench/run.py --workload W --seed S` in the parent and in
the change checkout, one after the other, for each of N pairs; odd pairs,
pair 1 among them, run the parent first and even pairs the change first.
For every end-to-end metric that BENCHMARK.json in the change checkout
lists, it prints each side's median and quartiles over the pairs, the
relative difference of the medians, and in how many pairs the change was
better (ties count for neither side). A gain holds when the change wins at
least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range; the `gain` column says whether both hold.
For a metric with a `bound`, the last column says `worse` when the change's
median is worse than the parent's by more than that fraction of it, and
`unresolved` when the parent's interquartile range is wider than that
fraction of its median, so that such a regression could not be told apart.
Exits 1 when any run reports `"correct": false` or a failed operation, or
when any metric's regression column reads `worse`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from record_bench import run_perfbench

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric over (parent run, change run) pairs of perfbench's last-line JSON.

    `metrics` are BENCHMARK.json's end-to-end entries; a metric that either
    side did not report is skipped. A row's "regression" is "worse",
    "unresolved" or "" against the metric's relative `bound`, and "" when it
    has none.
    """
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        if not all(name in run["metrics"] for pair in pairs for run in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = _quartiles(parent)
        gain = (c_med - p_med) if higher else (p_med - c_med)
        bound = metric.get("bound")
        regression = ""
        if bound is not None:
            if -gain > bound * abs(p_med):
                regression = "worse"
            elif p_q3 - p_q1 > bound * abs(p_med):
                regression = "unresolved"
        rows.append({
            "metric": name,
            "parent_median": p_med,
            "parent_quartiles": (p_q1, p_q3),
            "change_median": c_med,
            "change_quartiles": _quartiles(change),
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else None,
            "wins": wins,
            "pairs": len(pairs),
            "gain_holds": wins * 10 >= 9 * len(pairs) and gain > p_q3 - p_q1,
            "regression": regression,
        })
    return rows


def _failures(pairs: list[tuple[dict, dict]]) -> list[str]:
    return [
        f"pair {i + 1} {side}: correct {run['correct']}, {run['failed']} failed"
        for i, pair in enumerate(pairs)
        for side, run in zip(("parent", "change"), pair)
        if run["correct"] is not True or run["failed"]
    ]


def format_rows(rows: list[dict]) -> str:
    """The rows as a table: medians with [q1, q3], the change in percent, wins, whether a gain holds and any regression."""

    def spread(median: float, quartiles: tuple[float, float]) -> str:
        return f"{median:.4g} [{quartiles[0]:.4g}, {quartiles[1]:.4g}]"

    lines = [f"{'metric':<16}{'parent':>30}{'change':>30}{'diff':>9}{'wins':>8}  gain  regression"]
    for row in rows:
        pct = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        lines.append(
            f"{row['metric']:<16}{spread(row['parent_median'], row['parent_quartiles']):>30}"
            f"{spread(row['change_median'], row['change_quartiles']):>30}{pct:>9}"
            f"{row['wins']:>5}/{row['pairs']:<2}  {'yes' if row['gain_holds'] else 'no':<4}  {row['regression']}".rstrip()
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent, change = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    bench_args = ["--workload", args.workload, "--seed", str(args.seed)]
    pairs = []
    for i in range(args.pairs):
        if i % 2 == 0:
            parent_run = run_perfbench(parent, bench_args)
            change_run = run_perfbench(change, bench_args)
        else:
            change_run = run_perfbench(change, bench_args)
            parent_run = run_perfbench(parent, bench_args)
        pairs.append((parent_run, change_run))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: {parent} -> {change}")
    rows = summarize(pairs, metrics)
    print(format_rows(rows))
    failures = _failures(pairs)
    for line in failures:
        print(f"not correct: {line}", file=sys.stderr)
    return 1 if failures or any(row["regression"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
