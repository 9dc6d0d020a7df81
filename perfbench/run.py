"""Benchmark of the clothdet codec: four workloads and a traced run.

    python3 perfbench/run.py                                   # every workload, then the traced run
    python3 perfbench/run.py --workload tta_files --seed 3     # one workload, end-to-end metrics
    python3 perfbench/run.py --workload tta_files --trace 1    # the traced run, per-layer metrics

Run from anywhere inside a checkout that holds `src/clothdet` and
`tests/bruteforce_eval.py`. Each workload runs in three kinds of
single-threaded process: one writes its seeded inputs, a few only set up (for
`setup_s`), and one sets up, runs timed rounds and checks the outputs. The
last line of standard output is one JSON object; a run that cannot measure
exits non-zero without printing one. Scratch files live under
`.perfbench_out/` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
WORKLOADS = ("serve_single", "tta_files", "encode_files", "eval_dataset")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("images_per_s", "images/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("map_box", "mAP"),
    ("map_pt", "mAP"),
)

# Per-layer metric: (name, unit, workload it is measured on, span, statistic).
# Statistics: "ms" median duration, "self_ms" median self time, ("mean", key)
# mean of a span count, ("mb", key) mean byte count in MB, ("share", num, den)
# sum of one count over the sum of another.
LAYERS = (
    ("heads.validate.ms", "ms", "serve_single", "heads.validate", "ms"),
    ("decode.center_peaks.ms", "ms", "serve_single", "decode.center_peaks", "ms"),
    ("decode.kp_peaks.ms", "ms", "serve_single", "decode.kp_peaks", "ms"),
    ("decode.regress_snap.self_ms", "ms", "serve_single", "decode.decode_scene", "self_ms"),
    ("decode.detections", "count/image", "serve_single", "decode.decode_scene", ("mean", "detections")),
    ("decode.kp_candidates", "count/image", "serve_single", "decode.kp_peaks", ("mean", "candidates")),
    ("decode.zero_score_share", "ratio", "serve_single", "decode.decode_scene", ("share", "zero_score", "detections")),
    ("postprocess.nms.ms", "ms", "serve_single", "postprocess.nms", "ms"),
    ("postprocess.nms.kept_share", "ratio", "serve_single", "postprocess.nms", ("share", "kept", "input")),
    ("postprocess.flip.ms", "ms", "tta_files", "postprocess.flip", "ms"),
    ("postprocess.fuse.ms", "ms", "tta_files", "postprocess.fuse", "ms"),
    ("postprocess.fuse.mb_in", "MB", "tta_files", "postprocess.fuse", ("mb", "bytes_in")),
    ("postprocess.rescale.ms", "ms", "tta_files", "postprocess.rescale", "ms"),
    ("fileio.read_tensors.ms", "ms", "tta_files", "fileio.read_tensors", "ms"),
    ("fileio.read_tensors.mb", "MB", "tta_files", "fileio.read_tensors", ("mb", "bytes")),
    ("fileio.write_detections.ms", "ms", "tta_files", "fileio.write_detections", "ms"),
    ("cli.decode.self_ms", "ms", "tta_files", "cli.decode", "self_ms"),
    ("encode.encode_scene.ms", "ms", "encode_files", "encode.encode_scene", "ms"),
    ("fileio.write_tensors.ms", "ms", "encode_files", "fileio.write_tensors", "ms"),
    ("fileio.write_tensors.mb", "MB", "encode_files", "fileio.write_tensors", ("mb", "bytes")),
    ("cli.encode.self_ms", "ms", "encode_files", "cli.encode", "self_ms"),
    ("fileio.read_scenes.ms", "ms", "eval_dataset", "fileio.read_scenes", "ms"),
    ("fileio.read_detections.ms", "ms", "eval_dataset", "fileio.read_detections", "ms"),
    ("metrics.evaluate.ms", "ms", "eval_dataset", "metrics.evaluate", "ms"),
    ("metrics.evaluate.pairs", "count", "eval_dataset", "metrics.evaluate", ("mean", "pairs")),
    ("metrics.report.ms", "ms", "eval_dataset", "metrics.report", "ms"),
    ("cli.eval.self_ms", "ms", "eval_dataset", "cli.eval", "self_ms"),
)


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _program_paths() -> list[str]:
    return [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def _check_checkout() -> None:
    for need in (ROOT / "src" / "clothdet" / "__init__.py", ROOT / "tests" / "bruteforce_eval.py"):
        if not need.is_file():
            raise BenchError(f"{need.relative_to(ROOT)} not found: run inside a clothdet checkout")


def _child(role: str, workload: str, seed: int, seconds: int, trace: int, inputs: Path, work: Path) -> dict:
    """Run one role in a fresh single-threaded interpreter and return its result file."""
    result = work.with_suffix(".result.json")
    log = work.with_suffix(".log")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--inputs", str(inputs), "--work", str(work), "--result", str(result)]
    with open(log, "w") as log_fh:
        try:
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=log_fh, env=env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {role} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text("utf-8", errors="replace")[-2000:]
        raise BenchError(f"{workload} {role} exited {proc.returncode}:\n{tail}")
    return json.loads(result.read_text("utf-8"))


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    """Generate inputs, probe set-up, run the workload process; return its raw result."""
    inputs = scratch / "inputs"
    _child("gen", workload, seed, seconds, trace, inputs, scratch / "gen")
    setups = []
    if not trace:
        for k in range(SETUP_PROBES):
            setups.append(_child("setup", workload, seed, seconds, trace, inputs, scratch / f"probe{k}")["setup_s"])
    result = _child("work", workload, seed, seconds, trace, inputs, scratch / "work")
    result["setup_samples"] = setups + [result["setup_s"]]
    return result


def end_to_end(result: dict) -> dict:
    lat = result["latency_ms"]
    if not lat:
        raise BenchError("every operation failed; nothing was timed")
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "images_per_s": statistics.median(result["round_rates"]),
        "latency_p50_ms": _percentile(lat, 0.50),
        "latency_p95_ms": _percentile(lat, 0.95),
        "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
        "map_box": result["map_box"],
        "map_pt": result["map_pt"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_value(spans: list[dict], span: str, stat) -> float:
    from tracing import durations_ms, self_times_ms

    picked = [s for s in spans if s["name"] == span]
    if not picked:
        raise BenchError(f"the traced run recorded no {span} span")
    if stat == "ms":
        return statistics.median(durations_ms(spans, span))
    if stat == "self_ms":
        return statistics.median(self_times_ms(spans, span))
    if stat[0] == "mean":
        return statistics.fmean(s[stat[1]] for s in picked)
    if stat[0] == "mb":
        return statistics.fmean(s[stat[1]] for s in picked) / 1e6
    den = sum(s[stat[2]] for s in picked)
    return sum(s[stat[1]] for s in picked) / den if den else 0.0


def per_layer(results: dict[str, dict], spans: dict[str, list[dict]]) -> dict:
    metrics = {}
    for name, unit, workload, span, stat in LAYERS:
        metrics[name] = {"value": _layer_value(spans[workload], span, stat), "unit": unit}
    encode = results["encode_files"]
    metrics["disk_mb_per_image"] = {"value": encode["disk_bytes_per_image"] / 1e6, "unit": "MB"}
    for workload in WORKLOADS:
        r = results[workload]
        metrics[f"trace.overhead_pct.{workload}"] = {
            "value": (r["untraced_ips"] / r["traced_ips"] - 1.0) * 100.0, "unit": "%"}
    return metrics


def traced_run(seed: int, seconds: int, scratch: Path) -> tuple[dict, dict]:
    """Every workload with untraced and traced rounds alternating; layers come from the spans."""
    from tracing import load_spans

    results, spans = {}, {}
    share = max(2, seconds // 2)
    for workload in WORKLOADS:
        sub = scratch / workload
        sub.mkdir()
        results[workload] = run_workload(workload, seed, share, 1, sub)
        spans[workload] = load_spans(results[workload]["trace_file"])
    return results, per_layer(results, spans)


def _summary(results: list[dict], metrics: dict) -> dict:
    for r in results:
        if r["problem"] is not None:
            print(f"perfbench: {r['workload']}: check failed: {r['problem']}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")


def orchestrate(args) -> int:
    _check_checkout()
    SCRATCH.mkdir(exist_ok=True)
    scratch = SCRATCH / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir()
    try:
        if args.workload and args.trace:
            results, layers = traced_run(args.seed, args.seconds, scratch)
            out = _summary(list(results.values()), layers)
        elif args.workload:
            result = run_workload(args.workload, args.seed, args.seconds, 0, scratch)
            out = _summary([result], end_to_end(result))
        else:
            everything = {}
            results = []
            for workload in WORKLOADS:
                sub = scratch / workload
                sub.mkdir()
                result = run_workload(workload, args.seed, args.seconds, 0, sub)
                results.append(result)
                everything[workload] = end_to_end(result)
                _print_table(f"{workload} (seed {args.seed}, {result['attempted']} operations)", everything[workload])
            sub = scratch / "traced"
            sub.mkdir()
            traced, layers = traced_run(args.seed, args.seconds, sub)
            _print_table("per layer (traced run)", layers)
            everything["per_layer"] = layers
            out = _summary(results + list(traced.values()), everything)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    print(json.dumps(out))
    return 0


def timed_rounds(wl, seconds: int, tracer) -> dict:
    """Whole rounds until the timed work reaches `seconds` (and, traced, one round of each kind).

    Stops after the round in which an output fails its check.
    """
    import contextlib

    from workloads import CheckFailed

    latencies, round_rates, attempted, failed, problem = {}, [], 0, 0, None
    timed = {False: 0.0, True: 0.0}
    images = {False: 0, True: 0}
    rounds = 0

    def more() -> bool:
        if tracer is not None:
            return rounds < 2 or sum(timed.values()) < seconds
        return rounds == 0 or sum(timed.values()) < seconds or attempted < wl.min_samples

    while more():
        traced = tracer is not None and rounds % 2 == 1
        round_timed, round_images = 0.0, 0
        for key in wl.ops():
            wl.prepare(key)
            attempted += 1
            with tracer.active() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    output = wl.call(key)
                    ok = not wl.failed(output)
                except Exception as exc:  # an operation that raises counts as failed
                    print(f"operation {key} raised {exc!r}", file=sys.stderr)
                    ok = False
                end = time.perf_counter()
            if not ok:
                failed += 1
                continue
            timed[traced] += end - start
            images[traced] += wl.images_per_op
            round_timed += end - start
            round_images += wl.images_per_op
            latencies.setdefault(key, []).append((end - start) * 1e3 / wl.images_per_op)
            try:
                wl.after(key, output)
            except CheckFailed as exc:
                problem = str(exc)
        rounds += 1
        if round_images:
            round_rates.append(round_images / round_timed)
        if problem is not None:
            break
    if wl.repeats_images:
        latency_ms = [statistics.median(v) for v in latencies.values()]
    else:
        latency_ms = [ms for v in latencies.values() for ms in v]
    return {"latency_ms": latency_ms, "round_rates": round_rates, "attempted": attempted, "failed": failed,
            "problem": problem,
            "untraced_ips": images[False] / timed[False] if timed[False] else None,
            "traced_ips": images[True] / timed[True] if timed[True] else None}


def child(args) -> int:
    inputs, work, result_path = Path(args.inputs), Path(args.work), Path(args.result)
    if args.role == "gen":
        import inputs as gen

        gen.generate(args.workload, args.seed, inputs)
        result_path.write_text(json.dumps({"ok": True}), "utf-8")
        return 0

    import workloads

    wl, setup_s = workloads.set_up(args.workload, inputs, work)
    if args.role == "setup":
        shutil.rmtree(work, ignore_errors=True)
        result_path.write_text(json.dumps({"setup_s": setup_s}), "utf-8")
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        workloads.install_spans(tracer, wl.p)
    out = {"workload": args.workload, "setup_s": setup_s, **timed_rounds(wl, args.seconds, tracer)}
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["map_box"] = out["map_pt"] = 0.0
    if out["problem"] is None:
        try:
            out["map_box"], out["map_pt"] = wl.finish()
        except workloads.CheckFailed as exc:
            out["problem"] = str(exc)
    out["correct"] = out["problem"] is None
    if isinstance(wl, workloads.EncodeFiles) and wl.disk_bytes:
        out["disk_bytes_per_image"] = statistics.fmean(wl.disk_bytes)
    if tracer is not None:
        out["trace_file"] = str(work.with_suffix(".trace.jsonl"))
        tracer.write(out["trace_file"])
    result_path.write_text(json.dumps(out), "utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, then the traced run)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("gen", "setup", "work"), help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.role:
        sys.path[:0] = _program_paths()
        return child(args)
    try:
        return orchestrate(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
