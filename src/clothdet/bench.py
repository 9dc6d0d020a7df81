"""Latency benchmarking and the post-processing strategy comparison.

Decode is timed apart from the post-processing stages so that the cost of
NMS, flip fusion, and multiscale fusion can each be read off on their own.
All stage outputs must be identical across iterations; timing is the only
thing allowed to vary.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .categories import CategoryTable, default_table
from .decode import DecodeConfig, decode_scene
from .encode import EncodeParams
from .heads import HeadTensorSet
from .metrics import EvalConfig, evaluate
from .postprocess import FusionConfig, fuse_multiscale, infer, nms, rescale_detections
from .scene import Detection, Scene
from .synth import NoiseParams, noisy_view_tensors


@dataclass(frozen=True)
class StageStats:
    mean_ms: float
    p50_ms: float
    p95_ms: float

    @staticmethod
    def from_samples(samples_ms: list[float]) -> "StageStats":
        arr = np.asarray(samples_ms, dtype=np.float64)
        return StageStats(
            mean_ms=float(arr.mean()),
            p50_ms=float(np.percentile(arr, 50)),
            p95_ms=float(np.percentile(arr, 95)),
        )


@dataclass(frozen=True)
class BenchReport:
    stages: dict[str, StageStats]
    images: int
    threads: int
    iterations: int

    def rows(self) -> list[list[str]]:
        out = [["stage", "mean_ms", "p50_ms", "p95_ms"]]
        for name, stats in self.stages.items():
            out.append([name, f"{stats.mean_ms:.3f}", f"{stats.p50_ms:.3f}", f"{stats.p95_ms:.3f}"])
        return out


def _same_detections(a: list[Detection], b: list[Detection]) -> bool:
    if len(a) != len(b):
        return False
    for d, e in zip(a, b):
        if d.category_id != e.category_id or d.score != e.score:
            return False
        if not (np.array_equal(d.box, e.box) and np.array_equal(d.landmarks, e.landmarks)):
            return False
    return True


def bench_decode(
    tensor_sets: list[HeadTensorSet] | HeadTensorSet,
    table: CategoryTable | None = None,
    config: DecodeConfig = DecodeConfig(),
    iterations: int = 10,
    warmup: int = 2,
    threads: int = 1,
    fusion: FusionConfig = FusionConfig(),
) -> BenchReport:
    """Time decode, NMS, flip fusion, and multiscale fusion per image.

    Warm-up iterations run the full pipeline and are discarded. Decoded
    outputs are checked to be identical across timed iterations; a mismatch
    raises RuntimeError since the stages are pure functions of their inputs.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    table = table or default_table()
    sets = [tensor_sets] if isinstance(tensor_sets, HeadTensorSet) else list(tensor_sets)
    if not sets:
        raise ValueError("need at least one tensor set")

    do_flip = fusion.flip_enabled
    do_multiscale = len(fusion.scales) > 1
    samples: dict[str, list[float]] = {"decode": [], "nms": []}
    if do_flip:
        samples["flip_fusion"] = []
    if do_multiscale:
        samples["multiscale_fusion"] = []
    reference: dict[str, list[list[Detection]]] = {}

    def decode_all() -> list[list[Detection]]:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(lambda t: decode_scene(t, table, config), sets))
        return [decode_scene(t, table, config) for t in sets]

    for iteration in range(warmup + iterations):
        timed = iteration >= warmup
        outputs: dict[str, list[list[Detection]]] = {}

        start = time.perf_counter()
        decoded = decode_all()
        split = time.perf_counter()
        outputs["decode"] = decoded
        if timed:
            samples["decode"].append((split - start) * 1e3 / len(sets))

        start = time.perf_counter()
        outputs["nms"] = [nms(dets, fusion.nms_iou_threshold) for dets in decoded]
        split = time.perf_counter()
        if timed:
            samples["nms"].append((split - start) * 1e3 / len(sets))

        if do_flip:
            start = time.perf_counter()
            flipped = [infer([(1.0, t, t)], table, config, None) for t in sets]
            split = time.perf_counter()
            outputs["flip_fusion"] = flipped
            if timed:
                samples["flip_fusion"].append((split - start) * 1e3 / len(sets))

        if do_multiscale:
            secondary = fusion.scales[1]
            start = time.perf_counter()
            merged = [
                fuse_multiscale([dets, rescale_detections(dets, 1.0 / secondary)], fusion.nms_iou_threshold)
                for dets in decoded
            ]
            split = time.perf_counter()
            outputs["multiscale_fusion"] = merged
            if timed:
                samples["multiscale_fusion"].append((split - start) * 1e3 / len(sets))

        if not reference:
            reference = outputs
        else:
            for stage, per_image in outputs.items():
                for ours, ref in zip(per_image, reference[stage]):
                    if not _same_detections(ours, ref):
                        raise RuntimeError(f"stage {stage} produced different output across iterations")

    return BenchReport(
        stages={name: StageStats.from_samples(vals) for name, vals in samples.items()},
        images=len(sets),
        threads=threads,
        iterations=iterations,
    )


STRATEGY_NAMES = ("none", "nms", "nms+flip", "nms+flip+multiscale")


@dataclass(frozen=True)
class StrategyResult:
    name: str
    map_box: float
    map_pt: float
    latency_ms: float


@dataclass(frozen=True)
class StrategyReport:
    results: tuple[StrategyResult, ...]
    images: int
    noise: NoiseParams = field(repr=False, default=NoiseParams())

    def rows(self) -> list[list[str]]:
        header = ["metric"] + [r.name for r in self.results]
        box = ["mAP_box"] + [f"{r.map_box:.3f}" for r in self.results]
        pt = ["mAP_pt"] + [f"{r.map_pt:.3f}" for r in self.results]
        ms = ["latency_ms"] + [f"{r.latency_ms:.2f}" for r in self.results]
        return [header, box, pt, ms]


def _map_of(report) -> tuple[float, float]:
    box = report.box.map if report.box.map is not None else 0.0
    pt_vals = [b.map for b in report.pt.values() if b.map is not None]
    return float(box), float(np.mean(pt_vals)) if pt_vals else 0.0


def compare_strategies(
    scenes: list[Scene],
    table: CategoryTable | None = None,
    noise: NoiseParams = NoiseParams(),
    encode_params: EncodeParams = EncodeParams(),
    decode_config: DecodeConfig = DecodeConfig(min_center_score=0.1),
    fusion: FusionConfig = FusionConfig(),
    eval_config: EvalConfig = EvalConfig(),
) -> StrategyReport:
    """Score the cumulative post-processing ladder on noisy views.

    Four pipelines over the same corrupted detector output: raw decode, NMS,
    NMS over flip-fused tensors, and NMS over flip-fused tensors at every
    scale with detection-space merging. The flip rungs always fuse mirrored
    views, whatever fusion.flip_enabled says. Latency covers everything after
    the simulated network pass; view encoding is excluded.
    """
    table = table or default_table()
    views: dict[tuple[float, bool], dict[str, HeadTensorSet]] = {}
    for scale in fusion.scales:
        for flipped in (False, True):
            views[(scale, flipped)] = {
                s.image_id: noisy_view_tensors(s, table, noise, scale, flipped, encode_params) for s in scenes
            }
    for scene in scenes:
        decode_scene(views[(1.0, False)][scene.image_id], table, decode_config)

    def run(strategy: str) -> StrategyResult:
        scales = fusion.scales if strategy == "nms+flip+multiscale" else (1.0,)
        flip = strategy.startswith("nms+flip")
        nms_iou = None if strategy == "none" else fusion.nms_iou_threshold
        per_image: dict[str, list[Detection]] = {}
        elapsed = 0.0
        for scene in scenes:
            image_id = scene.image_id
            image_views = [
                (scale, views[(scale, False)][image_id], views[(scale, True)][image_id] if flip else None)
                for scale in scales
            ]
            start = time.perf_counter()
            dets = infer(image_views, table, decode_config, nms_iou)
            elapsed += time.perf_counter() - start
            per_image[image_id] = dets

        report = evaluate(per_image, scenes, table, eval_config)
        map_box, map_pt = _map_of(report)
        return StrategyResult(strategy, map_box, map_pt, elapsed * 1e3 / max(len(scenes), 1))

    return StrategyReport(results=tuple(run(s) for s in STRATEGY_NAMES), images=len(scenes), noise=noise)
