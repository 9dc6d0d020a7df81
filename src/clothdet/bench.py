"""The post-processing strategy ladder.

`compare_strategies` scores four cumulative pipelines over the same noisy
detector output: raw decode, NMS, NMS over flip-fused tensors, and NMS over
flip-fused tensors at every scale. Each rung reports box and landmark mAP
and its latency per image, so that accuracy can be read against cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .categories import CategoryTable, default_table
from .decode import DecodeConfig, decode_scene
from .heads import HeadTensorSet
from .metrics import evaluate
from .postprocess import infer
from .scene import Detection, Scene
from .synth import NoiseParams, noisy_view_tensors


STRATEGY_NAMES = ("none", "nms", "nms+flip", "nms+flip+multiscale")
# The scales of the multiscale rung; the other rungs read the 1.0 views alone.
SCALES = (1.0, 0.75)
NMS_IOU = 0.5
DECODE_CONFIG = DecodeConfig(min_center_score=0.1)


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
) -> StrategyReport:
    """Score the cumulative post-processing ladder on noisy views.

    Four pipelines over the same corrupted detector output: raw decode, NMS,
    NMS over flip-fused tensors, and NMS over flip-fused tensors at every
    scale of SCALES with detection-space merging. Views are encoded with the
    default EncodeParams, decoded with DECODE_CONFIG, suppressed at NMS_IOU
    and scored with the default EvalConfig. Latency covers everything after
    the simulated network pass; view encoding is excluded.
    """
    table = table or default_table()
    views: dict[tuple[float, bool], dict[str, HeadTensorSet]] = {}
    for scale in SCALES:
        for flipped in (False, True):
            views[(scale, flipped)] = {s.image_id: noisy_view_tensors(s, table, noise, scale, flipped) for s in scenes}
    for scene in scenes:
        decode_scene(views[(1.0, False)][scene.image_id], table, DECODE_CONFIG)

    def run(strategy: str) -> StrategyResult:
        scales = SCALES if strategy == "nms+flip+multiscale" else (1.0,)
        flip = strategy.startswith("nms+flip")
        nms_iou = None if strategy == "none" else NMS_IOU
        per_image: dict[str, list[Detection]] = {}
        elapsed = 0.0
        for scene in scenes:
            image_id = scene.image_id
            image_views = [
                (scale, views[(scale, False)][image_id], views[(scale, True)][image_id] if flip else None)
                for scale in scales
            ]
            start = time.perf_counter()
            dets = infer(image_views, table, DECODE_CONFIG, nms_iou)
            elapsed += time.perf_counter() - start
            per_image[image_id] = dets

        report = evaluate(per_image, scenes, table)
        map_box, map_pt = _map_of(report)
        return StrategyResult(strategy, map_box, map_pt, elapsed * 1e3 / max(len(scenes), 1))

    return StrategyReport(results=tuple(run(s) for s in STRATEGY_NAMES), images=len(scenes))
