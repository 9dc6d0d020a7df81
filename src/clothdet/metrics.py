"""COCO-protocol evaluation: mAP over IoU for boxes and OKS for landmarks.

Protocol choices (fixed so results are comparable): greedy matching of
score-descending detections to the unmatched ground truth with highest
similarity at or above the threshold; at most max_detections_per_image
detections per image and category; 101-point interpolated average precision;
category mean over categories with at least one ground truth, then mean over
thresholds. Landmark metrics are computed for two visibility modes: counting
only visible landmarks, or visible and occluded ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .categories import CategoryTable
from .postprocess import iou
from .scene import Detection, GroundTruthItem, Scene, box_area

VISIBLE_ONLY = "visible_only"
VISIBLE_AND_OCCLUDED = "visible_and_occluded"
VISIBILITY_MODES = (VISIBLE_ONLY, VISIBLE_AND_OCCLUDED)

_RECALL_GRID = np.arange(101) / 100.0


class EvaluationError(ValueError):
    """Raised for inputs the evaluator cannot score."""


@dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
    visibility_mode: str | None = None
    max_detections_per_image: int = 100
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        t = self.thresholds
        if not t or any(not 0 < v <= 1 for v in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"thresholds must be strictly increasing within (0, 1], got {t}")
        if self.visibility_mode is not None and self.visibility_mode not in VISIBILITY_MODES:
            raise ValueError(f"unknown visibility mode {self.visibility_mode!r}")
        if self.max_detections_per_image < 1:
            raise ValueError("max_detections_per_image must be >= 1")


def oks(pred_landmarks, gt_item: GroundTruthItem, sigmas, visibility_mode: str) -> float | None:
    """Object keypoint similarity between predicted landmarks and one GT item.

    Mean over counted landmarks of exp(-d_i^2 / (2 s^2 k_i^2)) with d_i the
    pixel distance, s^2 the GT box area, and k_i the per-keypoint sigma
    (sigmas must be aligned to the item's landmarks, one entry per keypoint).
    Counted landmarks are those with visibility 2 in visible_only mode, or
    visibility 1 or 2 otherwise. None when no landmark is counted.
    """
    if visibility_mode not in VISIBILITY_MODES:
        raise EvaluationError(f"unknown visibility mode {visibility_mode!r}")
    pred = np.asarray(pred_landmarks, dtype=np.float64)
    gt = gt_item.landmarks
    if pred.shape[0] != gt.shape[0]:
        raise EvaluationError(f"landmark count mismatch: {pred.shape[0]} predicted vs {gt.shape[0]} GT")
    k = np.asarray(sigmas, dtype=np.float64)
    if k.shape != (gt.shape[0],):
        raise EvaluationError(f"need {gt.shape[0]} sigmas aligned to the landmarks, got shape {k.shape}")

    vis = gt[:, 2]
    counted = vis == 2 if visibility_mode == VISIBLE_ONLY else vis >= 1
    if not counted.any():
        return None

    d2 = ((pred[:, :2] - gt[:, :2]) ** 2).sum(axis=1)
    denom = 2.0 * box_area(gt_item.box) * k * k
    safe = np.where(denom > 0, denom, 1.0)
    scores = np.where(denom > 0, np.exp(-d2 / safe), (d2 == 0).astype(np.float64))
    return float(scores[counted].mean())


def _greedy_from_matrix(sim: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy TP flags, shape (thresholds, detections), for detections (rows,
    already score-descending) at every threshold in one pass.

    At each threshold, each detection takes the unmatched GT (column) of
    highest similarity at or above the threshold, the lowest GT index on ties.
    """
    n_det, n_gt = sim.shape
    flags = np.zeros((len(thresholds), n_det), dtype=bool)
    if n_gt == 0:
        return flags
    taken = np.zeros((len(thresholds), n_gt), dtype=bool)
    rows = np.arange(len(thresholds))
    for d in range(n_det):
        masked = np.where(taken, -np.inf, sim[d])
        g = np.argmax(masked, axis=1)
        hit = masked[rows, g] >= thresholds
        taken[rows[hit], g[hit]] = True
        flags[:, d] = hit
    return flags


def _pr_envelope(tp_flags: np.ndarray, n_gt: int) -> tuple[float, np.ndarray]:
    """AP and the 101-point interpolated precision envelope."""
    if len(tp_flags) == 0:
        return 0.0, np.zeros_like(_RECALL_GRID)
    tps = np.cumsum(tp_flags)
    fps = np.cumsum(~tp_flags)
    recall = tps / n_gt
    precision = tps / (tps + fps)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_GRID, side="left")
    sampled = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(sampled.mean()), sampled


@dataclass(frozen=True)
class PRCurve:
    metric: str
    category_id: int
    threshold: float
    recall: np.ndarray
    precision: np.ndarray


@dataclass(frozen=True)
class MetricBlock:
    """AP aggregates for one similarity kind (and visibility mode for OKS)."""

    map: float | None
    map_50: float | None
    map_75: float | None
    per_category: dict[int, float | None]


@dataclass(frozen=True)
class MetricReport:
    box: MetricBlock
    pt: dict[str, MetricBlock]
    images: int
    gt_items: int
    detections: int
    curves: tuple[PRCurve, ...] = field(default=(), repr=False)


def _canonical_det_key(det: Detection):
    return (-det.score, det.category_id, *det.box.tolist(), det.landmarks.tobytes())


def _block_from_aps(
    aps: dict[int, dict[float, float | None]],
    has_gt: dict[int, bool],
    thresholds: tuple[float, ...],
) -> MetricBlock:
    """Aggregate per-(category, threshold) APs into means.

    Only categories with ground truth enter the means; the per-category
    breakdown still reports 0.0 for GT-less categories that drew detections
    (and None when there was nothing at all).
    """
    def mean_at(thr: float) -> float | None:
        vals = [aps[c][thr] for c in aps if has_gt[c]]
        return float(np.mean(vals)) if vals else None

    per_thr = [mean_at(t) for t in thresholds]
    defined = [v for v in per_thr if v is not None]
    per_category = {
        c: (float(np.mean([v for v in aps[c].values() if v is not None])) if any(v is not None for v in aps[c].values()) else None)
        for c in aps
    }
    return MetricBlock(
        map=float(np.mean(defined)) if defined else None,
        map_50=mean_at(0.5) if 0.5 in thresholds else None,
        map_75=mean_at(0.75) if 0.75 in thresholds else None,
        per_category=per_category,
    )


def evaluate(
    detections_by_image: Mapping[str, Sequence[Detection]],
    scenes: Sequence[Scene],
    table: CategoryTable,
    config: EvalConfig = EvalConfig(),
) -> MetricReport:
    """Score detections against ground-truth scenes.

    Box AP uses IoU similarity; landmark AP uses OKS, computed separately for
    both visibility modes. Results are invariant to image order and to
    detection input order (detections are canonically re-sorted per image).

    Raises:
        EvaluationError: when detections reference an unknown image id.
    """
    scenes = sorted(scenes, key=lambda s: s.image_id)
    known = {s.image_id for s in scenes}
    if len(known) != len(scenes):
        raise EvaluationError("duplicate image ids in scenes")
    for image_id in detections_by_image:
        if image_id not in known:
            raise EvaluationError(f"detections reference unknown image id {image_id!r}")

    sigmas = table.sigmas if config.sigmas is None else np.asarray(config.sigmas, dtype=np.float64)
    categories = [spec.id for spec in table.specs]
    max_det = config.max_detections_per_image

    thresholds = np.asarray(config.thresholds, dtype=np.float64)

    # Per category, in image order: the image's canonically ordered detections
    # (capped) and GT items, for only the images where the category occurs.
    buckets: dict[int, list[tuple[list[Detection], list[GroundTruthItem]]]] = {c: [] for c in categories}
    n_detections = 0
    n_gt_items = 0
    for scene in scenes:
        dets = sorted(detections_by_image.get(scene.image_id, []), key=_canonical_det_key)
        n_detections += len(dets)
        n_gt_items += len(scene.items)
        per_cat: dict[int, tuple[list[Detection], list[GroundTruthItem]]] = {}
        for det in dets:
            per_cat.setdefault(det.category_id, ([], []))[0].append(det)
        for item in scene.items:
            per_cat.setdefault(item.category_id, ([], []))[1].append(item)
        for cat, (cat_dets, cat_gts) in per_cat.items():
            if cat in buckets:
                buckets[cat].append((cat_dets[:max_det], cat_gts))

    def run_metric(
        gt_filter: Callable[[GroundTruthItem], bool],
        sim_fn: Callable[[Detection, GroundTruthItem], float],
        metric_name: str,
        curves_out: list[PRCurve],
    ) -> tuple[dict[int, dict[float, float | None]], dict[int, bool]]:
        aps: dict[int, dict[float, float | None]] = {}
        has_gt: dict[int, bool] = {}
        for cat in categories:
            n_gt = 0
            flags = []
            scores = []
            for cat_dets, cat_gts in buckets[cat]:
                gts = [g for g in cat_gts if gt_filter(g)]
                n_gt += len(gts)
                matrix = np.array(
                    [[sim_fn(d, g) for g in gts] for d in cat_dets], dtype=np.float64
                ).reshape(len(cat_dets), len(gts))
                flags.append(_greedy_from_matrix(matrix, thresholds))
                scores.extend(d.score for d in cat_dets)
            has_gt[cat] = n_gt > 0
            if n_gt == 0:
                aps[cat] = {t: (0.0 if scores else None) for t in config.thresholds}
                continue
            aps[cat] = {}
            order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
            ordered = np.concatenate(flags, axis=1)[:, order]
            for t, t_flags in zip(config.thresholds, ordered):
                ap, sampled = _pr_envelope(t_flags, n_gt)
                aps[cat][t] = ap
                curves_out.append(
                    PRCurve(metric=metric_name, category_id=cat, threshold=t,
                            recall=_RECALL_GRID.copy(), precision=sampled)
                )
        return aps, has_gt

    curves: list[PRCurve] = []

    def box_sim(det: Detection, gt: GroundTruthItem) -> float:
        return iou(det.box, gt.box)

    box_aps, box_has_gt = run_metric(lambda g: True, box_sim, "box", curves)

    pt_blocks: dict[str, MetricBlock] = {}
    modes = VISIBILITY_MODES if config.visibility_mode is None else (config.visibility_mode,)
    for mode in modes:
        min_vis = 2 if mode == VISIBLE_ONLY else 1

        def pt_sim(det: Detection, gt: GroundTruthItem, _mode=mode) -> float:
            if det.landmarks.shape[0] != gt.landmarks.shape[0]:
                return -np.inf
            spec = table.spec(gt.category_id)
            k = sigmas[spec.global_offset : spec.global_offset + spec.keypoint_count]
            value = oks(det.landmarks, gt, k, _mode)
            return -np.inf if value is None else value

        pt_aps, pt_has_gt = run_metric(
            lambda g, _mv=min_vis: bool(np.any(g.landmarks[:, 2] >= _mv)),
            pt_sim,
            f"pt_{mode}",
            curves,
        )
        pt_blocks[mode] = _block_from_aps(pt_aps, pt_has_gt, config.thresholds)

    return MetricReport(
        box=_block_from_aps(box_aps, box_has_gt, config.thresholds),
        pt=pt_blocks,
        images=len(scenes),
        gt_items=n_gt_items,
        detections=n_detections,
        curves=tuple(curves),
    )


def report_to_dict(report: MetricReport, mode: str | None = None) -> dict:
    """Plain-dict view of a report, for JSON emission.

    With an explicit mode the landmark metrics collapse to unlabeled values,
    so reports for datasets where the modes agree are byte-identical.
    """
    def block_dict(block: MetricBlock) -> dict:
        return {
            "map": block.map,
            "map_50": block.map_50,
            "map_75": block.map_75,
            "per_category": {str(c): block.per_category[c] for c in sorted(block.per_category)},
        }

    if mode is not None and mode not in report.pt:
        raise EvaluationError(f"report does not contain visibility mode {mode!r}")
    pt = block_dict(report.pt[mode]) if mode is not None else {m: block_dict(b) for m, b in report.pt.items()}
    return {
        "box": block_dict(report.box),
        "pt": pt,
        "counts": {"images": report.images, "gt_items": report.gt_items, "detections": report.detections},
    }


def report_to_csv_rows(report: MetricReport, mode: str | None = None) -> list[list[str]]:
    """CSV rows: metric name rows for boxes, then landmark rows per mode."""
    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.6f}"

    def block_rows(name: str, block: MetricBlock, *visibility: str) -> list[list[str]]:
        return [
            [name, *visibility, fmt(block.map)],
            [f"{name}@0.50", *visibility, fmt(block.map_50)],
            [f"{name}@0.75", *visibility, fmt(block.map_75)],
        ]

    if mode is not None:
        return [["metric", "value"], *block_rows("mAP_box", report.box), *block_rows("mAP_pt", report.pt[mode])]
    rows = [["metric", "visibility", "value"], *block_rows("mAP_box", report.box, "")]
    for m in VISIBILITY_MODES:
        if m in report.pt:
            rows += block_rows("mAP_pt", report.pt[m], m)
    return rows
