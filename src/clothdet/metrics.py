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

import numbers
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Mapping, Sequence

import numpy as np

from .categories import CategoryTable
from .postprocess import _box_iou
from .scene import Detection, GroundTruthItem, Scene, box_area

VISIBLE_ONLY = "visible_only"
VISIBLE_AND_OCCLUDED = "visible_and_occluded"
VISIBILITY_MODES = (VISIBLE_ONLY, VISIBLE_AND_OCCLUDED)

_RECALL_GRID = np.arange(101) / 100.0


class EvaluationError(ValueError):
    """Raised for inputs the evaluator cannot score."""


@dataclass(frozen=True)
class EvalConfig:
    """How evaluate scores: the similarity thresholds, the landmark visibility
    mode (None scores both) and the per-image detection cap.

    The OKS sigmas are the category table's, `CategoryTable.sigmas`.
    """

    thresholds: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
    visibility_mode: str | None = None
    max_detections_per_image: int = 100

    def __post_init__(self):
        t = self.thresholds
        if not t or any(not 0 < v <= 1 for v in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"thresholds must be strictly increasing within (0, 1], got {t}")
        if self.visibility_mode is not None and self.visibility_mode not in VISIBILITY_MODES:
            raise ValueError(f"unknown visibility mode {self.visibility_mode!r}")
        if not isinstance(self.max_detections_per_image, numbers.Integral) or self.max_detections_per_image < 1:
            raise ValueError(f"max_detections_per_image must be an integer >= 1, got {self.max_detections_per_image!r}")


def _counted(visibility: np.ndarray, visibility_mode: str) -> np.ndarray:
    """The landmarks that OKS counts: visibility 2, or 1 and 2 outside visible_only mode."""
    return visibility == 2 if visibility_mode == VISIBLE_ONLY else visibility >= 1


def _box_areas(boxes: np.ndarray) -> np.ndarray:
    """scene.box_area of each row of a (P, 4) corner-form box array."""
    w = boxes[:, 2] - boxes[:, 0]
    h = boxes[:, 3] - boxes[:, 1]
    return np.where(w > 0, w, 0.0) * np.where(h > 0, h, 0.0)


def _oks_rows(pred_xy: np.ndarray, gt_xy: np.ndarray, area: np.ndarray, k: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """OKS of P prediction/GT pairs, one pair per row.

    pred_xy and gt_xy are (P, K, 2) landmark positions, area the (P,) GT box
    areas, k the (K,) sigmas and counted the (P, K) counted landmarks, at
    least one per row. Rows with n counted landmarks are averaged as one
    (rows, n) block: a sum along axis 1 divided by n, which numpy sums
    pairwise just as it does the 1-D mean of one pair's n scores.
    """
    d2 = ((pred_xy - gt_xy) ** 2).sum(axis=2)
    denom = 2.0 * area[:, None] * k * k
    safe = np.where(denom > 0, denom, 1.0)
    scores = np.where(denom > 0, np.exp(-d2 / safe), (d2 == 0).astype(np.float64))
    sizes = counted.sum(axis=1)
    out = np.empty(len(sizes))
    for n in np.flatnonzero(np.bincount(sizes)):
        rows = sizes == n
        out[rows] = scores[rows][counted[rows]].reshape(-1, n).sum(axis=1) / n
    return out


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

    counted = _counted(gt[:, 2], visibility_mode)
    if not counted.any():
        return None
    area = np.array([box_area(gt_item.box)])
    return float(_oks_rows(pred[None, :, :2], gt[None, :, :2], area, k, counted[None])[0])


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


def _stack(items, keypoints: int) -> np.ndarray:
    """The (n, keypoints, 3) landmarks of items that each hold `keypoints` landmarks."""
    return np.array([item.landmarks for item in items]).reshape(-1, keypoints, 3)


# Pairs scored per array operation, which bounds the temporaries of one
# similarity batch at a few megabytes however many pairs a category has.
_PAIR_CHUNK = 4096


class _CategoryBatch:
    """One category's (image, category) buckets as arrays, matched all at once.

    Detections are numbered in bucket order, then by rank (their canonical,
    score-descending order within the bucket); GT items in bucket order,
    then item order. The pair lists hold every (detection, GT) pair of a
    bucket, detection-major. The buckets that hold both are matched
    together, over a similarity matrix with one row per detection and one
    column per GT position in its bucket, -inf where the bucket has no such
    GT. Rows are grouped by rank, and within a rank ordered by descending
    bucket detection count, so the buckets still matching at rank r are the
    first `active[r]` buckets of every earlier rank's group.
    """

    def __init__(self, buckets: list[tuple[list[Detection], list[GroundTruthItem]]], keypoints: int):
        self.dets = [d for dets, _ in buckets for d in dets]
        self.gts = [g for _, gts in buckets for g in gts]
        n_det = np.array([len(dets) for dets, _ in buckets], dtype=np.intp)
        n_gt = np.array([len(gts) for _, gts in buckets], dtype=np.intp)
        self.scores = np.array([d.score for d in self.dets], dtype=np.float64)
        self.det_boxes = np.array([d.box for d in self.dets]).reshape(-1, 4)
        self.gt_boxes = np.array([g.box for g in self.gts]).reshape(-1, 4)

        det_bucket = np.repeat(np.arange(len(buckets)), n_det)
        det_rank = np.arange(len(self.dets)) - np.repeat(np.cumsum(n_det) - n_det, n_det)
        gt_start = np.cumsum(n_gt) - n_gt
        self.gt_col = np.arange(len(self.gts)) - np.repeat(gt_start, n_gt)
        per_det = n_gt[det_bucket]
        self.pair_det = np.repeat(np.arange(len(self.dets)), per_det)
        self.pair_gt = np.arange(per_det.sum()) + np.repeat(gt_start[det_bucket] - (np.cumsum(per_det) - per_det), per_det)

        matched = np.flatnonzero((n_det > 0) & (n_gt > 0))
        matched = matched[np.argsort(-n_det[matched], kind="stable")]
        slot = np.full(len(buckets), -1)
        slot[matched] = np.arange(len(matched))
        # active[r]: matched buckets with more than r detections.
        self.active = np.cumsum(np.bincount(n_det[matched])[::-1])[::-1][1:]
        self.offset = np.cumsum(self.active) - self.active
        self.width = int(n_gt[matched].max(initial=0))
        self.row = np.full(len(self.dets), -1)
        in_matched = slot[det_bucket] >= 0
        self.row[in_matched] = self.offset[det_rank[in_matched]] + slot[det_bucket[in_matched]]

        self.keypoints = keypoints
        self.det_counts = np.array([d.landmarks.shape[0] for d in self.dets], dtype=np.intp)
        self.gt_counts = np.array([g.landmarks.shape[0] for g in self.gts], dtype=np.intp)

    def matrix(self, similarity: Callable[[np.ndarray, np.ndarray], np.ndarray], pairs: np.ndarray) -> np.ndarray:
        """The similarity matrix: `similarity(dets, gts)` at the listed pairs, -inf elsewhere."""
        sim = np.full((int(self.active.sum()), self.width), -np.inf)
        for lo in range(0, len(pairs), _PAIR_CHUNK):
            chunk = pairs[lo : lo + _PAIR_CHUNK]
            dets, gts = self.pair_det[chunk], self.pair_gt[chunk]
            sim[self.row[dets], self.gt_col[gts]] = similarity(dets, gts)
        return sim

    def match(self, sim: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Greedy TP flags, shape (thresholds, detections), at every threshold in one pass over rank.

        At each threshold, each detection takes the unmatched GT of its bucket
        with the highest similarity at or above the threshold, the lowest GT
        index on ties.
        """
        hits = np.zeros((len(thresholds), len(sim)), dtype=bool)
        taken = np.zeros((len(thresholds), self.active[0] if len(self.active) else 0, self.width), dtype=bool)
        for lo, n in zip(self.offset, self.active):
            masked = np.where(taken[:, :n], -np.inf, sim[lo : lo + n])
            g = masked.argmax(axis=2)
            hit = np.take_along_axis(masked, g[:, :, None], axis=2)[:, :, 0] >= thresholds[:, None]
            t, b = np.nonzero(hit)
            taken[t, b, g[t, b]] = True
            hits[:, lo : lo + n] = hit
        flags = np.zeros((len(thresholds), len(self.dets)), dtype=bool)
        matched = self.row >= 0
        flags[:, matched] = hits[:, self.row[matched]]
        return flags

    def box_sim(self) -> np.ndarray:
        return self.matrix(lambda d, g: _box_iou(self.det_boxes[d], self.gt_boxes[g]), np.arange(len(self.pair_det)))

    def oks_sim(self, k: np.ndarray, visibility_mode: str) -> tuple[np.ndarray, int]:
        """The OKS matrix in one visibility mode and the number of GT items it scores.

        GT items without a landmark at the mode's minimum visibility are left
        out (their column stays -inf). So are pairs whose landmark counts
        differ and GT items with no counted landmark.

        Raises:
            EvaluationError: a detection and a GT item scored in this mode
                share a landmark count that differs from the category's.
        """
        min_vis = 2 if visibility_mode == VISIBLE_ONLY else 1
        # The landmarks of the items whose count is the category's, stacked
        # here and dropped on return, so one category's copy is alive at a time.
        fits = self.gt_counts == self.keypoints
        gt_lm = _stack(compress(self.gts, fits), self.keypoints)
        scored = np.zeros(len(self.gts), dtype=bool)
        scored[fits] = (gt_lm[:, :, 2] >= min_vis).any(axis=1)
        for i in np.flatnonzero(~fits):
            scored[i] = np.any(self.gts[i].landmarks[:, 2] >= min_vis)
        det_n, gt_n = self.det_counts[self.pair_det], self.gt_counts[self.pair_gt]
        bad = (det_n == gt_n) & ~fits[self.pair_gt] & scored[self.pair_gt]
        if bad.any():
            count = gt_n[np.argmax(bad)]
            raise EvaluationError(f"need {count} sigmas aligned to the landmarks, got shape {k.shape}")

        counted = _counted(gt_lm[:, :, 2], visibility_mode)
        defined = np.zeros(len(self.gts), dtype=bool)
        defined[fits] = counted.any(axis=1)
        pairs = np.flatnonzero((det_n == self.keypoints) & defined[self.pair_gt] & scored[self.pair_gt])
        det_fits = self.det_counts == self.keypoints
        det_xy = _stack(compress(self.dets, det_fits), self.keypoints)[:, :, :2]
        det_row, gt_row = np.cumsum(det_fits) - 1, np.cumsum(fits) - 1
        area = _box_areas(self.gt_boxes)

        def similarity(d: np.ndarray, g: np.ndarray) -> np.ndarray:
            q = gt_row[g]
            return _oks_rows(det_xy[det_row[d]], gt_lm[q, :, :2], area[g], k, counted[q])

        return self.matrix(similarity, pairs), int(scored.sum())


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
    Each (category, metric) pair is scored in array operations over all of
    the category's (image, category) buckets.

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
    batches = {spec.id: _CategoryBatch(buckets[spec.id], spec.keypoint_count) for spec in table.specs}

    def run_metric(
        similarity: Callable[[int, _CategoryBatch], tuple[np.ndarray, int]],
        metric_name: str,
        curves_out: list[PRCurve],
    ) -> tuple[dict[int, dict[float, float | None]], dict[int, bool]]:
        aps: dict[int, dict[float, float | None]] = {}
        has_gt: dict[int, bool] = {}
        for cat in categories:
            batch = batches[cat]
            sim, n_gt = similarity(cat, batch)
            has_gt[cat] = n_gt > 0
            if n_gt == 0:
                aps[cat] = {t: (0.0 if batch.dets else None) for t in config.thresholds}
                continue
            aps[cat] = {}
            order = np.argsort(-batch.scores, kind="stable")
            ordered = batch.match(sim, thresholds)[:, order]
            for t, t_flags in zip(config.thresholds, ordered):
                ap, sampled = _pr_envelope(t_flags, n_gt)
                aps[cat][t] = ap
                curves_out.append(
                    PRCurve(metric=metric_name, category_id=cat, threshold=t,
                            recall=_RECALL_GRID.copy(), precision=sampled)
                )
        return aps, has_gt

    curves: list[PRCurve] = []
    box_aps, box_has_gt = run_metric(lambda cat, batch: (batch.box_sim(), len(batch.gts)), "box", curves)

    pt_blocks: dict[str, MetricBlock] = {}
    modes = VISIBILITY_MODES if config.visibility_mode is None else (config.visibility_mode,)
    for mode in modes:

        def pt_sim(cat: int, batch: _CategoryBatch, _mode=mode) -> tuple[np.ndarray, int]:
            return batch.oks_sim(table.sigmas[table.global_slice(cat)], _mode)

        pt_aps, pt_has_gt = run_metric(pt_sim, f"pt_{mode}", curves)
        pt_blocks[mode] = _block_from_aps(pt_aps, pt_has_gt, config.thresholds)

    return MetricReport(
        box=_block_from_aps(box_aps, box_has_gt, config.thresholds),
        pt=pt_blocks,
        images=len(scenes),
        gt_items=n_gt_items,
        detections=n_detections,
        curves=tuple(curves),
    )


def report_to_dict(report: MetricReport) -> dict:
    """Plain-dict view of a report, for JSON emission.

    A report of one visibility mode (evaluate run with a visibility_mode)
    holds its landmark metrics unlabeled, so reports for datasets where the
    modes agree are byte-identical; a report of both labels them by mode.
    """
    def block_dict(block: MetricBlock) -> dict:
        return {
            "map": block.map,
            "map_50": block.map_50,
            "map_75": block.map_75,
            "per_category": {str(c): block.per_category[c] for c in sorted(block.per_category)},
        }

    pt = {m: block_dict(b) for m, b in report.pt.items()}
    if len(pt) == 1:
        (pt,) = pt.values()
    return {
        "box": block_dict(report.box),
        "pt": pt,
        "counts": {"images": report.images, "gt_items": report.gt_items, "detections": report.detections},
    }


def report_to_csv_rows(report: MetricReport) -> list[list[str]]:
    """CSV rows: metric name rows for boxes, then landmark rows, labeled by mode when the report holds both."""
    def fmt(v: float | None) -> str:
        return "" if v is None else f"{v:.6f}"

    def block_rows(name: str, block: MetricBlock, *visibility: str) -> list[list[str]]:
        return [
            [name, *visibility, fmt(block.map)],
            [f"{name}@0.50", *visibility, fmt(block.map_50)],
            [f"{name}@0.75", *visibility, fmt(block.map_75)],
        ]

    if len(report.pt) == 1:
        (block,) = report.pt.values()
        return [["metric", "value"], *block_rows("mAP_box", report.box), *block_rows("mAP_pt", block)]
    rows = [["metric", "visibility", "value"], *block_rows("mAP_box", report.box, "")]
    for m, block in report.pt.items():
        rows += block_rows("mAP_pt", block, m)
    return rows
