"""Per-object reference copies of the evaluator, NMS and the JSON readers.

`iou` scores one box pair in Python floats, and `nms` calls it once per
(detection, kept rival) pair; `evaluate`, `oks` and `_greedy_from_matrix`
score one (detection, GT) pair per Python call and match one
(image, category) bucket per call; `read_scenes` and `read_detections`
check and convert one object at a time. clothdet's own versions batch this
work into arrays. The tests hold them to these copies: the same IoUs and
kept detections, the same reports and PR curves bit for bit, and the same
results or the same FormatError messages from the readers.

Only the parts that batching rewrote are copied here. The AP envelope, the
report aggregation, the scene clamp and validation and the domain types are
imported from clothdet.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from clothdet.categories import CategoryTable
from clothdet.fileio import FormatError
from clothdet.metrics import (
    VISIBILITY_MODES,
    VISIBLE_ONLY,
    EvalConfig,
    EvaluationError,
    MetricBlock,
    MetricReport,
    PRCurve,
    _block_from_aps,
    _canonical_det_key,
    _pr_envelope,
    _RECALL_GRID,
)
from clothdet.scene import Detection, GroundTruthItem, Scene, SceneError, box_area, clamp_scene, validate_scene

logger = logging.getLogger(__name__)


def iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        inter = 0.0
    else:
        inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0:
        return 0.0
    return inter / union


def nms(detections: list[Detection], threshold: float) -> list[Detection]:
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    kept_boxes: dict[int, list[np.ndarray]] = {}
    keep = [False] * len(detections)
    for i in order:
        det = detections[i]
        rivals = kept_boxes.setdefault(det.category_id, [])
        if all(iou(det.box, other) < threshold for other in rivals):
            keep[i] = True
            rivals.append(det.box)
    return [det for i, det in enumerate(detections) if keep[i]]


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

    sigmas = table.sigmas
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


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}.{key} is missing")
    return doc[key]


_NUMBER_TYPES = {int, float}


def _number_list(values, where: str, multiple_of: int) -> np.ndarray:
    if not isinstance(values, list) or len(values) % multiple_of != 0:
        raise FormatError(f"{where} must be a flat list with length a multiple of {multiple_of}")
    # json.loads yields exact int and float objects for numbers; bool, str,
    # None, list and dict are the other types a value can have.
    if not set(map(type, values)) <= _NUMBER_TYPES:
        i = next(i for i, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
        raise FormatError(f"{where}[{i}] is not a number")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if isinstance(v, int) and abs(v) > sys.float_info.max)
        raise FormatError(f"{where}[{i}] is out of range") from None
    # json accepts NaN and Infinity tokens; the package's writers never emit them.
    finite = np.isfinite(array)
    if not finite.all():
        raise FormatError(f"{where}[{int(np.argmin(finite))}] is not a finite number")
    return array


def _image_id(raw: dict, where: str) -> str:
    image_id = _require(raw, "image_id", where)
    if type(image_id) not in (str, int):
        raise FormatError(f"{where}.image_id must be a string or an integer")
    return str(image_id)


def _category(raw: dict, where: str) -> int:
    category = _require(raw, "category_id", where)
    if not isinstance(category, int) or isinstance(category, bool):
        raise FormatError(f"{where}.category_id must be an integer")
    return category


def _parse_item(raw: dict, where: str) -> GroundTruthItem:
    if not isinstance(raw, dict):
        raise FormatError(f"{where} is not an object")
    category = _category(raw, where)
    bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
    if len(bbox) != 4:
        raise FormatError(f"{where}.bbox must hold exactly four values")
    landmarks = _number_list(_require(raw, "landmarks", where), f"{where}.landmarks", 3).reshape(-1, 3)
    return GroundTruthItem(category_id=category, box=bbox, landmarks=landmarks)


def read_scenes(path, table: CategoryTable) -> list[Scene]:
    """Read and validate annotation JSON; clamps coordinates to image bounds.

    Raises:
        FormatError: malformed JSON or schema, naming the first bad field,
            and items that do not match the category table.
    """
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    # ValueError, not only JSONDecodeError: bytes that are not UTF-8 and
    # integers of more than 4300 digits raise other ValueErrors.
    except ValueError as exc:
        raise FormatError(f"annotation file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), list):
        raise FormatError("annotation document must be an object with an 'images' list")

    scenes = []
    clamped_total = 0
    for i, raw in enumerate(doc["images"]):
        where = f"images[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = _image_id(raw, where)
        width = _require(raw, "width", where)
        height = _require(raw, "height", where)
        # type(), not isinstance: JSON true and false are ints to isinstance.
        if not all(type(side) is int and 0 < side < 2**31 for side in (width, height)):
            raise FormatError(f"{where}: width/height must be integers in [1, 2**31)")
        items_raw = _require(raw, "items", where)
        if not isinstance(items_raw, list):
            raise FormatError(f"{where}.items must be a list")
        items = tuple(_parse_item(item, f"{where}.items[{j}]") for j, item in enumerate(items_raw))
        scene = Scene(image_id=image_id, width=width, height=height, items=items)
        scene, moved = clamp_scene(scene)
        clamped_total += moved
        try:
            validate_scene(scene, table)
        except SceneError as exc:
            raise FormatError(f"{where}: {exc}") from None
        scenes.append(scene)
    if clamped_total:
        logger.warning("clamped out-of-bounds coordinates on %d items during ingestion", clamped_total)
    return scenes


def read_detections(path) -> dict[str, list[Detection]]:
    """Read detection JSON into per-image lists, preserving file order."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise FormatError(f"detection file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("detections"), list):
        raise FormatError("detection document must be an object with a 'detections' list")

    out: dict[str, list[Detection]] = {}
    for i, raw in enumerate(doc["detections"]):
        where = f"detections[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = _image_id(raw, where)
        category = _category(raw, where)
        score = _require(raw, "score", where)
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not 0 <= score <= 1:
            raise FormatError(f"{where}.score must be a number in [0, 1]")
        bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
        if len(bbox) != 4:
            raise FormatError(f"{where}.bbox must hold exactly four values")
        landmarks = _number_list(raw.get("landmarks", []), f"{where}.landmarks", 3).reshape(-1, 3)
        out.setdefault(image_id, []).append(
            Detection(category_id=category, score=float(score), box=bbox, landmarks=landmarks)
        )
    return out
