"""Inference-time post-processing: NMS, flip fusion, multiscale fusion.

Flip fusion works in tensor space: mirror the tensors computed on a
horizontally flipped input back into the original orientation, then average
with the plain tensors and decode once. Multiscale fusion works in detection
space: decode each scale separately, map coordinates back to original
pixels, then merge the lists under NMS. `infer` runs both, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .categories import CategoryTable
from .decode import DecodeConfig, decode_scene
from .heads import HeadTensorSet
from .scene import Detection

DEFAULT_SCALES = (1.0, 0.75)


@dataclass(frozen=True)
class FusionConfig:
    nms_iou_threshold: float = 0.5
    flip_enabled: bool = False
    scales: tuple[float, ...] = DEFAULT_SCALES

    def __post_init__(self):
        if not 0 < self.nms_iou_threshold < 1:
            raise ValueError(f"nms_iou_threshold must be in (0, 1), got {self.nms_iou_threshold}")
        if any(s <= 0 for s in self.scales):
            raise ValueError(f"scales must be positive, got {self.scales}")


def iou(a, b) -> float:
    """Intersection over union of two corner-form boxes; 0 when the union is 0."""
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
    """Greedy per-category non-maximum suppression.

    Decisions run score-descending (stable on ties by input position); a
    detection is kept iff its IoU with every already-kept detection of the
    same category is below the threshold. The returned list is a subsequence
    of the input, original order preserved.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"nms threshold must be in (0, 1), got {threshold}")
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


def flip_tensors(tensors: HeadTensorSet, table: CategoryTable) -> HeadTensorSet:
    """Map a tensor set computed on a mirrored input back to original orientation.

    Every channel mirrors horizontally (column c -> W-1-c). Fractional x
    offsets (center_offset, kp_refine_offset) map dx -> 1-dx, center-relative
    keypoint x offsets negate, and flip-paired keypoint channels swap. The
    transformation is an involution.
    """
    def mirror(grid: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(grid[:, :, ::-1])

    center = mirror(tensors.center)
    wh = mirror(tensors.wh)

    center_offset = mirror(tensors.center_offset)
    center_offset[0] = 1.0 - center_offset[0]

    kp_refine_offset = mirror(tensors.kp_refine_offset)
    kp_refine_offset[0] = 1.0 - kp_refine_offset[0]

    kp_offset = mirror(tensors.kp_offset)
    kp_offset[0::2] = -kp_offset[0::2]

    kp_heatmap = mirror(tensors.kp_heatmap)
    for a, b in table.flip_pairs:
        kp_heatmap[[a, b]] = kp_heatmap[[b, a]]
        kp_offset[[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]] = kp_offset[[2 * b, 2 * b + 1, 2 * a, 2 * a + 1]]

    return HeadTensorSet(
        stride=tensors.stride,
        center=center,
        wh=wh,
        center_offset=center_offset,
        kp_offset=kp_offset,
        kp_heatmap=kp_heatmap,
        kp_refine_offset=kp_refine_offset,
    )


def fuse_tensors(tensor_sets: list[HeadTensorSet], weights: list[float] | None = None) -> HeadTensorSet:
    """Per-element weighted average of aligned tensor sets.

    Weights default to equal, are normalized to sum 1, and must be
    non-negative and finite with a positive sum (zero-weight inputs are
    skipped entirely, so fuse with weights (2, 0) returns the first input
    exactly).
    """
    if not tensor_sets:
        raise ValueError("need at least one tensor set")
    if weights is None:
        weights = [1.0] * len(tensor_sets)
    if len(weights) != len(tensor_sets):
        raise ValueError(f"{len(tensor_sets)} tensor sets but {len(weights)} weights")
    weights = [float(w) for w in weights]
    if any(not np.isfinite(w) or w < 0 for w in weights):
        raise ValueError(f"weights must be non-negative and finite, got {weights}")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must not all be zero")

    first = tensor_sets[0]
    shapes = {name: grid.shape for name, grid in first.named().items()}
    for ts in tensor_sets[1:]:
        if ts.stride != first.stride:
            raise ValueError(f"stride mismatch: {ts.stride} vs {first.stride}")
        for name, grid in ts.named().items():
            if grid.shape != shapes[name]:
                raise ValueError(f"{name}: shape {grid.shape} does not match {shapes[name]}")

    fused = {}
    for name in shapes:
        acc = None
        for ts, w in zip(tensor_sets, weights):
            if w == 0:
                continue
            term = getattr(ts, name).astype(np.float64)
            term *= w / total
            if acc is None:
                acc = term
            else:
                acc += term
        fused[name] = acc.astype(getattr(first, name).dtype)
    return HeadTensorSet(stride=first.stride, **fused)


def rescale_detections(detections: list[Detection], scale: float) -> list[Detection]:
    """Map detections computed on a scaled image back to original pixels."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    out = []
    for det in detections:
        landmarks = det.landmarks.copy()
        landmarks[:, :2] /= scale
        out.append(replace(det, box=det.box / scale, landmarks=landmarks))
    return out


def fuse_multiscale(per_scale_detections: list[list[Detection]], nms_iou: float | None) -> list[Detection]:
    """Merge per-scale detection lists (already in original pixels) under NMS.

    Lists are concatenated, sorted by score descending (stable, so earlier
    scales win ties), then suppressed at the nms_iou threshold; None skips
    the suppression and returns the sorted list.
    """
    merged = [det for dets in per_scale_detections for det in dets]
    merged.sort(key=lambda det: -det.score)
    return merged if nms_iou is None else nms(merged, nms_iou)


def infer(
    views: Iterable[tuple[float, HeadTensorSet, HeadTensorSet | None]],
    table: CategoryTable,
    config: DecodeConfig,
    nms_iou: float | None,
) -> list[Detection]:
    """Detections for one image from its test-time views.

    Each view is (scale, tensors, mirrored): the tensor set computed on the
    image resized by scale, and the one computed on its horizontal mirror at
    that scale, or None. Per view the mirrored set is unflipped and averaged
    with the plain one, the result decoded once and mapped back to original
    pixels; fuse_multiscale then merges the scales. Views are taken one at a
    time, so a generator of views reads one scale's containers at a time.
    """
    per_scale = []
    for scale, tensors, mirrored in views:
        if mirrored is not None:
            # Rebinding drops the raw mirrored set before the float64 fusion,
            # which is the peak of memory use.
            mirrored = flip_tensors(mirrored, table)
            tensors = fuse_tensors([tensors, mirrored])
        per_scale.append(rescale_detections(decode_scene(tensors, table, config), scale))
    return fuse_multiscale(per_scale, nms_iou)
