"""Inference-time post-processing: NMS, flip fusion, multiscale fusion.

Flip fusion works in tensor space: mirror the tensors computed on a
horizontally flipped input back into the original orientation, then average
with the plain tensors and decode once. Only the heatmaps (center,
kp_heatmap: 307 of 901 channels) are mirrored and averaged whole, since
decode scans them. A heatmap held as a `heads._SparseGrid` stays one: its
listed cells are moved by the flip, and the average runs over the union of
the inputs' listed cells, with the same float64 arithmetic and float32
rounding as the dense average. The four regression tensors come back as
lazy grids that mirror and average both views' values only at the cells
decode reads; `np.asarray` materialises them, for `write_tensors`.
Multiscale fusion works in detection space: decode each scale separately,
map coordinates back to original pixels, then merge the lists under NMS.
`infer` runs both, in that order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import numpy as np

from .categories import CategoryTable
from .decode import DecodeConfig, decode_scene
from .heads import HEATMAP_NAMES, TENSOR_NAMES, HeadTensorSet, _LazyGrid, _SparseGrid, _take, require_valid
from .scene import Detection

# Values per block of the heatmap average: 256 KB of float64.
_BLOCK_VALUES = 32768


def _box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row pair of two (P, 4) float64 corner-form box arrays, without numpy warnings.

    min, max and the `<=` tests follow Python's builtins and float
    comparisons, so NaN, inf and -0.0 coordinates score as in scalar code.
    """
    ax1, ay1, ax2, ay2 = a.T
    bx1, by1, bx2, by2 = b.T
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.where(bx2 < ax2, bx2, ax2) - np.where(bx1 > ax1, bx1, ax1)
        ih = np.where(by2 < ay2, by2, ay2) - np.where(by1 > ay1, by1, ay1)
        inter = np.where((iw <= 0) | (ih <= 0), 0.0, iw * ih)
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        empty = union <= 0
        return np.where(empty, 0.0, inter / np.where(empty, 1.0, union))


def iou(a, b) -> float:
    """Intersection over union of two corner-form boxes; 0 when the union is 0."""
    a, b = (np.asarray(box, dtype=np.float64).reshape(1, 4) for box in (a, b))
    return float(_box_iou(a, b)[0])


def nms(detections: list[Detection], threshold: float) -> list[Detection]:
    """Greedy per-category non-maximum suppression.

    Decisions run score-descending (stable on ties by input position); a
    detection is kept iff its IoU with every already-kept detection of the
    same category is below the threshold. The returned list is a subsequence
    of the input, original order preserved.

    The IoU of every same-category pair, iou(later, earlier) in decision
    order, is computed in one array call before the greedy pass.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"nms threshold must be in (0, 1), got {threshold}")
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    categories = np.array([detections[i].category_id for i in order], dtype=np.int64)
    # Decision positions grouped by category, each group in decision order;
    # every position pairs with those before it in its group.
    grouped = np.argsort(categories, kind="stable")
    first = np.searchsorted(categories[grouped], categories[grouped])
    count = np.arange(len(order)) - first
    later = grouped[np.repeat(np.arange(len(order)), count)]
    earlier = grouped[np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)]
    boxes = np.array([detections[i].box for i in order], dtype=np.float64).reshape(-1, 4)
    close = ~(_box_iou(boxes[later], boxes[earlier]) < threshold)
    rivals: list[list[int]] = [[] for _ in order]
    for p, q in zip(later[close].tolist(), earlier[close].tolist()):
        rivals[p].append(q)
    kept: list[bool] = []
    for p in range(len(order)):
        kept.append(not any(kept[q] for q in rivals[p]))
    keep = dict(zip(order, kept))
    return [det for i, det in enumerate(detections) if keep[i]]


def _mirrored(
    grid, perm: np.ndarray, negate: np.ndarray | None = None, one_minus: np.ndarray | None = None
) -> _LazyGrid:
    """`grid` mirrored to column W-1-c, channel k read from channel perm[k].

    Channels flagged in `negate` negate their values, those flagged in
    `one_minus` map v -> 1-v, in the grid's own dtype.
    """
    last = grid.shape[2] - 1

    def transform(values, c):
        if negate is not None:
            np.negative(values, out=values, where=negate[c])
        if one_minus is not None:
            np.subtract(1.0, values, out=values, where=one_minus[c])
        return values

    def gather(c, r, x):
        return transform(np.asarray(_take(grid, perm[c], r, last - x)), c)

    def whole():
        return transform(np.asarray(grid)[perm, :, ::-1], np.arange(len(perm))[:, None, None])

    return _LazyGrid(grid.shape, grid.dtype, gather, whole)


def _mirrored_heatmap(grid, perm: np.ndarray):
    """A heatmap mirrored to column W-1-c, channel k read from channel perm[k], in the input's form."""
    if not isinstance(grid, _SparseGrid):
        return grid[perm, :, ::-1]
    _, height, width = grid.shape
    chan, cell = np.divmod(grid.indices.astype(np.int64), height * width)
    row, col = np.divmod(cell, width)
    # perm is an involution, so listed channel c moves to channel perm[c].
    flat = (perm[chan] * height + row) * width + (width - 1 - col)
    order = np.argsort(flat)
    return _SparseGrid(grid.shape, flat[order], grid.values[order])


def flip_tensors(tensors: HeadTensorSet, table: CategoryTable) -> HeadTensorSet:
    """Map a tensor set computed on a mirrored input back to original orientation.

    Every channel mirrors horizontally (column c -> W-1-c). Fractional x
    offsets (center_offset, kp_refine_offset) map dx -> 1-dx, center-relative
    keypoint x offsets negate, and flip-paired keypoint channels swap. The
    transformation is an involution.

    The heatmaps (center, kp_heatmap) are flipped here: a dense heatmap
    into a new array, a `_SparseGrid` into a new one by moving its listed
    cells. The four regression tensors come back lazy: each value is read
    from the input and transformed only at the cells gathered, and
    `np.asarray` gives the whole flipped tensor.
    """
    kp_perm = table.flip_perm
    offset_perm = np.stack([2 * kp_perm, 2 * kp_perm + 1], axis=1).reshape(-1)
    same = np.arange(2)
    x_only = np.array([True, False])

    return HeadTensorSet(
        stride=tensors.stride,
        center=_mirrored_heatmap(tensors.center, np.arange(tensors.center.shape[0])),
        wh=_mirrored(tensors.wh, same),
        center_offset=_mirrored(tensors.center_offset, same, one_minus=x_only),
        kp_offset=_mirrored(tensors.kp_offset, offset_perm, negate=offset_perm % 2 == 0),
        kp_heatmap=_mirrored_heatmap(tensors.kp_heatmap, kp_perm),
        kp_refine_offset=_mirrored(tensors.kp_refine_offset, same, one_minus=x_only),
    )


def _weighted_sum(terms, dtype) -> np.ndarray:
    """Sum of values * share over the (values, share) terms in float64, cast to dtype."""
    acc = None
    for values, share in terms:
        # Casts to float64, then multiplies: one pass instead of astype and *=.
        term = np.multiply(values, share, dtype=np.float64)
        if acc is None:
            acc = term
        else:
            acc += term
    return acc.astype(dtype)


def _blockwise_sum(terms, dtype) -> np.ndarray:
    """_weighted_sum of whole (values, share) grids, a few channels at a time.

    Blocks keep the float64 temporaries in cache.
    """
    channels, height, width = terms[0][0].shape
    out = np.empty((channels, height, width), dtype)
    step = max(1, _BLOCK_VALUES // max(1, height * width))
    for lo in range(0, channels, step):
        out[lo : lo + step] = _weighted_sum(((grid[lo : lo + step], share) for grid, share in terms), dtype)
    return out


def _sparse_sum(terms) -> _SparseGrid:
    """_weighted_sum of (`_SparseGrid`, share) terms over the union of their listed cells.

    Every term is summed at every union cell, +0.0 where it lists none, so
    each cell gets the same float64 sum, signed zeros and NaN included, as
    the dense average. Cells whose float32 sum is +0.0 are dropped.
    """
    flat = np.concatenate([grid.indices.astype(np.int64) for grid, _ in terms])
    flat.sort(kind="stable")
    union = flat[np.diff(flat, prepend=-1) != 0]
    columns = []
    for grid, share in terms:
        column = np.zeros(union.size, dtype=np.float32)
        column[np.searchsorted(union, grid.indices)] = grid.values
        columns.append((column, share))
    values = _weighted_sum(columns, np.float32)
    kept = values.view(np.uint32) != 0
    return _SparseGrid(terms[0][0].shape, union[kept], values[kept])


def fuse_tensors(tensor_sets: list[HeadTensorSet], weights: list[float] | None = None) -> HeadTensorSet:
    """Per-element weighted average of aligned tensor sets.

    Weights default to equal, are normalized to sum 1, and must be
    non-negative and finite with a positive sum (zero-weight inputs are
    skipped entirely, so fuse with weights (2, 0) returns the first input
    exactly). Each value is the float64 weighted sum cast back to the first
    input's dtype.

    The heatmaps (center, kp_heatmap) are averaged here. When every input
    that carries weight holds a heatmap as a float32 `_SparseGrid`, the
    average is one over the union of their listed cells, with the same
    values; otherwise the inputs are made dense and averaged into a new
    array. The four regression tensors come back lazy: each value is
    averaged from the inputs only at the cells gathered, and
    `np.asarray` gives the whole fused tensor. Inputs may themselves be
    lazy.
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

    live = [(ts, w / total) for ts, w in zip(tensor_sets, weights) if w != 0]

    def fused(name: str):
        grids = [(getattr(ts, name), share) for ts, share in live]
        dtype = getattr(first, name).dtype
        if name in HEATMAP_NAMES:
            if dtype == np.float32 and all(isinstance(grid, _SparseGrid) for grid, _ in grids):
                return _sparse_sum(grids)
            return _blockwise_sum([(np.asarray(grid), share) for grid, share in grids], dtype)

        def gather(c, r, x):
            return _weighted_sum(((_take(grid, c, r, x), share) for grid, share in grids), dtype)

        def whole():
            return _blockwise_sum([(np.asarray(grid), share) for grid, share in grids], dtype)

        return _LazyGrid(shapes[name], dtype, gather, whole)

    return HeadTensorSet(stride=first.stride, **{name: fused(name) for name in TENSOR_NAMES})


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
    pixels; fuse_multiscale then merges the scales. Both sets of a mirrored
    view are validated before fusing. Views are taken one at a time, so a
    generator of views reads one scale's containers at a time.
    """
    per_scale = []
    for scale, tensors, mirrored in views:
        if mirrored is not None:
            # Each view as decode would check it alone: the average could
            # bring a bad value back into range.
            require_valid(tensors, table)
            require_valid(mirrored, table)
            # The fused regression tensors keep both views' arrays alive until
            # decode has read them at its peak and candidate cells.
            mirrored = flip_tensors(mirrored, table)
            tensors = fuse_tensors([tensors, mirrored])
        per_scale.append(rescale_detections(decode_scene(tensors, table, config), scale))
    return fuse_multiscale(per_scale, nms_iou)
