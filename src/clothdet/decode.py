"""Decode head tensor sets into final detections.

Pipeline: center-heatmap peak extraction, box regression, coarse keypoint
regression from the center cell, per-keypoint candidate extraction from the
keypoint heatmaps, and snapping each coarse keypoint to its nearest eligible
refined candidate. The regression channels are read only at the cells these
steps pick, and a non-finite value read there is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import TOTAL_KEYPOINTS, CategoryTable
from .heads import HeadTensorSet, TensorValidationError, require_valid
from .scene import Detection

# Neighbor offsets that precede a cell in row-major order require a strict
# inequality, so exactly one cell of any equal-valued plateau survives.
_PRECEDING = ((-1, -1), (-1, 0), (-1, 1), (0, -1))
_SUCCEEDING = ((0, 1), (1, -1), (1, 0), (1, 1))

# Above this candidate density the vectorized full-grid comparison beats
# gather-based sparse checks.
_DENSE_FRACTION = 0.05


@dataclass(frozen=True)
class DecodeConfig:
    top_k: int = 100
    min_center_score: float = 0.0
    min_kp_candidate_score: float = 0.1
    snap_box_margin: float = 1.0

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 <= self.min_center_score <= 1 or not 0 <= self.min_kp_candidate_score <= 1:
            raise ValueError("score thresholds must lie in [0, 1]")
        if self.snap_box_margin < 1.0:
            raise ValueError(f"snap_box_margin must be >= 1.0, got {self.snap_box_margin}")


@dataclass(frozen=True)
class Peak:
    channel: int
    cell: tuple[int, int]
    score: float


def _peak_arrays(stack: np.ndarray, min_score: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All peak cells of a (C, H, W) stack with score >= min_score.

    A cell is a peak iff its value is >= every 8-neighbor and strictly
    greater than equal-valued neighbors preceding it row-major. Returns
    unsorted (channel, row, col, score) arrays.
    """
    channels, height, width = stack.shape
    above = stack >= min_score
    n_above = int(np.count_nonzero(above))
    if n_above == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=stack.dtype)

    if n_above > _DENSE_FRACTION * stack.size:
        padded = np.full((channels, height + 2, width + 2), -np.inf, dtype=stack.dtype)
        padded[:, 1:-1, 1:-1] = stack
        keep = above
        for dy, dx in _PRECEDING:
            keep &= stack > padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
        for dy, dx in _SUCCEEDING:
            keep &= stack >= padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
        chan, row, col = np.nonzero(keep)
        return chan, row, col, stack[chan, row, col]

    flat = np.flatnonzero(above)
    chan, row, col = np.unravel_index(flat, stack.shape)
    value = stack.reshape(-1)[flat]
    keep = np.ones(flat.shape, dtype=bool)
    for strict, offsets in ((True, _PRECEDING), (False, _SUCCEEDING)):
        for dy, dx in offsets:
            nrow = row + dy
            ncol = col + dx
            inside = (nrow >= 0) & (nrow < height) & (ncol >= 0) & (ncol < width)
            neighbor = np.full(flat.shape, -np.inf, dtype=stack.dtype)
            neighbor[inside] = stack[chan[inside], nrow[inside], ncol[inside]]
            keep &= (value > neighbor) if strict else (value >= neighbor)
    return chan[keep], row[keep], col[keep], value[keep]


def extract_peaks(heatmap_stack: np.ndarray, k: int | None, min_score: float) -> list[Peak]:
    """Top-k peaks across all channels of a heatmap stack.

    Sorted by score descending, ties by (channel, row, col) ascending.
    Pass k=None for no limit.
    """
    chan, row, col, score = _peak_arrays(np.asarray(heatmap_stack), min_score)
    order = np.lexsort((col, row, chan, -score.astype(np.float64)))
    if k is not None:
        order = order[:k]
    return [
        Peak(channel=int(chan[i]), cell=(int(row[i]), int(col[i])), score=float(score[i]))
        for i in order
    ]


@dataclass(frozen=True)
class KeypointCandidates:
    """Refined keypoint candidates for all 294 global channels.

    Rows are sorted by (channel, peak row, peak col); starts[g] .. starts[g+1]
    delimit channel g. x/y are subpixel cell coordinates (peak cell plus the
    refine offsets read at that cell).
    """

    channel: np.ndarray
    x: np.ndarray
    y: np.ndarray
    confidence: np.ndarray
    starts: np.ndarray


def _require_finite(values: np.ndarray, name: str, first_channel: int, rows, cols) -> None:
    """Reject a non-finite value among those read from tensor `name`.

    values holds channels first_channel.. (first axis) at the cells
    (rows, cols) (second axis, or scalars for a single cell).
    """
    if np.isfinite(values).all():
        return
    c, i = np.argwhere(~np.isfinite(values.reshape(values.shape[0], -1)))[0]
    row, col = np.atleast_1d(rows)[i], np.atleast_1d(cols)[i]
    raise TensorValidationError([f"{name}: non-finite value at channel {first_channel + c}, cell ({row}, {col})"])


def extract_keypoint_candidates(tensors: HeadTensorSet, config: DecodeConfig = DecodeConfig()) -> KeypointCandidates:
    """Peaks of every keypoint heatmap channel, refined by the offset channels."""
    chan, row, col, score = _peak_arrays(tensors.kp_heatmap, config.min_kp_candidate_score)
    order = np.lexsort((col, row, chan))
    chan, row, col, score = chan[order], row[order], col[order], score[order]
    refine = tensors.kp_refine_offset[:, row, col].astype(np.float64)
    _require_finite(refine, "kp_refine_offset", 0, row, col)
    x = col + refine[0]
    y = row + refine[1]
    starts = np.searchsorted(chan, np.arange(TOTAL_KEYPOINTS + 1))
    return KeypointCandidates(
        channel=chan, x=x, y=y, confidence=score.astype(np.float64), starts=starts
    )


def decode_coarse_keypoints(
    tensors: HeadTensorSet, table: CategoryTable, detection_center_cell: tuple[int, int], category: int
) -> np.ndarray:
    """Coarse landmark positions for one detection, as (K, 2) cell coords.

    Local keypoint l with global index g reads kp_offset channels 2g, 2g+1
    at the center cell and adds them to the center cell position.
    """
    spec = table.spec(category)
    row, col = detection_center_cell
    lo = 2 * spec.global_offset
    block = tensors.kp_offset[lo : lo + 2 * spec.keypoint_count, row, col].astype(np.float64)
    _require_finite(block, "kp_offset", lo, row, col)
    coarse = block.reshape(spec.keypoint_count, 2)
    return coarse + (col, row)


def _snap_block(
    coarse: np.ndarray,
    local: np.ndarray,
    cand_x: np.ndarray,
    cand_y: np.ndarray,
    cand_conf: np.ndarray,
    box_cells: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Snap coarse keypoints to candidates given as flat per-local arrays.

    Candidate rows must be grouped by local index with row-major peak order
    inside each group (the order _peak_arrays + lexsort produces).
    """
    count = coarse.shape[0]
    out = np.empty((count, 3), dtype=np.float64)
    out[:, :2] = coarse
    out[:, 2] = 0.0
    if local.size == 0:
        return out

    cx = (box_cells[0] + box_cells[2]) / 2
    cy = (box_cells[1] + box_cells[3]) / 2
    half_w = (box_cells[2] - box_cells[0]) / 2 * margin
    half_h = (box_cells[3] - box_cells[1]) / 2 * margin
    eligible = (
        (np.abs(cand_x - cx) <= half_w)
        & (np.abs(cand_y - cy) <= half_h)
    )

    d2 = (cand_x - coarse[local, 0]) ** 2 + (cand_y - coarse[local, 1]) ** 2
    d2 = np.where(eligible, d2, np.inf)
    # Per local index: min distance, ties by higher confidence, then the
    # stable row-major candidate order.
    order = np.lexsort((-cand_conf, d2, local))
    winners_local, first = np.unique(local[order], return_index=True)
    pick = order[first]
    ok = np.isfinite(d2[pick])
    winners_local = winners_local[ok]
    pick = pick[ok]
    out[winners_local, 0] = cand_x[pick]
    out[winners_local, 1] = cand_y[pick]
    out[winners_local, 2] = cand_conf[pick]
    return out


def _boxes_from_peaks(tensors: HeadTensorSet, peaks: list[Peak]) -> np.ndarray:
    """Box regression per peak: (n, 4) pixel boxes, computed in cells then scaled."""
    rows = np.array([peak.cell[0] for peak in peaks], dtype=np.int64)
    cols = np.array([peak.cell[1] for peak in peaks], dtype=np.int64)
    offset = tensors.center_offset[:, rows, cols].astype(np.float64)
    size = tensors.wh[:, rows, cols].astype(np.float64)
    _require_finite(offset, "center_offset", 0, rows, cols)
    _require_finite(size, "wh", 0, rows, cols)
    cx = cols + offset[0]
    cy = rows + offset[1]
    half_w = np.maximum(size[0], 0.0) / 2
    half_h = np.maximum(size[1], 0.0) / 2
    stride = tensors.stride
    return np.column_stack(
        ((cx - half_w) * stride, (cy - half_h) * stride, (cx + half_w) * stride, (cy + half_h) * stride)
    )


def decode_detections(tensors: HeadTensorSet, config: DecodeConfig = DecodeConfig()) -> list[Detection]:
    """Box-only decoding: center peaks to scored category boxes in pixels."""
    peaks = extract_peaks(tensors.center, config.top_k, config.min_center_score)
    boxes = _boxes_from_peaks(tensors, peaks)
    return [
        Detection(
            category_id=peak.channel + 1,
            score=peak.score,
            box=boxes[i],
            landmarks=np.empty((0, 3)),
        )
        for i, peak in enumerate(peaks)
    ]


def decode_scene(
    tensors: HeadTensorSet, table: CategoryTable, config: DecodeConfig = DecodeConfig()
) -> list[Detection]:
    """Full decoding of one tensor set into detections with landmarks.

    Composition of peak extraction, box regression, coarse keypoints,
    candidate extraction, and snapping; landmark cells are scaled by the
    stride into pixels. Detections come out sorted by score descending,
    ties by (channel, row, col) of their peaks.

    Raises:
        TensorValidationError: when validation fails, or when a regression
            value read at a peak or candidate cell is not finite.
    """
    require_valid(tensors, table)
    peaks = extract_peaks(tensors.center, config.top_k, config.min_center_score)
    boxes = _boxes_from_peaks(tensors, peaks)
    cands = extract_keypoint_candidates(tensors, config)
    stride = tensors.stride

    detections = []
    for i, peak in enumerate(peaks):
        category = peak.channel + 1
        spec = table.spec(category)
        coarse = decode_coarse_keypoints(tensors, table, peak.cell, category)
        lo, hi = cands.starts[spec.global_offset], cands.starts[spec.global_offset + spec.keypoint_count]
        snapped = _snap_block(
            coarse,
            cands.channel[lo:hi] - spec.global_offset,
            cands.x[lo:hi],
            cands.y[lo:hi],
            cands.confidence[lo:hi],
            boxes[i] / stride,
            config.snap_box_margin,
        )
        landmarks = snapped.copy()
        landmarks[:, :2] *= stride
        detections.append(
            Detection(category_id=category, score=peak.score, box=boxes[i], landmarks=landmarks)
        )
    return detections
