"""Decode head tensor sets into final detections.

Pipeline: center-heatmap peak extraction, box regression, coarse keypoint
regression from the center cell, per-keypoint candidate extraction from the
keypoint heatmaps, and snapping each coarse keypoint to its nearest eligible
refined candidate. The regression channels are read only at the cells these
steps pick, and a non-finite value read there is rejected.

Peak search checks only candidate cells. For the center heatmaps, with the
default threshold of 0, those are the nonzero cells plus each channel's
cell (0, 0): a zero cell is never strictly greater than a preceding
neighbor, and (0, 0) is the only cell with none, so it is a peak only when
its successors are zero too. For the keypoint heatmaps they are the cells
at or above the threshold. decode_scene finds those in a dense float32
heatmap through the bit fold that validation computed (`heads._bit_fold`),
comparing only the cells of the fold columns that reach the threshold, so
the heatmap is read once per decode. Dense candidate sets take a full-grid
comparison instead. A heatmap held as a `heads._SparseGrid` finds its
candidates among its listed cells and its neighbor values by binary search,
without being scattered. The top_k center peaks are picked before they are
sorted. Coarse keypoints and snapping run for all peaks in one vectorised
pass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .categories import TOTAL_KEYPOINTS, CategoryTable
from .heads import (
    HeadTensorSet,
    TensorValidationError,
    _bit_fold,
    _SparseGrid,
    _take,
    require_valid,
)
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
        if not isinstance(self.top_k, numbers.Integral) or self.top_k < 1:
            raise ValueError(f"top_k must be an integer >= 1, got {self.top_k!r}")
        if not 0 <= self.min_center_score <= 1 or not 0 <= self.min_kp_candidate_score <= 1:
            raise ValueError("score thresholds must lie in [0, 1]")
        # inf is refused too: snapping scales box half-sizes by the margin, and 0 * inf is NaN.
        if not 1.0 <= self.snap_box_margin < np.inf:
            raise ValueError(f"snap_box_margin must be a finite number >= 1.0, got {self.snap_box_margin}")


def _peak_arrays(
    stack, min_score: float, fold: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All peak cells of a (C, H, W) array or `_SparseGrid` with score >= min_score.

    A cell is a peak iff its value is >= every 8-neighbor and strictly
    greater than equal-valued neighbors preceding it row-major. Returns
    (channel, row, col, score) arrays in ascending (channel, row, col) order.

    Only candidate cells are checked. With min_score <= 0 and no negative
    or NaN value in the stack, every cell is above the threshold, but a zero
    cell is never strictly greater than a preceding neighbor; only cell
    (0, 0) of a channel has none, and it is a peak iff its successors are
    zero too. So the candidates are the nonzero cells plus each channel's
    cell (0, 0). Otherwise they are the cells with score >= min_score,
    found through `fold`, the stack's bit fold (see _fold_candidates), when
    one is given. Above _DENSE_FRACTION of the stack one full-grid
    comparison checks them; below it each candidate's neighbors are
    gathered by flat-index offsets.

    A `_SparseGrid` finds its candidates among its listed cells and reads
    neighbors through its binary search. It is scattered into an array only
    when the full-grid comparison applies, or when the zero rule fails with
    min_score <= 0: then every unlisted +0.0 cell is a candidate.
    """
    channels, height, width = stack.shape
    if isinstance(stack, _SparseGrid):
        flat = _sparse_candidates(stack, min_score)
        if flat is not None and flat.size <= _DENSE_FRACTION * channels * height * width:
            return _check_candidates(flat, stack.at, stack.shape)
        stack = np.asarray(stack)
    data = stack.reshape(-1)
    flat = above = None
    if min_score <= 0 and stack.size:
        candidate = stack != 0
        candidate[:, 0, 0] = True
        flat = np.flatnonzero(candidate)
        # The rule needs a stack with no negative or NaN value. Such a value
        # is nonzero, so it would be among the candidates.
        if not (data[flat] >= 0).all():
            flat = None
    elif fold is not None:
        flat = _fold_candidates(data, fold, min_score)
    if flat is None:
        above = stack >= min_score
        flat = np.flatnonzero(above)
    if flat.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=stack.dtype)

    if flat.size > _DENSE_FRACTION * stack.size:
        padded = np.full((channels, height + 2, width + 2), -np.inf, dtype=stack.dtype)
        padded[:, 1:-1, 1:-1] = stack
        keep = stack >= min_score if above is None else above
        for dy, dx in _PRECEDING:
            keep &= stack > padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
        for dy, dx in _SUCCEEDING:
            keep &= stack >= padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
        chan, row, col = np.nonzero(keep)
        return chan, row, col, stack[chan, row, col]
    return _check_candidates(flat, data.__getitem__, stack.shape)


def _fold_candidates(data: np.ndarray, fold: np.ndarray, min_score: float) -> np.ndarray | None:
    """The ascending int64 cells of the flat float32 stack `data` with value >= min_score.

    `fold` is the stack's bit fold: the max over K rows of the uint32 bits
    of data.reshape(K, -1). Only the K cells of each fold column whose max
    reaches the bits of one ulp below float32(min_score) are compared. On
    non-negative floats bit order is value order, so those columns hold
    every cell that numpy's `>= min_score` admits, whether it compares in
    float32 (a Python float) or in float64 (a NumPy float64). Negative
    values, -0.0 and NaN have larger bits still, and the comparison drops
    them. None when the columns' cells exceed _DENSE_FRACTION of the stack.
    """
    rows = data.size // fold.size
    floor = max(int(np.float32(min_score).view(np.uint32)) - 1, 0)
    hit = np.flatnonzero(fold >= floor)
    if rows * hit.size > _DENSE_FRACTION * data.size:
        return None
    # Row-major, row k's cells k * columns + hit are all below row k + 1's: ascending.
    flat = (np.arange(rows)[:, None] * fold.size + hit).reshape(-1)
    return flat[data[flat] >= min_score]


def _sparse_candidates(grid: _SparseGrid, min_score: float) -> np.ndarray | None:
    """The ascending int64 candidate cells of _peak_arrays in a sparse grid.

    The unlisted cells are +0.0: candidates only as the zero rule's (0, 0),
    which needs min_score <= 0 and no negative or NaN value listed. None
    when min_score <= 0 and the rule fails, since every cell is then a
    candidate.
    """
    indices, values = grid.indices.astype(np.int64), grid.values
    if not min_score <= 0:
        return indices[values >= min_score]
    channels, height, width = grid.shape
    if not channels * height * width or not (values >= 0).all():
        return None
    flat = np.concatenate((indices[values != 0], np.arange(channels, dtype=np.int64) * (height * width)))
    flat.sort()
    return flat[np.diff(flat, prepend=-1) != 0]


def _check_candidates(flat: np.ndarray, value_at, shape: tuple[int, int, int]):
    """_peak_arrays over the ascending candidate cells `flat`, reading values through `value_at(flat indices)`."""
    _, height, width = shape
    chan, cell = np.divmod(flat, height * width)
    row, col = np.divmod(cell, width)
    value = value_at(flat)
    row_inside = {-1: row > 0, 0: np.True_, 1: row < height - 1}
    col_inside = {-1: col > 0, 0: np.True_, 1: col < width - 1}
    # A neighbor outside the grid counts as -inf, as in the dense path. It
    # passes every comparison but the strict one of a -inf value; a -inf
    # value fails that against every preceding neighbor, so it is no peak.
    keep = value > -np.inf
    for strict, offsets in ((True, _PRECEDING), (False, _SUCCEEDING)):
        for dy, dx in offsets:
            inside = row_inside[dy] & col_inside[dx]
            neighbor = value_at(np.where(inside, flat + (dy * width + dx), flat))
            keep &= ((value > neighbor) if strict else (value >= neighbor)) | ~inside
    return chan[keep], row[keep], col[keep], value[keep]


def extract_peaks(
    heatmap_stack: np.ndarray, k: int | None, min_score: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top-k peaks across all channels of a heatmap stack, as (channel, row, col, score) arrays.

    Sorted by score descending, ties by (channel, row, col) ascending.
    Channel, row and col are int64; scores keep the stack's dtype. Pass
    k=None for no limit.
    """
    if not isinstance(heatmap_stack, _SparseGrid):
        heatmap_stack = np.asarray(heatmap_stack)
    chan, row, col, score = _peak_arrays(heatmap_stack, min_score)
    key = -score.astype(np.float64)
    order = np.arange(key.size)
    if k is not None and k < key.size:
        # Only peaks not below the k-th score can be among the top k.
        order = np.flatnonzero(~(key > np.partition(key, k - 1)[k - 1]))
    # Stable, so equal scores keep the (channel, row, col) order of the peaks.
    order = order[np.argsort(key[order], kind="stable")][:k]
    return chan[order], row[order], col[order], score[order]


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


def _require_finite(values: np.ndarray, name: str, channel, row, col) -> None:
    """Reject a non-finite value among those read from tensor `name`.

    values[i] was read at channel[i], cell (row[i], col[i]), the index
    arrays broadcast to values' shape. The first bad value in C order of
    values is reported.
    """
    finite = np.isfinite(values)
    if finite.all():
        return
    i = np.unravel_index(np.argmin(finite), values.shape)
    c, r, x = (np.broadcast_to(index, values.shape)[i] for index in (channel, row, col))
    raise TensorValidationError([f"{name}: non-finite value at channel {c}, cell ({r}, {x})"])


def extract_keypoint_candidates(
    tensors: HeadTensorSet, config: DecodeConfig = DecodeConfig(), *, fold: np.ndarray | None = None
) -> KeypointCandidates:
    """Peaks of every keypoint heatmap channel, refined by the offset channels.

    `fold` is the bit fold of `kp_heatmap` that require_valid returns;
    without it the fold is computed here.
    """
    if fold is None:
        fold = _bit_fold(tensors.kp_heatmap)
    chan, row, col, score = _peak_arrays(tensors.kp_heatmap, config.min_kp_candidate_score, fold)
    channel = np.arange(2)[:, None]
    refine = _take(tensors.kp_refine_offset, channel, row, col).astype(np.float64)
    _require_finite(refine, "kp_refine_offset", channel, row, col)
    x = col + refine[0]
    y = row + refine[1]
    starts = np.searchsorted(chan, np.arange(TOTAL_KEYPOINTS + 1))
    return KeypointCandidates(
        channel=chan, x=x, y=y, confidence=score.astype(np.float64), starts=starts
    )


def _coarse_keypoints(
    tensors: HeadTensorSet, table: CategoryTable, chan: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse landmarks of the center peaks (chan, rows, cols), in one pass.

    Returns (L, 2) cell coords, peak by peak and local keypoint by local
    keypoint, plus the peak index and the global keypoint index of each.
    """
    offsets = np.array([spec.global_offset for spec in table.specs], dtype=np.int64)
    counts = np.array([spec.keypoint_count for spec in table.specs], dtype=np.int64)
    count = counts[chan]
    owner = np.repeat(np.arange(chan.size), count)
    first = np.cumsum(count) - count
    keypoint = offsets[chan][owner] + np.arange(owner.size) - first[owner]
    channel = 2 * keypoint[:, None] + np.arange(2)
    row, col = rows[owner, None], cols[owner, None]
    block = _take(tensors.kp_offset, channel, row, col).astype(np.float64)
    _require_finite(block, "kp_offset", channel, row, col)
    return block + np.concatenate((col, row), axis=1), owner, keypoint


def _snap(
    coarse: np.ndarray,
    owner: np.ndarray,
    keypoint: np.ndarray,
    cands: KeypointCandidates,
    box_cells: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Snap every coarse keypoint to a candidate of its channel, in one pass.

    Row j of coarse belongs to peak owner[j] and global keypoint
    keypoint[j]. A candidate is eligible when it lies in the peak's box
    (box_cells), scaled by margin about its center. The nearest eligible
    candidate wins, ties by higher confidence, then by row-major candidate
    order. Returns (L, 3) rows (x, y, confidence) in cells; a keypoint with
    no eligible candidate keeps its coarse position and confidence 0.
    """
    out = np.zeros((coarse.shape[0], 3))
    out[:, :2] = coarse
    # One row per (keypoint, candidate of its channel) pair.
    lo = cands.starts[keypoint]
    count = cands.starts[keypoint + 1] - lo
    pair_kp = np.repeat(np.arange(keypoint.size), count)
    pair_cand = np.arange(pair_kp.size) + np.repeat(lo - (np.cumsum(count) - count), count)

    cx = (box_cells[:, 0] + box_cells[:, 2]) / 2
    cy = (box_cells[:, 1] + box_cells[:, 3]) / 2
    half_w = (box_cells[:, 2] - box_cells[:, 0]) / 2 * margin
    half_h = (box_cells[:, 3] - box_cells[:, 1]) / 2 * margin
    peak = owner[pair_kp]
    x, y = cands.x[pair_cand], cands.y[pair_cand]
    eligible = np.flatnonzero((np.abs(x - cx[peak]) <= half_w[peak]) & (np.abs(y - cy[peak]) <= half_h[peak]))
    pair_kp, x, y, conf = pair_kp[eligible], x[eligible], y[eligible], cands.confidence[pair_cand[eligible]]
    d2 = (x - coarse[pair_kp, 0]) ** 2 + (y - coarse[pair_kp, 1]) ** 2
    # Pairs are grouped by keypoint, in row-major candidate order inside a
    # group, so the stable sort leaves that order as the last tie-break.
    order = np.lexsort((-conf, d2, pair_kp))
    pick = order[np.flatnonzero(np.diff(pair_kp[order], prepend=-1))]
    pick = pick[np.isfinite(d2[pick])]
    out[pair_kp[pick]] = np.column_stack((x[pick], y[pick], conf[pick]))
    return out


def _boxes(tensors: HeadTensorSet, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Box regression at the peak cells: (n, 4) pixel boxes, computed in cells then scaled."""
    channel = np.arange(2)[:, None]
    offset = _take(tensors.center_offset, channel, rows, cols).astype(np.float64)
    size = _take(tensors.wh, channel, rows, cols).astype(np.float64)
    _require_finite(offset, "center_offset", channel, rows, cols)
    _require_finite(size, "wh", channel, rows, cols)
    cx = cols + offset[0]
    cy = rows + offset[1]
    half_w = np.maximum(size[0], 0.0) / 2
    half_h = np.maximum(size[1], 0.0) / 2
    stride = tensors.stride
    return np.column_stack(
        ((cx - half_w) * stride, (cy - half_h) * stride, (cx + half_w) * stride, (cy + half_h) * stride)
    )


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
    folds = require_valid(tensors, table)
    chan, rows, cols, scores = extract_peaks(tensors.center, config.top_k, config.min_center_score)
    boxes = _boxes(tensors, rows, cols)
    cands = extract_keypoint_candidates(tensors, config, fold=folds["kp_heatmap"])
    if not chan.size:
        return []
    stride = tensors.stride
    coarse, owner, keypoint = _coarse_keypoints(tensors, table, chan, rows, cols)
    landmarks = _snap(coarse, owner, keypoint, cands, boxes / stride, config.snap_box_margin)
    landmarks[:, :2] *= stride
    bounds = np.searchsorted(owner, np.arange(chan.size + 1))
    # tolist gives Python ints and floats, the types the detections writer takes.
    return [
        Detection(
            category_id=channel + 1,
            score=score,
            box=boxes[i],
            landmarks=landmarks[bounds[i] : bounds[i + 1]],
        )
        for i, (channel, score) in enumerate(zip(chan.tolist(), scores.tolist()))
    ]
