"""Render ground-truth scenes into head tensor sets.

This is the training-target encoding for a center-point detector: Gaussian
peaks on the center and keypoint heatmaps, direct width/height regression,
and fractional-offset channels. It doubles as the round-trip oracle for the
decoder: on clean, well-separated scenes decode(encode(s)) recovers s.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .categories import CategoryTable
from .heads import HEATMAP_NAMES, TENSOR_NAMES, HeadTensorSet, _channel_counts, _SparseGrid
from .scene import Scene, validate_scene

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EncodeParams:
    """Head geometry: the output stride in pixels and the IoU that sizes each item's peaks, its landmarks' too."""

    stride: int = 4
    min_overlap: float = 0.7

    def __post_init__(self):
        if not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise ValueError(f"stride must be an integer >= 1, got {self.stride!r}")
        if not 0 < self.min_overlap < 1:
            raise ValueError(f"min_overlap must be in (0, 1), got {self.min_overlap}")


def gaussian_radius(box_w_cells: float, box_h_cells: float, min_overlap: float) -> float:
    """Largest peak radius keeping IoU >= min_overlap under corner jitter.

    Takes the smallest root over the three standard jitter cases (box
    translated diagonally, both corners moved inward, both moved outward),
    so a box perturbed by up to the returned radius in any of these ways
    still overlaps the original at min_overlap. Floored at 0.

    Args:
        box_w_cells: box width in feature cells, > 0.
        box_h_cells: box height in feature cells, > 0.
        min_overlap: required IoU in (0, 1).

    Returns:
        Radius in cells, >= 0.
    """
    w, h = box_w_cells, box_h_cells
    if w <= 0 or h <= 0:
        raise ValueError(f"box dimensions must be positive, got {w} x {h}")
    if not 0 < min_overlap < 1:
        raise ValueError(f"min_overlap must be in (0, 1), got {min_overlap}")

    a1 = 1.0
    b1 = h + w
    c1 = w * h * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 - math.sqrt(b1 * b1 - 4 * a1 * c1)) / (2 * a1)

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - min_overlap) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (h + w)
    c3 = (min_overlap - 1) * w * h
    r3 = (b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)

    return max(0.0, min(r1, r2, r3))


def _stamps(
    rows: np.ndarray, cols: np.ndarray, radius: float, height: int, width: int, peak: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cells of Gaussian kernels of one radius centered at (rows[i], cols[i]).

    Each kernel is peak * exp(-(dx^2 + dy^2) / (2 sigma^2)) with
    sigma = max(radius, 1) / 3, on a window of half-extent int(radius)
    around its center; cells outside the height x width grid are dropped.

    Returns:
        (stamp, row, col, value) per kept cell: the stamp's index into
        rows, the cell, and the float64 kernel value there.
    """
    outside = (rows < 0) | (rows >= height) | (cols < 0) | (cols >= width)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"center cell ({rows[i]}, {cols[i]}) outside {height} x {width} grid")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")

    extent = int(radius)
    sigma = max(radius, 1.0) / 3.0
    ys = np.arange(-extent, extent + 1, dtype=np.float64)
    kernel = peak * np.exp(-(ys[:, None] ** 2 + ys[None, :] ** 2) / (2 * sigma * sigma))

    steps = np.arange(-extent, extent + 1)
    window_rows = rows[:, None] + steps
    window_cols = cols[:, None] + steps
    inside = ((window_rows >= 0) & (window_rows < height))[:, :, None] & (
        (window_cols >= 0) & (window_cols < width)
    )[:, None, :]
    stamp, i, j = np.nonzero(inside)
    return stamp, window_rows[stamp, i], window_cols[stamp, j], kernel[i, j]


def render_gaussian(grid: np.ndarray, center_cell: tuple[int, int], radius: float, peak: float = 1.0) -> None:
    """Max-compose a Gaussian kernel into a 2-d grid, in place.

    The kernel is peak * exp(-(dx^2 + dy^2) / (2 sigma^2)) with
    sigma = max(radius, 1) / 3, rendered on a window of half-extent
    int(radius) around center_cell; tails falling outside the grid are
    truncated. The cell at center_cell receives exactly `peak`.

    Args:
        grid: (H, W) array, modified in place.
        center_cell: (row, col) integer cell inside the grid.
        radius: kernel radius in cells, >= 0.
        peak: kernel height at the center, default 1.0.
    """
    row, col = center_cell
    _, rows, cols, values = _stamps(np.array([row]), np.array([col]), radius, *grid.shape, peak)
    grid[rows, cols] = np.maximum(grid[rows, cols], values.astype(grid.dtype))


def _max_composed(indices: list[np.ndarray], values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending unique flat indices and the largest float32 value written to each."""
    flat = np.concatenate(indices)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    return flat[starts], np.maximum.reduceat(np.concatenate(values)[order], starts)


def _last_written(indices: list[np.ndarray], values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending unique flat indices and, for each, the last value written there, as float32."""
    flat = np.concatenate(indices)[::-1]
    unique, last = np.unique(flat, return_index=True)
    return unique, np.concatenate(values)[::-1][last].astype(np.float32)


def _refine_offsets(
    image_id: str, plane: int, cells: list[np.ndarray], offsets: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """kp_refine_offset entries: at each landmark cell, the (dx, dy) of the first landmark there.

    A later landmark whose float32 offsets differ from the kept ones is
    counted and logged.
    """
    cells = np.concatenate(cells)
    dxy = np.concatenate(offsets).reshape(-1, 2).astype(np.float32)
    unique, first, owner = np.unique(cells, return_index=True, return_inverse=True)
    kept = first[owner]
    conflicts = int(np.count_nonzero((dxy != dxy[kept]).any(axis=1)))
    if conflicts:
        logger.warning("image %s: %d landmark cells hold offsets of an earlier peak", image_id, conflicts)
    return np.concatenate((unique, plane + unique)), np.concatenate((dxy[first, 0], dxy[first, 1]))


def encode_scene(scene: Scene, table: CategoryTable, params: EncodeParams = EncodeParams()) -> HeadTensorSet:
    """Render a scene into a head tensor set that is zero except where written.

    Per item: a Gaussian peak on the item's category channel at the box
    center cell, width/height and the fractional center position at that
    cell, and for every labeled landmark its center-relative offset, a peak
    of the center peak's radius on its global keypoint channel, and its
    fractional position there. Image dims not divisible by the stride are padded up.

    Center-cell collisions keep the larger-area item's regression values;
    fractional landmark offsets keep the first writer's values. Both are
    logged. Overlapping peaks keep the larger value at each cell.

    Only the nonzeros are rendered: every tensor of the set returned is a
    read-only `heads._SparseGrid`, as read_tensors returns a sparse block.
    Decode, flip_tensors, fuse_tensors and write_tensors read the nonzeros
    alone; `np.asarray` gives a tensor as a new writable float32 array.
    """
    validate_scene(scene, table)
    stride = params.stride
    grid_h = -(-scene.height // stride)
    grid_w = -(-scene.width // stride)
    plane = grid_h * grid_w
    # Flat indices and values written per tensor, in write order.
    writes: dict[str, tuple[list, list]] = {name: ([], []) for name in TENSOR_NAMES}

    def write(name: str, indices, values) -> None:
        writes[name][0].append(np.asarray(indices, dtype=np.int64).reshape(-1))
        writes[name][1].append(np.asarray(values).reshape(-1))

    def stamp(name: str, channels: np.ndarray, rows: np.ndarray, cols: np.ndarray, radius: float) -> None:
        which, r, c, values = _stamps(rows, cols, radius, grid_h, grid_w)
        write(name, (channels[which] * grid_h + r) * grid_w + c, values.astype(np.float32))

    claims: dict[tuple[int, int], float] = {}
    center_conflicts = 0

    for item in scene.items:
        x1, y1, x2, y2 = item.box
        w_cells = (x2 - x1) / stride
        h_cells = (y2 - y1) / stride
        cx = (x1 + x2) / 2 / stride
        cy = (y1 + y2) / 2 / stride
        col = min(int(cx), grid_w - 1)
        row = min(int(cy), grid_h - 1)

        radius = gaussian_radius(w_cells, h_cells, params.min_overlap) if w_cells > 0 and h_cells > 0 else 0.0
        stamp("center", np.array([item.category_id - 1]), np.array([row]), np.array([col]), radius)

        area = w_cells * h_cells
        owner_area = claims.get((row, col))
        owns_cell = owner_area is None or area > owner_area
        if owner_area is not None:
            center_conflicts += 1
        if not owns_cell:
            continue
        claims[(row, col)] = area

        cell = row * grid_w + col
        write("wh", (cell, plane + cell), (w_cells, h_cells))
        write("center_offset", (cell, plane + cell), (cx - col, cy - row))

        labeled = np.flatnonzero(item.landmarks[:, 2] != 0)
        if not labeled.size:
            continue
        landmarks = item.landmarks[labeled]
        g = table.spec(item.category_id).global_offset + labeled
        lx_cell = landmarks[:, 0] / stride
        ly_cell = landmarks[:, 1] / stride
        lcol = np.minimum(lx_cell.astype(np.int64), grid_w - 1)
        lrow = np.minimum(ly_cell.astype(np.int64), grid_h - 1)

        write("kp_offset", (2 * g * plane + cell, (2 * g + 1) * plane + cell), (lx_cell - col, ly_cell - row))
        stamp("kp_heatmap", g, lrow, lcol, radius)
        write("kp_refine_offset", lrow * grid_w + lcol, np.stack((lx_cell - lcol, ly_cell - lrow), axis=1))

    if center_conflicts:
        logger.warning(
            "image %s: %d center cells claimed twice; keeping the larger-area item at each",
            scene.image_id, center_conflicts,
        )

    shapes = {name: (channels, grid_h, grid_w) for name, channels in _channel_counts(len(table.specs)).items()}
    grids = {}
    for name in TENSOR_NAMES:
        indices, values = writes[name]
        if not indices:
            grids[name] = _SparseGrid(shapes[name], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        elif name in HEATMAP_NAMES:
            grids[name] = _SparseGrid(shapes[name], *_max_composed(indices, values))
        elif name != "kp_refine_offset":
            grids[name] = _SparseGrid(shapes[name], *_last_written(indices, values))
        else:
            grids[name] = _SparseGrid(shapes[name], *_refine_offsets(scene.image_id, plane, indices, values))
    return HeadTensorSet(stride=stride, **grids)

