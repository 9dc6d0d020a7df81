"""The six detection head tensors at one feature-map resolution.

Layout per tensor, channel-outermost [C][H][W]:
    center           [13]  per-category center heatmaps, values in [0, 1]
    wh               [2]   box width and height in feature cells
    center_offset    [2]   fractional center position (dx, dy) in [0, 1)
    kp_offset        [588] per global keypoint g: channels 2g, 2g+1 hold the
                           (dx, dy) from the object-center cell, in cells
    kp_heatmap       [294] per-keypoint heatmaps, values in [0, 1]
    kp_refine_offset [2]   fractional landmark position (dx, dy) in [0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import TOTAL_KEYPOINTS, CategoryTable

TENSOR_NAMES = ("center", "wh", "center_offset", "kp_offset", "kp_heatmap", "kp_refine_offset")


class TensorValidationError(ValueError):
    """Raised when a head tensor set fails validation; carries all issues."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


@dataclass(frozen=True)
class HeadTensorSet:
    stride: int
    center: np.ndarray
    wh: np.ndarray
    center_offset: np.ndarray
    kp_offset: np.ndarray
    kp_heatmap: np.ndarray
    kp_refine_offset: np.ndarray

    @property
    def height(self) -> int:
        return self.center.shape[1]

    @property
    def width(self) -> int:
        return self.center.shape[2]

    def named(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}


def new_head_tensors(height: int, width: int, stride: int, num_categories: int = 13) -> HeadTensorSet:
    """Allocate an all-zero, correctly shaped tensor set."""
    def grid(channels: int) -> np.ndarray:
        return np.zeros((channels, height, width), dtype=np.float32)

    return HeadTensorSet(
        stride=stride,
        center=grid(num_categories),
        wh=grid(2),
        center_offset=grid(2),
        kp_offset=grid(2 * TOTAL_KEYPOINTS),
        kp_heatmap=grid(TOTAL_KEYPOINTS),
        kp_refine_offset=grid(2),
    )


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple[str, ...]


def _expected_channels(table: CategoryTable) -> dict[str, int]:
    return {
        "center": len(table.specs),
        "wh": 2,
        "center_offset": 2,
        "kp_offset": 2 * TOTAL_KEYPOINTS,
        "kp_heatmap": TOTAL_KEYPOINTS,
        "kp_refine_offset": 2,
    }


def _first_cell(mask: np.ndarray) -> tuple[int, int, int]:
    c, r, col = np.unravel_index(int(np.flatnonzero(mask)[0]), mask.shape)
    return int(c), int(r), int(col)


def validate_head_tensors(tensors: HeadTensorSet, table: CategoryTable) -> ValidationResult:
    """Check channel counts, consistent spatial dims, and heatmap values.

    Heatmap values must be finite and lie in [0, 1], since decode reports
    them as scores.

    Returns a result listing every issue found (empty issue list means valid).
    """
    issues: list[str] = []
    expected = _expected_channels(table)
    shapes = {}
    for name in TENSOR_NAMES:
        grid = getattr(tensors, name)
        if not isinstance(grid, np.ndarray) or grid.ndim != 3:
            issues.append(f"{name}: expected a 3-d [C][H][W] array")
            continue
        shapes[name] = grid.shape
        if grid.shape[0] != expected[name]:
            issues.append(f"{name}: expected {expected[name]} channels, got {grid.shape[0]}")

    spatial = {shape[1:] for shape in shapes.values()}
    if len(spatial) > 1:
        detail = ", ".join(f"{name} {shapes[name][1]}x{shapes[name][2]}" for name in shapes)
        issues.append(f"spatial dimensions differ across tensors: {detail}")

    if tensors.stride < 1:
        issues.append(f"stride must be >= 1, got {tensors.stride}")

    # Finiteness and range of the heatmaps. min/max scan first; locating the
    # bad cell is only paid on the failure path.
    for name in ("center", "kp_heatmap"):
        grid = getattr(tensors, name)
        if name in shapes and grid.size:
            lo, hi = grid.min(), grid.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                c, r, col = _first_cell(~np.isfinite(grid))
                issues.append(f"{name}: non-finite value at channel {c}, cell ({r}, {col})")
            elif lo < 0 or hi > 1:
                c, r, col = _first_cell((grid < 0) | (grid > 1))
                issues.append(f"{name}: value {grid[c, r, col]:g} outside [0, 1] at channel {c}, cell ({r}, {col})")

    return ValidationResult(ok=not issues, issues=tuple(issues))


def require_valid(tensors: HeadTensorSet, table: CategoryTable) -> None:
    result = validate_head_tensors(tensors, table)
    if not result.ok:
        raise TensorValidationError(list(result.issues))
