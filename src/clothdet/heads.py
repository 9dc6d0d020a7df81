"""The six detection head tensors at one feature-map resolution.

Layout per tensor, channel-outermost [C][H][W]:
    center           [13]  per-category center heatmaps, values in [0, 1]
    wh               [2]   box width and height in feature cells
    center_offset    [2]   fractional center position (dx, dy) in [0, 1)
    kp_offset        [588] per global keypoint g: channels 2g, 2g+1 hold the
                           (dx, dy) from the object-center cell, in cells
    kp_heatmap       [294] per-keypoint heatmaps, values in [0, 1]
    kp_refine_offset [2]   fractional landmark position (dx, dy) in [0, 1)

A tensor is a dense array or a lazy grid (`_LazyGrid`), which reads the
cells given to its `gather`, reports its `shape`, `dtype` and `nbytes`,
and materialises on `np.asarray` or `reshape`. A `_SparseGrid` is the lazy
grid of a tensor held as its listed cells: (shape, strictly ascending flat
indices, float32 values), +0.0 elsewhere. encode_scene returns one for
every tensor, read_tensors one for every sparse block, and flip_tensors
and fuse_tensors keep heatmaps in that form. Validation, peak search,
flip, fuse and write_tensors read such a heatmap's listed cells alone, so
a sparse tensor is never scattered unless a caller asks for the whole
array. The regression tensors of flipped and fused sets are lazy grids
computed at the cells read. Grids are read-only: a caller that edits a
tensor takes `np.array(tensor)` and puts it in a new set with
`dataclasses.replace`.

`require_valid` is the one validation entry point. decode_scene calls it
on every set it decodes, infer on both views of a mirrored pair before
fusing them, and `clothdet fuse` on every input before any flip. It
checks channel counts, spatial dims, stride and the values of both
heatmaps, and raises `TensorValidationError` with every issue found. It
bounds a dense float32 heatmap through `_bit_fold`, the column maxima of
its bits folded up to 48 ways, and returns the folds so that decode finds
the landmark peak candidates without a second pass over the heatmap.
`clothdet fuse`, which writes every value it averages, also checks the
four regression tensors for non-finite values (`_regression_issues`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categories import TOTAL_KEYPOINTS, CategoryTable

TENSOR_NAMES = ("center", "wh", "center_offset", "kp_offset", "kp_heatmap", "kp_refine_offset")
# The tensors decode scans whole for peaks; the other four it reads only at picked cells.
HEATMAP_NAMES = ("center", "kp_heatmap")


class TensorValidationError(ValueError):
    """Raised when a head tensor set fails validation; carries all issues."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


class _LazyGrid:
    """A [C][H][W] grid whose values are computed only at the cells read.

    `gather(c, r, x)` takes integer index arrays that broadcast together and
    returns the values at those (channel, row, col) cells as a new array.
    `whole()` returns the whole grid as a new array, with the same values
    that gathering every cell would give; `np.asarray` and `reshape` call
    it.
    """

    ndim = 3

    def __init__(self, shape: tuple[int, int, int], dtype, gather, whole):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.gather = gather
        self.whole = whole

    @property
    def nbytes(self) -> int:
        return self.dtype.itemsize * self.shape[0] * self.shape[1] * self.shape[2]

    def __array__(self, dtype=None, copy=None):
        grid = self.whole()
        return grid if dtype is None else grid.astype(dtype, copy=False)

    def reshape(self, *shape) -> np.ndarray:
        return self.whole().reshape(*shape)


class _SparseGrid(_LazyGrid):
    """A float32 [C][H][W] grid held as its listed cells; every other value is +0.0.

    `indices` are strictly ascending flat indices into the C*H*W values and
    `values` the float32 values there. A listed value may itself be +0.0.
    `gather` binary-searches the indices; `np.asarray` scatters the values
    into a new writable array.
    """

    def __init__(self, shape: tuple[int, int, int], indices: np.ndarray, values: np.ndarray):
        self.shape = tuple(shape)
        self.dtype = np.dtype(np.float32)
        self.indices = indices
        self.values = values

    def at(self, flat: np.ndarray) -> np.ndarray:
        """The values at non-negative int64 flat indices, as a new float32 array of their shape."""
        out = np.zeros(flat.shape, dtype=np.float32)
        if len(self.indices):
            # In the indices' own dtype: searchsorted would otherwise convert them on every call.
            flat = flat.astype(self.indices.dtype, copy=False)
            at = np.minimum(np.searchsorted(self.indices, flat), len(self.indices) - 1)
            hit = self.indices[at] == flat
            out[hit] = self.values[at[hit]]
        return out

    def gather(self, c, r, x) -> np.ndarray:
        _, height, width = self.shape
        return self.at((np.asarray(c, dtype=np.int64) * height + r) * width + x)

    def whole(self) -> np.ndarray:
        flat = np.zeros(self.shape[0] * self.shape[1] * self.shape[2], dtype=np.float32)
        flat[self.indices] = self.values
        return flat.reshape(self.shape)


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
    return HeadTensorSet(
        stride=stride,
        **{
            name: np.zeros((channels, height, width), dtype=np.float32)
            for name, channels in _channel_counts(num_categories).items()
        },
    )


def _take(grid, c, r, x) -> np.ndarray:
    """Values of a dense or lazy grid at the broadcast (channel, row, col) cells."""
    return grid.gather(c, r, x) if isinstance(grid, _LazyGrid) else grid[c, r, x]


def _channel_counts(num_categories: int) -> dict[str, int]:
    return {
        "center": num_categories,
        "wh": 2,
        "center_offset": 2,
        "kp_offset": 2 * TOTAL_KEYPOINTS,
        "kp_heatmap": TOTAL_KEYPOINTS,
        "kp_refine_offset": 2,
    }


def _shape_issues(tensors: HeadTensorSet, num_categories: int) -> list[str]:
    """Issues with the channel counts, spatial dims and stride of the six tensors; reads no values."""
    issues: list[str] = []
    shapes = {}
    for name, channels in _channel_counts(num_categories).items():
        grid = getattr(tensors, name)
        if not isinstance(grid, (np.ndarray, _LazyGrid)) or grid.ndim != 3:
            issues.append(f"{name}: expected a 3-d [C][H][W] array")
            continue
        shapes[name] = grid.shape
        if grid.shape[0] != channels:
            issues.append(f"{name}: expected {channels} channels, got {grid.shape[0]}")

    spatial = {shape[1:] for shape in shapes.values()}
    if len(spatial) > 1:
        detail = ", ".join(f"{name} {shapes[name][1]}x{shapes[name][2]}" for name in shapes)
        issues.append(f"spatial dimensions differ across tensors: {detail}")

    if tensors.stride < 1:
        issues.append(f"stride must be >= 1, got {tensors.stride}")
    return issues


# The bits of float32 1.0; no other float32 in [+0.0, 1] has larger bits.
_ONE_BITS = 0x3F800000

# The most rows _bit_fold folds a heatmap into. Decode checks every row's
# cell in each column that a landmark candidate hits, so the work after the
# fold grows with the rows and the columns shrink with them: on 512x512
# views with about a thousand landmark cells above 0.1, folds of 21 to 64
# rows cost the least.
_FOLD_ROWS = 48


def _bit_fold(grid) -> np.ndarray | None:
    """Column maxima of a dense float32 heatmap's bits, or None for any other grid.

    The N values, read as uint32 in C order, are reshaped to (K, N / K) and
    reduced with max(axis=0), K being the largest divisor of N that is at
    most _FOLD_ROWS. The fold's max is the max of all the bits, and cell
    i lies in column i % (N / K). A sparse grid, another dtype or an empty
    grid has no fold.
    """
    if not (isinstance(grid, np.ndarray) and grid.ndim == 3 and grid.dtype == np.float32 and grid.size):
        return None
    rows = next(k for k in range(min(_FOLD_ROWS, grid.size), 0, -1) if grid.size % k == 0)
    return grid.view(np.uint32).reshape(rows, -1).max(axis=0)


def _heatmap_issue(name: str, grid, fold: np.ndarray | None) -> str | None:
    """The located issue with heatmap `name`'s values, or None when all are finite and in [0, 1].

    `fold` is the grid's _bit_fold. Heatmap values must be finite and lie
    in [0, 1], since decode reports them as scores. A dense float32 heatmap
    is checked with one max() over its fold, and a `_SparseGrid` with one
    max() over the bits of its listed values, since every other value is
    +0.0: read as uint32, +0.0 is 0 and 1.0 is 0x3F800000, every value in
    (0, 1] lies between, and -0.0, negative values, infinities and NaN all
    lie above. A larger maximum, or another dtype, falls back to a scan
    that accepts -0.0 and locates the first bad cell for the message. A
    grid that is not a 3-d array or `_SparseGrid` has no values to check
    here.
    """
    sparse = isinstance(grid, _SparseGrid)
    if not (sparse or isinstance(grid, np.ndarray) and grid.ndim == 3):
        return None
    values = grid.values if sparse else grid
    if fold is None and values.dtype == np.float32:
        fold = values.view(np.uint32)  # the bits themselves: a fold of one row
    if not values.size or fold is not None and fold.max() <= _ONE_BITS:
        return None
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return _finite_issue(name, grid)
    if lo >= 0 and hi <= 1:
        return None
    values = values.reshape(-1)
    i = int(np.argmax((values < 0) | (values > 1)))
    c, r, col = _cell(grid, i)
    return f"{name}: value {values[i]:g} outside [0, 1] at channel {c}, cell ({r}, {col})"


def _cell(grid, i: int) -> tuple[int, int, int]:
    """(channel, row, col) of a dense grid's i-th value in C order, or of a `_SparseGrid`'s i-th listed value."""
    flat = int(grid.indices[i]) if isinstance(grid, _SparseGrid) else i
    return tuple(int(v) for v in np.unravel_index(flat, grid.shape))


def _finite_issue(name: str, grid) -> str | None:
    """The located issue with the first non-finite value of a dense array or `_SparseGrid`, or None.

    A `_SparseGrid` is checked through its listed values, read in place,
    since every other value is +0.0; a dense array is read in place too.
    """
    values = (grid.values if isinstance(grid, _SparseGrid) else grid).reshape(-1)
    finite = np.isfinite(values)
    if finite.all():
        return None
    c, r, col = _cell(grid, int(np.argmin(finite)))
    return f"{name}: non-finite value at channel {c}, cell ({r}, {col})"


def _regression_issues(tensors: HeadTensorSet) -> list[str]:
    """The located non-finite value, if any, of each regression tensor: dense arrays or `_SparseGrid`s.

    require_valid checks only the heatmaps' values, and decode reads the
    regression tensors only at the cells it picks. `clothdet fuse` averages
    and writes every value, so it checks these too.
    """
    issues = (_finite_issue(name, getattr(tensors, name)) for name in TENSOR_NAMES if name not in HEATMAP_NAMES)
    return [issue for issue in issues if issue is not None]


def require_valid(tensors: HeadTensorSet, table: CategoryTable) -> dict[str, np.ndarray | None]:
    """Check channel counts, consistent spatial dims, stride and heatmap values (see _heatmap_issue).

    Returns:
        The bit fold of `center` and of `kp_heatmap` (see _bit_fold), by
        name: None for a sparse, non-float32 or malformed heatmap.

    Raises:
        TensorValidationError: listing every issue found in `.issues`, the
            shape issues first, then those of `center` and `kp_heatmap`.
    """
    issues = _shape_issues(tensors, len(table.specs))
    folds = {}
    for name in HEATMAP_NAMES:
        grid = getattr(tensors, name)
        folds[name] = _bit_fold(grid)
        issue = _heatmap_issue(name, grid, folds[name])
        if issue is not None:
            issues.append(issue)
    if issues:
        raise TensorValidationError(issues)
    return folds
