"""Synthetic scene generation and noisy test-time views.

Scenes are sampled on integer pixel coordinates so that encoding them at
stride 4 produces fractional offsets that are exact in float32 (all are
multiples of 1/4). With separation enforced, decode recovers every scene
bit for bit.

The noisy view builder perturbs encoder output the way a real detector
misbehaves: peak heights vary per object, some peaks vanish per view, and
jittered duplicate peaks appear with copied box regression. Regression and
landmark channels stay intact for dropped objects, mirroring a network that
still regresses sensibly where its center heatmap under-fires.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .categories import CategoryTable, default_table
from .encode import EncodeParams, _center_peak, encode_scene, render_gaussian
from .heads import HeadTensorSet
from .scene import (
    VIS_OCCLUDED,
    VIS_UNLABELED,
    VIS_VISIBLE,
    GroundTruthItem,
    Scene,
    _stride_padded,
    mirror_scene,
    scale_scene,
)

_PLACEMENT_ATTEMPTS = 200

# noisy_view_tensors' fixed noise model: peak heights, damped in rescaled views,
# and duplicates DUPLICATE_JITTER_CELLS off diagonally at a fraction of their object's height.
PEAK_HEIGHT_RANGE = (0.55, 1.0)
DUPLICATE_HEIGHT_RANGE = (0.6, 0.9)
DUPLICATE_JITTER_CELLS = 2
SCALE_DAMPING = 0.9


@dataclass(frozen=True)
class SynthParams:
    """What the synthetic scene sampler draws: image count and size, objects, boxes and landmark visibility.

    With separation on, objects are rejected until center cells sit at least
    2x the larger Gaussian radius apart and cell-space boxes keep a two-cell
    gap, and landmarks occupy distinct grid cells within each box, all in
    the default EncodeParams geometry. That is what makes encode -> decode exact.

    avoid_cell_boundaries keeps centers and landmarks off exact cell edges,
    where a mirrored view lands one cell over and tensor-space flip fusion
    would split the peak. Needed whenever views will be fused.
    """

    seed: int = 0
    num_images: int = 16
    image_width: int = 512
    image_height: int = 512
    min_objects: int = 1
    max_objects: int = 6
    min_box_size: int = 64
    max_box_size: int = 160
    keypoint_scatter: float = 512.0
    occlusion_prob: float = 0.0
    unlabeled_prob: float = 0.0
    min_visible: int = 0
    separation: bool = True
    avoid_cell_boundaries: bool = False

    def __post_init__(self):
        for name in ("occlusion_prob", "unlabeled_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.occlusion_prob + self.unlabeled_prob > 1.0:
            raise ValueError("occlusion_prob + unlabeled_prob must not exceed 1")
        if self.num_images < 0 or self.min_objects < 0:
            raise ValueError("counts must be non-negative")
        if self.min_objects > self.max_objects:
            raise ValueError("min_objects must not exceed max_objects")
        if not 0 < self.min_box_size <= self.max_box_size:
            raise ValueError("box size range must be positive and ordered")
        if self.image_width <= self.max_box_size or self.image_height <= self.max_box_size:
            raise ValueError("image must be larger than max_box_size")
        if not self.keypoint_scatter > 0:
            raise ValueError(f"keypoint_scatter must be positive, got {self.keypoint_scatter}")
        if self.min_visible < 0:
            raise ValueError("min_visible must be non-negative")


def _separated(box, placed, grid_h: int, grid_w: int, encoding: EncodeParams) -> tuple | None:
    """Return placement info if `box` keeps the taught distances, else None."""
    row, col, radius = _center_peak(box, grid_h, grid_w, encoding)
    cells = tuple(v // encoding.stride for v in box)
    for other_row, other_col, other_radius, other_cells in placed:
        dist = np.hypot(row - other_row, col - other_col)
        if dist < 2.0 * max(radius, other_radius) + 1.0:
            return None
        gap = 2
        if not (
            cells[2] + gap < other_cells[0]
            or other_cells[2] + gap < cells[0]
            or cells[3] + gap < other_cells[1]
            or other_cells[3] + gap < cells[1]
        ):
            return None
    return (row, col, radius, cells)


def _sample_landmark_cells(rng, box, stride: int, count: int, scatter: float) -> np.ndarray:
    """Pick `count` distinct grid cells inside the box, near its center first."""
    x1, y1, x2, y2 = box
    cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
    lo_col, hi_col = int(x1) // stride, int(x2) // stride
    lo_row, hi_row = int(y1) // stride, int(y2) // stride
    cols, rows = np.meshgrid(np.arange(lo_col, hi_col + 1), np.arange(lo_row, hi_row + 1))
    cols, rows = cols.ravel(), rows.ravel()
    centers_x = cols * stride + stride / 2
    centers_y = rows * stride + stride / 2
    near = np.flatnonzero((np.abs(centers_x - cx) <= scatter) & (np.abs(centers_y - cy) <= scatter))
    pool = near if near.size >= count else np.arange(cols.size)
    if pool.size < count:
        picked = rng.choice(pool, size=count, replace=True)
    else:
        picked = rng.choice(pool, size=count, replace=False)
    return np.stack([rows[picked], cols[picked]], axis=1)


def _off_boundary(vals: np.ndarray, lo, hi, stride: int) -> np.ndarray:
    """Nudge values off exact cell edges where the bounds allow it."""
    on_edge = vals % stride == 0
    return np.where(on_edge & (vals + 1 <= hi), vals + 1, np.where(on_edge & (vals - 1 >= lo), vals - 1, vals))


def _sample_visibility(rng, params: SynthParams, count: int) -> np.ndarray:
    draw = rng.random(count)
    vis = np.full(count, VIS_VISIBLE, dtype=np.float64)
    vis[draw < params.occlusion_prob + params.unlabeled_prob] = VIS_OCCLUDED
    vis[draw < params.unlabeled_prob] = VIS_UNLABELED
    if params.min_visible and params.occlusion_prob + params.unlabeled_prob < 1.0:
        shortfall = params.min_visible - int(np.sum(vis == VIS_VISIBLE))
        if shortfall > 0:
            demoted = np.flatnonzero(vis != VIS_VISIBLE)
            vis[demoted[:shortfall]] = VIS_VISIBLE
    return vis


def synth_scenes(params: SynthParams, table: CategoryTable | None = None) -> list[Scene]:
    """Deterministically sample scenes; same params give identical output."""
    table = table or default_table()
    rng = np.random.default_rng(params.seed)
    encoding = EncodeParams()
    stride = encoding.stride
    grid_w = -(-params.image_width // stride)
    grid_h = -(-params.image_height // stride)

    scenes = []
    for index in range(params.num_images):
        wanted = int(rng.integers(params.min_objects, params.max_objects + 1))
        placed: list[tuple] = []
        items = []
        for _ in range(wanted):
            for _attempt in range(_PLACEMENT_ATTEMPTS):
                w = int(rng.integers(params.min_box_size, params.max_box_size + 1))
                h = int(rng.integers(params.min_box_size, params.max_box_size + 1))
                x1 = int(rng.integers(0, params.image_width - w))
                y1 = int(rng.integers(0, params.image_height - h))
                if params.avoid_cell_boundaries:
                    if (2 * x1 + w) % (2 * stride) == 0:
                        x1 += 1 if x1 + 1 + w <= params.image_width - 1 else -1
                    if (2 * y1 + h) % (2 * stride) == 0:
                        y1 += 1 if y1 + 1 + h <= params.image_height - 1 else -1
                box = (x1, y1, x1 + w, y1 + h)
                if not params.separation:
                    info = None
                    break
                info = _separated(box, placed, grid_h, grid_w, encoding)
                if info is not None:
                    break
            else:
                break
            if params.separation:
                placed.append(info)

            category = int(rng.integers(1, len(table.specs) + 1))
            count = table.keypoint_count(category)
            if params.separation:
                cells = _sample_landmark_cells(rng, box, stride, count, params.keypoint_scatter)
                px_lo_x = np.maximum(cells[:, 1] * stride, box[0])
                px_hi_x = np.minimum(cells[:, 1] * stride + stride - 1, box[2])
                px_lo_y = np.maximum(cells[:, 0] * stride, box[1])
                px_hi_y = np.minimum(cells[:, 0] * stride + stride - 1, box[3])
                lx = rng.integers(px_lo_x, px_hi_x + 1)
                ly = rng.integers(px_lo_y, px_hi_y + 1)
                if params.avoid_cell_boundaries:
                    lx = _off_boundary(lx, px_lo_x, px_hi_x, stride)
                    ly = _off_boundary(ly, px_lo_y, px_hi_y, stride)
            else:
                cx, cy = (box[0] + box[2]) / 2, (box[1] + box[3]) / 2
                lo_x = int(max(box[0], np.ceil(cx - params.keypoint_scatter)))
                hi_x = int(min(box[2], np.floor(cx + params.keypoint_scatter)))
                lo_y = int(max(box[1], np.ceil(cy - params.keypoint_scatter)))
                hi_y = int(min(box[3], np.floor(cy + params.keypoint_scatter)))
                if hi_x < lo_x:
                    lo_x = hi_x = int(cx)
                if hi_y < lo_y:
                    lo_y = hi_y = int(cy)
                lx = rng.integers(lo_x, hi_x + 1, size=count)
                ly = rng.integers(lo_y, hi_y + 1, size=count)
                if params.avoid_cell_boundaries:
                    lx = _off_boundary(lx, lo_x, hi_x, stride)
                    ly = _off_boundary(ly, lo_y, hi_y, stride)
            vis = _sample_visibility(rng, params, count)
            landmarks = np.stack([lx.astype(np.float64), ly.astype(np.float64), vis], axis=1)
            items.append(GroundTruthItem(category_id=category, box=np.asarray(box, dtype=np.float64), landmarks=landmarks))

        scenes.append(
            Scene(
                image_id=f"synth-{params.seed:04d}-{index:04d}",
                width=params.image_width,
                height=params.image_height,
                items=tuple(items),
            )
        )
    return scenes


@dataclass(frozen=True)
class NoiseParams:
    """The seed and per-view rates of detector-style corruption; heights, jitter and damping are fixed above.

    Peak heights are drawn once per object and shared across views so that
    score ranking stays coherent; dropout and duplication are drawn
    independently per view, which is what gives flip and multiscale fusion
    something to recover.
    """

    seed: int = 0
    dropout_prob: float = 0.18
    duplicate_prob: float = 0.3

    def __post_init__(self):
        for name in ("dropout_prob", "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


def _stream(noise_seed: int, image_id: str, label: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([noise_seed, zlib.crc32(image_id.encode()), zlib.crc32(label.encode())]))


def _window(grid: np.ndarray, row: int, col: int, radius: float) -> np.ndarray:
    extent = int(radius)
    return grid[max(row - extent, 0) : row + extent + 1, max(col - extent, 0) : col + extent + 1]


def noisy_view_tensors(
    scene: Scene,
    table: CategoryTable,
    noise: NoiseParams,
    scale: float = 1.0,
    flipped: bool = False,
) -> HeadTensorSet:
    """Encode one corrupted test-time view of a scene.

    The view is the scene scaled, then mirrored with its width padded to a
    multiple of the stride (the mirror flip_tensors undoes), and encoded
    cleanly in the default EncodeParams geometry, after which per-object
    center peaks are rescaled, dropped, or duplicated. Each object's peak
    is found by the rule encode_scene places it with, so a box without
    area has its one-cell peak rescaled like any other. Regression channels
    for dropped objects are left in place so that tensor-space fusion of
    another view's surviving peak still decodes the right box.

    center, wh and center_offset come back as float32 arrays; the other
    tensors stay encode_scene's `heads._SparseGrid`s.
    """
    encoding = EncodeParams()
    view = scene
    if scale != 1.0:
        view = scale_scene(view, scale)
    if flipped:
        view = mirror_scene(_stride_padded(view, encoding.stride), table)
    tensors = encode_scene(view, table, encoding)
    # Writable copies of the three tensors edited below.
    tensors = replace(tensors, **{n: np.asarray(getattr(tensors, n)) for n in ("center", "wh", "center_offset")})

    heights = _stream(noise.seed, scene.image_id, "heights")
    base = heights.uniform(*PEAK_HEIGHT_RANGE, size=len(view.items))
    if scale != 1.0:
        base = base * SCALE_DAMPING

    drop_rng = _stream(noise.seed, scene.image_id, f"drop:{scale:g}:{int(flipped)}")
    dropped = drop_rng.random(len(view.items)) < noise.dropout_prob

    dup_rng = _stream(noise.seed, scene.image_id, f"dup:{scale:g}")
    duplicated = dup_rng.random(len(view.items)) < noise.duplicate_prob
    jitter = DUPLICATE_JITTER_CELLS * (2 * dup_rng.integers(0, 2, size=(len(view.items), 2)) - 1)
    dup_factor = dup_rng.uniform(*DUPLICATE_HEIGHT_RANGE, size=len(view.items))

    grid_h, grid_w = tensors.height, tensors.width
    geometry = []
    for i, item in enumerate(view.items):
        row, col, radius = _center_peak(item.box, grid_h, grid_w, encoding)
        channel = tensors.center[item.category_id - 1]
        geometry.append((row, col, radius, channel))
        window = _window(channel, row, col, radius)
        window *= 0.0 if dropped[i] else base[i]

    # Duplicate draws are shared by the two mirrored views of a scale so that
    # the copied regression values line up cell for cell after flip fusion;
    # the x jitter mirrors along with the view.
    for i, item in enumerate(view.items):
        if not duplicated[i]:
            continue
        row, col, radius, channel = geometry[i]
        jx = -int(jitter[i, 1]) if flipped else int(jitter[i, 1])
        dup_row, dup_col = row + int(jitter[i, 0]), col + jx
        if not (0 <= dup_row < grid_h and 0 <= dup_col < grid_w):
            continue
        tensors.wh[:, dup_row, dup_col] = tensors.wh[:, row, col]
        tensors.center_offset[:, dup_row, dup_col] = tensors.center_offset[:, row, col]
        if not dropped[i]:
            render_gaussian(channel, (dup_row, dup_col), radius, peak=float(base[i] * dup_factor[i]))
    return tensors
