"""Annotation-side domain types: scenes, ground-truth items, detections.

Boxes are (4,) float arrays in corner form [x1, y1, x2, y2], pixels.
Landmark arrays are (K, 3): columns x, y, then visibility for ground truth
(0 unlabeled, 1 occluded, 2 visible) or confidence in [0, 1] for detections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .categories import CategoryTable

VIS_UNLABELED = 0
VIS_OCCLUDED = 1
VIS_VISIBLE = 2


class SceneError(ValueError):
    """Raised when a scene does not match the category table."""


def _as_box(box) -> np.ndarray:
    out = np.asarray(box, dtype=np.float64)
    if out.shape != (4,):
        raise SceneError(f"box must have four corner values, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class GroundTruthItem:
    category_id: int
    box: np.ndarray
    landmarks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        lm = np.asarray(self.landmarks, dtype=np.float64)
        if lm.ndim != 2 or lm.shape[1] != 3:
            raise SceneError(f"landmarks must be (K, 3), got shape {lm.shape}")
        object.__setattr__(self, "landmarks", lm)


@dataclass(frozen=True)
class Scene:
    image_id: str
    width: int
    height: int
    items: tuple[GroundTruthItem, ...]


@dataclass(frozen=True)
class Detection:
    category_id: int
    score: float
    box: np.ndarray
    landmarks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "box", _as_box(self.box))
        lm = np.asarray(self.landmarks, dtype=np.float64)
        if lm.size == 0:
            lm = lm.reshape(0, 3)
        if lm.ndim != 2 or lm.shape[1] != 3:
            raise SceneError(f"landmarks must be (K, 3), got shape {lm.shape}")
        object.__setattr__(self, "landmarks", lm)


def box_area(box: np.ndarray) -> float:
    return float(max(0.0, box[2] - box[0]) * max(0.0, box[3] - box[1]))


def validate_scene(scene: Scene, table: CategoryTable) -> None:
    """Check every item against the table (category known, landmark counts match).

    Raises:
        SceneError: naming the offending item.
    """
    for idx, item in enumerate(scene.items):
        if not 1 <= item.category_id <= len(table.specs):
            raise SceneError(f"item {idx} of image {scene.image_id!r}: unknown category {item.category_id}")
        expected = table.keypoint_count(item.category_id)
        if item.landmarks.shape[0] != expected:
            raise SceneError(
                f"item {idx} of image {scene.image_id!r}: category {item.category_id} "
                f"needs {expected} landmarks, got {item.landmarks.shape[0]}"
            )
        if item.box[0] > item.box[2] or item.box[1] > item.box[3]:
            raise SceneError(f"item {idx} of image {scene.image_id!r}: box corners out of order")


def clamp_scene(scene: Scene) -> tuple[Scene, int]:
    """Clamp all boxes and landmark positions into [0, width] x [0, height].

    Returns the clamped scene and the number of items whose coordinates moved.
    """
    clamped = []
    moved = 0
    for item in scene.items:
        box = np.clip(item.box, [0, 0, 0, 0], [scene.width, scene.height, scene.width, scene.height])
        lm = item.landmarks.copy()
        lm[:, 0] = np.clip(lm[:, 0], 0, scene.width)
        lm[:, 1] = np.clip(lm[:, 1], 0, scene.height)
        if not (np.array_equal(box, item.box) and np.array_equal(lm, item.landmarks)):
            moved += 1
        clamped.append(GroundTruthItem(item.category_id, box, lm))
    return replace(scene, items=tuple(clamped)), moved


def scale_scene(scene: Scene, scale: float) -> Scene:
    """Scale all coordinates and the image size by a positive factor."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    items = []
    for item in scene.items:
        lm = item.landmarks.copy()
        lm[:, :2] *= scale
        items.append(GroundTruthItem(item.category_id, item.box * scale, lm))
    width = scene.width * scale
    height = scene.height * scale
    if abs(width - round(width)) > 1e-9 or abs(height - round(height)) > 1e-9:
        raise ValueError(f"scale {scale} does not keep image size integral")
    return Scene(scene.image_id, int(round(width)), int(round(height)), tuple(items))


def _stride_padded(scene: Scene, stride: int) -> Scene:
    """The scene with its width padded up to a multiple of the stride, as encode pads its grid.

    A mirrored view is the mirror of this image: x -> Wg*stride - x on a grid
    of Wg columns is what flip_tensors undoes (column c -> Wg-1-c), while
    mirroring about an unpadded width would shift every unflipped peak.
    """
    return replace(scene, width=-(-scene.width // stride) * stride)


def mirror_scene(scene: Scene, table: CategoryTable) -> Scene:
    """Mirror a scene horizontally, swapping landmarks within flip pairs.

    x maps to width - x; box corners swap to stay in corner order. Landmark
    rows are exchanged within each configured symmetry pair so the mirrored
    annotation stays semantically consistent.
    """
    items = []
    for item in scene.items:
        x1, y1, x2, y2 = item.box
        box = np.array([scene.width - x2, y1, scene.width - x1, y2])
        offset = table.spec(item.category_id).global_offset
        count = item.landmarks.shape[0]
        lm = item.landmarks[table.flip_perm[offset : offset + count] - offset]
        lm[:, 0] = scene.width - lm[:, 0]
        items.append(GroundTruthItem(item.category_id, box, lm))
    return replace(scene, items=tuple(items))
