"""Seeded inputs for the four workloads, written to a directory.

This runs in its own process, so that building views and writing containers
sets neither the workload process's peak RSS nor its set-up time. Every
input is a function of the seed alone.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from clothdet import (
    TENSOR_NAMES,
    Detection,
    NoiseParams,
    SynthParams,
    default_table,
    encode_scene,
    load_category_table,
    mirror_scene,
    noisy_view_tensors,
    scale_scene,
    synth_scenes,
    write_detections,
    write_scenes,
    write_tensors,
)
from workloads import FLIP_TABLE, TTA_SCALES, view_file

# Distinct images per workload. Timed rounds cycle through the pool; its size
# bounds the disk and memory the inputs take and the spread of mAP between seeds.
SERVE_POOL = 200
SERVE_CLEAN = 4
TTA_POOL = 24
TTA_CLEAN = 3
TTA_CLEAN_CANDIDATES = 30
ENCODE_POOL = 48
EVAL_IMAGES = 1000
EVAL_WARMUP_IMAGES = 20


def flip_table():
    return load_category_table(FLIP_TABLE.read_text("utf-8"))


def serve_scenes(seed: int, count: int, table) -> list:
    params = SynthParams(
        seed=seed, num_images=count, image_width=512, image_height=512,
        min_objects=6, max_objects=12, min_box_size=48, max_box_size=112,
    )
    return synth_scenes(params, table)


def tta_scenes(seed: int, count: int, table) -> list:
    params = SynthParams(
        seed=seed, num_images=count, image_width=256, image_height=256,
        min_objects=2, max_objects=4, min_box_size=48, max_box_size=96, avoid_cell_boundaries=True,
    )
    return synth_scenes(params, table)


def _sparse(tensors) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero flat indices and values of the six tensors stacked along channels."""
    indices, values, base = [], [], 0
    for name in TENSOR_NAMES:
        flat = getattr(tensors, name).reshape(-1)
        idx = np.flatnonzero(flat != 0)
        indices.append(idx + base)
        values.append(flat[idx])
        base += flat.size
    return np.concatenate(indices), np.concatenate(values)


def _write_sparse(path: Path, views) -> None:
    """Store views as nonzeros; `views` is consumed one at a time, never all held at once."""
    pairs, grid = [], None
    for view in views:
        pairs.append(_sparse(view))
        grid = (view.height, view.width, view.stride)
    np.savez(
        path,
        idx=np.concatenate([i for i, _ in pairs]),
        val=np.concatenate([v for _, v in pairs]),
        starts=np.cumsum([0] + [len(i) for i, _ in pairs]),
        grid=np.array(grid),
    )


def gen_serve(seed: int, out: Path) -> None:
    table = default_table()
    scenes = serve_scenes(seed, SERVE_POOL + SERVE_CLEAN, table)
    pool, clean = scenes[:SERVE_POOL], scenes[SERVE_POOL:]
    noise = NoiseParams(seed=seed)
    _write_sparse(out / "views.npz", (noisy_view_tensors(s, table, noise) for s in pool))
    _write_sparse(out / "clean_views.npz", (encode_scene(s, table) for s in clean))
    write_scenes(out / "scenes.json", pool)
    write_scenes(out / "clean_scenes.json", clean)


def _write_views(scene, table, directory: Path, noise: NoiseParams | None) -> None:
    directory.mkdir(parents=True)
    for scale in TTA_SCALES:
        for flipped in (False, True):
            if noise is None:
                view = scene if scale == 1.0 else scale_scene(scene, scale)
                tensors = encode_scene(mirror_scene(view, table) if flipped else view, table)
            else:
                tensors = noisy_view_tensors(scene, table, noise, scale, flipped)
            write_tensors(directory / view_file(scene.image_id, scale, flipped), tensors)


def off_boundary(scene, stride: int = 4) -> bool:
    """Whether no box center and no landmark of the scene lies on a cell edge."""
    for item in scene.items:
        coords = [(item.box[0] + item.box[2]) / 2, (item.box[1] + item.box[3]) / 2]
        coords += item.landmarks[:, :2].reshape(-1).tolist()
        if any(v % stride == 0 for v in coords):
            return False
    return True


def gen_tta(seed: int, out: Path) -> None:
    table = flip_table()
    scenes = tta_scenes(seed, TTA_POOL + TTA_CLEAN_CANDIDATES, table)
    pool = scenes[:TTA_POOL]
    # avoid_cell_boundaries leaves some landmarks on a cell edge (see
    # CHANGES.md); exact flip roundtrip holds only for scenes that have none.
    clean = [s for s in scenes[TTA_POOL:] if off_boundary(s)][:TTA_CLEAN]
    if not clean:
        raise RuntimeError(f"seed {seed}: no off-boundary scene among {TTA_CLEAN_CANDIDATES} candidates")
    noise = NoiseParams(seed=seed)
    for scene in pool:
        _write_views(scene, table, out / "pool" / scene.image_id, noise)
    for scene in clean:
        _write_views(scene, table, out / "clean" / scene.image_id, None)
    write_scenes(out / "scenes.json", pool)
    write_scenes(out / "clean_scenes.json", clean)


def gen_encode(seed: int, out: Path) -> None:
    table = default_table()
    scenes = synth_scenes(SynthParams(seed=seed, num_images=ENCODE_POOL, image_width=512, image_height=512), table)
    (out / "scenes").mkdir()
    for k, scene in enumerate(scenes):
        write_scenes(out / "scenes" / f"{k:04d}.json", [scene])


def detector_like(scenes: list, table, rng: np.random.Generator) -> dict[str, list[Detection]]:
    """Detections with the errors of a real detector, sized to land near the paper's mAPs.

    Per object: a miss, or a hit with jittered box and landmarks, sometimes
    of the wrong category, sometimes duplicated at a lower score. Per image:
    a few spurious low-score boxes. Landmark confidences are random.
    """
    categories = len(table.specs)

    def landmarks_for(category: int, box: np.ndarray, base: np.ndarray | None) -> np.ndarray:
        count = table.keypoint_count(category)
        out = np.empty((count, 3))
        if base is None or base.shape[0] != count:
            out[:, 0] = rng.uniform(box[0], box[2], size=count)
            out[:, 1] = rng.uniform(box[1], box[3], size=count)
        else:
            size = np.sqrt(max((box[2] - box[0]) * (box[3] - box[1]), 1.0))
            out[:, :2] = base[:, :2] + rng.normal(0.0, 0.023 * size, size=(count, 2))
        out[:, 2] = rng.uniform(0.0, 1.0, size=count)
        return out

    def hit(item, score: float) -> Detection:
        category = item.category_id
        if rng.random() < 0.05:
            category = int(rng.integers(1, categories + 1))
        w, h = item.box[2] - item.box[0], item.box[3] - item.box[1]
        box = item.box + rng.normal(0.0, 0.02, size=4) * np.array([w, h, w, h])
        box = np.array([min(box[0], box[2]), min(box[1], box[3]), max(box[0], box[2]), max(box[1], box[3])])
        return Detection(category_id=category, score=score, box=box, landmarks=landmarks_for(category, box, item.landmarks))

    out = {}
    for scene in scenes:
        dets = []
        for item in scene.items:
            if rng.random() < 0.08:
                continue
            score = float(rng.uniform(0.3, 1.0))
            dets.append(hit(item, score))
            if rng.random() < 0.25:
                dets.append(hit(item, score * float(rng.uniform(0.3, 0.9))))
        for _ in range(int(rng.poisson(0.8))):
            category = int(rng.integers(1, categories + 1))
            x1, y1 = rng.uniform(0, scene.width - 64), rng.uniform(0, scene.height - 64)
            box = np.array([x1, y1, x1 + rng.uniform(16, 64), y1 + rng.uniform(16, 64)])
            dets.append(Detection(category_id=category, score=float(rng.uniform(0.05, 0.6)), box=box,
                                  landmarks=landmarks_for(category, box, None)))
        out[scene.image_id] = dets
    return out


def eval_scenes(seed: int, count: int, table) -> list:
    params = SynthParams(
        seed=seed, num_images=count, image_width=256, image_height=256, min_objects=1, max_objects=4,
        min_box_size=32, max_box_size=96, occlusion_prob=0.2, unlabeled_prob=0.1, separation=False,
    )
    return synth_scenes(params, table)


def gen_eval(seed: int, out: Path) -> None:
    table = default_table()
    rng = np.random.default_rng([seed, 1])
    for prefix, count, stream in (("", EVAL_IMAGES, seed), ("warmup_", EVAL_WARMUP_IMAGES, seed + 1_000_000)):
        scenes = eval_scenes(stream, count, table)
        write_scenes(out / f"{prefix}scenes.json", scenes)
        write_detections(out / f"{prefix}detections.json", detector_like(scenes, table, rng))
    (out / "eval_images.txt").write_text(str(EVAL_IMAGES), "utf-8")


GENERATORS = {"serve_single": gen_serve, "tta_files": gen_tta, "encode_files": gen_encode, "eval_dataset": gen_eval}


def generate(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](seed, out)
