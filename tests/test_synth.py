import numpy as np
import pytest

from clothdet import (
    EncodeParams,
    NoiseParams,
    SynthParams,
    encode_scene,
    gaussian_radius,
    noisy_view_tensors,
    synth_scenes,
)
from clothdet.scene import scale_scene, validate_scene
from clothdet.synth import DUPLICATE_JITTER_CELLS, PEAK_HEIGHT_RANGE, SCALE_DAMPING

GEOMETRY = EncodeParams()


def center_cells(scene):
    """(row, col, radius) of each item's center peak in the default encoder geometry."""
    stride = GEOMETRY.stride
    grid_h, grid_w = -(-scene.height // stride), -(-scene.width // stride)
    cells = []
    for item in scene.items:
        x1, y1, x2, y2 = item.box
        radius = gaussian_radius((x2 - x1) / stride, (y2 - y1) / stride, GEOMETRY.min_overlap)
        row, col = min(int((y1 + y2) / 2 / stride), grid_h - 1), min(int((x1 + x2) / 2 / stride), grid_w - 1)
        cells.append((row, col, radius))
    return cells


def scenes_equal(a, b):
    if [s.image_id for s in a] != [s.image_id for s in b]:
        return False
    for sa, sb in zip(a, b):
        if (sa.width, sa.height) != (sb.width, sb.height) or len(sa.items) != len(sb.items):
            return False
        for ia, ib in zip(sa.items, sb.items):
            if ia.category_id != ib.category_id:
                return False
            if not (np.array_equal(ia.box, ib.box) and np.array_equal(ia.landmarks, ib.landmarks)):
                return False
    return True


class TestSynthScenes:
    def test_deterministic(self, table):
        params = SynthParams(seed=42, num_images=6, occlusion_prob=0.2, unlabeled_prob=0.1)
        assert scenes_equal(synth_scenes(params, table), synth_scenes(params, table))

    def test_seed_changes_output(self, table):
        a = synth_scenes(SynthParams(seed=1, num_images=4), table)
        b = synth_scenes(SynthParams(seed=2, num_images=4), table)
        assert not scenes_equal(a, b)

    def test_zero_objects(self, table):
        scenes = synth_scenes(SynthParams(seed=0, num_images=3, min_objects=0, max_objects=0), table)
        assert len(scenes) == 3
        assert all(s.items == () for s in scenes)

    def test_full_occlusion(self, table):
        scenes = synth_scenes(SynthParams(seed=3, num_images=4, occlusion_prob=1.0), table)
        vis = np.concatenate([i.landmarks[:, 2] for s in scenes for i in s.items])
        assert set(np.unique(vis)) <= {0.0, 1.0}
        assert not (vis == 2).any()

    def test_full_unlabeled(self, table):
        scenes = synth_scenes(SynthParams(seed=3, num_images=4, unlabeled_prob=1.0), table)
        vis = np.concatenate([i.landmarks[:, 2] for s in scenes for i in s.items])
        assert (vis == 0).all()

    def test_min_visible_floor(self, table):
        params = SynthParams(seed=4, num_images=6, occlusion_prob=0.9, min_visible=5)
        for scene in synth_scenes(params, table):
            for item in scene.items:
                assert int(np.sum(item.landmarks[:, 2] == 2)) >= 5

    def test_scenes_are_valid(self, table):
        params = SynthParams(seed=5, num_images=8, occlusion_prob=0.3, unlabeled_prob=0.1)
        for scene in synth_scenes(params, table):
            validate_scene(scene, table)
            for item in scene.items:
                x1, y1, x2, y2 = item.box
                assert 0 <= x1 < x2 <= scene.width and 0 <= y1 < y2 <= scene.height
                assert params.min_box_size <= x2 - x1 <= params.max_box_size
                assert params.min_box_size <= y2 - y1 <= params.max_box_size
                assert (item.landmarks[:, 0] >= x1).all() and (item.landmarks[:, 0] <= x2).all()
                assert (item.landmarks[:, 1] >= y1).all() and (item.landmarks[:, 1] <= y2).all()

    def test_integer_coordinates(self, table):
        for scene in synth_scenes(SynthParams(seed=6, num_images=4), table):
            for item in scene.items:
                assert np.array_equal(item.box, np.round(item.box))
                assert np.array_equal(item.landmarks[:, :2], np.round(item.landmarks[:, :2]))

    def test_separation_distances(self, table):
        params = SynthParams(seed=7, num_images=6, min_objects=3, max_objects=6)
        for scene in synth_scenes(params, table):
            centers = center_cells(scene)
            for i, (r1, c1, rad1) in enumerate(centers):
                for r2, c2, rad2 in centers[i + 1:]:
                    assert np.hypot(r1 - r2, c1 - c2) >= 2 * max(rad1, rad2) + 1

    def test_landmarks_occupy_distinct_cells(self, table):
        for scene in synth_scenes(SynthParams(seed=8, num_images=4), table):
            for item in scene.items:
                cells = {(int(y // 4), int(x // 4)) for x, y in item.landmarks[:, :2]}
                assert len(cells) == len(item.landmarks)

    def test_avoid_cell_boundaries(self, table):
        params = SynthParams(seed=9, num_images=6, avoid_cell_boundaries=True)
        stride = GEOMETRY.stride
        for scene in synth_scenes(params, table):
            for item in scene.items:
                x1, y1, x2, y2 = item.box
                assert (x1 + x2) % (2 * stride) != 0
                assert (y1 + y2) % (2 * stride) != 0
                # Landmarks leave cell edges unless pinned in a collapsed
                # single-pixel window at the box edge.
                for x, y, _ in item.landmarks:
                    if x % stride == 0:
                        assert x == x2 and x2 % stride == 0
                    if y % stride == 0:
                        assert y == y2 and y2 % stride == 0

    def test_keypoint_scatter_limits_spread(self, table):
        params = SynthParams(seed=10, num_images=4, keypoint_scatter=40.0)
        for scene in synth_scenes(params, table):
            for item in scene.items:
                cx = (item.box[0] + item.box[2]) / 2
                cy = (item.box[1] + item.box[3]) / 2
                assert (np.abs(item.landmarks[:, 0] - cx) <= 40 + GEOMETRY.stride).all()
                assert (np.abs(item.landmarks[:, 1] - cy) <= 40 + GEOMETRY.stride).all()

    def test_image_ids_are_unique_and_seeded(self, table):
        scenes = synth_scenes(SynthParams(seed=12, num_images=3), table)
        assert [s.image_id for s in scenes] == ["synth-0012-0000", "synth-0012-0001", "synth-0012-0002"]

    @pytest.mark.parametrize("kwargs", [
        {"occlusion_prob": -0.1},
        {"occlusion_prob": 0.8, "unlabeled_prob": 0.3},
        {"num_images": -1},
        {"min_objects": 4, "max_objects": 2},
        {"min_box_size": 0},
        {"min_box_size": 96, "max_box_size": 64},
        {"image_width": 128, "max_box_size": 160},
        {"keypoint_scatter": 0.0},
        {"keypoint_scatter": float("nan")},
        {"min_visible": -1},
    ])
    def test_param_validation(self, kwargs):
        with pytest.raises(ValueError):
            SynthParams(**kwargs)


class TestNoisyViews:
    def test_deterministic(self, table):
        scene = synth_scenes(SynthParams(seed=20, num_images=1, min_objects=3, max_objects=3), table)[0]
        noise = NoiseParams(seed=4)
        a = noisy_view_tensors(scene, table, noise)
        b = noisy_view_tensors(scene, table, noise)
        for name, grid in a.named().items():
            np.testing.assert_array_equal(b.named()[name], grid, err_msg=name)

    def test_clean_settings_reproduce_encoder(self, table):
        scene = synth_scenes(SynthParams(seed=21, num_images=1, min_objects=2, max_objects=3), table)[0]
        noise = NoiseParams(seed=0, dropout_prob=0.0, duplicate_prob=0.0)
        noisy = noisy_view_tensors(scene, table, noise)
        clean = encode_scene(scene, table)
        for name, grid in clean.named().items():
            if name != "center":
                np.testing.assert_array_equal(noisy.named()[name], grid, err_msg=name)
        # Each object's peak window is the encoder's, scaled by one height.
        clean_center = np.asarray(clean.center)
        heights = []
        for item, (row, col, radius) in zip(scene.items, center_cells(scene)):
            extent = int(radius)
            window = (item.category_id - 1, slice(max(row - extent, 0), row + extent + 1),
                      slice(max(col - extent, 0), col + extent + 1))
            assert clean_center[item.category_id - 1, row, col] == 1.0
            height = float(noisy.center[item.category_id - 1, row, col])
            np.testing.assert_allclose(noisy.center[window], clean_center[window] * height, rtol=1e-6)
            heights.append(height)
        lo, hi = PEAK_HEIGHT_RANGE
        assert all(np.float32(lo) <= h <= np.float32(hi) for h in heights)
        assert len(set(heights)) == len(heights) > 1
        assert not noisy.center[clean_center == 0].any()

    def test_full_dropout_erases_peaks_but_not_regression(self, table):
        scene = synth_scenes(SynthParams(seed=22, num_images=1, min_objects=2, max_objects=3), table)[0]
        noise = NoiseParams(seed=1, dropout_prob=1.0, duplicate_prob=0.0)
        noisy = noisy_view_tensors(scene, table, noise)
        clean = encode_scene(scene, table)
        assert not noisy.center.any()
        np.testing.assert_array_equal(noisy.wh, clean.wh)
        np.testing.assert_array_equal(noisy.center_offset, clean.center_offset)
        np.testing.assert_array_equal(noisy.kp_heatmap, clean.kp_heatmap)

    def test_peak_heights_rescaled(self, table):
        # An object's height lies in PEAK_HEIGHT_RANGE, and a rescaled view damps it by SCALE_DAMPING.
        scene = synth_scenes(SynthParams(seed=23, num_images=1, min_objects=2, max_objects=2), table)[0]
        noise = NoiseParams(seed=2, dropout_prob=0.0, duplicate_prob=0.0)
        plain = noisy_view_tensors(scene, table, noise)
        scaled = noisy_view_tensors(scene, table, noise, scale=0.75)
        lo, hi = PEAK_HEIGHT_RANGE
        for item, (row, col, _), (s_row, s_col, _) in zip(
            scene.items, center_cells(scene), center_cells(scale_scene(scene, 0.75))
        ):
            height = float(plain.center[item.category_id - 1, row, col])
            assert np.float32(lo) <= height <= np.float32(hi)
            damped = float(scaled.center[item.category_id - 1, s_row, s_col])
            assert damped == pytest.approx(height * SCALE_DAMPING, rel=1e-6)

    def test_duplicates_copy_regression(self, table):
        scene = synth_scenes(SynthParams(seed=24, num_images=1, min_objects=2, max_objects=2), table)[0]
        noise = NoiseParams(seed=3, dropout_prob=0.0, duplicate_prob=1.0)
        noisy = noisy_view_tensors(scene, table, noise)
        clean = encode_scene(scene, table)
        jitter = DUPLICATE_JITTER_CELLS
        for row, col, _ in center_cells(scene):
            near = noisy.wh[:, max(row - jitter, 0):row + jitter + 1, max(col - jitter, 0):col + jitter + 1]
            target = clean.wh[:, row, col].reshape(2, 1, 1)
            assert (np.abs(near - target) < 1e-6).all(axis=0).sum() >= 2

    def test_noise_param_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(dropout_prob=1.2)
