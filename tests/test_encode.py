import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothdet import (
    EncodeParams,
    GroundTruthItem,
    SynthParams,
    encode_scene,
    gaussian_radius,
    mirror_scene,
    new_head_tensors,
    read_tensors,
    render_gaussian,
    require_valid,
    scale_scene,
    synth_scenes,
    write_tensors,
)
from clothdet.heads import _SparseGrid
from conftest import make_item, make_scene


def _bisect_radius(iou_of_r, overlap, hi):
    """Radius where a monotonically decreasing IoU curve crosses `overlap`."""
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if iou_of_r(mid) >= overlap:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def radius_oracle(w, h, overlap):
    """Independent radius: bisect the IoU curve of each jitter case directly."""

    def translated(r):
        inter = max(w - r, 0.0) * max(h - r, 0.0)
        return inter / (2 * w * h - inter)

    def shrunk(r):
        return max(w - 2 * r, 0.0) * max(h - 2 * r, 0.0) / (w * h)

    def grown(r):
        return w * h / ((w + 2 * r) * (h + 2 * r))

    # Wide enough that every curve has crossed below `overlap` at hi.
    hi = max(w, h) + math.sqrt(w * h / overlap)
    return min(_bisect_radius(f, overlap, hi) for f in (translated, shrunk, grown))


@pytest.mark.parametrize("w,h,overlap", [
    (10, 10, 0.7),
    (4, 6, 0.7),
    (25, 3, 0.5),
    (3, 25, 0.5),
    (100, 80, 0.9),
    (1.5, 1.5, 0.3),
    (40, 40, 0.05),
])
def test_gaussian_radius_matches_bisection_oracle(w, h, overlap):
    assert gaussian_radius(w, h, overlap) == pytest.approx(radius_oracle(w, h, overlap), abs=1e-9)


def test_gaussian_radius_pinned_value():
    # Derived once from the bisection oracle above and frozen.
    assert gaussian_radius(10, 10, 0.7) == pytest.approx(0.8167, abs=5e-5)


def test_gaussian_radius_integer_shift_bracket():
    # Largest whole-cell x-shift of a 10x10 box that keeps IoU >= 0.7.
    def shift_iou(r):
        inter = (10 - r) * 10
        return inter / (200 - inter)

    largest = max(r for r in range(11) if shift_iou(r) >= 0.7)
    radius = gaussian_radius(10, 10, 0.7)
    assert largest - 1 < radius <= largest


def test_gaussian_radius_monotonicity():
    assert gaussian_radius(20, 20, 0.7) > gaussian_radius(10, 10, 0.7)
    # Stricter overlap demands a smaller radius.
    assert gaussian_radius(10, 10, 0.9) < gaussian_radius(10, 10, 0.7)


def test_gaussian_radius_degenerate_box_tends_to_zero():
    assert gaussian_radius(1e-6, 1e-6, 0.7) == pytest.approx(0.0, abs=1e-6)


def test_gaussian_radius_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_radius(0, 10, 0.7)
    with pytest.raises(ValueError):
        gaussian_radius(10, -1, 0.7)
    with pytest.raises(ValueError):
        gaussian_radius(10, 10, 1.0)
    with pytest.raises(ValueError):
        gaussian_radius(10, 10, 0.0)


def test_render_radius_zero_sets_single_cell():
    grid = np.zeros((9, 9), dtype=np.float32)
    render_gaussian(grid, (4, 4), 0.0)
    assert grid[4, 4] == 1.0
    assert np.count_nonzero(grid) == 1


def test_render_peak_is_exactly_one():
    grid = np.zeros((31, 31), dtype=np.float32)
    render_gaussian(grid, (15, 15), 6.0)
    assert grid[15, 15] == 1.0
    assert grid.max() == 1.0


def test_render_value_at_three_sigma():
    # radius 6 -> sigma 2, so distance 6 is 3 sigma: exp(-4.5).
    grid = np.zeros((31, 31), dtype=np.float64)
    render_gaussian(grid, (15, 15), 6.0)
    assert grid[15, 21] == pytest.approx(math.exp(-4.5), rel=1e-12)
    assert grid[15, 21] == pytest.approx(0.0111, abs=1e-4)


def test_render_small_radius_uses_sigma_floor():
    # sigma = max(radius, 1) / 3, so radius 0.5 renders like radius 1 would.
    grid = np.zeros((9, 9), dtype=np.float64)
    render_gaussian(grid, (4, 4), 0.99)
    assert grid[4, 4] == 1.0
    assert np.count_nonzero(grid) == 1  # window half-extent int(0.99) = 0


def test_render_max_composition():
    one = np.zeros((21, 21), dtype=np.float64)
    render_gaussian(one, (10, 8), 4.0)
    two = np.zeros((21, 21), dtype=np.float64)
    render_gaussian(two, (10, 12), 4.0)
    both = np.zeros((21, 21), dtype=np.float64)
    render_gaussian(both, (10, 8), 4.0)
    render_gaussian(both, (10, 12), 4.0)
    assert np.array_equal(both, np.maximum(one, two))


def test_render_truncates_at_border():
    grid = np.zeros((10, 10), dtype=np.float32)
    render_gaussian(grid, (0, 0), 5.0)
    assert grid[0, 0] == 1.0
    assert grid.shape == (10, 10)


def test_render_rejects_bad_args():
    grid = np.zeros((10, 10), dtype=np.float32)
    with pytest.raises(ValueError):
        render_gaussian(grid, (10, 0), 1.0)
    with pytest.raises(ValueError):
        render_gaussian(grid, (0, 0), -1.0)


def test_encode_params_validation():
    with pytest.raises(ValueError):
        EncodeParams(stride=0)
    with pytest.raises(ValueError):
        EncodeParams(min_overlap=1.0)
    for stride in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="stride must be an integer"):
            EncodeParams(stride=stride)
    assert EncodeParams(stride=np.int64(8)).stride == 8


def test_encode_empty_scene_is_all_zero(table):
    scene = make_scene(table, [], width=96, height=64)
    tensors = encode_scene(scene, table)
    assert tensors.center.shape == (13, 16, 24)
    for grid in tensors.named().values():
        assert not np.asarray(grid).any()


def test_encode_single_item_example(table):
    # Box [32,28,48,52] at stride 4: center (40,40) px = cell (10,10) exactly.
    item = make_item(table, 1, [32, 28, 48, 52])
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    assert tensors.center[0, 10, 10] == 1.0
    assert tensors.wh[0, 10, 10] == 4.0
    assert tensors.wh[1, 10, 10] == 6.0
    assert tensors.center_offset[0, 10, 10] == 0.0
    assert tensors.center_offset[1, 10, 10] == 0.0
    # Other categories stay silent.
    assert not tensors.center[1:].any()


def test_encode_landmark_example(table):
    # Landmark at pixel (44,44): landmark cell (11,11); offset from the
    # center cell (10,10) is one cell in each axis.
    pixels = np.full((25, 2), 44.0)
    item = make_item(table, 1, [32, 28, 48, 52], landmark_pixels=pixels)
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    assert tensors.kp_heatmap[0, 11, 11] == 1.0
    assert tensors.kp_offset[0, 10, 10] == 1.0
    assert tensors.kp_offset[1, 10, 10] == 1.0
    assert tensors.kp_refine_offset[0, 11, 11] == 0.0
    assert tensors.kp_refine_offset[1, 11, 11] == 0.0


def test_encode_fractional_positions(table):
    item = make_item(table, 3, [33, 28, 48, 52], landmark_pixels=np.full((31, 2), 45.0))
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    # Center x = 40.5 px = cell 10.125: offset 0.125 at column 10.
    assert tensors.center_offset[0, 10, 10] == np.float32(0.125)
    g = table.spec(3).global_offset
    # Landmark x = 45 px = cell 11.25.
    assert tensors.kp_refine_offset[0, 11, 11] == np.float32(0.25)
    assert tensors.kp_offset[2 * g, 10, 10] == np.float32(11.25 - 10)


def test_encode_unlabeled_landmarks_contribute_nothing(table):
    item = make_item(table, 1, [32, 28, 48, 52], visibility=0)
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    assert not np.asarray(tensors.kp_heatmap).any()
    assert not np.asarray(tensors.kp_offset).any()
    assert not np.asarray(tensors.kp_refine_offset).any()
    # The box itself is still encoded.
    assert tensors.center[0, 10, 10] == 1.0


def test_encode_occluded_landmarks_are_encoded(table):
    item = make_item(table, 1, [32, 28, 48, 52], visibility=1)
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    assert np.asarray(tensors.kp_heatmap).any()


def test_encode_output_validates(table):
    item = make_item(table, 5, [10, 10, 80, 90])
    tensors = encode_scene(make_scene(table, [item], width=128, height=128), table)
    require_valid(tensors, table)
    assert np.asarray(tensors.center).max() == 1.0
    assert np.asarray(tensors.kp_heatmap).max() <= 1.0


def test_encode_pads_up_odd_image_dims(table):
    scene = make_scene(table, [], width=101, height=99)
    tensors = encode_scene(scene, table)
    assert (tensors.height, tensors.width) == (25, 26)


def test_encode_center_collision_keeps_larger_area(table, caplog):
    # Same center cell; the second item is larger and must own the cell.
    small = make_item(table, 1, [36, 36, 44, 44])
    large = make_item(table, 2, [20, 20, 60, 60])
    scene = make_scene(table, [small, large], width=128, height=128)
    with caplog.at_level(logging.WARNING):
        tensors = encode_scene(scene, table)
    assert tensors.wh[0, 10, 10] == 10.0
    assert any("claimed twice" in rec.message for rec in caplog.records)
    # Both heatmap peaks still exist on their own channels.
    assert tensors.center[0, 10, 10] == 1.0
    assert tensors.center[1, 10, 10] == 1.0


def test_encode_collision_order_independent_regression(table):
    small = make_item(table, 1, [36, 36, 44, 44])
    large = make_item(table, 2, [20, 20, 60, 60])
    a = encode_scene(make_scene(table, [small, large], width=128, height=128), table)
    b = encode_scene(make_scene(table, [large, small], width=128, height=128), table)
    assert np.array_equal(a.wh, b.wh)
    assert np.array_equal(a.center_offset, b.center_offset)


def test_encode_rejects_mismatched_scene(table):
    bad = make_item(table, 1, [10, 10, 50, 50])
    bad = type(bad)(category_id=1, box=bad.box, landmarks=bad.landmarks[:10])
    with pytest.raises(ValueError, match="needs 25 landmarks"):
        encode_scene(make_scene(table, [bad]), table)


def _dense_render(grid, center_cell, radius):
    """render_gaussian as a window slice of the grid, the reference for the sparse stamps."""
    row, col = center_cell
    height, width = grid.shape
    extent = int(radius)
    sigma = max(radius, 1.0) / 3.0
    ys = np.arange(-extent, extent + 1, dtype=np.float64)
    kernel = np.exp(-(ys[:, None] ** 2 + ys[None, :] ** 2) / (2 * sigma * sigma))
    top, bottom = max(0, row - extent), min(height, row + extent + 1)
    left, right = max(0, col - extent), min(width, col + extent + 1)
    window = grid[top:bottom, left:right]
    clipped = kernel[top - (row - extent) : bottom - (row - extent), left - (col - extent) : right - (col - extent)]
    np.maximum(window, clipped.astype(grid.dtype), out=window)


def dense_encode_scene(scene, table, params=EncodeParams()):
    """encode_scene written into dense zero tensors, one item and landmark at a time."""
    stride = params.stride
    grid_h, grid_w = -(-scene.height // stride), -(-scene.width // stride)
    tensors = new_head_tensors(grid_h, grid_w, stride, len(table.specs))
    claims = {}
    refine_set = np.zeros((grid_h, grid_w), dtype=bool)
    for item in scene.items:
        x1, y1, x2, y2 = item.box
        w_cells, h_cells = (x2 - x1) / stride, (y2 - y1) / stride
        cx, cy = (x1 + x2) / 2 / stride, (y1 + y2) / 2 / stride
        col, row = min(int(cx), grid_w - 1), min(int(cy), grid_h - 1)
        radius = gaussian_radius(w_cells, h_cells, params.min_overlap) if w_cells > 0 and h_cells > 0 else 0.0
        _dense_render(tensors.center[item.category_id - 1], (row, col), radius)
        area = w_cells * h_cells
        if (row, col) in claims and area <= claims[(row, col)]:
            continue
        claims[(row, col)] = area
        tensors.wh[:, row, col] = (w_cells, h_cells)
        tensors.center_offset[:, row, col] = (cx - col, cy - row)
        offset = table.spec(item.category_id).global_offset
        for local, (lx, ly, vis) in enumerate(item.landmarks):
            if vis == 0:
                continue
            g = offset + local
            lx_cell, ly_cell = lx / stride, ly / stride
            lcol, lrow = min(int(lx_cell), grid_w - 1), min(int(ly_cell), grid_h - 1)
            tensors.kp_offset[2 * g : 2 * g + 2, row, col] = (lx_cell - col, ly_cell - row)
            _dense_render(tensors.kp_heatmap[g], (lrow, lcol), radius)
            if not refine_set[lrow, lcol]:
                refine_set[lrow, lcol] = True
                tensors.kp_refine_offset[:, lrow, lcol] = (lx_cell - lcol, ly_cell - lrow)
    return tensors


@st.composite
def crowded_scenes(draw, table):
    """Small scenes whose centers and landmarks crowd onto few cells, many of them on cell edges."""
    width = draw(st.integers(1, 41), label="width")
    height = draw(st.integers(1, 41), label="height")

    def coord(limit):
        # Multiples of the stride give offsets of exactly 0.0; 0 and the limit clip windows at the border.
        edges = [v for v in (0.0, 4.0, 8.0, float(limit)) if v <= limit]
        return draw(st.one_of(st.sampled_from(edges), st.floats(0, limit)))

    items = []
    for _ in range(draw(st.integers(0, 5), label="items")):
        category = draw(st.sampled_from([1, 2, 13]), label="category")
        x1, x2 = sorted((coord(width), coord(width)))
        y1, y2 = sorted((coord(height), coord(height)))
        count = table.keypoint_count(category)
        landmarks = np.empty((count, 3))
        picks = [(coord(width), coord(height)) for _ in range(draw(st.integers(1, 3), label="spots"))]
        for k in range(count):
            landmarks[k, :2] = picks[draw(st.integers(0, len(picks) - 1), label="spot")]
        landmarks[:, 2] = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=count, max_size=count), label="visibility")
        items.append(GroundTruthItem(category_id=category, box=np.array([x1, y1, x2, y2]), landmarks=landmarks))
    return make_scene(table, items, width=width, height=height)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("encode")


def assert_same_encoding(scene, table, workdir, params=EncodeParams()):
    want = dense_encode_scene(scene, table, params)
    got = encode_scene(scene, table, params)
    a, b = workdir / "got.dmrk", workdir / "want.dmrk"
    write_tensors(a, got)
    write_tensors(b, want)
    assert a.read_bytes() == b.read_bytes()
    for name, grid in want.named().items():
        assert isinstance(getattr(got, name), _SparseGrid), name
        array = np.asarray(getattr(got, name))
        assert array.dtype == np.float32 and array.flags.writeable, name
        np.testing.assert_array_equal(array.view(np.uint32), grid.view(np.uint32), err_msg=name)


@given(data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_encode_matches_dense_reference(table, workdir, data):
    scene = data.draw(crowded_scenes(table), label="scene")
    stride = data.draw(st.sampled_from([1, 3, 4]), label="stride")
    assert_same_encoding(scene, table, workdir, EncodeParams(stride=stride))


@pytest.mark.parametrize("seed,width,height,scale,mirrored", [
    (10, 512, 512, 1.0, False),
    (11, 512, 512, 0.75, True),
    (12, 200, 196, 1.0, True),
    (13, 64, 64, 1.0, False),
    (14, 256, 256, 0.75, False),
])
def test_encode_matches_dense_reference_on_synth_views(table, workdir, seed, width, height, scale, mirrored):
    params = SynthParams(seed=seed, num_images=2, image_width=width, image_height=height,
                         min_box_size=min(64, width // 4), max_box_size=min(160, width // 2),
                         occlusion_prob=0.3, unlabeled_prob=0.2, min_visible=1)
    for scene in synth_scenes(params, table):
        view = scene if scale == 1.0 else scale_scene(scene, scale)
        assert_same_encoding(mirror_scene(view, table) if mirrored else view, table, workdir)


def test_encode_equal_area_collision_keeps_first(table):
    first = make_item(table, 1, [32, 32, 48, 48])
    second = make_item(table, 2, [36, 24, 44, 56])  # same center cell, same area
    tensors = encode_scene(make_scene(table, [first, second]), table)
    assert tensors.wh[0, 10, 10] == 4.0 and tensors.wh[1, 10, 10] == 4.0


def test_encode_refine_conflict_keeps_first_and_warns(table, caplog):
    # Two landmarks in cell (11, 11) at different fractional positions.
    pixels = np.array([[44.5, 45.0], [46.0, 47.0]] + [[20.0, 20.0]] * 23)
    item = make_item(table, 1, [32, 28, 48, 52], landmark_pixels=pixels)
    with caplog.at_level(logging.WARNING):
        tensors = encode_scene(make_scene(table, [item]), table)
    assert tensors.kp_refine_offset[:, 11, 11].tolist() == [0.125, 0.25]
    assert any("1 landmark cells hold offsets of an earlier peak" in rec.message for rec in caplog.records)


def test_write_after_copy_writes_the_array(table, tmp_path):
    scene = synth_scenes(SynthParams(seed=3, num_images=1, image_width=96, image_height=96, max_box_size=64), table)[0]
    tensors = encode_scene(scene, table)
    reference = dense_encode_scene(scene, table)
    tensors = replace(tensors, wh=np.array(tensors.wh))
    tensors.wh[0, 1, 2] = 7.5
    reference.wh[0, 1, 2] = 7.5
    path, want = tmp_path / "t.dmrk", tmp_path / "want.dmrk"
    write_tensors(path, tensors)
    write_tensors(want, reference)
    assert path.read_bytes() == want.read_bytes()
    loaded = read_tensors(path)
    assert loaded.wh[0, 1, 2] == 7.5
    for name, grid in reference.named().items():
        np.testing.assert_array_equal(np.asarray(loaded.named()[name]).view(np.uint32), grid.view(np.uint32))
