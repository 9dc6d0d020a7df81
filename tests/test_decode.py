import dataclasses

import numpy as np
import pytest

import clothdet.decode
from clothdet import (
    DecodeConfig,
    HeadTensorSet,
    SynthParams,
    TensorValidationError,
    decode_coarse_keypoints,
    decode_detections,
    decode_scene,
    encode_scene,
    extract_keypoint_candidates,
    extract_peaks,
    new_head_tensors,
    synth_scenes,
)
from clothdet.scene import translate_scene


def float64_tensors(height=32, width=32, stride=4):
    """Zeroed tensor set in float64, for tests that need exact offsets."""
    base = new_head_tensors(height, width, stride)
    grids = {name: grid.astype(np.float64) for name, grid in base.named().items()}
    return HeadTensorSet(stride=stride, **grids)


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(top_k=0)
    with pytest.raises(ValueError):
        DecodeConfig(min_center_score=1.5)
    with pytest.raises(ValueError):
        DecodeConfig(snap_box_margin=0.5)


def test_single_peak():
    stack = np.zeros((1, 8, 8), dtype=np.float32)
    stack[0, 3, 5] = 0.9
    peaks = extract_peaks(stack, k=None, min_score=0.1)
    assert len(peaks) == 1
    assert peaks[0].channel == 0
    assert peaks[0].cell == (3, 5)
    assert peaks[0].score == pytest.approx(0.9)


def test_zero_grid_with_threshold_is_empty():
    peaks = extract_peaks(np.zeros((2, 8, 8), dtype=np.float32), k=None, min_score=0.1)
    assert peaks == []


@pytest.mark.parametrize("cells", [
    [(2, 2), (2, 3)],          # horizontal pair
    [(2, 2), (3, 2)],          # vertical pair
    [(2, 2), (3, 3)],          # diagonal pair
    [(2, 3), (3, 2)],          # anti-diagonal pair
    [(2, 2), (2, 3), (3, 2), (3, 3)],  # square plateau
])
def test_plateau_yields_single_row_major_first_peak(cells):
    stack = np.zeros((1, 8, 8), dtype=np.float32)
    for r, c in cells:
        stack[0, r, c] = 0.5
    peaks = extract_peaks(stack, k=None, min_score=0.1)
    assert len(peaks) == 1
    assert peaks[0].cell == min(cells)


def test_peak_ordering_and_top_k():
    stack = np.zeros((3, 8, 8), dtype=np.float32)
    stack[2, 1, 1] = 0.9
    stack[0, 5, 5] = 0.7
    stack[1, 2, 2] = 0.7
    peaks = extract_peaks(stack, k=None, min_score=0.0)
    ranked = [(p.channel, p.cell) for p in peaks if p.score > 0]
    # Score descending; the 0.7 tie resolves by channel.
    assert ranked[:3] == [(2, (1, 1)), (0, (5, 5)), (1, (2, 2))]
    top = extract_peaks(stack, k=2, min_score=0.1)
    assert [(p.channel, p.score) for p in top] == [(2, pytest.approx(0.9)), (0, pytest.approx(0.7))]


def test_min_score_boundary_is_inclusive():
    stack = np.zeros((1, 4, 4), dtype=np.float32)
    stack[0, 1, 1] = 0.1
    assert len(extract_peaks(stack, k=None, min_score=0.1)) == 1


def test_dense_and_sparse_paths_agree(monkeypatch):
    rng = np.random.default_rng(7)
    stack = rng.random((5, 32, 32), dtype=np.float32)
    monkeypatch.setattr(clothdet.decode, "_DENSE_FRACTION", 1.1)
    sparse = extract_peaks(stack, k=None, min_score=0.3)
    monkeypatch.setattr(clothdet.decode, "_DENSE_FRACTION", 0.0)
    dense = extract_peaks(stack, k=None, min_score=0.3)
    assert sparse == dense
    assert len(sparse) > 0


def test_decode_box_example(table):
    tensors = float64_tensors()
    tensors.center[4, 10, 10] = 1.0
    tensors.center_offset[0, 10, 10] = 0.3
    tensors.center_offset[1, 10, 10] = 0.7
    tensors.wh[0, 10, 10] = 4.0
    tensors.wh[1, 10, 10] = 6.0
    dets = decode_detections(tensors, DecodeConfig(min_center_score=0.5))
    assert len(dets) == 1
    assert dets[0].category_id == 5
    assert dets[0].score == 1.0
    np.testing.assert_allclose(dets[0].box, [33.2, 30.8, 49.2, 54.8], atol=1e-9)


def test_decode_degenerate_wh_retained():
    tensors = float64_tensors()
    tensors.center[0, 3, 3] = 0.8
    dets = decode_detections(tensors, DecodeConfig(min_center_score=0.5))
    assert len(dets) == 1
    np.testing.assert_array_equal(dets[0].box, [12.0, 12.0, 12.0, 12.0])


def test_decode_negative_wh_clamped_to_zero():
    tensors = float64_tensors()
    tensors.center[0, 3, 3] = 0.8
    tensors.wh[:, 3, 3] = -5.0
    dets = decode_detections(tensors, DecodeConfig(min_center_score=0.5))
    np.testing.assert_array_equal(dets[0].box, [12.0, 12.0, 12.0, 12.0])


def test_two_channels_same_cell_give_two_detections():
    tensors = float64_tensors()
    tensors.center[0, 5, 5] = 0.9
    tensors.center[7, 5, 5] = 0.8
    dets = decode_detections(tensors, DecodeConfig(min_center_score=0.5))
    assert [(d.category_id, d.score) for d in dets] == [(1, 0.9), (8, 0.8)]


def test_coarse_keypoints_zero_offsets(table):
    tensors = float64_tensors()
    coarse = decode_coarse_keypoints(tensors, table, (10, 10), 1)
    assert coarse.shape == (25, 2)
    assert np.all(coarse == (10, 10))


def test_coarse_keypoints_offset_example(table):
    tensors = float64_tensors()
    tensors.kp_offset[0, 10, 10] = 1.0
    tensors.kp_offset[1, 10, 10] = 1.0
    coarse = decode_coarse_keypoints(tensors, table, (10, 10), 1)
    np.testing.assert_array_equal(coarse[0], [11.0, 11.0])


def test_category_2_reads_channels_50_51(table):
    tensors = float64_tensors()
    tensors.kp_offset[50, 9, 9] = 2.5
    tensors.kp_offset[51, 9, 9] = -1.5
    coarse = decode_coarse_keypoints(tensors, table, (9, 9), 2)
    assert coarse.shape == (33, 2)
    np.testing.assert_array_equal(coarse[0], [11.5, 7.5])


def test_candidate_extraction_examples(table):
    tensors = float64_tensors()
    tensors.kp_heatmap[0, 11, 11] = 1.0
    tensors.kp_heatmap[1, 4, 4] = 0.05  # below the 0.1 default threshold
    tensors.kp_heatmap[2, 11, 11] = 0.6
    tensors.kp_refine_offset[0, 11, 11] = 0.25
    tensors.kp_refine_offset[1, 11, 11] = 0.5
    cands = extract_keypoint_candidates(tensors)
    np.testing.assert_array_equal(cands.channel, [0, 2])
    np.testing.assert_array_equal(cands.x, [11.25, 11.25])
    np.testing.assert_array_equal(cands.y, [11.5, 11.5])
    np.testing.assert_array_equal(cands.confidence, [1.0, 0.6])
    np.testing.assert_array_equal(cands.starts[:4], [0, 1, 1, 2])
    assert cands.starts[-1] == 2


def one_detection_tensors(candidates=()):
    """Tensors holding one category-1 detection boxed by cells [15, 25] x [15, 25].

    Its landmarks' coarse position is the center cell (20, 20). Each
    candidate is (x, y, confidence) in cells, placed as a kp_heatmap
    channel-0 peak at cell (int(y), int(x)) with the fractional part in
    kp_refine_offset.
    """
    tensors = float64_tensors()
    tensors.center[0, 20, 20] = 0.9
    tensors.wh[:, 20, 20] = 10.0
    for x, y, conf in candidates:
        row, col = int(y), int(x)
        tensors.kp_heatmap[0, row, col] = conf
        tensors.kp_refine_offset[:, row, col] = (x - col, y - row)
    return tensors


def snapped_first_landmark(table, candidates, config=DecodeConfig()):
    """Landmark 0, in cells, that decode_scene gives the detection of one_detection_tensors."""
    tensors = one_detection_tensors(candidates)
    det = decode_scene(tensors, table, config)[0]
    assert det.score == 0.9
    np.testing.assert_array_equal(det.box, np.array([15.0, 15.0, 25.0, 25.0]) * tensors.stride)
    landmark = det.landmarks[0].copy()
    landmark[:2] /= tensors.stride
    return landmark


def test_snap_sole_in_box_candidate(table):
    np.testing.assert_array_equal(snapped_first_landmark(table, [(21.0, 20.5, 0.6)]), [21.0, 20.5, 0.6])


def test_snap_without_candidates_keeps_coarse(table):
    np.testing.assert_array_equal(snapped_first_landmark(table, []), [20.0, 20.0, 0.0])


def test_snap_ignores_out_of_box_candidate(table):
    np.testing.assert_array_equal(snapped_first_landmark(table, [(30.0, 30.0, 0.9)]), [20.0, 20.0, 0.0])


def test_snap_margin_expands_eligibility(table):
    candidates = [(26.0, 20.0, 0.9)]
    tight = snapped_first_landmark(table, candidates, DecodeConfig(snap_box_margin=1.0))
    loose = snapped_first_landmark(table, candidates, DecodeConfig(snap_box_margin=1.5))
    assert tight[2] == 0.0
    np.testing.assert_array_equal(loose, [26.0, 20.0, 0.9])


def test_snap_distance_tie_prefers_higher_confidence(table):
    snapped = snapped_first_landmark(table, [(19.0, 20.0, 0.3), (21.0, 20.0, 0.9)])
    np.testing.assert_array_equal(snapped, [21.0, 20.0, 0.9])


def test_snap_full_tie_takes_row_major_first(table):
    snapped = snapped_first_landmark(table, [(21.0, 20.0, 0.5), (19.0, 20.0, 0.5)])
    np.testing.assert_array_equal(snapped, [19.0, 20.0, 0.5])


def test_snap_candidate_list_count_mismatch(table):
    # Candidates come from one kp_heatmap channel per landmark; a stack that
    # does not hold one per landmark of the table is rejected before snapping.
    base = new_head_tensors(16, 16, 4)
    tensors = dataclasses.replace(base, kp_heatmap=base.kp_heatmap[:-1])
    with pytest.raises(ValueError, match="kp_heatmap: expected 294 channels, got 293"):
        decode_scene(tensors, table)


@pytest.mark.parametrize("name, channel, cell", [
    ("wh", 1, (20, 20)),                # read at the center peak
    ("center_offset", 0, (20, 20)),     # read at the center peak
    ("kp_offset", 3, (20, 20)),         # read at the center cell
    ("kp_refine_offset", 1, (20, 21)),  # read at the candidate cell
])
def test_decode_rejects_non_finite_value_it_reads(table, name, channel, cell):
    tensors = one_detection_tensors([(21.0, 20.5, 0.6)])
    getattr(tensors, name)[(channel, *cell)] = np.nan
    with pytest.raises(TensorValidationError, match=rf"{name}: non-finite value at channel {channel}, cell \({cell[0]}, {cell[1]}\)"):
        decode_scene(tensors, table)


def test_decode_ignores_non_finite_value_it_does_not_read(table):
    tensors = one_detection_tensors([(21.0, 20.5, 0.6)])
    for grid in (tensors.wh, tensors.center_offset, tensors.kp_offset, tensors.kp_refine_offset):
        grid[:, 5, 5] = np.nan
    assert decode_scene(tensors, table)[0].score == 0.9


def test_decode_scene_all_zero_is_empty(table):
    dets = decode_scene(new_head_tensors(16, 16, 4), table, DecodeConfig(min_center_score=0.01))
    assert dets == []


def test_decode_scene_roundtrip_single_item(table):
    scenes = synth_scenes(SynthParams(seed=3, num_images=1, max_objects=1), table)
    item = scenes[0].items[0]
    dets = decode_scene(encode_scene(scenes[0], table), table, DecodeConfig(min_center_score=0.5))
    assert len(dets) == 1
    assert dets[0].category_id == item.category_id
    np.testing.assert_allclose(dets[0].box, item.box, atol=2.0)  # within 0.5 * stride
    np.testing.assert_allclose(dets[0].box, item.box, atol=1e-6)  # exact on clean targets
    np.testing.assert_allclose(dets[0].landmarks[:, :2], item.landmarks[:, :2], atol=1e-6)
    assert np.all(dets[0].landmarks[:, 2] > 0)


def test_decode_scene_roundtrip_two_items(table):
    scenes = synth_scenes(SynthParams(seed=11, num_images=1, min_objects=2, max_objects=2), table)
    dets = decode_scene(encode_scene(scenes[0], table), table, DecodeConfig(min_center_score=0.5))
    assert sorted(d.category_id for d in dets) == sorted(i.category_id for i in scenes[0].items)
    assert len(dets) == 2


def test_decode_scene_determinism(table):
    scenes = synth_scenes(SynthParams(seed=5, num_images=1), table)
    tensors = encode_scene(scenes[0], table)
    a = decode_scene(tensors, table)
    b = decode_scene(tensors, table)
    assert len(a) == len(b)
    for d, e in zip(a, b):
        assert d.category_id == e.category_id and d.score == e.score
        np.testing.assert_array_equal(d.box, e.box)
        np.testing.assert_array_equal(d.landmarks, e.landmarks)


def test_decode_scene_output_limits(table):
    scenes = synth_scenes(SynthParams(seed=9, num_images=1, min_objects=4, max_objects=6), table)
    config = DecodeConfig(top_k=3)
    dets = decode_scene(encode_scene(scenes[0], table), table, config)
    assert len(dets) <= 3
    scores = [d.score for d in dets]
    assert scores == sorted(scores, reverse=True)


def test_decode_scene_landmarks_from_candidates_or_coarse(table):
    scenes = synth_scenes(SynthParams(seed=21, num_images=1, min_objects=3, max_objects=3), table)
    tensors = encode_scene(scenes[0], table)
    config = DecodeConfig(min_center_score=0.5)
    cands = extract_keypoint_candidates(tensors, config)
    peaks = extract_peaks(tensors.center, k=config.top_k, min_score=config.min_center_score)
    dets = decode_scene(tensors, table, config)
    stride = tensors.stride
    assert len(peaks) == len(dets)
    for peak, det in zip(peaks, dets):
        assert det.category_id == peak.channel + 1
        spec = table.spec(det.category_id)
        coarse = decode_coarse_keypoints(tensors, table, peak.cell, det.category_id)
        for local, (x, y, conf) in enumerate(det.landmarks):
            if conf == 0.0:
                np.testing.assert_array_equal([x / stride, y / stride], coarse[local])
            else:
                g = spec.global_offset + local
                lo, hi = cands.starts[g], cands.starts[g + 1]
                match = (cands.x[lo:hi] * stride == x) & (cands.y[lo:hi] * stride == y) & (cands.confidence[lo:hi] == conf)
                assert match.any()


def test_decode_equivariance_under_cell_translation(table):
    params = SynthParams(seed=13, num_images=1, min_objects=2, max_objects=3,
                         image_width=384, image_height=384)
    scene = dataclasses.replace(synth_scenes(params, table)[0], width=512, height=512)
    moved = translate_scene(scene, 16, 48)
    config = DecodeConfig(min_center_score=0.5)
    base = decode_scene(encode_scene(scene, table), table, config)
    shifted = decode_scene(encode_scene(moved, table), table, config)
    assert len(base) == len(shifted)
    for d, e in zip(base, shifted):
        assert d.category_id == e.category_id and d.score == e.score
        np.testing.assert_array_equal(e.box, d.box + [16, 48, 16, 48])
        np.testing.assert_array_equal(e.landmarks[:, :2], d.landmarks[:, :2] + [16, 48])


def test_decode_scene_rejects_invalid_tensors(table):
    with pytest.raises(ValueError, match="expected 13 channels"):
        decode_scene(new_head_tensors(8, 8, 4, num_categories=12), table)
