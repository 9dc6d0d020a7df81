import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clothdet.decode
import clothdet.heads
from clothdet import (
    DecodeConfig,
    HeadTensorSet,
    Peak,
    SynthParams,
    TensorValidationError,
    decode_scene,
    encode_scene,
    extract_keypoint_candidates,
    extract_peaks,
    infer,
    new_head_tensors,
    synth_scenes,
)
from clothdet.categories import TOTAL_KEYPOINTS
from clothdet.heads import _SparseGrid
from clothdet.scene import translate_scene


def float64_tensors(height=32, width=32, stride=4):
    """Zeroed tensor set in float64, for tests that need exact offsets."""
    base = new_head_tensors(height, width, stride)
    grids = {name: grid.astype(np.float64) for name, grid in base.named().items()}
    return HeadTensorSet(stride=stride, **grids)


def coarse_keypoints(tensors, table, cell, category):
    """Coarse landmark positions, (K, 2) cells, of one center peak of `category` at `cell`."""
    row, col = cell
    cells = (np.array([v], dtype=np.int64) for v in (category - 1, row, col))
    return clothdet.decode._coarse_keypoints(tensors, table, *cells)[0]


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(top_k=0)
    for top_k in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="top_k"):
            DecodeConfig(top_k=top_k)
    assert DecodeConfig(top_k=np.int64(3)).top_k == 3
    with pytest.raises(ValueError):
        DecodeConfig(min_center_score=1.5)
    for margin in (0.5, float("nan")):
        with pytest.raises(ValueError, match="snap_box_margin must be >= 1.0"):
            DecodeConfig(snap_box_margin=margin)


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
    dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
    assert len(dets) == 1
    assert dets[0].category_id == 5
    assert dets[0].score == 1.0
    np.testing.assert_allclose(dets[0].box, [33.2, 30.8, 49.2, 54.8], atol=1e-9)


def test_decode_degenerate_wh_retained(table):
    tensors = float64_tensors()
    tensors.center[0, 3, 3] = 0.8
    dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
    assert len(dets) == 1
    np.testing.assert_array_equal(dets[0].box, [12.0, 12.0, 12.0, 12.0])


def test_decode_negative_wh_clamped_to_zero(table):
    tensors = float64_tensors()
    tensors.center[0, 3, 3] = 0.8
    tensors.wh[:, 3, 3] = -5.0
    dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
    np.testing.assert_array_equal(dets[0].box, [12.0, 12.0, 12.0, 12.0])


def test_two_channels_same_cell_give_two_detections(table):
    tensors = float64_tensors()
    tensors.center[0, 5, 5] = 0.9
    tensors.center[7, 5, 5] = 0.8
    dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
    assert [(d.category_id, d.score) for d in dets] == [(1, 0.9), (8, 0.8)]


@pytest.mark.parametrize("value, message", [
    (1.5, "center: value 1.5 outside [0, 1] at channel 2, cell (3, 4)"),
    (-0.25, "center: value -0.25 outside [0, 1] at channel 2, cell (3, 4)"),
    (np.nan, "center: non-finite value at channel 2, cell (3, 4)"),
])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_both_decoders_reject_the_same_center_value(table, value, message, sparse):
    tensors = new_head_tensors(8, 8, 4)
    tensors.center[2, 3, 4] = value
    tensors.center[0, 1, 1] = 0.5
    if sparse:
        flat = np.flatnonzero(tensors.center)
        center = _SparseGrid(tensors.center.shape, flat, tensors.center.reshape(-1)[flat])
        tensors = dataclasses.replace(tensors, center=center)
    # infer's flip path checks each view before fusing, as decode_scene would check it alone.
    flip_view = [(1.0, tensors, tensors)]
    for decode in (lambda: decode_scene(tensors, table), lambda: infer(flip_view, table, DecodeConfig(), None)):
        with pytest.raises(TensorValidationError) as caught:
            decode()
        assert caught.value.issues == [message]


def box_tensors(center_shape=(13, 8, 8), wh_shape=(2, 8, 8), stride=4):
    """A set with one center peak at channel 0, cell (6, 6), and the given center, wh and stride."""
    base = new_head_tensors(8, 8, 4)
    center = np.zeros(center_shape, dtype=np.float32)
    center[(0,) * (center.ndim - 2) + (6, 6)] = 0.9
    return dataclasses.replace(base, stride=stride, center=center, wh=np.ones(wh_shape, dtype=np.float32))


@pytest.mark.parametrize("tensors, issues", [
    (box_tensors(center_shape=(8, 8)), ["center: expected a 3-d [C][H][W] array"]),
    (box_tensors(wh_shape=(2, 4, 4)), [
        "spatial dimensions differ across tensors: center 8x8, wh 4x4, center_offset 8x8, kp_offset 8x8, "
        "kp_heatmap 8x8, kp_refine_offset 8x8"
    ]),
    (box_tensors(wh_shape=(3, 8, 8)), ["wh: expected 2 channels, got 3"]),
    (box_tensors(stride=0), ["stride must be >= 1, got 0"]),
], ids=["2-d center", "small wh", "wh channels", "stride"])
def test_decode_scene_rejects_malformed_shapes(table, tensors, issues):
    with pytest.raises(TensorValidationError) as caught:
        decode_scene(tensors, table)
    assert caught.value.issues == issues


def test_coarse_keypoints_zero_offsets(table):
    tensors = float64_tensors()
    coarse = coarse_keypoints(tensors, table, (10, 10), 1)
    assert coarse.shape == (25, 2)
    assert np.all(coarse == (10, 10))


def test_coarse_keypoints_offset_example(table):
    tensors = float64_tensors()
    tensors.kp_offset[0, 10, 10] = 1.0
    tensors.kp_offset[1, 10, 10] = 1.0
    coarse = coarse_keypoints(tensors, table, (10, 10), 1)
    np.testing.assert_array_equal(coarse[0], [11.0, 11.0])


def test_category_2_reads_channels_50_51(table):
    tensors = float64_tensors()
    tensors.kp_offset[50, 9, 9] = 2.5
    tensors.kp_offset[51, 9, 9] = -1.5
    coarse = coarse_keypoints(tensors, table, (9, 9), 2)
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
        coarse = coarse_keypoints(tensors, table, peak.cell, det.category_id)
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


def reference_peak_arrays(stack, min_score):
    """Reference: the full-grid peak test of the earlier decoder, which its sparse path matched."""
    channels, height, width = stack.shape
    padded = np.full((channels, height + 2, width + 2), -np.inf, dtype=stack.dtype)
    padded[:, 1:-1, 1:-1] = stack
    keep = stack >= min_score
    for dy, dx in clothdet.decode._PRECEDING:
        keep &= stack > padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
    for dy, dx in clothdet.decode._SUCCEEDING:
        keep &= stack >= padded[:, 1 + dy : 1 + dy + height, 1 + dx : 1 + dx + width]
    chan, row, col = np.nonzero(keep)
    return chan, row, col, stack[chan, row, col]


def reference_extract_peaks(stack, k, min_score):
    chan, row, col, score = reference_peak_arrays(stack, min_score)
    order = np.lexsort((col, row, chan, -score.astype(np.float64)))[:k]
    return [Peak(channel=int(chan[i]), cell=(int(row[i]), int(col[i])), score=float(score[i])) for i in order]


def float32_ulps(value):
    """float32(value) and its float32 neighbors, one ulp below and above."""
    at = np.float32(value)
    return [float(np.nextafter(at, np.float32(0))), float(at), float(np.nextafter(at, np.float32(1)))]


PEAK_VALUES = st.sampled_from(
    [0.5, 0.25, 1.0, -0.0, np.nan, -0.5, -np.inf, np.inf, 5e-324, 1e-45, 1e-40, *float32_ulps(0.1), *float32_ulps(0.7)]
) | st.floats(0, 1, width=32)


@st.composite
def peak_stacks(draw):
    """Small, mostly zero stacks with plateaus, signed zeros, NaN, negatives and subnormals."""
    channels, height, width = draw(st.integers(0, 3)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    stack = np.zeros((channels, height, width), dtype=draw(st.sampled_from([np.float32, np.float64])))
    if stack.size == 0:
        return stack
    cell = st.tuples(st.integers(0, channels - 1), st.integers(0, height - 1), st.integers(0, width - 1))
    # Equal-valued rectangles: at (0, 0), on an edge or inside the grid.
    for (c, r0, c0), (_, r1, c1), value in draw(st.lists(st.tuples(cell, cell, PEAK_VALUES), max_size=3)):
        stack[c, min(r0, r1) : max(r0, r1) + 1, min(c0, c1) : max(c0, c1) + 1] = value
    for (c, r, x), value in draw(st.lists(st.tuples(cell, PEAK_VALUES), max_size=8)):
        stack[c, r, x] = value
    if draw(st.booleans()):
        # One random dense channel, so that both paths are taken.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        stack[draw(st.integers(0, channels - 1))] = rng.random((height, width)).round(1)
    return strided(stack) if draw(st.booleans()) else stack


def strided(array):
    """The same values, every other float of a wider array: not contiguous."""
    wide = np.zeros((*array.shape[:-1], 2 * array.shape[-1]), dtype=array.dtype)
    wide[..., ::2] = array
    return wide[..., ::2]


def assert_same_peak_arrays(got, want):
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(a, b)
    assert got[3].dtype == want[3].dtype
    np.testing.assert_array_equal(got[3].view(np.uint8), want[3].view(np.uint8))


# Fold row limits small enough that the small stacks below fold.
FOLD_ROWS = st.sampled_from([1, 2, 3, 4, 6])
# The automatic path switch, then each path forced.
DENSE_FRACTIONS = (clothdet.decode._DENSE_FRACTION, 1.1, 0.0)


@given(
    stack=peak_stacks(),
    min_score=st.sampled_from([0.0, -0.0, -0.25, -np.inf, 0.1, 0.25, 0.5, 0.7, np.float64(0.7), 1e-45]),
    k=st.integers(1, 4),
    fold_rows=FOLD_ROWS,
)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_peaks_match_full_grid_reference(stack, min_score, k, fold_rows):
    want = reference_peak_arrays(stack, min_score)
    with mock.patch.object(clothdet.heads, "_FOLD_ROWS", fold_rows):
        fold = clothdet.heads._bit_fold(stack)
    assert (fold is not None) == (stack.dtype == np.float32 and stack.size > 0)
    for fraction in DENSE_FRACTIONS:
        with mock.patch.object(clothdet.decode, "_DENSE_FRACTION", fraction):
            for given_fold in (None, fold):
                assert_same_peak_arrays(clothdet.decode._peak_arrays(stack, min_score, given_fold), want)
            assert extract_peaks(stack, None, min_score) == reference_extract_peaks(stack, None, min_score)
            assert extract_peaks(stack, k, min_score) == reference_extract_peaks(stack, k, min_score)


@pytest.mark.parametrize("min_score", [0.1, 0.7, np.float64(0.7), 1e-45], ids=repr)
@pytest.mark.parametrize("fold_rows", [1, 4, 48])
@pytest.mark.parametrize("fraction", DENSE_FRACTIONS)
def test_fold_keeps_the_cells_at_the_threshold(min_score, fold_rows, fraction):
    # Isolated peaks one ulp below, at and one ulp above float32(min_score):
    # numpy's >= admits the middle one for a Python float, not for a float64.
    stack = np.zeros((6, 8, 8), dtype=np.float32)
    for channel, value in enumerate(float32_ulps(min_score) + [-0.0, np.nan, 1.0]):
        stack[channel, 2 + channel % 3, 5 - channel % 4] = value
    with mock.patch.object(clothdet.heads, "_FOLD_ROWS", fold_rows):
        fold = clothdet.heads._bit_fold(stack)
    with mock.patch.object(clothdet.decode, "_DENSE_FRACTION", fraction):
        got = clothdet.decode._peak_arrays(stack, min_score, fold)
    want = reference_peak_arrays(stack, min_score)
    assert_same_peak_arrays(got, want)
    # The middle cell is a peak exactly when the comparison is in float32.
    assert (np.float32(min_score).view(np.uint32) in want[3].view(np.uint32)) == (type(min_score) is float)


def keypoint_tensors(stack):
    """A set whose kp_heatmap holds `stack` in its first channels and zeros after, in its dtype and layout."""
    channels, height, width = stack.shape
    kp = np.zeros((TOTAL_KEYPOINTS, height, width), dtype=stack.dtype)
    kp[:channels] = stack
    kp = kp if stack.flags.c_contiguous else strided(kp)
    return dataclasses.replace(new_head_tensors(height, width, 4), kp_heatmap=kp)


@given(
    stack=peak_stacks(),
    min_score=st.sampled_from([0.0, 0.1, 0.7, np.float64(0.7), 1e-45]),
    fold_rows=FOLD_ROWS,
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_keypoint_candidates_match_full_grid_reference(stack, min_score, fold_rows):
    tensors = keypoint_tensors(stack)
    chan, row, col, score = reference_peak_arrays(tensors.kp_heatmap, min_score)
    config = DecodeConfig(min_kp_candidate_score=min_score)
    with mock.patch.object(clothdet.heads, "_FOLD_ROWS", fold_rows):
        fold = clothdet.heads._bit_fold(tensors.kp_heatmap)
        for fraction in DENSE_FRACTIONS:
            with mock.patch.object(clothdet.decode, "_DENSE_FRACTION", fraction):
                for cands in (extract_keypoint_candidates(tensors, config), extract_keypoint_candidates(tensors, config, fold=fold)):
                    np.testing.assert_array_equal(cands.channel, chan)
                    np.testing.assert_array_equal(cands.x.view(np.uint64), (col + 0.0).view(np.uint64))
                    np.testing.assert_array_equal(cands.y.view(np.uint64), (row + 0.0).view(np.uint64))
                    np.testing.assert_array_equal(cands.confidence.view(np.uint64), score.astype(np.float64).view(np.uint64))
                    np.testing.assert_array_equal(cands.starts, np.searchsorted(chan, np.arange(TOTAL_KEYPOINTS + 1)))


@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)), k=st.integers(1, 40))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_top_k_matches_full_sort_with_ties(seed, shape, k):
    # Few distinct levels, so many peaks tie at the k-th score.
    rng = np.random.default_rng(seed)
    stack = rng.choice(np.array([0.0, 0.2, 0.5, 0.9], dtype=np.float32), shape, p=[0.4, 0.3, 0.2, 0.1])
    for min_score in (0.0, 0.1):
        assert extract_peaks(stack, k, min_score) == reference_extract_peaks(stack, k, min_score)


def test_zero_channel_peaks_only_at_origin():
    stack = np.zeros((3, 4, 5), dtype=np.float32)
    stack[1, 0, 1] = 0.5  # a nonzero successor of (0, 0)
    stack[2, 2, 3] = 0.5
    peaks = [(p.channel, p.cell, p.score) for p in extract_peaks(stack, None, 0.0)]
    assert sorted(peaks) == [(0, (0, 0), 0.0), (1, (0, 1), 0.5), (2, (0, 0), 0.0), (2, (2, 3), 0.5)]


@pytest.mark.parametrize("fraction", [1.1, 0.0], ids=["sparse", "dense"])
def test_minus_inf_is_never_a_peak(monkeypatch, fraction):
    monkeypatch.setattr(clothdet.decode, "_DENSE_FRACTION", fraction)
    stack = np.full((2, 1, 1), -np.inf)
    stack[1, 0, 0] = 0.5
    assert [p.channel for p in extract_peaks(stack, None, -np.inf)] == [1]


def reference_snap(coarse, local, cand_x, cand_y, cand_conf, box_cells, margin):
    """Reference: the per-detection snapping of the earlier decoder."""
    out = np.zeros((coarse.shape[0], 3))
    out[:, :2] = coarse
    if local.size == 0:
        return out
    cx, cy = (box_cells[0] + box_cells[2]) / 2, (box_cells[1] + box_cells[3]) / 2
    half_w, half_h = (box_cells[2] - box_cells[0]) / 2 * margin, (box_cells[3] - box_cells[1]) / 2 * margin
    eligible = (np.abs(cand_x - cx) <= half_w) & (np.abs(cand_y - cy) <= half_h)
    d2 = np.where(eligible, (cand_x - coarse[local, 0]) ** 2 + (cand_y - coarse[local, 1]) ** 2, np.inf)
    order = np.lexsort((-cand_conf, d2, local))
    winners, first = np.unique(local[order], return_index=True)
    pick = order[first]
    ok = np.isfinite(d2[pick])
    out[winners[ok]] = np.column_stack((cand_x[pick[ok]], cand_y[pick[ok]], cand_conf[pick[ok]]))
    return out


@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), margin=st.sampled_from([1.0, 1.5]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_batched_snapping_matches_per_detection_reference(table, seed, size, margin):
    # Few distinct values, so distance and confidence ties are common.
    rng = np.random.default_rng(seed)
    tensors = new_head_tensors(size, size, 4)
    for name, grid in tensors.named().items():
        if name == "center":
            values = rng.choice([0.0, 0.4, 0.9], grid.shape, p=[0.98, 0.01, 0.01])
        elif name == "kp_heatmap":
            values = rng.choice([0.0, 0.2, 0.6], grid.shape, p=[0.8, 0.1, 0.1])
        elif name == "wh":
            values = rng.integers(0, 2 * size, grid.shape)
        else:
            values = rng.choice([-1.0, 0.0, 0.5, 1.0], grid.shape)
        grid[:] = values
    config = DecodeConfig(snap_box_margin=margin)
    cands = extract_keypoint_candidates(tensors, config)
    dets = decode_scene(tensors, table, config)
    for det, peak in zip(dets, extract_peaks(tensors.center, config.top_k, config.min_center_score)):
        spec = table.spec(det.category_id)
        lo, hi = cands.starts[spec.global_offset], cands.starts[spec.global_offset + spec.keypoint_count]
        want = reference_snap(
            coarse_keypoints(tensors, table, peak.cell, det.category_id),
            cands.channel[lo:hi] - spec.global_offset,
            cands.x[lo:hi],
            cands.y[lo:hi],
            cands.confidence[lo:hi],
            det.box / tensors.stride,
            margin,
        )
        want[:, :2] *= tensors.stride
        np.testing.assert_array_equal(det.landmarks.view(np.uint64), want.view(np.uint64))
