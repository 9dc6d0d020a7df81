import contextlib
import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothdet import (
    Detection,
    DecodeConfig,
    HeadTensorSet,
    SynthParams,
    TensorValidationError,
    decode_scene,
    dump_category_table,
    encode_scene,
    evaluate,
    flip_tensors,
    fuse_multiscale,
    fuse_tensors,
    infer,
    iou,
    new_head_tensors,
    nms,
    rescale_detections,
    synth_scenes,
    write_tensors,
)
from clothdet.cli import main
from clothdet.decode import extract_peaks
from clothdet.scene import _stride_padded, mirror_scene, scale_scene

import unbatched_reference
from conftest import scattered


def det(category=1, score=0.5, box=(0, 0, 10, 10), landmarks=()):
    lm = np.asarray(landmarks, dtype=np.float64).reshape(-1, 3)
    return Detection(category_id=category, score=score, box=np.asarray(box, dtype=np.float64), landmarks=lm)


def random_tensors(rng, height=16, width=16, stride=4):
    """Random float32 tensor set whose x-offset channels sit on a dyadic grid.

    center_offset[0] and kp_refine_offset[0] get values of the form n/4096 so
    that 1 - x is exactly representable; the flip involution is then bit-exact.
    """
    tensors = new_head_tensors(height, width, stride)
    for name, grid in tensors.named().items():
        grid[:] = rng.random(grid.shape, dtype=np.float32)
    tensors.center_offset[0] = (rng.integers(0, 4097, tensors.center_offset[0].shape) / 4096).astype(np.float32)
    tensors.kp_refine_offset[0] = (rng.integers(0, 4097, tensors.kp_refine_offset[0].shape) / 4096).astype(np.float32)
    return tensors


# Signed zeros, infinities, NaN, a value whose products overflow, and ordinary coordinates.
SPECIAL_COORDS = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, np.inf, -np.inf, np.nan, 1e308]
coords = st.one_of(st.sampled_from(SPECIAL_COORDS), st.floats(-8, 8, allow_nan=False))
boxes = st.tuples(coords, coords, coords, coords)


def same_float(a, b):
    return (np.isnan(a) and np.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


class TestIou:
    def test_self(self):
        assert iou([0, 0, 10, 10], [0, 0, 10, 10]) == 1.0

    def test_pinned_example(self):
        assert iou([0, 0, 2, 2], [1, 1, 3, 3]) == 1 / 7

    def test_disjoint(self):
        assert iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0

    def test_touching_edges(self):
        assert iou([0, 0, 1, 1], [1, 0, 2, 1]) == 0.0

    def test_degenerate(self):
        assert iou([3, 3, 3, 3], [3, 3, 3, 3]) == 0.0
        assert iou([0, 0, 0, 5], [0, 0, 5, 5]) == 0.0

    def test_symmetry(self):
        a, b = [0, 0, 4, 6], [2, 1, 7, 5]
        assert iou(a, b) == iou(b, a)

    @given(boxes, boxes)
    @settings(max_examples=300, deadline=None)
    def test_same_as_python_float_reference(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = iou(a, b)
        assert type(got) is float and same_float(got, unbatched_reference.iou(a, b))


class TestNms:
    def test_identical_boxes_same_category(self):
        a, b = det(score=0.9), det(score=0.8)
        assert nms([b, a], 0.5) == [a]

    def test_identical_boxes_different_categories(self):
        a, b = det(category=1, score=0.9), det(category=2, score=0.8)
        assert nms([a, b], 0.5) == [a, b]

    def test_low_overlap_pair_survives(self):
        a = det(score=0.9, box=(0, 0, 2, 2))
        b = det(score=0.8, box=(1, 1, 3, 3))
        assert nms([a, b], 0.5) == [a, b]

    def test_threshold_is_exclusive(self):
        a = det(score=0.9, box=(0, 0, 2, 2))
        b = det(score=0.8, box=(1, 1, 3, 3))
        # IoU is exactly 1/7; a threshold at that value suppresses b.
        assert nms([a, b], 1 / 7) == [a]

    def test_empty(self):
        assert nms([], 0.5) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms([], 0.0)

    @given(st.lists(st.tuples(st.sampled_from([1, 2, 7]), st.sampled_from([0.9, 0.5, 0.0, 1.0, np.nan]), boxes),
                    max_size=30),
           st.sampled_from([0.3, 0.5, 1 / 7, 0.999]))
    @settings(max_examples=300, deadline=None)
    def test_same_as_pair_by_pair_reference(self, rows, threshold):
        # Ties, NaN scores and non-finite or signed-zero boxes included.
        dets = [det(c, s, box) for c, s, box in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = nms(dets, threshold)
        want = unbatched_reference.nms(dets, threshold)
        assert [id(d) for d in kept] == [id(d) for d in want]

    @given(st.lists(
        st.tuples(
            st.integers(1, 3),
            st.floats(0.0, 1.0, allow_nan=False),
            st.integers(0, 12), st.integers(0, 12),
            st.integers(1, 8), st.integers(1, 8),
        ),
        max_size=12,
    ), st.sampled_from([0.3, 0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_random_lists(self, rows, threshold):
        dets = [det(c, s, (x, y, x + w, y + h)) for c, s, x, y, w, h in rows]
        kept = nms(dets, threshold)
        positions = [next(i for i, d in enumerate(dets) if d is k) for k in kept]
        assert positions == sorted(positions)  # subsequence of the input
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                if a.category_id == b.category_id:
                    assert iou(a.box, b.box) < threshold
        # Suppressed detections overlap something kept in their category.
        for d in dets:
            if not any(k is d for k in kept):
                assert any(
                    k.category_id == d.category_id and iou(k.box, d.box) >= threshold
                    for k in kept
                )


class TestFlip:
    def test_involution_on_encoder_output(self, paired_table):
        scenes = synth_scenes(SynthParams(seed=2, num_images=4, occlusion_prob=0.2), paired_table)
        for scene in scenes:
            tensors = encode_scene(scene, paired_table)
            twice = flip_tensors(flip_tensors(tensors, paired_table), paired_table)
            for name, grid in tensors.named().items():
                np.testing.assert_array_equal(twice.named()[name], grid, err_msg=name)

    def test_involution_on_random_tensors(self, paired_table):
        rng = np.random.default_rng(17)
        for _ in range(20):
            tensors = random_tensors(rng)
            twice = flip_tensors(flip_tensors(tensors, paired_table), paired_table)
            for name, grid in tensors.named().items():
                np.testing.assert_array_equal(twice.named()[name], grid, err_msg=name)

    def test_column_mirror_and_offset_rules(self, table):
        tensors = new_head_tensors(8, 8, 4)
        tensors.center[3, 2, 1] = 0.75
        tensors.wh[0, 2, 1] = 5.0
        tensors.center_offset[0, 2, 1] = 0.25
        tensors.center_offset[1, 2, 1] = 0.5
        tensors.kp_offset[0, 2, 1] = 1.5
        tensors.kp_offset[1, 2, 1] = -2.0
        tensors.kp_heatmap[0, 2, 1] = 0.875
        tensors.kp_refine_offset[0, 2, 1] = 0.125
        tensors.kp_refine_offset[1, 2, 1] = 0.375
        flipped = scattered(flip_tensors(tensors, table))
        col = 8 - 1 - 1
        assert flipped.center[3, 2, col] == np.float32(0.75)
        assert flipped.wh[0, 2, col] == np.float32(5.0)
        assert flipped.center_offset[0, 2, col] == np.float32(0.75)
        assert flipped.center_offset[1, 2, col] == np.float32(0.5)
        assert flipped.kp_offset[0, 2, col] == np.float32(-1.5)
        assert flipped.kp_offset[1, 2, col] == np.float32(-2.0)
        assert flipped.kp_heatmap[0, 2, col] == np.float32(0.875)
        assert flipped.kp_refine_offset[0, 2, col] == np.float32(0.875)
        assert flipped.kp_refine_offset[1, 2, col] == np.float32(0.375)

    def test_paired_channels_swap(self, paired_table):
        g0, g1 = paired_table.flip_pairs[0]
        tensors = new_head_tensors(8, 8, 4)
        tensors.kp_heatmap[g0, 1, 1] = 0.5
        tensors.kp_offset[2 * g0, 1, 1] = 3.0
        tensors.kp_offset[2 * g0 + 1, 1, 1] = 4.0
        flipped = scattered(flip_tensors(tensors, paired_table))
        assert flipped.kp_heatmap[g1, 1, 6] == np.float32(0.5)
        assert flipped.kp_heatmap[g0, 1, 6] == 0.0
        assert flipped.kp_offset[2 * g1, 1, 6] == np.float32(-3.0)
        assert flipped.kp_offset[2 * g1 + 1, 1, 6] == np.float32(4.0)

    def test_unpaired_table_swaps_nothing(self, table):
        assert table.flip_pairs == ()
        tensors = new_head_tensors(8, 8, 4)
        tensors.kp_heatmap[7, 1, 1] = 0.5
        flipped = flip_tensors(tensors, table)
        assert flipped.kp_heatmap[7, 1, 6] == np.float32(0.5)

    def test_flip_matches_mirrored_scene_decode(self, paired_table):
        params = SynthParams(seed=6, num_images=1, min_objects=2, max_objects=3,
                             avoid_cell_boundaries=True)
        scene = synth_scenes(params, paired_table)[0]
        config = DecodeConfig(min_center_score=0.5)
        via_tensors = decode_scene(
            flip_tensors(encode_scene(scene, paired_table), paired_table), paired_table, config
        )
        via_scene = decode_scene(
            encode_scene(mirror_scene(scene, paired_table), paired_table), paired_table, config
        )
        key = lambda d: (d.category_id, d.box[0])
        via_tensors = sorted(via_tensors, key=key)
        via_scene = sorted(via_scene, key=key)
        assert len(via_tensors) == len(via_scene)
        for a, b in zip(via_tensors, via_scene):
            assert a.category_id == b.category_id
            np.testing.assert_allclose(a.box, b.box, atol=1e-6)
            np.testing.assert_allclose(a.landmarks, b.landmarks, atol=1e-6)


class TestFuse:
    def test_self_fusion_is_identity(self, table):
        scene = synth_scenes(SynthParams(seed=4, num_images=1), table)[0]
        tensors = encode_scene(scene, table)
        fused = fuse_tensors([tensors, tensors])
        for name, grid in tensors.named().items():
            np.testing.assert_array_equal(fused.named()[name], grid, err_msg=name)

    def test_fusion_with_zeros_halves(self):
        tensors = new_head_tensors(8, 8, 4)
        tensors.center[0, 1, 1] = 0.8
        fused = fuse_tensors([tensors, new_head_tensors(8, 8, 4)])
        assert fused.center[0, 1, 1] == np.float32(0.4)

    def test_zero_weight_input_ignored(self, table):
        rng = np.random.default_rng(3)
        a, b = random_tensors(rng), random_tensors(rng)
        fused = fuse_tensors([a, b], weights=[2.0, 0.0])
        for name, grid in a.named().items():
            np.testing.assert_array_equal(fused.named()[name], grid, err_msg=name)

    def test_weights_scale_invariant(self):
        rng = np.random.default_rng(5)
        a, b = random_tensors(rng), random_tensors(rng)
        one = fuse_tensors([a, b], weights=[1.0, 1.0])
        two = fuse_tensors([a, b], weights=[2.0, 2.0])
        for name, grid in one.named().items():
            np.testing.assert_array_equal(two.named()[name], grid, err_msg=name)

    def test_flip_of_flip_fusion_preserves_decode(self, paired_table):
        scene = synth_scenes(SynthParams(seed=8, num_images=1, min_objects=2, max_objects=2), paired_table)[0]
        tensors = encode_scene(scene, paired_table)
        fused = fuse_tensors([tensors, flip_tensors(flip_tensors(tensors, paired_table), paired_table)])
        config = DecodeConfig(min_center_score=0.5)
        base = decode_scene(tensors, paired_table, config)
        other = decode_scene(fused, paired_table, config)
        assert len(base) == len(other)
        for a, b in zip(base, other):
            assert a.category_id == b.category_id and a.score == b.score
            np.testing.assert_array_equal(a.box, b.box)
            np.testing.assert_array_equal(a.landmarks, b.landmarks)

    def test_errors(self):
        a = new_head_tensors(8, 8, 4)
        with pytest.raises(ValueError, match="at least one"):
            fuse_tensors([])
        with pytest.raises(ValueError, match="weight"):
            fuse_tensors([a, a], weights=[1.0])
        with pytest.raises(ValueError, match="weight"):
            fuse_tensors([a], weights=[-1.0])
        with pytest.raises(ValueError, match="weight"):
            fuse_tensors([a, a], weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            fuse_tensors([a, new_head_tensors(8, 12, 4)])
        with pytest.raises(ValueError):
            fuse_tensors([a, new_head_tensors(8, 8, 2)])


class TestMultiscale:
    def test_rescale_identity(self):
        d = det(box=(30, 30, 60, 60), landmarks=[(15, 15, 0.7)])
        out = rescale_detections([d], 1.0)
        np.testing.assert_array_equal(out[0].box, d.box)
        np.testing.assert_array_equal(out[0].landmarks, d.landmarks)

    def test_rescale_example(self):
        d = det(box=(30, 30, 60, 60), landmarks=[(15, 15, 0.7)])
        out = rescale_detections([d], 0.75)
        np.testing.assert_allclose(out[0].box, [40, 40, 80, 80])
        np.testing.assert_allclose(out[0].landmarks, [[20, 20, 0.7]])
        assert out[0].score == d.score

    def test_rescale_invalid_scale(self):
        with pytest.raises(ValueError):
            rescale_detections([], 0.0)
        with pytest.raises(ValueError):
            rescale_detections([], -1.0)

    def test_single_list_equals_nms(self):
        dets = [det(score=0.9, box=(0, 0, 4, 4)), det(score=0.8, box=(1, 1, 4, 4)),
                det(score=0.7, box=(20, 20, 24, 24))]
        assert fuse_multiscale([dets], 0.5) == nms(dets, 0.5)

    def test_duplicate_lists_dedupe(self):
        a = [det(score=0.9, box=(0, 0, 4, 4))]
        b = [det(score=0.8, box=(0, 0, 4, 4))]
        fused = fuse_multiscale([a, b], 0.5)
        assert len(fused) == 1
        assert fused[0].score == 0.9

    def test_disjoint_lists_retained(self):
        a = [det(score=0.9, box=(0, 0, 4, 4))]
        b = [det(score=0.8, box=(20, 20, 24, 24))]
        assert len(fuse_multiscale([a, b], 0.5)) == 2

    @given(st.lists(
        st.lists(
            st.tuples(st.integers(1, 2), st.floats(0.01, 1.0, allow_nan=False),
                      st.integers(0, 10), st.integers(0, 10)),
            max_size=5,
        ),
        min_size=1, max_size=3,
    ))
    @settings(max_examples=40, deadline=None)
    def test_top_score_never_decreases(self, lists):
        det_lists = [
            [det(c, s, (x, y, x + 4, y + 4)) for c, s, x, y in rows]
            for rows in lists
        ]
        best_in = max((d.score for rows in det_lists for d in rows), default=None)
        fused = fuse_multiscale(det_lists, 0.5)
        if best_in is None:
            assert fused == []
        else:
            assert fused[0].score == best_in

    def test_without_nms_only_sorts(self):
        a = [det(score=0.7, box=(0, 0, 4, 4))]
        b = [det(score=0.9, box=(0, 0, 4, 4)), det(score=0.7, box=(1, 1, 4, 4))]
        fused = fuse_multiscale([a, b], None)
        assert fused == [b[0], a[0], b[1]]


def same_detections(a, b):
    return len(a) == len(b) and all(
        d.category_id == e.category_id and d.score == e.score
        and np.array_equal(d.box, e.box) and np.array_equal(d.landmarks, e.landmarks)
        for d, e in zip(a, b)
    )


class TestInfer:
    CONFIG = DecodeConfig(min_center_score=0.5)

    @staticmethod
    def scene(table):
        params = SynthParams(seed=6, num_images=1, min_objects=2, max_objects=3, avoid_cell_boundaries=True)
        return synth_scenes(params, table)[0]

    def test_plain_view_is_decode(self, table):
        tensors = encode_scene(self.scene(table), table)
        got = infer([(1.0, tensors, None)], table, self.CONFIG, None)
        assert same_detections(got, decode_scene(tensors, table, self.CONFIG))

    def test_mirrored_view_is_unflipped_before_fusing(self, paired_table):
        scene = self.scene(paired_table)
        plain = encode_scene(scene, paired_table)
        mirrored = encode_scene(mirror_scene(scene, paired_table), paired_table)
        got = infer(iter([(1.0, plain, mirrored)]), paired_table, self.CONFIG, 0.5)
        fused = fuse_tensors([plain, flip_tensors(mirrored, paired_table)])
        assert same_detections(got, decode_scene(fused, paired_table, self.CONFIG))
        report = evaluate({scene.image_id: got}, [scene], paired_table)
        assert report.box.map == 1.0

    @pytest.mark.parametrize("width", [501, 509, 510])
    def test_flip_fusion_is_exact_at_widths_off_the_stride(self, paired_table, width):
        # The mirrored view is the mirror of the stride-padded image, as
        # clothdet encode writes it, which flip_tensors undoes.
        params = SynthParams(seed=7, num_images=8, image_width=width, image_height=512, avoid_cell_boundaries=True)
        scenes = synth_scenes(params, paired_table)
        dets = {
            s.image_id: infer(
                [(1.0, encode_scene(s, paired_table),
                  encode_scene(mirror_scene(_stride_padded(s, 4), paired_table), paired_table))],
                paired_table, DecodeConfig(), 0.5,
            )
            for s in scenes
        }
        report = evaluate(dets, scenes, paired_table)
        assert report.box.map == 1.0
        assert [block.map for block in report.pt.values()] == [1.0, 1.0]

    def test_mirrored_shapes_checked_before_flipping(self, paired_table):
        plain = new_head_tensors(4, 4, 4)
        mirrored = replace(plain, kp_heatmap=plain.kp_heatmap[:10])
        with pytest.raises(TensorValidationError, match="kp_heatmap: expected 294 channels, got 10"):
            infer([(1.0, plain, mirrored)], paired_table, self.CONFIG, None)

    def test_scales_merge_in_original_pixels(self, table):
        scene = self.scene(table)
        views = [(s, encode_scene(scale_scene(scene, s), table), None) for s in (1.0, 0.5)]
        merged = infer(views, table, self.CONFIG, 0.5)
        assert len(merged) == len(scene.items)
        assert evaluate({scene.image_id: merged}, [scene], table).box.map == 1.0
        assert len(infer(views, table, self.CONFIG, None)) == 2 * len(scene.items)


def eager_flip(tensors, table):
    """Reference: the whole-tensor flip that flip_tensors must match bit for bit."""
    # .copy(), not ascontiguousarray: a width-1 mirror is already contiguous,
    # and the writes below would then land in the input.
    named = {name: np.asarray(grid)[:, :, ::-1].copy() for name, grid in tensors.named().items()}
    named["center_offset"][0] = 1.0 - named["center_offset"][0]
    named["kp_refine_offset"][0] = 1.0 - named["kp_refine_offset"][0]
    named["kp_offset"][0::2] = -named["kp_offset"][0::2]
    for a, b in table.flip_pairs:
        named["kp_heatmap"][[a, b]] = named["kp_heatmap"][[b, a]]
        named["kp_offset"][[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]] = named["kp_offset"][[2 * b, 2 * b + 1, 2 * a, 2 * a + 1]]
    return HeadTensorSet(stride=tensors.stride, **named)


def eager_fuse(tensor_sets, weights=None):
    """Reference: the whole-tensor float64 average that fuse_tensors must match bit for bit."""
    weights = [1.0] * len(tensor_sets) if weights is None else [float(w) for w in weights]
    total = sum(weights)
    fused = {}
    for name in tensor_sets[0].named():
        acc = None
        for ts, w in zip(tensor_sets, weights):
            if w == 0:
                continue
            term = np.asarray(getattr(ts, name)).astype(np.float64)
            term *= w / total
            acc = term if acc is None else acc + term
        fused[name] = acc.astype(np.asarray(getattr(tensor_sets[0], name)).dtype)
    return HeadTensorSet(stride=tensor_sets[0].stride, **fused)


def property_tensors(rng, height, width, sparse):
    """Random tensor set with heatmaps in [0, 1); sparse sets are mostly +0.0 and -0.0."""
    tensors = new_head_tensors(height, width, 4)
    for name, grid in tensors.named().items():
        values = rng.random(grid.shape, dtype=np.float32)
        if name not in ("center", "kp_heatmap"):
            values = (4 * values - 2).astype(np.float32)
        if sparse:
            zeros = np.where(rng.random(grid.shape) < 0.3, np.float32(-0.0), np.float32(0.0))
            values = np.where(rng.random(grid.shape) < 0.1, values, zeros)
        grid[:] = values
    return tensors


def bits(grid):
    return np.asarray(grid).view(np.uint32)


def decode_outcome(tensors, table):
    try:
        return decode_scene(tensors, table)
    except TensorValidationError as exc:
        return str(exc)


class TestLazyFusionIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 6),
        width=st.integers(1, 7),
        sparse=st.booleans(),
        paired=st.booleans(),
        twice=st.booleans(),
        weights=st.sampled_from([None, (1.0, 3.0), (2.0, 0.0), (0.0, 1.0), (0.3, 0.7)]),
        planted=st.sampled_from([("wh", 1), ("center_offset", 0), ("kp_offset", 0)]),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_matches_eager_flip_and_fuse(
        self, table, paired_table, tmp_path_factory, seed, height, width, sparse, paired, twice, weights, planted
    ):
        table = paired_table if paired else table
        rng = np.random.default_rng(seed)
        a, b = (property_tensors(rng, height, width, sparse) for _ in range(2))

        flipped = flip_tensors(b, table)
        want_flipped = eager_flip(b, table)
        if twice:
            flipped = flip_tensors(flip_tensors(flipped, table), table)
            want_flipped = eager_flip(eager_flip(want_flipped, table), table)
        fused = fuse_tensors([a, flipped], weights)
        want = eager_fuse([a, want_flipped], weights)
        for name in want.named():
            np.testing.assert_array_equal(bits(flipped.named()[name]), bits(want_flipped.named()[name]), err_msg=name)
            np.testing.assert_array_equal(bits(fused.named()[name]), bits(want.named()[name]), err_msg=name)
        assert same_detections(decode_scene(fused, table), decode_scene(want, table))

        # clothdet fuse --unflip 1 writes the reference's bytes.
        work = tmp_path_factory.mktemp("fuse")
        (work / "table.json").write_text(dump_category_table(table), "utf-8")
        write_tensors(work / "a.dmrk", a)
        write_tensors(work / "b.dmrk", b)
        write_tensors(work / "want.dmrk", eager_fuse([a, eager_flip(b, table)], weights))
        argv = ["fuse", "--inputs", str(work / "a.dmrk"), str(work / "b.dmrk"), "--out", str(work / "got.dmrk"),
                "--unflip", "1", "--categories", str(work / "table.json")]
        if weights is not None:
            argv += ["--weights", ",".join(map(str, weights))]
        assert main(argv) == 0
        assert (work / "got.dmrk").read_bytes() == (work / "want.dmrk").read_bytes()
        (work / "got.dmrk").unlink()

        # A NaN at the top peak's cell, in an input that carries weight.
        (category,), (row,), (col,), _ = (v.tolist() for v in extract_peaks(want.center, 1, 0.0))
        name, channel = planted
        if name == "kp_offset":
            channel = 2 * table.spec(category + 1).global_offset
        if weights is None or weights[0] > 0:
            index, cell = 0, (row, col)
            getattr(a, name)[channel, row, col] = np.nan
        else:
            index, cell = 1, (row, width - 1 - col)
            getattr(b, name)[channel, row, width - 1 - col] = np.nan
        message = decode_outcome(eager_fuse([a, eager_flip(b, table)], weights), table)
        assert isinstance(message, str) and message.startswith(f"{name}: non-finite value")
        assert decode_outcome(fuse_tensors([a, flip_tensors(b, table)], weights), table) == message

        # clothdet fuse rejects it at its cell in the input, before unflipping, and writes nothing.
        write_tensors(work / "a.dmrk", a)
        write_tensors(work / "b.dmrk", b)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        path = work / ("a.dmrk", "b.dmrk")[index]
        assert err.getvalue() == (
            f"error: {name}: non-finite value at channel {channel}, cell {cell}, in input {index} ({path})\n"
        )
        assert not (work / "got.dmrk").exists()
