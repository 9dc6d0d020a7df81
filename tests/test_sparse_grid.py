"""Heatmaps held as nonzeros (`heads._SparseGrid`) against the dense paths, bit for bit.

The dense code paths stay the reference: every test builds the same
tensors once as arrays and once with sparse heatmaps, and compares bit
patterns.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import clothdet.decode
from clothdet import (
    HeadTensorSet,
    SynthParams,
    decode_scene,
    encode_scene,
    extract_peaks,
    flip_tensors,
    fuse_tensors,
    new_head_tensors,
    require_valid,
    synth_scenes,
    write_tensors,
)
from clothdet.heads import HEATMAP_NAMES, _SparseGrid
from clothdet.postprocess import infer
from conftest import validation_issues

# -0.0, two NaN payloads, two subnormals, a negative value, 1.0000001 and
# ordinary scores.
SPECIAL_BITS = [0x80000000, 0x7FC0BEEF, 0xFF800001, 0x00000001, 0x80000001, 0xBF000000, 0x3F800001]
SPECIAL = np.array(SPECIAL_BITS, dtype=np.uint32).view(np.float32).tolist()
SCORES = [0.5, 0.25, 1.0, 0.1, 1e-45, 0.75]
PEAK_THRESHOLDS = [0.0, -0.0, -0.25, -np.inf, 0.1, 0.25, 0.5, 1e-45]


def bits(grid):
    return np.ascontiguousarray(np.asarray(grid)).view(np.uint32)


def sparse_of(dense, extra):
    """The _SparseGrid of `dense`: every nonzero bit pattern listed, plus the +0.0 cells flagged in `extra`."""
    flat = dense.reshape(-1)
    indices = np.flatnonzero((flat.view(np.uint32) != 0) | extra.reshape(-1))
    return _SparseGrid(dense.shape, indices, flat[indices].copy())


def assert_sparse_form(grid):
    assert isinstance(grid, _SparseGrid)
    assert grid.values.dtype == np.float32 and len(grid.indices) == len(grid.values)
    assert (np.diff(grid.indices.astype(np.int64)) > 0).all()


@st.composite
def heatmaps(draw, channels=None):
    """A float32 (C, H, W) heatmap, mostly +0.0, and a mask of +0.0 cells that its sparse form lists too.

    Equal-valued rectangles land at (0, 0), on an edge or inside the grid.
    """
    channels = draw(st.integers(1, 3)) if channels is None else channels
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dense = np.zeros((channels, height, width), dtype=np.float32)
    values = st.sampled_from(SCORES + SPECIAL) | st.floats(0, 1, width=32)
    cell = st.tuples(st.integers(0, channels - 1), st.integers(0, height - 1), st.integers(0, width - 1))
    corner = st.sampled_from([(0, 0), (0, width - 1), (height - 1, 0), (height - 1, width - 1)])
    for (c, r0, c0), (r1, c1), value in draw(st.lists(st.tuples(cell, corner, values), max_size=3)):
        dense[c, min(r0, r1) : max(r0, r1) + 1, min(c0, c1) : max(c0, c1) + 1] = value
    for (c, r, x), value in draw(st.lists(st.tuples(cell, values), max_size=8)):
        dense[c, r, x] = value
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # A busy channel, so that the full-grid comparison is taken too.
        dense[rng.integers(channels)] = rng.random((height, width), dtype=np.float32).round(1)
    extra = rng.random(dense.shape) < draw(st.sampled_from([0.0, 0.2]))
    return dense, extra


def tensor_sets(rng, height, width, center, kp_heatmap, center_extra=None, kp_extra=None):
    """A tensor set with the given heatmaps as arrays, and the same set with them as _SparseGrid."""
    dense = new_head_tensors(height, width, 4)
    for name in ("wh", "center_offset", "kp_offset", "kp_refine_offset"):
        getattr(dense, name)[:] = rng.random(getattr(dense, name).shape, dtype=np.float32)
    dense.center[:] = center
    dense.kp_heatmap[:] = kp_heatmap
    grids = {
        "center": sparse_of(dense.center, np.zeros(center.shape, bool) if center_extra is None else center_extra),
        "kp_heatmap": sparse_of(dense.kp_heatmap, np.zeros(kp_heatmap.shape, bool) if kp_extra is None else kp_extra),
    }
    return dense, HeadTensorSet(**{**dense.__dict__, **grids})


def spread(rng, stack, channels):
    """`stack` laid into `channels` channels, its channels at random distinct positions."""
    out = np.zeros((channels, *stack.shape[1:]), dtype=np.float32)
    out[rng.choice(channels, size=stack.shape[0], replace=False)] = stack
    return out


@given(center=heatmaps(), kp=heatmaps(), seed=st.integers(0, 2**32 - 1), extra=st.booleans())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_validation_issues_match_dense(table, center, kp, seed, extra):
    rng = np.random.default_rng(seed)
    (c_stack, c_extra), (k_stack, k_extra) = center, kp
    height, width = c_stack.shape[1:]
    if k_stack.shape[1:] != (height, width):
        k_stack, k_extra = np.zeros((1, height, width), np.float32), np.zeros((1, height, width), bool)
    center_grid, kp_grid = spread(rng, c_stack, 13), spread(rng, k_stack, 294)
    dense, sparse = tensor_sets(
        rng, height, width, center_grid, kp_grid,
        spread(rng, c_extra, 13).astype(bool) if extra else None,
        spread(rng, k_extra, 294).astype(bool) if extra else None,
    )
    assert validation_issues(sparse, table) == validation_issues(dense, table)


def peak_key(peaks):
    return [(p.channel, p.cell, np.float64(p.score).view(np.uint64)) for p in peaks]


@given(heatmap=heatmaps(), min_score=st.sampled_from(PEAK_THRESHOLDS), k=st.integers(1, 4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_peaks_match_dense(heatmap, min_score, k):
    dense, extra = heatmap
    sparse = sparse_of(dense, extra)
    # The automatic path switch, then each path forced.
    for fraction in (clothdet.decode._DENSE_FRACTION, 1.1, 0.0):
        with mock.patch.object(clothdet.decode, "_DENSE_FRACTION", fraction):
            got = clothdet.decode._peak_arrays(sparse, min_score)
            want = clothdet.decode._peak_arrays(dense, min_score)
            for a, b in zip(got[:3], want[:3]):
                np.testing.assert_array_equal(a, b)
            assert got[3].dtype == want[3].dtype == np.float32
            np.testing.assert_array_equal(got[3].view(np.uint32), want[3].view(np.uint32))
            for limit in (None, k):
                assert peak_key(extract_peaks(sparse, limit, min_score)) == peak_key(extract_peaks(dense, limit, min_score))


@given(center=heatmaps(channels=13), seed=st.integers(0, 2**32 - 1), twice=st.booleans())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_flip_matches_dense(paired_table, center, seed, twice):
    rng = np.random.default_rng(seed)
    c_stack, c_extra = center
    height, width = c_stack.shape[1:]
    kp = np.zeros((294, height, width), dtype=np.float32)
    # Values on flip-paired channels, so that the channel swap shows.
    paired = np.array(paired_table.flip_pairs).reshape(-1)
    kp[paired] = np.where(rng.random((paired.size, height, width)) < 0.3, rng.random((paired.size, height, width)), 0)
    kp[rng.integers(294), 0, 0] = SPECIAL[rng.integers(len(SPECIAL))]
    dense, sparse = tensor_sets(rng, height, width, c_stack, kp, c_extra, rng.random(kp.shape) < 0.05)
    flipped, want = flip_tensors(sparse, paired_table), flip_tensors(dense, paired_table)
    if twice:
        flipped, want = flip_tensors(flipped, paired_table), flip_tensors(want, paired_table)
    for name in HEATMAP_NAMES:
        assert_sparse_form(getattr(flipped, name))
        np.testing.assert_array_equal(bits(getattr(flipped, name)), bits(getattr(want, name)), err_msg=name)
        if twice:
            # The involution returns the very listed cells, +0.0 ones included.
            np.testing.assert_array_equal(getattr(flipped, name).indices, getattr(sparse, name).indices)
            np.testing.assert_array_equal(bits(getattr(flipped, name)), bits(getattr(dense, name)))


@given(
    inputs=st.lists(st.tuples(heatmaps(channels=13), st.booleans()), min_size=1, max_size=3),
    weights=st.lists(st.sampled_from([1.0, 0.0, 3.0, 0.3, 1e-300]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_fuse_matches_dense(tmp_path_factory, inputs, weights, seed):
    rng = np.random.default_rng(seed)
    height, width = inputs[0][0][0].shape[1:]
    weights = weights[: len(inputs)]
    if not sum(weights):
        weights[0] = 1.0
    dense_sets, mixed_sets = [], []
    for (stack, extra), sparse in inputs:
        if stack.shape[1:] != (height, width):
            stack, extra = np.zeros((13, height, width), np.float32), np.zeros((13, height, width), bool)
        kp = np.where(rng.random((294, height, width)) < 0.02, rng.random((294, height, width)), 0).astype(np.float32)
        kp[rng.integers(294), rng.integers(height), rng.integers(width)] = SPECIAL[rng.integers(len(SPECIAL))]
        dense, sparse_set = tensor_sets(rng, height, width, stack, kp, extra, rng.random(kp.shape) < 0.02)
        dense_sets.append(dense)
        mixed_sets.append(sparse_set if sparse else dense)

    fused, want = fuse_tensors(mixed_sets, weights), fuse_tensors(dense_sets, weights)
    live_sparse = all(isinstance(ts.center, _SparseGrid) for ts, w in zip(mixed_sets, weights) if w)
    for name in HEATMAP_NAMES:
        grid = getattr(fused, name)
        if live_sparse:
            assert_sparse_form(grid)
            # No listed +0.0 cell survives the cast.
            assert (grid.values.view(np.uint32) != 0).all()
        else:
            assert isinstance(grid, np.ndarray)
        np.testing.assert_array_equal(bits(grid), bits(getattr(want, name)), err_msg=name)
    assert sum(g.nbytes for ts in mixed_sets for g in ts.named().values()) == sum(
        g.nbytes for ts in dense_sets for g in ts.named().values()
    )
    work = tmp_path_factory.mktemp("fuse")
    write_tensors(work / "got.dmrk", fused)
    write_tensors(work / "want.dmrk", want)
    assert (work / "got.dmrk").read_bytes() == (work / "want.dmrk").read_bytes()


def test_sparse_grid_reads_listed_bits_and_zero_elsewhere():
    values = np.array(SPECIAL + [0.0], dtype=np.float32)
    grid = _SparseGrid((2, 3, 5), np.array([0, 3, 7, 11, 14, 20, 26, 29], dtype=np.uint32), values)
    want = np.zeros(30, dtype=np.float32)
    want[grid.indices] = values
    want = want.reshape(2, 3, 5)
    np.testing.assert_array_equal(bits(grid), want.view(np.uint32))
    np.testing.assert_array_equal(grid.gather(*np.indices(grid.shape)).view(np.uint32), want.view(np.uint32))
    np.testing.assert_array_equal(grid[1, :, ::-2].view(np.uint32), want[1, :, ::-2].view(np.uint32))
    assert grid.nbytes == want.nbytes and grid.dtype == np.float32 and grid.ndim == 3
    assert np.asarray(grid).flags.writeable


def same_detections(a, b):
    return len(a) == len(b) and all(
        d.category_id == e.category_id and np.float64(d.score).view(np.uint64) == np.float64(e.score).view(np.uint64)
        and np.array_equal(d.box, e.box) and np.array_equal(d.landmarks, e.landmarks)
        for d, e in zip(a, b)
    )


def test_encoder_tensors_are_never_scattered(table, paired_table, tmp_path, monkeypatch):
    config = clothdet.decode.DecodeConfig()
    scenes = synth_scenes(SynthParams(seed=4, num_images=3, image_width=256, image_height=256), table)
    cases = []
    for scene in scenes:
        dense = HeadTensorSet(stride=4, **{name: np.asarray(grid) for name, grid in encode_scene(scene, table).named().items()})
        write_tensors(tmp_path / "want.dmrk", dense)
        want = (decode_scene(dense, table), infer([(1.0, dense, dense)], paired_table, config, None),
                (tmp_path / "want.dmrk").read_bytes())
        cases.append((scene, want))

    def scatter(grid):
        raise AssertionError("a sparse grid was scattered")

    # Validation, peaks, regression reads, flip, fuse and the write read the listed cells alone.
    monkeypatch.setattr(_SparseGrid, "whole", scatter)
    for scene, (decoded, fused, written) in cases:
        plain, mirrored = encode_scene(scene, table), encode_scene(scene, table)
        assert all(isinstance(grid, _SparseGrid) for grid in plain.named().values())
        require_valid(plain, table)
        assert same_detections(decode_scene(plain, table), decoded)
        assert same_detections(infer([(1.0, plain, mirrored)], paired_table, config, None), fused)
        write_tensors(tmp_path / "got.dmrk", plain)
        assert (tmp_path / "got.dmrk").read_bytes() == written


def test_named_on_an_encoder_set_allocates_no_arrays(table):
    scene = synth_scenes(SynthParams(seed=4, num_images=1, image_width=512, image_height=512), table)[0]
    tensors = encode_scene(scene, table)
    tracemalloc.start()
    try:
        tensors.named()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fuse_sums_inputs_in_order():
    # Summed first to last, the two large terms cancel before the small one
    # is added; summed in another order the small one would be lost.
    sets = []
    for value in (1e30, -1e30, 0.5):
        tensors = new_head_tensors(2, 3, 4)
        tensors.center[4, 1, 2] = value
        sets.append((tensors, HeadTensorSet(**{**tensors.__dict__, "center": sparse_of(tensors.center, tensors.center != 0)})))
    want = fuse_tensors([dense for dense, _ in sets]).center
    assert want[4, 1, 2] == np.float32(0.5 / 3)
    np.testing.assert_array_equal(bits(fuse_tensors([sparse for _, sparse in sets]).center), bits(want))
