import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothdet import (
    HeadTensorSet,
    TensorValidationError,
    new_head_tensors,
    require_valid,
)
from clothdet.heads import TENSOR_NAMES, _bit_fold, _SparseGrid
from conftest import validation_issues


def test_new_head_tensors_shapes_and_dtype():
    tensors = new_head_tensors(32, 48, 4)
    assert tensors.height == 32 and tensors.width == 48 and tensors.stride == 4
    expected = {
        "center": 13,
        "wh": 2,
        "center_offset": 2,
        "kp_offset": 588,
        "kp_heatmap": 294,
        "kp_refine_offset": 2,
    }
    for name, channels in expected.items():
        grid = getattr(tensors, name)
        assert grid.shape == (channels, 32, 48)
        assert grid.dtype == np.float32
        assert not grid.any()
    assert list(tensors.named()) == list(TENSOR_NAMES)


def test_all_zero_set_is_valid(table):
    assert validation_issues(new_head_tensors(16, 16, 4), table) == []


def test_wrong_center_channel_count(table):
    tensors = new_head_tensors(16, 16, 4, num_categories=12)
    issues = validation_issues(tensors, table)
    assert issues
    assert any("center: expected 13 channels" in issue for issue in issues)


def test_wrong_wh_channel_count(table):
    base = new_head_tensors(16, 16, 4)
    tensors = HeadTensorSet(
        stride=4,
        center=base.center,
        wh=np.zeros((3, 16, 16), dtype=np.float32),
        center_offset=base.center_offset,
        kp_offset=base.kp_offset,
        kp_heatmap=base.kp_heatmap,
        kp_refine_offset=base.kp_refine_offset,
    )
    issues = validation_issues(tensors, table)
    assert any("wh: expected 2 channels, got 3" in issue for issue in issues)


def test_nan_names_channel_and_cell(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.kp_heatmap[7, 3, 5] = np.nan
    issues = validation_issues(tensors, table)
    assert issues
    assert any("kp_heatmap" in issue and "channel 7" in issue and "(3, 5)" in issue for issue in issues)


def test_inf_in_center_flagged(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.center[0, 0, 0] = np.inf
    issues = validation_issues(tensors, table)
    assert any("center" in issue and "non-finite" in issue for issue in issues)


@pytest.mark.parametrize("name, value", [("center", 1.25), ("kp_heatmap", -0.5)])
def test_heatmap_value_outside_unit_range_flagged(table, name, value):
    tensors = new_head_tensors(16, 16, 4)
    getattr(tensors, name)[2, 3, 4] = value
    assert validation_issues(tensors, table) == [f"{name}: value {value:g} outside [0, 1] at channel 2, cell (3, 4)"]


def test_heatmap_range_bounds_are_valid(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.center[0, 0, 0] = 1.0
    tensors.kp_heatmap[0, 0, 0] = 1.0
    require_valid(tensors, table)


def test_mismatched_spatial_dims(table):
    base = new_head_tensors(16, 16, 4)
    tensors = HeadTensorSet(
        stride=4,
        center=base.center,
        wh=np.zeros((2, 16, 17), dtype=np.float32),
        center_offset=base.center_offset,
        kp_offset=base.kp_offset,
        kp_heatmap=base.kp_heatmap,
        kp_refine_offset=base.kp_refine_offset,
    )
    issues = validation_issues(tensors, table)
    assert any("spatial dimensions differ" in issue for issue in issues)


def test_require_valid_raises_with_issues(table):
    tensors = new_head_tensors(16, 16, 4, num_categories=12)
    tensors.center[0, 1, 1] = np.nan
    with pytest.raises(TensorValidationError) as err:
        require_valid(tensors, table)
    message = str(err.value)
    assert "center: expected 13 channels" in message
    assert "non-finite" in message
    assert err.value.issues == [
        "center: expected 13 channels, got 12",
        "center: non-finite value at channel 0, cell (1, 1)",
    ]


def test_require_valid_passes_on_good_set(table):
    require_valid(new_head_tensors(8, 8, 4), table)


def reference_heatmap_issues(tensors):
    """Reference: the min/max heatmap check of the earlier validator, run on every set."""
    issues = []
    for name in ("center", "kp_heatmap"):
        grid = getattr(tensors, name)
        lo, hi = grid.min(), grid.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            c, r, col = np.unravel_index(np.flatnonzero(~np.isfinite(grid))[0], grid.shape)
            issues.append(f"{name}: non-finite value at channel {c}, cell ({r}, {col})")
        elif lo < 0 or hi > 1:
            c, r, col = np.unravel_index(np.flatnonzero((grid < 0) | (grid > 1))[0], grid.shape)
            issues.append(f"{name}: value {grid[c, r, col]:g} outside [0, 1] at channel {c}, cell ({r}, {col})")
    return issues


HEATMAP_VALUES = [np.nan, np.inf, -np.inf, -0.0, -0.5, -1e-45, 1.0, 1.0000001, 1.5, 0.5, 1e-45, 5e-324]
# A channel of 13 and a cell of 4x5, or the first or last cell of the heatmap.
PLANTED_CELLS = st.tuples(st.integers(0, 12), st.integers(0, 3), st.integers(0, 4)) | st.sampled_from(["first", "last"])


@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    planted=st.lists(
        st.tuples(st.sampled_from(["center", "kp_heatmap"]), PLANTED_CELLS, st.sampled_from(HEATMAP_VALUES)),
        max_size=3,
    ),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_heatmap_issues_match_min_max_reference(table, dtype, planted):
    # 294x4x5 and 13x4x5 heatmaps fold 42 and 26 ways.
    base = new_head_tensors(4, 5, 4)
    tensors = HeadTensorSet(stride=4, **{name: grid.astype(dtype) for name, grid in base.named().items()})
    for name, cell, value in planted:
        grid = getattr(tensors, name)
        if isinstance(cell, str):
            cell = np.unravel_index({"first": 0, "last": grid.size - 1}[cell], grid.shape)
        grid[cell] = value
    assert validation_issues(tensors, table) == reference_heatmap_issues(tensors)
    for name in ("center", "kp_heatmap"):
        grid = getattr(tensors, name)
        fold = _bit_fold(grid)
        if dtype is np.float32:
            assert fold.size < grid.size and fold.max() == grid.view(np.uint32).max()
        else:
            assert fold is None


def test_require_valid_returns_the_heatmap_folds(table):
    tensors = new_head_tensors(4, 5, 4)
    tensors.kp_heatmap[293, 3, 4] = 0.75
    folds = require_valid(tensors, table)
    assert list(folds) == ["center", "kp_heatmap"]
    assert folds["kp_heatmap"].shape == (294 * 4 * 5 // 42,)
    assert folds["kp_heatmap"][-1] == np.float32(0.75).view(np.uint32)
    assert not folds["center"].any()
    flat = np.flatnonzero(tensors.kp_heatmap)
    sparse = _SparseGrid(tensors.kp_heatmap.shape, flat, tensors.kp_heatmap.reshape(-1)[flat])
    for kp_heatmap in (sparse, tensors.kp_heatmap.astype(np.float64)):
        folds = require_valid(dataclasses.replace(tensors, kp_heatmap=kp_heatmap), table)
        assert folds["kp_heatmap"] is None and folds["center"] is not None
