import numpy as np
import pytest

from clothdet import (
    HeadTensorSet,
    TensorValidationError,
    new_head_tensors,
    require_valid,
    validate_head_tensors,
)
from clothdet.heads import TENSOR_NAMES


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
    result = validate_head_tensors(new_head_tensors(16, 16, 4), table)
    assert result.ok
    assert result.issues == ()


def test_wrong_center_channel_count(table):
    tensors = new_head_tensors(16, 16, 4, num_categories=12)
    result = validate_head_tensors(tensors, table)
    assert not result.ok
    assert any("center: expected 13 channels" in issue for issue in result.issues)


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
    result = validate_head_tensors(tensors, table)
    assert any("wh: expected 2 channels, got 3" in issue for issue in result.issues)


def test_nan_names_channel_and_cell(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.kp_heatmap[7, 3, 5] = np.nan
    result = validate_head_tensors(tensors, table)
    assert not result.ok
    assert any("kp_heatmap" in issue and "channel 7" in issue and "(3, 5)" in issue for issue in result.issues)


def test_inf_in_center_flagged(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.center[0, 0, 0] = np.inf
    result = validate_head_tensors(tensors, table)
    assert any("center" in issue and "non-finite" in issue for issue in result.issues)


@pytest.mark.parametrize("name, value", [("center", 1.25), ("kp_heatmap", -0.5)])
def test_heatmap_value_outside_unit_range_flagged(table, name, value):
    tensors = new_head_tensors(16, 16, 4)
    getattr(tensors, name)[2, 3, 4] = value
    result = validate_head_tensors(tensors, table)
    assert result.issues == (f"{name}: value {value:g} outside [0, 1] at channel 2, cell (3, 4)",)


def test_heatmap_range_bounds_are_valid(table):
    tensors = new_head_tensors(16, 16, 4)
    tensors.center[0, 0, 0] = 1.0
    tensors.kp_heatmap[0, 0, 0] = 1.0
    assert validate_head_tensors(tensors, table).ok


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
    result = validate_head_tensors(tensors, table)
    assert any("spatial dimensions differ" in issue for issue in result.issues)


def test_require_valid_raises_with_issues(table):
    tensors = new_head_tensors(16, 16, 4, num_categories=12)
    tensors.center[0, 1, 1] = np.nan
    with pytest.raises(TensorValidationError) as err:
        require_valid(tensors, table)
    message = str(err.value)
    assert "center: expected 13 channels" in message
    assert "non-finite" in message


def test_require_valid_passes_on_good_set(table):
    require_valid(new_head_tensors(8, 8, 4), table)
