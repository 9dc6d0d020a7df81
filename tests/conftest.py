import json

import numpy as np
import pytest

from clothdet import (
    GroundTruthItem,
    Scene,
    TensorValidationError,
    default_table,
    dump_category_table,
    load_category_table,
    require_valid,
)


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture(scope="session")
def paired_table(table):
    """Default table plus three synthetic symmetry pairs per category."""
    doc = json.loads(dump_category_table(table))
    doc["flip_pairs"] = [
        [spec.global_offset + 2 * i, spec.global_offset + 2 * i + 1]
        for spec in table.specs
        for i in range(3)
    ]
    return load_category_table(json.dumps(doc))


def make_item(table, category_id, box, landmark_pixels=None, visibility=2):
    """Ground-truth item with the right landmark count for its category.

    Unspecified landmarks are spread on a diagonal strictly inside the box.
    """
    count = table.keypoint_count(category_id)
    landmarks = np.empty((count, 3))
    if landmark_pixels is None:
        x1, y1, x2, y2 = box
        t = (np.arange(count) + 0.5) / count
        landmarks[:, 0] = x1 + t * (x2 - x1)
        landmarks[:, 1] = y1 + t * (y2 - y1)
    else:
        landmarks[:, :2] = np.asarray(landmark_pixels)[: count, :2]
    landmarks[:, 2] = visibility
    return GroundTruthItem(category_id=category_id, box=np.asarray(box, dtype=np.float64), landmarks=landmarks)


def make_scene(table, items, image_id="img-0", width=128, height=128):
    return Scene(image_id=image_id, width=width, height=height, items=tuple(items))


def validation_issues(tensors, table):
    """The issues require_valid raises for the set, or [] when it passes."""
    try:
        require_valid(tensors, table)
    except TensorValidationError as err:
        return err.issues
    return []
