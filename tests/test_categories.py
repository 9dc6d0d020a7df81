import json

import numpy as np
import pytest

from clothdet import (
    CategoryConfigError,
    dump_category_table,
    load_category_table,
)
from clothdet.categories import DEFAULT_SIGMA, NUM_CATEGORIES, TOTAL_KEYPOINTS

DEFAULT_COUNTS = [25, 33, 31, 39, 15, 15, 10, 14, 8, 29, 37, 19, 19]


def config_doc(counts=None, **extra):
    counts = DEFAULT_COUNTS if counts is None else counts
    doc = {
        "categories": [
            {"id": i + 1, "name": f"cat-{i + 1}", "keypoints": c} for i, c in enumerate(counts)
        ]
    }
    doc.update(extra)
    return doc


def test_default_counts_and_offsets(table):
    assert len(table.specs) == NUM_CATEGORIES
    assert [s.keypoint_count for s in table.specs] == DEFAULT_COUNTS
    # Offsets are the cumulative sum of the counts.
    expected_offsets = np.concatenate(([0], np.cumsum(DEFAULT_COUNTS)[:-1])).tolist()
    assert [s.global_offset for s in table.specs] == expected_offsets
    assert expected_offsets == [0, 25, 58, 89, 128, 143, 158, 168, 182, 190, 219, 256, 275]
    assert sum(DEFAULT_COUNTS) == TOTAL_KEYPOINTS
    assert [s.id for s in table.specs] == list(range(1, 14))


def test_default_sigmas_uniform(table):
    assert table.sigmas.shape == (TOTAL_KEYPOINTS,)
    assert np.all(table.sigmas == DEFAULT_SIGMA)
    assert not table.sigmas.flags.writeable


def test_global_keypoint_index_examples(table):
    assert table.global_slice(1).start + 0 == 0
    assert table.global_slice(2).start + 0 == 25
    assert table.global_slice(13).start + 18 == 293


def test_global_keypoint_index_out_of_range(table):
    with pytest.raises(CategoryConfigError):
        table.spec(0)
    with pytest.raises(CategoryConfigError):
        table.spec(14)


def test_global_index_is_injective_onto_full_range(table):
    seen = [
        table.global_slice(spec.id).start + local
        for spec in table.specs
        for local in range(spec.keypoint_count)
    ]
    assert sorted(seen) == list(range(TOTAL_KEYPOINTS))


def test_global_slice(table):
    assert table.global_slice(2) == slice(25, 58)
    assert table.keypoint_count(1) == 25


def test_keypoint_total_must_be_294():
    counts = DEFAULT_COUNTS.copy()
    counts[0] -= 1
    with pytest.raises(CategoryConfigError, match="keypoint total 293"):
        load_category_table(json.dumps(config_doc(counts)))


def test_flip_pair_within_category_accepted():
    table = load_category_table(json.dumps(config_doc(flip_pairs=[[0, 5]])))
    assert table.flip_pairs == ((0, 5),)


def test_flip_pair_crossing_categories_rejected():
    # 24 is in category 1's slice, 25 in category 2's.
    with pytest.raises(CategoryConfigError, match="crosses"):
        load_category_table(json.dumps(config_doc(flip_pairs=[[24, 25]])))


def test_flip_pair_reuse_rejected():
    with pytest.raises(CategoryConfigError, match="reuses"):
        load_category_table(json.dumps(config_doc(flip_pairs=[[0, 5], [5, 6]])))


def loop_flip_perm(table):
    """Reference permutation: one swap per flip pair, in table order."""
    perm = np.arange(TOTAL_KEYPOINTS)
    for a, b in table.flip_pairs:
        perm[[a, b]] = perm[[b, a]]
    return perm


@pytest.fixture(scope="module")
def mirrored_slices_table():
    """Every category's landmarks paired end to end (i with count-1-i), larger index first."""
    pairs, offset = [], 0
    for count in DEFAULT_COUNTS:
        pairs += [[offset + count - 1 - i, offset + i] for i in range(count // 2)]
        offset += count
    return load_category_table(json.dumps(config_doc(flip_pairs=pairs)))


@pytest.mark.parametrize("fixture", ["table", "paired_table", "mirrored_slices_table"])
def test_flip_perm_matches_pairwise_swaps(fixture, request):
    table = request.getfixturevalue(fixture)
    perm, want = table.flip_perm, loop_flip_perm(table)
    assert perm.dtype == want.dtype and np.array_equal(perm, want)
    assert np.array_equal(perm[perm], np.arange(TOTAL_KEYPOINTS))
    assert table.flip_perm is perm
    assert not perm.flags.writeable


def test_duplicate_category_id_rejected():
    doc = config_doc()
    doc["categories"][1]["id"] = 1
    with pytest.raises(CategoryConfigError, match="duplicate"):
        load_category_table(json.dumps(doc))


def test_nonpositive_keypoints_rejected():
    counts = DEFAULT_COUNTS.copy()
    counts[3] = 0
    with pytest.raises(CategoryConfigError, match="keypoints"):
        load_category_table(json.dumps(config_doc(counts)))


def test_sigma_validation():
    sigmas = [0.05] * TOTAL_KEYPOINTS
    sigmas[7] = -1.0
    with pytest.raises(CategoryConfigError, match=r"sigmas\[7\]"):
        load_category_table(json.dumps(config_doc(sigmas=sigmas)))
    with pytest.raises(CategoryConfigError, match="294"):
        load_category_table(json.dumps(config_doc(sigmas=[0.05] * 10)))


@pytest.mark.parametrize("value", [True, "x", None, [0.05], float("nan"), float("inf"), 0, 10**400],
                         ids=["true", "string", "null", "list", "nan", "inf", "zero", "beyond-float"])
def test_sigma_that_is_no_positive_finite_number_rejected(value):
    sigmas = [0.05] * TOTAL_KEYPOINTS
    sigmas[11] = value
    with pytest.raises(CategoryConfigError, match=r"^sigmas\[11\] = .* is not a positive finite number$"):
        load_category_table(json.dumps(config_doc(sigmas=sigmas)))


def test_integer_sigmas_accepted():
    table = load_category_table(json.dumps(config_doc(sigmas=[1] * TOTAL_KEYPOINTS)))
    assert table.sigmas.dtype == np.float64 and np.all(table.sigmas == 1.0)


@pytest.mark.parametrize("field, message", [
    ("id", r"categories\[2\]\.id must be an integer 1\.\.13, got True"),
    ("keypoints", r"categories\[2\]\.keypoints must be a positive integer, got True"),
], ids=["id", "keypoints"])
def test_json_boolean_is_no_category_integer(field, message):
    doc = config_doc()
    doc["categories"][2][field] = True
    with pytest.raises(CategoryConfigError, match=message):
        load_category_table(json.dumps(doc))


@pytest.mark.parametrize("name", [None, 3, 2.5, True, ["shirt"], {"a": 1}],
                         ids=["null", "integer", "float", "true", "list", "object"])
def test_category_name_that_is_no_string_rejected(name):
    doc = config_doc()
    doc["categories"][4]["name"] = name
    with pytest.raises(CategoryConfigError, match=r"^categories\[4\]\.name must be a string, got "):
        load_category_table(json.dumps(doc))


@pytest.mark.parametrize("pair", [[True, 5], [0, True], [False, 5]])
def test_json_boolean_is_no_flip_pair_index(pair):
    with pytest.raises(CategoryConfigError, match=r"flip_pairs\[0\] = .* is not a pair of distinct indices"):
        load_category_table(json.dumps(config_doc(flip_pairs=[pair])))


def test_invalid_json_rejected():
    with pytest.raises(CategoryConfigError, match="JSON"):
        load_category_table("{not json")


def test_wrong_category_count_rejected():
    doc = config_doc()
    doc["categories"].pop()
    with pytest.raises(CategoryConfigError, match="13"):
        load_category_table(json.dumps(doc))


def test_dump_load_roundtrip(table):
    reloaded = load_category_table(dump_category_table(table))
    assert reloaded.specs == table.specs
    assert reloaded.flip_pairs == table.flip_pairs
    assert np.array_equal(reloaded.sigmas, table.sigmas)


def test_specs_ordered_by_id_regardless_of_input_order():
    doc = config_doc()
    doc["categories"].reverse()
    table = load_category_table(json.dumps(doc))
    assert [s.id for s in table.specs] == list(range(1, 14))
    assert [s.keypoint_count for s in table.specs] == DEFAULT_COUNTS
