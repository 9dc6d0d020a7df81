import contextlib
import copy
import dataclasses
import io
import json
import logging
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothdet import (
    Detection,
    FormatError,
    GroundTruthItem,
    HeadTensorSet,
    Scene,
    SynthParams,
    encode_scene,
    new_head_tensors,
    read_detections,
    read_scenes,
    read_tensors,
    synth_scenes,
    write_detections,
    write_scenes,
    write_tensors,
)
from clothdet import fileio
from clothdet.cli import main
from clothdet.heads import TENSOR_NAMES, _SparseGrid

import unbatched_reference


def random_tensor_set(seed=0, height=12, width=20, stride=4):
    rng = np.random.default_rng(seed)
    tensors = new_head_tensors(height, width, stride)
    for grid in tensors.named().values():
        grid[:] = rng.standard_normal(grid.shape, dtype=np.float32)
    return tensors


def craft_container(entries, payload, version=1, stride=4, magic=b"DMRK"):
    """Entries are (name, shape, offset), plus an encoding byte (default 0, dense) from version 2 on."""
    blob = bytearray(magic)
    blob += struct.pack("<III", version, stride, len(entries))
    for name, (c, h, w), offset, *encoding in entries:
        encoded = name if isinstance(name, bytes) else name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<III", c, h, w)
        if version > 1:
            blob += struct.pack("<B", *(encoding or [0]))
        blob += struct.pack("<Q", offset)
    blob += struct.pack("<Q", len(payload))
    blob += payload
    return bytes(blob)


def dense_container(tensors, version=1):
    """Dense blocks back to back, with no padding between them."""
    entries, payload = [], bytearray()
    for name, grid in tensors.named().items():
        entries.append((name, grid.shape, len(payload)))
        payload += grid.astype("<f4").tobytes()
    return craft_container(entries, bytes(payload), version=version, stride=tensors.stride)


# The directory of the six standard tensors takes 218 bytes.
HEADER_BYTES = 218


def padded_payload_size(extents):
    """Payload size when blocks of these byte extents each start at a file offset that is a multiple of 8."""
    end = HEADER_BYTES
    for extent in extents:
        end += -end % 8 + extent
    return end - HEADER_BYTES


def sparse_block(indices):
    """A sparse block holding 1.0 at each flat index."""
    return struct.pack("<I", len(indices)) + np.asarray(indices, "<u4").tobytes() + np.ones(len(indices), "<f4").tobytes()


def sparse_container(height=2, width=2, **blocks):
    """A version 2 container of sparse blocks; tensors not named in `blocks` hold no nonzeros."""
    entries, payload = [], bytearray()
    for name in TENSOR_NAMES:
        entries.append((name, grid_shape(name, height, width), len(payload), 1))
        payload += blocks.get(name, sparse_block([]))
    return craft_container(entries, bytes(payload), version=2)


def directory(blob):
    """(name, encoding) per directory entry and the payload size of a version 2 container."""
    (count,) = struct.unpack_from("<I", blob, 12)
    pos, out = 16, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + name_len].decode()
        pos += 2 + name_len
        out.append((name, blob[pos + 12]))
        pos += 21
    return out, struct.unpack_from("<Q", blob, pos)[0]


def assert_bits_equal(loaded, tensors):
    for name, grid in tensors.named().items():
        got, want = np.asarray(loaded.named()[name]), np.asarray(grid)
        assert got.dtype == np.float32 and got.shape == want.shape, name
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32), err_msg=name)


def grid_shape(name, height, width):
    channels = new_head_tensors(1, 1, 4).named()[name].shape[0]
    return channels, height, width


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        tensors = random_tensor_set(seed=3, stride=8)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        assert loaded.stride == 8
        for name, grid in tensors.named().items():
            got = loaded.named()[name]
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, grid, err_msg=name)

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        tensors = random_tensor_set(seed=4)
        a, b = tmp_path / "a.dmrk", tmp_path / "b.dmrk"
        write_tensors(a, tensors)
        write_tensors(b, read_tensors(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(FormatError, match="bad magic"):
            read_tensors(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container([], b"", version=3))
        with pytest.raises(FormatError, match="unsupported container version 3, expected 1 or 2"):
            read_tensors(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(b"DMRK\x01\x00")
        with pytest.raises(FormatError, match="truncated header at byte 4"):
            read_tensors(path)

    def test_truncated_payload_names_sizes(self, tmp_path):
        tensors = random_tensor_set(seed=5, height=8, width=8)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        expected = padded_payload_size(grid.nbytes for grid in tensors.named().values())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match=f"truncated payload: expected {expected} bytes, got {expected - 10}"):
            read_tensors(path)

    def test_duplicate_directory_entry(self, tmp_path):
        entries = [("center", (1, 2, 2), 0), ("center", (1, 2, 2), 16)]
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container(entries, bytes(32)))
        with pytest.raises(FormatError, match="duplicate directory entry 'center'"):
            read_tensors(path)

    def test_overlapping_entries(self, tmp_path):
        entries = [("center", (1, 2, 2), 0), ("wh", (1, 2, 2), 8)]
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container(entries, bytes(24)))
        with pytest.raises(FormatError, match="'center' and 'wh' overlap"):
            read_tensors(path)

    def test_entry_past_payload(self, tmp_path):
        entries = [("center", (1, 2, 2), 0)]
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container(entries, bytes(8)))
        with pytest.raises(FormatError, match="'center' ends at byte 16, past payload size 8"):
            read_tensors(path)

    def test_missing_tensors(self, tmp_path):
        height = width = 4
        entries = []
        offset = 0
        for name in TENSOR_NAMES:
            if name == "kp_refine_offset":
                continue
            shape = grid_shape(name, height, width)
            entries.append((name, shape, offset))
            offset += 4 * int(np.prod(shape))
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container(entries, bytes(offset)))
        with pytest.raises(FormatError, match=r"missing tensors \['kp_refine_offset'\]"):
            read_tensors(path)

    def test_non_utf8_entry_name(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container([(b"cen\xfftr", (1, 2, 2), 0)], bytes(16)))
        with pytest.raises(FormatError, match="entry name at byte 18 is not valid UTF-8"):
            read_tensors(path)


class TestSparseContainer:
    def test_roundtrip_keeps_signed_zero_nan_and_subnormal(self, tmp_path):
        tensors = new_head_tensors(6, 5, 4)
        tensors.center[2, 1, 3] = 0.5
        tensors.center[4, 0, 0] = -0.0
        tensors.wh[1, 5, 4] = np.array(0x7FC0BEEF, dtype=np.uint32).view(np.float32)
        tensors.kp_offset[7, 2, 2] = np.array(0xFF800001, dtype=np.uint32).view(np.float32)
        tensors.kp_refine_offset[0, 3, 1] = np.array(1, dtype=np.uint32).view(np.float32)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        entries, _ = directory(path.read_bytes())
        assert [encoding for _, encoding in entries] == [1] * len(TENSOR_NAMES)
        assert_bits_equal(read_tensors(path), tensors)

    def test_regression_blocks_read_lazily_with_exact_bits(self, tmp_path):
        bits = np.array([0x80000000, 0x7FC0BEEF, 0xFF800001, 0x00000001, 0x80000001, 0x3FC00000], dtype=np.uint32)
        specials = bits.view(np.float32)  # -0.0, two NaN payloads, two subnormals, 1.5
        tensors = new_head_tensors(6, 5, 4)
        tensors.center[3, 2, 1] = 0.5
        tensors.wh.reshape(-1)[[0, 7, 59]] = specials[:3]  # first and last flat index included
        tensors.kp_offset.reshape(-1)[[5, 1000, 17000]] = specials[3:]
        tensors.kp_refine_offset[1, 5, 4] = specials[1]
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        assert isinstance(loaded.center, _SparseGrid) and isinstance(loaded.kp_heatmap, _SparseGrid)
        for name in ("wh", "center_offset", "kp_offset", "kp_refine_offset"):
            grid, want = loaded.named()[name], tensors.named()[name].view(np.uint32)
            assert isinstance(grid, _SparseGrid) and grid.shape == want.shape and grid.dtype == np.float32, name
            np.testing.assert_array_equal(np.asarray(grid).view(np.uint32), want, err_msg=name)
            np.testing.assert_array_equal(grid.gather(*np.indices(grid.shape)).view(np.uint32), want, err_msg=name)
            np.testing.assert_array_equal(grid[:, 5, ::-2].view(np.uint32), want[:, 5, ::-2], err_msg=name)
        assert_bits_equal(loaded, tensors)

    def test_dense_set_writes_dense_blocks(self, tmp_path):
        tensors = random_tensor_set(seed=9)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        entries, payload_size = directory(path.read_bytes())
        assert entries == [(name, 0) for name in TENSOR_NAMES]
        assert payload_size == padded_payload_size(grid.nbytes for grid in tensors.named().values())

    def test_encoder_view_writes_sparse_blocks(self, tmp_path, table):
        scene = synth_scenes(SynthParams(seed=2, num_images=1, image_width=160, image_height=128, max_box_size=96), table)[0]
        tensors = encode_scene(scene, table)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        entries, payload_size = directory(path.read_bytes())
        assert [encoding for _, encoding in entries] == [1] * len(TENSOR_NAMES)
        extents = [4 + 8 * int(np.count_nonzero(np.asarray(grid))) for grid in tensors.named().values()]
        assert payload_size == padded_payload_size(extents)
        assert_bits_equal(read_tensors(path), tensors)

    def test_v1_container_reads_like_its_v2_rewrite(self, tmp_path):
        tensors = random_tensor_set(seed=10, height=4, width=6)
        tensors.kp_heatmap[:] = 0
        tensors.kp_heatmap[5, 1, 2] = 0.25
        v1, v2 = tmp_path / "v1.dmrk", tmp_path / "v2.dmrk"
        v1.write_bytes(dense_container(tensors))
        old = read_tensors(v1)
        write_tensors(v2, old)
        entries, _ = directory(v2.read_bytes())
        assert dict(entries)["kp_heatmap"] == 1 and dict(entries)["wh"] == 0
        assert_bits_equal(old, tensors)
        assert_bits_equal(read_tensors(v2), tensors)

    @pytest.mark.parametrize("indices,message", [
        ([3, 1], "sparse indices of 'center' are not strictly ascending"),
        ([2, 2], "sparse indices of 'center' are not strictly ascending"),
        ([0, 52], "sparse index 52 of 'center' is out of range for 52 values"),
    ], ids=["unsorted", "duplicate", "out-of-range"])
    def test_bad_indices(self, tmp_path, indices, message):
        path = tmp_path / "t.dmrk"
        path.write_bytes(sparse_container(center=sparse_block(indices)))
        with pytest.raises(FormatError, match=message):
            read_tensors(path)

    def test_count_overruns_payload(self, tmp_path):
        blob = sparse_container(kp_refine_offset=sparse_block([1]))
        path = tmp_path / "t.dmrk"
        path.write_bytes(blob[:-12] + struct.pack("<I", 2) + blob[-8:])
        with pytest.raises(FormatError, match=r"'kp_refine_offset' ends at byte \d+, past payload size"):
            read_tensors(path)

    def test_count_past_payload(self, tmp_path):
        entries = [(name, grid_shape(name, 2, 2), 0 if name == "center" else 4, 1) for name in TENSOR_NAMES[:2]]
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container(entries, bytes(4), version=2))
        with pytest.raises(FormatError, match="sparse count of 'wh' at byte 4 runs past payload size 4"):
            read_tensors(path)

    def test_height_differs_from_center(self, tmp_path):
        # A sparse block's size does not bound its shape, so this edit alone
        # would otherwise declare a 13x33554434x3 center of 5.2 GB.
        blob = bytearray(sparse_container(height=2, width=3, center=sparse_block([1])))
        assert struct.unpack_from("<III", blob, 24) == (13, 2, 3)  # center's channels, height, width
        struct.pack_into("<I", blob, 28, 2**25 + 2)
        path = tmp_path / "t.dmrk"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="directory entry 'wh' is 2x3, but 'center' is 33554434x3"):
            read_tensors(path)

    def test_sparse_entry_of_2_32_values(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(sparse_container(height=2**31, width=2**31))
        with pytest.raises(FormatError, match=r"sparse entry 'center' declares \d+ values, 2\*\*32 or more"):
            read_tensors(path)

    def test_unallocatable_sparse_entry(self, tmp_path, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        path = tmp_path / "t.dmrk"
        path.write_bytes(sparse_container())
        monkeypatch.setattr(np, "zeros", no_memory)
        # Reading allocates nothing for a sparse block; the scatter does.
        loaded = read_tensors(path)
        with pytest.raises(FormatError, match="sparse entry 'center' declares 52 values, more than can be allocated"):
            np.asarray(loaded.center)

    def test_declared_values_are_bounded(self, tmp_path):
        # Six sparse entries with no nonzeros that declare 1000x1000 cells
        # each: 242 bytes asking for 901M values, 3.6 GB of float32.
        blob = sparse_container(height=1000, width=1000)
        assert len(blob) == 242
        path = tmp_path / "t.dmrk"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"container declares 901000000 values, more than the 268435456 allowed"):
            read_tensors(path)

    def test_declared_values_bound_is_inclusive(self, tmp_path, monkeypatch):
        path = tmp_path / "t.dmrk"
        path.write_bytes(sparse_container(height=2, width=2))
        monkeypatch.setattr(fileio, "MAX_VALUES", 901 * 4)
        assert read_tensors(path).center.shape == (13, 2, 2)
        path.write_bytes(sparse_container(height=2, width=3))
        with pytest.raises(FormatError, match="container declares 5406 values, more than the 3604 allowed"):
            read_tensors(path)

    def test_dense_blocks_are_read_only_views_of_the_file(self, tmp_path, table):
        path = tmp_path / "t.dmrk"
        write_tensors(path, random_tensor_set(seed=11))
        for grid in read_tensors(path).named().values():
            assert not grid.flags.writeable
            base = grid
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, bytes) and base == path.read_bytes()
        # Sparse blocks are scattered into fresh arrays, at once or on np.asarray.
        scene = synth_scenes(SynthParams(seed=2, num_images=1, image_width=96, image_height=96, max_box_size=64), table)[0]
        write_tensors(path, encode_scene(scene, table))
        for grid in read_tensors(path).named().values():
            grid = np.asarray(grid)
            assert grid.flags.writeable and grid.base.flags.owndata

    def test_dense_views_are_aligned(self, tmp_path):
        tensors = random_tensor_set(seed=12, height=5, width=3)
        path = tmp_path / "t.dmrk"
        write_tensors(path, tensors)
        loaded = read_tensors(path)
        assert all(grid.flags.aligned for grid in loaded.named().values())
        assert_bits_equal(loaded, tensors)

    def test_unpadded_v2_container_reads_bit_identically(self, tmp_path):
        # Blocks back to back after the 218-byte directory, as version 2
        # files were written before the padding: every block starts at an
        # offset that is 2 mod 4.
        tensors = random_tensor_set(seed=13, height=5, width=3)
        tensors.center[0, 1, 1] = -0.0
        tensors.wh[1, 2, 2] = np.array(0x7FC0BEEF, dtype=np.uint32).view(np.float32)
        path = tmp_path / "t.dmrk"
        path.write_bytes(dense_container(tensors, version=2))
        loaded = read_tensors(path)
        assert not any(grid.flags.aligned for grid in loaded.named().values())
        assert_bits_equal(loaded, tensors)

    def test_unknown_encoding(self, tmp_path):
        path = tmp_path / "t.dmrk"
        path.write_bytes(craft_container([("center", (1, 2, 2), 0, 7)], bytes(16), version=2))
        with pytest.raises(FormatError, match="directory entry 'center' has unknown encoding 7"):
            read_tensors(path)


@pytest.fixture(scope="module")
def small_container(tmp_path_factory):
    tensors = random_tensor_set(seed=6, height=2, width=3)
    path = tmp_path_factory.mktemp("fuzz") / "valid.dmrk"
    write_tensors(path, tensors)
    blob = path.read_bytes()
    header_bytes = len(blob) - sum(grid.nbytes for grid in tensors.named().values())
    return path.with_name("corrupt.dmrk"), blob, header_bytes


@pytest.fixture(scope="module")
def sparse_small_container(tmp_path_factory):
    tensors = new_head_tensors(2, 3, 4)
    tensors.center[1, 0, 2] = 0.5
    tensors.center[12, 1, 1] = 1.0
    tensors.wh[:, 1, 1] = (3.0, -0.0)
    tensors.kp_heatmap[100, 0, 0] = 0.75
    path = tmp_path_factory.mktemp("fuzz") / "valid.dmrk"
    write_tensors(path, tensors)
    return path.with_name("corrupt.dmrk"), path.read_bytes()


def load_or_format_error(path, blob):
    path.write_bytes(blob)
    try:
        loaded = read_tensors(path)
    except FormatError:
        return
    assert isinstance(loaded, HeadTensorSet)


class TestContainerFuzz:
    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_truncation_or_header_bit_flip(self, small_container, data):
        path, blob, header_bytes = small_container
        if data.draw(st.booleans(), label="truncate"):
            corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * header_bytes - 1), label="bit")
            corrupt = bytearray(blob)
            corrupt[bit // 8] ^= 1 << (bit % 8)
        load_or_format_error(path, bytes(corrupt))

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_sparse_truncation_or_bit_flip(self, sparse_small_container, data):
        path, blob = sparse_small_container
        if data.draw(st.booleans(), label="truncate"):
            corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            corrupt = bytearray(blob)
            corrupt[bit // 8] ^= 1 << (bit % 8)
        load_or_format_error(path, bytes(corrupt))


class TestScenesJson:
    def test_roundtrip(self, tmp_path, table):
        scenes = synth_scenes(SynthParams(seed=7, num_images=5, occlusion_prob=0.3, unlabeled_prob=0.1), table)
        path = tmp_path / "scenes.json"
        write_scenes(path, scenes)
        loaded = read_scenes(path, table)
        assert [s.image_id for s in loaded] == [s.image_id for s in sorted(scenes, key=lambda s: s.image_id)]
        by_id = {s.image_id: s for s in scenes}
        for scene in loaded:
            orig = by_id[scene.image_id]
            assert (scene.width, scene.height) == (orig.width, orig.height)
            assert len(scene.items) == len(orig.items)
            for a, b in zip(scene.items, orig.items):
                assert a.category_id == b.category_id
                np.testing.assert_array_equal(a.box, b.box)
                np.testing.assert_array_equal(a.landmarks, b.landmarks)

    def test_clamps_and_warns(self, tmp_path, table, caplog):
        item = GroundTruthItem(
            1,
            np.array([10.0, 10.0, 200.0, 50.0]),
            np.column_stack((np.linspace(11, 199, 25), np.full(25, 20.0), np.full(25, 2.0))),
        )
        scene = Scene("img-0", 128, 128, (item,))
        path = tmp_path / "scenes.json"
        write_scenes(path, [scene])
        with caplog.at_level(logging.WARNING, logger="clothdet.fileio"):
            loaded = read_scenes(path, table)
        assert "clamped out-of-bounds coordinates on 1 items" in caplog.text
        assert loaded[0].items[0].box[2] == 128.0
        assert loaded[0].items[0].landmarks[:, 0].max() == 128.0

    def test_invalid_json(self, tmp_path, table):
        path = tmp_path / "scenes.json"
        path.write_text("{nope")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_scenes(path, table)

    def test_missing_key_names_path(self, tmp_path, table):
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps({"images": [{"image_id": "a", "height": 64, "items": []}]}))
        with pytest.raises(FormatError, match=r"images\[0\]\.width is missing"):
            read_scenes(path, table)

    def test_bad_landmark_arity(self, tmp_path, table):
        doc = {"images": [{"image_id": "a", "width": 64, "height": 64, "items": [
            {"category_id": 1, "bbox": [0, 0, 10, 10], "landmarks": [1.0, 2.0]},
        ]}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]\.items\[0\]\.landmarks .* multiple of 3"):
            read_scenes(path, table)

    def test_validation_propagates(self, tmp_path, table):
        doc = {"images": [{"image_id": "a", "width": 64, "height": 64, "items": [
            {"category_id": 1, "bbox": [0, 0, 10, 10], "landmarks": [1.0, 2.0, 2.0] * 24},
        ]}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]: item 0 of image 'a': category 1 needs 25 landmarks"):
            read_scenes(path, table)

    @pytest.mark.parametrize("side", [10**400, 2**31, True, 64.0], ids=["huge", "2**31", "bool", "float"])
    def test_side_must_be_a_plain_bounded_integer(self, tmp_path, table, side):
        doc = {"images": [{"image_id": "a", "width": side, "height": 64, "items": []}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]: width/height must be integers in \[1, 2\*\*31\)"):
            read_scenes(path, table)

    @pytest.mark.parametrize("image_id", [None, True, 1.5, [None], {"k": None}], ids=["null", "bool", "float", "list", "object"])
    def test_image_id_must_be_string_or_integer(self, tmp_path, table, image_id):
        doc = {"images": [{"image_id": image_id, "width": 64, "height": 64, "items": []}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]\.image_id must be a string or an integer"):
            read_scenes(path, table)
        doc["images"][0]["image_id"] = 7
        path.write_text(json.dumps(doc))
        assert read_scenes(path, table)[0].image_id == "7"

    def test_non_numeric_bbox(self, tmp_path, table):
        doc = {"images": [{"image_id": "a", "width": 64, "height": 64, "items": [
            {"category_id": 1, "bbox": [0, 0, "ten", 10], "landmarks": []},
        ]}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"bbox\[2\] is not a number"):
            read_scenes(path, table)


    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"])
    def test_non_finite_bbox(self, tmp_path, table, value):
        doc = {"images": [{"image_id": "a", "width": 64, "height": 64, "items": [
            {"category_id": 1, "bbox": [0, 0, value, 10], "landmarks": []},
        ]}]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]\.items\[0\]\.bbox\[2\] is (not a finite number|out of range)"):
            read_scenes(path, table)


class TestDetectionsJson:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        dets = {
            "img-b": [
                Detection(3, 0.75, np.array([1.5, 2.5, 30.0, 40.0]),
                          rng.random((31, 3))),
            ],
            "img-a": [
                Detection(1, 0.5, np.array([0.0, 0.0, 10.0, 10.0]), np.empty((0, 3))),
                Detection(2, 0.25, np.array([5.0, 5.0, 25.0, 35.0]), rng.random((33, 3))),
            ],
        }
        path = tmp_path / "dets.json"
        write_detections(path, dets)
        loaded = read_detections(path)
        assert set(loaded) == set(dets)
        for image_id, rows in dets.items():
            assert len(loaded[image_id]) == len(rows)
            for a, b in zip(loaded[image_id], rows):
                assert (a.category_id, a.score) == (b.category_id, b.score)
                np.testing.assert_array_equal(a.box, b.box)
                np.testing.assert_array_equal(a.landmarks, b.landmarks)

    def test_missing_score_names_path(self, tmp_path):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "bbox": [0, 0, 1, 1], "landmarks": []}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"detections\[0\]\.score is missing"):
            read_detections(path)

    @pytest.mark.parametrize("score", [-0.1, 1.5, True, "high"])
    def test_bad_scores_rejected(self, tmp_path, score):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "score": score,
                               "bbox": [0, 0, 1, 1], "landmarks": []}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"score must be a number in \[0, 1\]"):
            read_detections(path)

    def test_bad_bbox_arity(self, tmp_path):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "score": 0.5,
                               "bbox": [0, 0, 1], "landmarks": []}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="multiple of 4"):
            read_detections(path)

    @pytest.mark.parametrize("image_id", [None, False, [None]], ids=["null", "bool", "list"])
    def test_image_id_must_be_string_or_integer(self, tmp_path, image_id):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps({"detections": [
            {"image_id": image_id, "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1]},
        ]}))
        with pytest.raises(FormatError, match=r"detections\[0\]\.image_id must be a string or an integer"):
            read_detections(path)

    def test_landmarks_optional(self, tmp_path):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1]}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        loaded = read_detections(path)
        assert loaded["a"][0].landmarks.shape == (0, 3)

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps({"detections": 7}))
        with pytest.raises(FormatError, match="'detections' list"):
            read_detections(path)

    @pytest.mark.parametrize("field,value", [("bbox", [0, float("nan"), 1, 1]),
                                             ("landmarks", [1, 2, 1, 3, float("-inf"), 1])])
    def test_non_finite_values(self, tmp_path, field, value):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "score": 0.5,
                               "bbox": [0, 0, 1, 1], "landmarks": []}]}
        doc["detections"][0][field] = value
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"detections\[0\]\.{field}\[[14]\] is not a finite number"):
            read_detections(path)

    @pytest.mark.parametrize("value", [True, None, "1", [1], {}], ids=["bool", "null", "str", "list", "dict"])
    def test_non_number_names_first_bad_index(self, tmp_path, value):
        doc = {"detections": [{"image_id": "a", "category_id": 1, "score": 0.5, "bbox": [0, 0, 1, 1],
                               "landmarks": [1, 2.5, 1, 3, value, 1, 4, "later", 0]}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"^detections\[0\]\.landmarks\[4\] is not a number$"):
            read_detections(path)

    @pytest.mark.parametrize("category", [1.7, "x", None, [1], True])
    def test_bad_category_rejected(self, tmp_path, category):
        doc = {"detections": [{"image_id": "a", "category_id": category, "score": 0.5,
                               "bbox": [0, 0, 1, 1], "landmarks": []}]}
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"detections\[0\]\.category_id must be an integer"):
            read_detections(path)


def reference_detections_text(detections_by_image):
    """The document write_detections wrote when it built rows and called json.dumps."""
    rows = []
    for image_id in sorted(detections_by_image):
        for det in detections_by_image[image_id]:
            rows.append(
                {
                    "image_id": image_id,
                    "category_id": det.category_id,
                    "score": det.score,
                    "bbox": det.box.tolist(),
                    "landmarks": det.landmarks.reshape(-1).tolist(),
                }
            )
    return json.dumps({"detections": rows}, indent=2, sort_keys=True, allow_nan=False)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.5, 1e308, 12345.678, float(np.float32(0.7))]
COORDS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-7]),
    st.floats(0, 1),
    st.floats(0, 1).map(np.float64),
)
# Quotes, backslashes, control and non-ASCII characters, which json escapes.
ID_TEXT = st.text(st.sampled_from('a-_0"\\/\n\t\x00\x7f\u00e9\u2028\U0001f600'), max_size=6)


@st.composite
def detections_by_image(draw):
    ids = draw(st.one_of(st.lists(ID_TEXT, max_size=4, unique=True),
                         st.lists(st.integers(-(2**70), 2**70), max_size=4, unique=True)))
    out = {}
    for image_id in ids:
        dets = []
        for _ in range(draw(st.integers(0, 3))):
            count = draw(st.sampled_from([0, 1, 2, 5]))
            dets.append(Detection(
                draw(st.integers(1, 13)),
                draw(SCORES),
                np.array(draw(st.lists(COORDS, min_size=4, max_size=4))),
                np.array(draw(st.lists(COORDS, min_size=3 * count, max_size=3 * count))).reshape(-1, 3),
            ))
        out[image_id] = dets
    return out


def raised(write, detections):
    with pytest.raises((ValueError, TypeError)) as info:
        write(detections)
    return type(info.value), str(info.value)


class TestDetectionsBytes:
    """write_detections writes json.dumps(..., indent=2, sort_keys=True, allow_nan=False) byte for byte."""

    @given(dets=detections_by_image())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_bytes_match_json_dumps(self, tmp_path_factory, dets):
        path = tmp_path_factory.mktemp("bytes") / "dets.json"
        write_detections(path, dets)
        assert path.read_bytes() == reference_detections_text(dets).encode("utf-8")

    @pytest.mark.parametrize("dets", [
        {},
        {"a": []},
        {"a": [], "b": [Detection(1, 0.5, np.zeros(4), np.empty((0, 3)))]},
        {7: [Detection(2, np.float64(0.25), np.array([-0.0, 5e-324, 1e16, 1e-7]), np.ones((1, 3)))]},
        {'q"\\\u00e9': [Detection(13, 1, np.array([1.0, 2.0, 3.0, 4.0]), np.arange(6.0).reshape(2, 3))]},
    ], ids=["empty", "empty-image", "empty-then-zero-landmarks", "int-id-edges", "escaped-id-int-score"])
    def test_examples_match_json_dumps(self, tmp_path, dets):
        write_detections(tmp_path / "dets.json", dets)
        assert (tmp_path / "dets.json").read_text("utf-8") == reference_detections_text(dets)

    @pytest.mark.parametrize("where", ["box", "landmarks", "score", "np-score"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_raises_as_json_dumps(self, tmp_path, where, value):
        good = Detection(1, 0.5, np.array([0.0, 1.0, 2.0, 3.0]), np.ones((2, 3)))
        box, landmarks, score = good.box.copy(), good.landmarks.copy(), good.score
        if where == "box":
            box[2] = value
        elif where == "landmarks":
            landmarks[1, 0] = value
        else:
            score = value if where == "score" else np.float64(value)
        dets = {"a": [good], "b": [Detection(2, score, box, landmarks), good]}
        path = tmp_path / "dets.json"
        got = raised(lambda d: write_detections(path, d), dets)
        assert got == raised(reference_detections_text, dets)
        assert got[1].startswith("Out of range float values are not JSON compliant: ")
        assert not path.exists()

    def test_finite_values_whose_sum_overflows(self, tmp_path):
        dets = {"a": [Detection(1, 0.5, np.array([1e308, 1e308, 1e308, -1e308]), np.full((1, 3), 1e308))]}
        write_detections(tmp_path / "dets.json", dets)
        assert (tmp_path / "dets.json").read_text("utf-8") == reference_detections_text(dets)

    @pytest.mark.parametrize("field,value", [("score", np.float32(0.5)), ("category_id", np.int64(3))])
    def test_non_json_type_raises_as_json_dumps(self, tmp_path, field, value):
        det = Detection(1, 0.5, np.zeros(4), np.empty((0, 3)))
        dets = {"a": [dataclasses.replace(det, **{field: value})]}
        got = raised(lambda d: write_detections(tmp_path / "dets.json", d), dets)
        assert got == raised(reference_detections_text, dets)
        assert got[0] is TypeError


def reference_scenes_text(scenes):
    """The document write_scenes wrote when it built dicts and called json.dumps."""
    doc = {
        "images": [
            {
                "image_id": s.image_id,
                "width": s.width,
                "height": s.height,
                "items": [
                    {
                        "category_id": item.category_id,
                        "bbox": item.box.tolist(),
                        "landmarks": item.landmarks.reshape(-1).tolist(),
                    }
                    for item in s.items
                ],
            }
            for s in sorted(scenes, key=lambda s: s.image_id)
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@st.composite
def scene_lists(draw):
    scenes = []
    for image_id in draw(st.lists(ID_TEXT, max_size=4)):
        items = []
        for _ in range(draw(st.integers(0, 3))):
            count = draw(st.sampled_from([0, 1, 2, 5]))
            items.append(GroundTruthItem(
                draw(st.integers(1, 13)),
                np.array(draw(st.lists(COORDS, min_size=4, max_size=4))),
                np.array(draw(st.lists(COORDS, min_size=3 * count, max_size=3 * count))).reshape(-1, 3),
            ))
        scenes.append(Scene(image_id, draw(st.integers(1, 2**31 - 1)), draw(st.integers(1, 2**31 - 1)), tuple(items)))
    return scenes


class TestScenesBytes:
    """write_scenes writes json.dumps(..., indent=2, sort_keys=True, allow_nan=False) byte for byte."""

    @given(scenes=scene_lists())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_bytes_match_json_dumps(self, tmp_path_factory, scenes):
        path = tmp_path_factory.mktemp("bytes") / "scenes.json"
        write_scenes(path, scenes)
        assert path.read_bytes() == reference_scenes_text(scenes).encode("utf-8")

    @pytest.mark.parametrize("scenes", [
        [],
        [Scene("a", 8, 8, ())],
        [Scene("b", 8, 8, (GroundTruthItem(1, np.zeros(4), np.empty((0, 3))),)), Scene("a", 8, 8, ())],
        [Scene('q"\\\u00e9\U0001f600', 640, 480, (
            GroundTruthItem(2, np.array([-0.0, 5e-324, 1e16, 1e-7]), np.array([[1e308, -0.0, 2.0]])),
        ))],
    ], ids=["empty", "empty-scene", "empty-scene-after-zero-landmarks", "non-ascii-id-edges"])
    def test_examples_match_json_dumps(self, tmp_path, scenes):
        write_scenes(tmp_path / "scenes.json", scenes)
        assert (tmp_path / "scenes.json").read_text("utf-8") == reference_scenes_text(scenes)

    @pytest.mark.parametrize("where", ["box", "landmarks", "width"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_raises_as_json_dumps(self, tmp_path, where, value):
        good = GroundTruthItem(1, np.array([0.0, 1.0, 2.0, 3.0]), np.ones((2, 3)))
        box, landmarks, width = good.box.copy(), good.landmarks.copy(), 8
        if where == "box":
            box[2] = value
        elif where == "landmarks":
            landmarks[1, 0] = value
        else:
            width = value
        scenes = [Scene("b", width, 8, (GroundTruthItem(2, box, landmarks), good)), Scene("a", 8, 8, (good,))]
        path = tmp_path / "scenes.json"
        got = raised(lambda s: write_scenes(path, s), scenes)
        assert got == raised(reference_scenes_text, scenes)
        assert got[1].startswith("Out of range float values are not JSON compliant: ")
        assert not path.exists()

    @pytest.mark.parametrize("field", ["category_id", "height"])
    def test_non_json_type_raises_as_json_dumps(self, tmp_path, field):
        item = GroundTruthItem(1, np.zeros(4), np.empty((0, 3)))
        if field == "category_id":
            scenes = [Scene("a", 8, 8, (dataclasses.replace(item, category_id=np.int64(3)),))]
        else:
            scenes = [Scene("a", 8, np.int64(8), (item,))]
        got = raised(lambda s: write_scenes(tmp_path / "scenes.json", s), scenes)
        assert got == raised(reference_scenes_text, scenes)
        assert got[0] is TypeError


# Values a mutation puts in place of a node: every JSON type, nested nulls and
# integers far beyond float range.
SWAPS = [None, True, False, "", "x", 0, -1, 1.5, 10**400, -(10**400), [], {}, [None], {"k": None}, [[None]]]


def json_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def mutated(doc, data):
    """`doc` with 1-3 nodes dropped or replaced.

    A node is picked by its shape first (its path with list indices as "*"),
    so that a bbox value is as likely a target as the document root.
    """
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        by_shape = {}
        for path in json_paths(doc):
            by_shape.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
        shape = data.draw(st.sampled_from(sorted(by_shape)), label="shape")
        path = data.draw(st.sampled_from(by_shape[shape]), label="path")
        swap = copy.deepcopy(data.draw(st.sampled_from(SWAPS), label="value"))
        if not path:
            return swap
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = swap
    return doc


@pytest.fixture(scope="module")
def json_docs(tmp_path_factory, table):
    work = tmp_path_factory.mktemp("json_fuzz")
    scenes = synth_scenes(SynthParams(seed=3, num_images=2, max_objects=2, image_width=96, image_height=96, max_box_size=64), table)
    write_scenes(work / "scenes.json", scenes)
    dets = {s.image_id: [Detection(i.category_id, 0.5, i.box, i.landmarks * (1, 1, 0.5)) for i in s.items] for s in scenes}
    write_detections(work / "dets.json", dets)
    return work, json.loads((work / "scenes.json").read_text()), json.loads((work / "dets.json").read_text())


def eval_exit(work, scenes_path, dets_path):
    """Exit code and stderr of `clothdet eval`; any uncaught exception fails the test.

    A file that loads can still exit 2, for example when its detections
    name an image the scenes do not hold.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--scenes", str(scenes_path), "--detections", str(dets_path)])
    return code, err.getvalue()


class TestJsonFuzz:
    @pytest.mark.parametrize("text", [
        b'{"images": [], "detections": [], "n": ' + b"9" * 5000 + b"}",
        b'{"images": [], "detections": [], "name": "\xff"}',
    ], ids=["5000-digit-int", "not-utf8"])
    def test_unparsable_text_is_format_error(self, tmp_path, table, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        with pytest.raises(FormatError, match="annotation file is not valid JSON"):
            read_scenes(path, table)
        with pytest.raises(FormatError, match="detection file is not valid JSON"):
            read_detections(path)

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_mutated_scenes_load_or_format_error(self, json_docs, table, data):
        work, scenes_doc, _ = json_docs
        path = work / "mutated_scenes.json"
        path.write_text(json.dumps(mutated(scenes_doc, data)))
        try:
            read_scenes(path, table)
            loaded = True
        except FormatError:
            loaded = False
        code, err = eval_exit(work, path, work / "dets.json")
        assert code == 2 and err.startswith("error: ") if not loaded else code in (0, 2), err
        assert "Traceback" not in err

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_mutated_detections_load_or_format_error(self, json_docs, data):
        work, _, dets_doc = json_docs
        path = work / "mutated_dets.json"
        path.write_text(json.dumps(mutated(dets_doc, data)))
        try:
            read_detections(path)
            loaded = True
        except FormatError:
            loaded = False
        code, err = eval_exit(work, work / "scenes.json", path)
        assert code == 2 and err.startswith("error: ") if not loaded else code in (0, 2), err
        assert "Traceback" not in err


@contextlib.contextmanager
def reader_warnings():
    """Messages that clothdet's and the reference copy's readers log inside the block."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    loggers = [logging.getLogger(name) for name in ("clothdet.fileio", unbatched_reference.__name__)]
    for logger in loggers:
        logger.addHandler(handler)
    try:
        yield messages
    finally:
        for logger in loggers:
            logger.removeHandler(handler)


def item_bits(item):
    """An item or detection's fields, with its arrays as exact bytes."""
    score = getattr(item, "score", None)
    return (item.category_id, score, item.box.dtype, item.box.shape, item.box.tobytes(),
            item.landmarks.dtype, item.landmarks.shape, item.landmarks.tobytes())


def scenes_outcome(reader, path, table):
    """The scenes a reader makes of a file, bit for bit, and its warnings; or its FormatError message."""
    with reader_warnings() as warnings:
        try:
            scenes = reader(path, table)
        except FormatError as exc:
            return "error", str(exc)
    return [(s.image_id, s.width, s.height, [item_bits(i) for i in s.items]) for s in scenes], warnings


def detections_outcome(reader, path):
    """The detections a reader makes of a file, bit for bit; or its FormatError message."""
    try:
        out = reader(path)
    except FormatError as exc:
        return "error", str(exc)
    return [(image_id, [item_bits(d) for d in dets]) for image_id, dets in out.items()]


class TestBatchedReaders:
    """read_scenes and read_detections against per-object copies of the readers they replaced."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_mutated_scenes_read_as_per_object(self, json_docs, table, data):
        work, scenes_doc, _ = json_docs
        path = work / "identity_scenes.json"
        path.write_text(json.dumps(mutated(scenes_doc, data)))
        assert scenes_outcome(read_scenes, path, table) == scenes_outcome(unbatched_reference.read_scenes, path, table)

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_mutated_detections_read_as_per_object(self, json_docs, data):
        work, _, dets_doc = json_docs
        path = work / "identity_dets.json"
        path.write_text(json.dumps(mutated(dets_doc, data)))
        assert detections_outcome(read_detections, path) == detections_outcome(unbatched_reference.read_detections, path)

    def test_first_error_in_document_order(self, tmp_path, table):
        # Image 0 fails validation (24 landmarks); image 1 misses a key. The
        # batched pass sees both faults at once, but the error is image 0's.
        doc = {"images": [
            {"image_id": "a", "width": 64, "height": 64, "items": [
                {"category_id": 1, "bbox": [0, 0, 10, 10], "landmarks": [1.0, 2.0, 2.0] * 24}]},
            {"image_id": "b", "height": 64, "items": []},
        ]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"images\[0\]: item 0 of image 'a': category 1 needs 25 landmarks"):
            read_scenes(path, table)

    def test_clamp_count_signed_zero_and_wide_integers(self, tmp_path, table):
        lm = [[-0.0, 2**60, 2], [70.5, -3, 1], [5, 5, 0]] + [[1.5, 2.5, 2]] * 22
        doc = {"images": [
            {"image_id": "a", "width": 64, "height": 64, "items": [
                {"category_id": 1, "bbox": [-0.0, 0, 10, 10], "landmarks": sum(lm, [])},
                {"category_id": 1, "bbox": [-5, 0.5, 2**53 + 1, 10], "landmarks": [1, 2, 2] * 25},
                {"category_id": 1, "bbox": [1, 1, 2, 2], "landmarks": [1, 1, 2] * 25}]},
            {"image_id": 7, "width": 32, "height": 16, "items": [
                {"category_id": 9, "bbox": [0, 0, 40, 40], "landmarks": [31, 15, 1] * 8}]},
        ]}
        path = tmp_path / "scenes.json"
        path.write_text(json.dumps(doc))
        got = scenes_outcome(read_scenes, path, table)
        assert got == scenes_outcome(unbatched_reference.read_scenes, path, table)
        assert got[1] == ["clamped out-of-bounds coordinates on 3 items during ingestion"]
