"""On-disk formats: the DMRK tensor container and the JSON annotation schemas.

Container layout (all integers little-endian):
    magic        4 bytes  b"DMRK"
    version      u32      2 (version 1 files are still read)
    stride       u32
    entry count  u32
    per entry:   u16 name length, utf-8 name, u32 channels, u32 height,
                 u32 width, u8 encoding (absent in version 1, where every
                 block is dense), u64 byte offset into the payload
    payload size u64
    payload      one block per directory entry

A block holds the tensor's C*H*W float32 values, row-major and
channel-outermost, in one of two encodings:
    0 dense      all C*H*W values as little-endian f32
    1 sparse     u32 count n, then n strictly ascending u32 flat indices,
                 then the n f32 values at those indices; every other value
                 is +0.0
`write_tensors` stores a tensor sparse when that takes fewer bytes and the
tensor has fewer than 2**32 values, so peaky encoder output is a few
kilobytes while dense network output keeps dense blocks. It writes a
tensor held as its nonzeros straight from them. It starts every block at a
file offset that is a multiple of 8, with zero bytes between blocks; the
reader accepts any gap between blocks, so files without the padding still
read. All six tensors share center's height and width.

`read_tensors` returns dense blocks as read-only views of the file's bytes
and every sparse block as a `heads._SparseGrid` over its indices and
values, which decode, flip_tensors, fuse_tensors and write_tensors use
without scattering it.

Annotation JSON: {"images": [{"image_id", "width", "height",
"items": [{"category_id", "bbox": [x1,y1,x2,y2], "landmarks": [x,y,v,...]}]}]}.
Detection JSON: {"detections": [{"image_id", "category_id", "score",
"bbox", "landmarks": [x,y,confidence,...]}]}.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .categories import CategoryTable
from .heads import TENSOR_NAMES, HeadTensorSet, _SparseGrid
from .scene import Detection, GroundTruthItem, Scene, SceneError, clamp_scene, validate_scene

logger = logging.getLogger(__name__)

MAGIC = b"DMRK"
FORMAT_VERSION = 2
DENSE, SPARSE = 0, 1
# The most values a container's six tensors may declare together: 1 GiB of
# float32, above the 236M that the 901 channels of a 2048x2048 image need
# at stride 4. A sparse block's size does not bound its shape, so without a
# limit a few hundred bytes could ask for gigabytes.
MAX_VALUES = 2**28
# File offset multiple at which write_tensors starts each block.
BLOCK_ALIGN = 8


class FormatError(ValueError):
    """Raised for malformed container or JSON files; messages carry locations."""


def _dense_is_smaller(size: int, count: int) -> bool:
    """Whether a tensor of `size` values with `count` nonzeros is stored dense."""
    return size >= 2**32 or 4 + 8 * count >= 4 * size


def _sparse_parts(indices: np.ndarray, values: np.ndarray) -> list:
    return [np.array([len(indices)], dtype="<u4"), indices.astype("<u4"), values.astype("<f4")]


def _block(grid: np.ndarray) -> tuple[int, list]:
    """The encoding of one tensor and the arrays that make up its block."""
    flat = np.ascontiguousarray(grid, dtype="<f4").reshape(-1)
    # Nonzero by bit pattern, so -0.0 and every NaN payload are kept.
    nonzero = flat.view(np.uint32) != 0
    if _dense_is_smaller(flat.size, int(np.count_nonzero(nonzero))):
        return DENSE, [flat]
    indices = np.flatnonzero(nonzero)
    return SPARSE, _sparse_parts(indices, flat[indices])


def _nonzero_block(size: int, indices: np.ndarray, values: np.ndarray) -> tuple[int, list]:
    """_block of a tensor that is +0.0 except for `values` at the ascending flat `indices`."""
    nonzero = values.view(np.uint32) != 0
    indices, values = indices[nonzero], values[nonzero]
    if _dense_is_smaller(size, len(indices)):
        flat = np.zeros(size, dtype="<f4")
        flat[indices] = values
        return DENSE, [flat]
    return SPARSE, _sparse_parts(indices, values)


def write_tensors(path, tensors: HeadTensorSet) -> None:
    """Serialize a head tensor set to a DMRK container file.

    Each tensor is written in the smaller of the two encodings. A tensor
    held as its nonzeros (a `heads._SparseGrid`: a tensor of an
    encode_scene set, a sparse block that read_tensors read, or a heatmap
    that flip_tensors or fuse_tensors made from such grids) is written from
    them, with no dense scan; every other tensor, dense arrays and the lazy
    regression grids of flip_tensors and fuse_tensors, is scanned whole.

    Zero bytes pad the payload so that every block starts at a file offset
    that is a multiple of BLOCK_ALIGN, which keeps the dense views that
    read_tensors returns aligned.
    """
    names = [name.encode("utf-8") for name in TENSOR_NAMES]
    # Magic, version, stride, entry count, the entries and the payload size.
    payload_start = 16 + sum(2 + len(encoded) + 21 for encoded in names) + 8
    header = bytearray(MAGIC)
    header += struct.pack("<III", FORMAT_VERSION, tensors.stride, len(TENSOR_NAMES))
    blocks = []
    offset = 0
    for name, encoded in zip(TENSOR_NAMES, names):
        grid = getattr(tensors, name)
        if isinstance(grid, _SparseGrid):
            channels, height, width = grid.shape
            encoding, parts = _nonzero_block(channels * height * width, grid.indices, grid.values)
        else:
            grid = np.asarray(grid)
            (channels, height, width), (encoding, parts) = grid.shape, _block(grid)
        pad = -(payload_start + offset) % BLOCK_ALIGN
        offset += pad
        header += struct.pack("<H", len(encoded)) + encoded
        header += struct.pack("<IIIBQ", channels, height, width, encoding, offset)
        blocks += [bytes(pad), *parts]
        offset += sum(part.nbytes for part in parts)
    header += struct.pack("<Q", offset)
    with open(path, "wb") as f:
        f.write(header)
        for part in blocks:
            f.write(part)


def read_tensors(path) -> HeadTensorSet:
    """Read a DMRK container (version 1 or 2) back into a HeadTensorSet.

    Version 1 entries carry no encoding byte and are read as dense blocks.
    A dense tensor is a read-only view of the file's bytes, not a copy. A
    sparse block's extent is its 4-byte count plus 8 bytes per nonzero.
    Every sparse block comes back as a `heads._SparseGrid` over read-only
    views of its indices and values: indexing it binary-searches the
    indices, giving the stored bits at a listed cell and +0.0 elsewhere,
    and `np.asarray` scatters the whole tensor into a new array. That
    scatter raises FormatError when the array cannot be allocated. Every
    block is checked here, before the set is returned.

    Raises:
        FormatError: bad magic, unsupported version, malformed or overlapping
            directory (including entry names that are not UTF-8), an unknown
            encoding, a block or sparse count that runs past the payload,
            a sparse entry of 2**32 or more values, sparse indices that are
            not strictly ascending or not below the tensor's C*H*W values,
            tensors whose height and width differ from center's, tensors
            that together declare more than MAX_VALUES values, or
            truncated payload. No other exception escapes for malformed bytes.
    """
    data = Path(path).read_bytes()
    view = memoryview(data)

    def take(fmt: str, pos: int):
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise FormatError(f"truncated header at byte {pos}")
        return struct.unpack_from(fmt, view, pos), pos + size

    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version, stride, count), pos = take("<III", 4)
    if version not in (1, FORMAT_VERSION):
        raise FormatError(f"unsupported container version {version}, expected 1 or {FORMAT_VERSION}")

    entries = {}
    for index in range(count):
        (name_len,), pos = take("<H", pos)
        if pos + name_len > len(data):
            raise FormatError(f"truncated entry name at byte {pos}")
        try:
            name = bytes(view[pos : pos + name_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"entry name at byte {pos} is not valid UTF-8") from exc
        pos += name_len
        (channels, height, width), pos = take("<III", pos)
        encoding = DENSE
        if version > 1:
            (encoding,), pos = take("<B", pos)
        (offset,), pos = take("<Q", pos)
        if name in entries:
            raise FormatError(f"duplicate directory entry {name!r}")
        if encoding not in (DENSE, SPARSE):
            raise FormatError(f"directory entry {name!r} has unknown encoding {encoding}")
        entries[name] = (channels, height, width, encoding, offset)

    (payload_size,), pos = take("<Q", pos)
    actual = len(data) - pos
    if actual < payload_size:
        raise FormatError(f"truncated payload: expected {payload_size} bytes, got {actual}")

    spans = []
    nonzeros = {}
    for name, (channels, height, width, encoding, offset) in entries.items():
        if encoding == DENSE:
            extent = 4 * channels * height * width
        else:
            if offset + 4 > payload_size:
                raise FormatError(f"sparse count of {name!r} at byte {offset} runs past payload size {payload_size}")
            if channels * height * width >= 2**32:
                raise FormatError(f"sparse entry {name!r} declares {channels * height * width} values, 2**32 or more")
            (nonzeros[name],) = struct.unpack_from("<I", view, pos + offset)
            extent = 4 + 8 * nonzeros[name]
        spans.append((offset, offset + extent, name))
    spans.sort()
    for (a_lo, a_hi, a_name), (b_lo, b_hi, b_name) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            raise FormatError(f"directory entries {a_name!r} and {b_name!r} overlap")
    if spans and spans[-1][1] > payload_size:
        raise FormatError(
            f"directory entry {spans[-1][2]!r} ends at byte {spans[-1][1]}, past payload size {payload_size}"
        )

    missing = [name for name in TENSOR_NAMES if name not in entries]
    if missing:
        raise FormatError(f"container is missing tensors {missing}")
    # Checked before any allocation: a sparse block's size does not bound its shape.
    height, width = entries["center"][1:3]
    for name in TENSOR_NAMES:
        if entries[name][1:3] != (height, width):
            raise FormatError(
                f"directory entry {name!r} is {entries[name][1]}x{entries[name][2]}, but 'center' is {height}x{width}"
            )
    declared = sum(entries[name][0] for name in TENSOR_NAMES) * height * width
    if declared > MAX_VALUES:
        raise FormatError(f"container declares {declared} values, more than the {MAX_VALUES} allowed")

    grids = {}
    for name in TENSOR_NAMES:
        channels, height, width, encoding, offset = entries[name]
        shape = (channels, height, width)
        start = pos + offset
        size = channels * height * width
        if encoding == DENSE:
            grids[name] = np.frombuffer(data, dtype="<f4", count=size, offset=start).reshape(shape)
            continue
        indices, values = _sparse_entries(name, data, start, nonzeros[name], size)
        grids[name] = _SparseBlock(name, shape, indices, values)
    return HeadTensorSet(stride=stride, **grids)


def _sparse_entries(name: str, data: bytes, start: int, count: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the sparse block of `count` nonzeros at byte `start`, checked."""
    indices = np.frombuffer(data, dtype="<u4", count=count, offset=start + 4)
    values = np.frombuffer(data, dtype="<f4", count=count, offset=start + 4 + 4 * count)
    if (indices[1:] <= indices[:-1]).any():
        raise FormatError(f"sparse indices of {name!r} are not strictly ascending")
    if count and indices[-1] >= size:
        raise FormatError(f"sparse index {indices[-1]} of {name!r} is out of range for {size} values")
    return indices, values


class _SparseBlock(_SparseGrid):
    """The `_SparseGrid` of a checked sparse block, named after its directory entry."""

    def __init__(self, name: str, shape: tuple[int, int, int], indices: np.ndarray, values: np.ndarray):
        super().__init__(shape, indices, values)
        self.name = name

    def whole(self) -> np.ndarray:
        try:
            return super().whole()
        except MemoryError:
            size = self.shape[0] * self.shape[1] * self.shape[2]
            raise FormatError(f"sparse entry {self.name!r} declares {size} values, more than can be allocated") from None


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}.{key} is missing")
    return doc[key]


_NUMBER_TYPES = {int, float}
_IMAGE_KEYS = frozenset(("image_id", "width", "height", "items"))
_ITEM_KEYS = frozenset(("category_id", "bbox", "landmarks"))
_DETECTION_KEYS = frozenset(("image_id", "category_id", "score", "bbox"))


def _number_list(values, where: str, multiple_of: int) -> np.ndarray:
    if not isinstance(values, list) or len(values) % multiple_of != 0:
        raise FormatError(f"{where} must be a flat list with length a multiple of {multiple_of}")
    # json.loads yields exact int and float objects for numbers; bool, str,
    # None, list and dict are the other types a value can have.
    if not set(map(type, values)) <= _NUMBER_TYPES:
        i = next(i for i, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
        raise FormatError(f"{where}[{i}] is not a number")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if isinstance(v, int) and abs(v) > sys.float_info.max)
        raise FormatError(f"{where}[{i}] is out of range") from None
    # json accepts NaN and Infinity tokens; the package's writers never emit them.
    finite = np.isfinite(array)
    if not finite.all():
        raise FormatError(f"{where}[{int(np.argmin(finite))}] is not a finite number")
    return array


def _image_id(raw: dict, where: str) -> str:
    image_id = _require(raw, "image_id", where)
    if type(image_id) not in (str, int):
        raise FormatError(f"{where}.image_id must be a string or an integer")
    return str(image_id)


def _category(raw: dict, where: str) -> int:
    category = _require(raw, "category_id", where)
    if not isinstance(category, int) or isinstance(category, bool):
        raise FormatError(f"{where}.category_id must be an integer")
    return category


def _parse_item(raw: dict, where: str) -> GroundTruthItem:
    if not isinstance(raw, dict):
        raise FormatError(f"{where} is not an object")
    category = _category(raw, where)
    bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
    if len(bbox) != 4:
        raise FormatError(f"{where}.bbox must hold exactly four values")
    landmarks = _number_list(_require(raw, "landmarks", where), f"{where}.landmarks", 3).reshape(-1, 3)
    return GroundTruthItem(category_id=category, box=bbox, landmarks=landmarks)


def _numbers(lists: list[list], width: int) -> np.ndarray | None:
    """The numbers of `lists` as one float64 array of rows of `width`; None unless all are finite JSON numbers.

    Each list's length is a multiple of `width`.
    """
    if not set(map(type, chain.from_iterable(lists))) <= _NUMBER_TYPES:
        return None
    try:
        array = np.fromiter(chain.from_iterable(lists), dtype=np.float64, count=sum(map(len, lists)))
    except OverflowError:
        return None
    return array.reshape(-1, width) if np.isfinite(array).all() else None


def _scenes_at_once(images: list, table: CategoryTable) -> tuple[list[Scene], int] | None:
    """read_scenes' scenes and clamp count, checked and clamped as arrays; None on any fault.

    One Python pass checks the structure and gathers the bbox and landmark
    lists; every box and every landmark is then converted, checked, clamped
    and validated in one array of each, with the results of clamp_scene and
    validate_scene, and each item gets views of its rows.
    """
    heads = []
    categories = []
    counts = []
    bboxes = []
    landmark_lists = []
    n_categories = len(table.specs)
    for raw in images:
        if type(raw) is not dict or not _IMAGE_KEYS <= raw.keys():
            return None
        image_id, width, height, items = raw["image_id"], raw["width"], raw["height"], raw["items"]
        if type(image_id) not in (str, int) or type(items) is not list:
            return None
        if not all(type(side) is int and 0 < side < 2**31 for side in (width, height)):
            return None
        for item in items:
            if type(item) is not dict or not _ITEM_KEYS <= item.keys():
                return None
            category, bbox, landmarks = item["category_id"], item["bbox"], item["landmarks"]
            if type(category) is not int or not 1 <= category <= n_categories:
                return None
            if type(bbox) is not list or len(bbox) != 4 or type(landmarks) is not list or len(landmarks) % 3:
                return None
            categories.append(category)
            counts.append(len(landmarks) // 3)
            bboxes.append(bbox)
            landmark_lists.append(landmarks)
        heads.append((str(image_id), width, height, len(items)))
    boxes = _numbers(bboxes, 4)
    landmarks = _numbers(landmark_lists, 3)
    if boxes is None or landmarks is None:
        return None
    counts = np.array(counts, dtype=np.intp)
    keypoints = np.array([0] + [spec.keypoint_count for spec in table.specs], dtype=np.intp)
    if (counts != keypoints[categories]).any():
        return None

    per_image = [n for *_, n in heads]
    item_width = np.repeat([width for _, width, _, _ in heads], per_image)
    item_height = np.repeat([height for _, _, height, _ in heads], per_image)
    # clamp_scene's np.clip turns a -0.0 box value into +0.0 (array bounds)
    # and keeps a -0.0 landmark coordinate (scalar bounds); both keep every
    # other value inside [0, limit].
    clamped = np.minimum(np.where(boxes > 0, boxes, 0.0), np.column_stack((item_width, item_height) * 2))
    moved = (clamped != boxes).any(axis=1)
    if ((clamped[:, 0] > clamped[:, 2]) | (clamped[:, 1] > clamped[:, 3])).any():
        return None
    starts = np.cumsum(counts) - counts
    for column, limit in ((0, item_width), (1, item_height)):
        values = landmarks[:, column]
        inside = np.minimum(np.where(values < 0, 0.0, values), np.repeat(limit, counts))
        if len(starts):
            moved |= np.logical_or.reduceat(inside != values, starts)
        landmarks[:, column] = inside

    items = [
        GroundTruthItem(category, box, landmarks[start : start + count])
        for category, box, start, count in zip(categories, clamped, starts.tolist(), counts.tolist())
    ]
    scenes = []
    first = 0
    for image_id, width, height, n in heads:
        scenes.append(Scene(image_id=image_id, width=width, height=height, items=tuple(items[first : first + n])))
        first += n
    return scenes, int(moved.sum())


def _scenes_per_object(images: list, table: CategoryTable) -> tuple[list[Scene], int]:
    """read_scenes' scenes and clamp count, one object at a time, raising the first located error."""
    scenes = []
    clamped_total = 0
    for i, raw in enumerate(images):
        where = f"images[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = _image_id(raw, where)
        width = _require(raw, "width", where)
        height = _require(raw, "height", where)
        # type(), not isinstance: JSON true and false are ints to isinstance.
        if not all(type(side) is int and 0 < side < 2**31 for side in (width, height)):
            raise FormatError(f"{where}: width/height must be integers in [1, 2**31)")
        items_raw = _require(raw, "items", where)
        if not isinstance(items_raw, list):
            raise FormatError(f"{where}.items must be a list")
        items = tuple(_parse_item(item, f"{where}.items[{j}]") for j, item in enumerate(items_raw))
        scene = Scene(image_id=image_id, width=width, height=height, items=items)
        scene, moved = clamp_scene(scene)
        clamped_total += moved
        try:
            validate_scene(scene, table)
        except SceneError as exc:
            raise FormatError(f"{where}: {exc}") from None
        scenes.append(scene)
    return scenes, clamped_total


def read_scenes(path, table: CategoryTable) -> list[Scene]:
    """Read and validate annotation JSON; clamps coordinates to image bounds.

    The document is checked, clamped and validated in whole-document arrays,
    and its items hold views of one box array and one landmark array; when
    that finds a fault, the objects are read again one at a time to locate
    it.

    Raises:
        FormatError: malformed JSON or schema, naming the first bad field,
            and items that do not match the category table.
    """
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    # ValueError, not only JSONDecodeError: bytes that are not UTF-8 and
    # integers of more than 4300 digits raise other ValueErrors.
    except ValueError as exc:
        raise FormatError(f"annotation file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), list):
        raise FormatError("annotation document must be an object with an 'images' list")

    read = _scenes_at_once(doc["images"], table)
    scenes, clamped_total = read if read is not None else _scenes_per_object(doc["images"], table)
    if clamped_total:
        logger.warning("clamped out-of-bounds coordinates on %d items during ingestion", clamped_total)
    return scenes


def _detections_at_once(rows: list) -> dict[str, list[Detection]] | None:
    """read_detections' result from one structural pass and one array of boxes and of landmarks; None on any fault."""
    heads = []
    bboxes = []
    landmark_lists = []
    for raw in rows:
        if type(raw) is not dict or not _DETECTION_KEYS <= raw.keys():
            return None
        image_id, category, score, bbox = raw["image_id"], raw["category_id"], raw["score"], raw["bbox"]
        landmarks = raw.get("landmarks", [])
        if type(image_id) not in (str, int) or type(category) is not int:
            return None
        if type(score) not in _NUMBER_TYPES or not 0 <= score <= 1:
            return None
        if type(bbox) is not list or len(bbox) != 4 or type(landmarks) is not list or len(landmarks) % 3:
            return None
        heads.append((str(image_id), category, float(score), len(landmarks) // 3))
        bboxes.append(bbox)
        landmark_lists.append(landmarks)
    boxes = _numbers(bboxes, 4)
    landmarks = _numbers(landmark_lists, 3)
    if boxes is None or landmarks is None:
        return None

    out: dict[str, list[Detection]] = {}
    start = 0
    for (image_id, category, score, count), box in zip(heads, boxes):
        out.setdefault(image_id, []).append(
            Detection(category_id=category, score=score, box=box, landmarks=landmarks[start : start + count])
        )
        start += count
    return out


def _detections_per_object(rows: list) -> dict[str, list[Detection]]:
    """read_detections' result, one object at a time, raising the first located error."""
    out: dict[str, list[Detection]] = {}
    for i, raw in enumerate(rows):
        where = f"detections[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = _image_id(raw, where)
        category = _category(raw, where)
        score = _require(raw, "score", where)
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not 0 <= score <= 1:
            raise FormatError(f"{where}.score must be a number in [0, 1]")
        bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
        if len(bbox) != 4:
            raise FormatError(f"{where}.bbox must hold exactly four values")
        landmarks = _number_list(raw.get("landmarks", []), f"{where}.landmarks", 3).reshape(-1, 3)
        out.setdefault(image_id, []).append(
            Detection(category_id=category, score=float(score), box=bbox, landmarks=landmarks)
        )
    return out


def read_detections(path) -> dict[str, list[Detection]]:
    """Read detection JSON into per-image lists, preserving file order.

    The numbers are checked in one array; when a check finds a fault, the
    detections are read again one at a time to locate it.
    """
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:
        raise FormatError(f"detection file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("detections"), list):
        raise FormatError("detection document must be an object with a 'detections' list")
    read = _detections_at_once(doc["detections"])
    return read if read is not None else _detections_per_object(doc["detections"])


# json's dumps with an indent runs its pure-Python encoder, one call per
# value. write_scenes and write_detections build the same text themselves:
# list repr formats floats with float.__repr__, json's own float format, and
# this encoder (no indent, so json's C path) writes the scalars with json's
# escaping and TypeErrors.
_SCALARS = json.JSONEncoder(allow_nan=False)


def _out_of_range(value) -> ValueError:
    """The ValueError json's pure-Python encoder raises for a non-finite float."""
    return ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _scalar_text(value) -> str:
    # The C encoder's message for a non-finite float lacks the value.
    if isinstance(value, float) and not math.isfinite(value):
        raise _out_of_range(value)
    return _SCALARS.encode(value)


def _list_text(texts: list[str], indent: str) -> str:
    """Element texts as a list in the layout of json's dumps(..., indent=2), as the value of a key indented by `indent`."""
    if not texts:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(texts) + f"\n{indent}]"


def _floats_text(values: list, indent: str) -> str:
    """_list_text of a list of Python floats, raising json's ValueError for a non-finite one."""
    if not values:
        return "[]"
    # A sum of finite floats is finite or overflows to inf, so a finite sum
    # clears every value and only an infinite or NaN sum needs the scan.
    if not math.isfinite(sum(values)):
        for value in values:
            if not math.isfinite(value):
                raise _out_of_range(value)
    return f"[\n{indent}  " + repr(values)[1:-1].replace(", ", f",\n{indent}  ") + f"\n{indent}]"


# Each builder below writes a dict's fields in sorted key order, each
# checked when json would reach it.
def _item_text(item: GroundTruthItem) -> str:
    box = _floats_text(item.box.tolist(), " " * 10)
    category = _scalar_text(item.category_id)
    landmarks = _floats_text(item.landmarks.reshape(-1).tolist(), " " * 10)
    return (
        f'{{\n          "bbox": {box},\n          "category_id": {category},\n'
        f'          "landmarks": {landmarks}\n        }}'
    )


def _scene_text(scene: Scene) -> str:
    height = _scalar_text(scene.height)
    image = _scalar_text(scene.image_id)
    items = _list_text([_item_text(item) for item in scene.items], " " * 6)
    width = _scalar_text(scene.width)
    return (
        f'{{\n      "height": {height},\n      "image_id": {image},\n      "items": {items},\n'
        f'      "width": {width}\n    }}'
    )


def write_scenes(path, scenes: list[Scene]) -> None:
    """Write {"images": [...]}, scenes in sorted id order, each scene's items in order.

    The text is exactly json's dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) of that document, and the errors are json's: a
    ValueError for a non-finite value, a TypeError for a value of no JSON
    type. Boxes and landmarks are the float64 arrays GroundTruthItem holds.
    """
    rows = [_scene_text(scene) for scene in sorted(scenes, key=lambda s: s.image_id)]
    Path(path).write_text('{\n  "images": ' + _list_text(rows, "  ") + "\n}", "utf-8")


def _detection_text(image_id, det: Detection) -> str:
    box = _floats_text(det.box.tolist(), " " * 6)
    category = _scalar_text(det.category_id)
    image = _scalar_text(image_id)
    landmarks = _floats_text(det.landmarks.reshape(-1).tolist(), " " * 6)
    score = _scalar_text(det.score)
    return (
        f'{{\n      "bbox": {box},\n      "category_id": {category},\n      "image_id": {image},\n'
        f'      "landmarks": {landmarks},\n      "score": {score}\n    }}'
    )


def write_detections(path, detections_by_image: dict[str, list[Detection]]) -> None:
    """Write {"detections": [...]}, images in sorted id order, each image's detections in list order.

    The text is exactly json's dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) of that document, and the errors are json's: a
    ValueError for a non-finite value, a TypeError for a value of no JSON
    type. Image ids are strings or integers; boxes and landmarks are the
    float64 arrays Detection holds.
    """
    rows = [
        _detection_text(image_id, det)
        for image_id in sorted(detections_by_image)
        for det in detections_by_image[image_id]
    ]
    Path(path).write_text('{\n  "detections": ' + _list_text(rows, "  ") + "\n}", "utf-8")
