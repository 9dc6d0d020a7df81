"""On-disk formats: the DMRK tensor container and the JSON annotation schemas.

Container layout (all integers little-endian):
    magic        4 bytes  b"DMRK"
    version      u32      currently 1
    stride       u32
    entry count  u32
    per entry:   u16 name length, utf-8 name, u32 channels, u32 height,
                 u32 width, u64 byte offset into the payload
    payload size u64
    payload      raw float32 little-endian values, row-major,
                 channel-outermost, one block per directory entry

Annotation JSON: {"images": [{"image_id", "width", "height",
"items": [{"category_id", "bbox": [x1,y1,x2,y2], "landmarks": [x,y,v,...]}]}]}.
Detection JSON: {"detections": [{"image_id", "category_id", "score",
"bbox", "landmarks": [x,y,confidence,...]}]}.
"""

from __future__ import annotations

import json
import logging
import struct
from pathlib import Path

import numpy as np

from .categories import CategoryTable
from .heads import TENSOR_NAMES, HeadTensorSet
from .scene import Detection, GroundTruthItem, Scene, clamp_scene, validate_scene

logger = logging.getLogger(__name__)

MAGIC = b"DMRK"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised for malformed container or JSON files; messages carry locations."""


def write_tensors(path, tensors: HeadTensorSet) -> None:
    """Serialize a head tensor set to a DMRK container file."""
    named = tensors.named()
    directory = []
    payload = bytearray()
    for name in TENSOR_NAMES:
        grid = np.ascontiguousarray(named[name], dtype="<f4")
        directory.append((name, grid.shape, len(payload)))
        payload += grid.tobytes()

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<III", FORMAT_VERSION, tensors.stride, len(directory))
    for name, (channels, height, width), offset in directory:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<IIIQ", channels, height, width, offset)
    blob += struct.pack("<Q", len(payload))
    blob += payload
    Path(path).write_bytes(blob)


def read_tensors(path) -> HeadTensorSet:
    """Read a DMRK container back into a HeadTensorSet.

    Raises:
        FormatError: bad magic, unsupported version, malformed or overlapping
            directory, or truncated payload.
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
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported container version {version}, expected {FORMAT_VERSION}")

    entries = {}
    spans = []
    for index in range(count):
        (name_len,), pos = take("<H", pos)
        if pos + name_len > len(data):
            raise FormatError(f"truncated entry name at byte {pos}")
        name = bytes(view[pos : pos + name_len]).decode("utf-8")
        pos += name_len
        (channels, height, width, offset), pos = take("<IIIQ", pos)
        if name in entries:
            raise FormatError(f"duplicate directory entry {name!r}")
        entries[name] = (channels, height, width, offset)
        spans.append((offset, offset + 4 * channels * height * width, name))

    (payload_size,), pos = take("<Q", pos)
    actual = len(data) - pos
    if actual < payload_size:
        raise FormatError(f"truncated payload: expected {payload_size} bytes, got {actual}")

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

    grids = {}
    for name in TENSOR_NAMES:
        channels, height, width, offset = entries[name]
        start = pos + offset
        grid = np.frombuffer(data, dtype="<f4", count=channels * height * width, offset=start)
        grids[name] = grid.reshape(channels, height, width).copy()
    return HeadTensorSet(stride=stride, **grids)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}.{key} is missing")
    return doc[key]


def _number_list(values, where: str, multiple_of: int) -> list[float]:
    if not isinstance(values, list) or len(values) % multiple_of != 0:
        raise FormatError(f"{where} must be a flat list with length a multiple of {multiple_of}")
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"{where}[{i}] is not a number")
    return [float(v) for v in values]


def _parse_item(raw: dict, where: str) -> GroundTruthItem:
    if not isinstance(raw, dict):
        raise FormatError(f"{where} is not an object")
    category = _require(raw, "category_id", where)
    if not isinstance(category, int):
        raise FormatError(f"{where}.category_id must be an integer")
    bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
    if len(bbox) != 4:
        raise FormatError(f"{where}.bbox must hold exactly four values")
    triples = _number_list(_require(raw, "landmarks", where), f"{where}.landmarks", 3)
    landmarks = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
    return GroundTruthItem(category_id=category, box=np.asarray(bbox), landmarks=landmarks)


def read_scenes(path, table: CategoryTable) -> list[Scene]:
    """Read and validate annotation JSON; clamps coordinates to image bounds."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"annotation file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("images"), list):
        raise FormatError("annotation document must be an object with an 'images' list")

    scenes = []
    clamped_total = 0
    for i, raw in enumerate(doc["images"]):
        where = f"images[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = _require(raw, "image_id", where)
        width = _require(raw, "width", where)
        height = _require(raw, "height", where)
        if not isinstance(width, int) or not isinstance(height, int) or width <= 0 or height <= 0:
            raise FormatError(f"{where}: width/height must be positive integers")
        items_raw = _require(raw, "items", where)
        if not isinstance(items_raw, list):
            raise FormatError(f"{where}.items must be a list")
        items = tuple(_parse_item(item, f"{where}.items[{j}]") for j, item in enumerate(items_raw))
        scene = Scene(image_id=str(image_id), width=width, height=height, items=items)
        scene, moved = clamp_scene(scene)
        clamped_total += moved
        validate_scene(scene, table)
        scenes.append(scene)
    if clamped_total:
        logger.warning("clamped out-of-bounds coordinates on %d items during ingestion", clamped_total)
    return scenes


def write_scenes(path, scenes: list[Scene]) -> None:
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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), "utf-8")


def read_detections(path) -> dict[str, list[Detection]]:
    """Read detection JSON into per-image lists, preserving file order."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"detection file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("detections"), list):
        raise FormatError("detection document must be an object with a 'detections' list")

    out: dict[str, list[Detection]] = {}
    for i, raw in enumerate(doc["detections"]):
        where = f"detections[{i}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where} is not an object")
        image_id = str(_require(raw, "image_id", where))
        category = _require(raw, "category_id", where)
        score = _require(raw, "score", where)
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not 0 <= score <= 1:
            raise FormatError(f"{where}.score must be a number in [0, 1]")
        bbox = _number_list(_require(raw, "bbox", where), f"{where}.bbox", 4)
        if len(bbox) != 4:
            raise FormatError(f"{where}.bbox must hold exactly four values")
        triples = _number_list(raw.get("landmarks", []), f"{where}.landmarks", 3)
        landmarks = np.asarray(triples, dtype=np.float64).reshape(-1, 3)
        out.setdefault(image_id, []).append(
            Detection(category_id=int(category), score=float(score), box=np.asarray(bbox), landmarks=landmarks)
        )
    return out


def write_detections(path, detections_by_image: dict[str, list[Detection]]) -> None:
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
    Path(path).write_text(json.dumps({"detections": rows}, indent=2, sort_keys=True, allow_nan=False), "utf-8")
