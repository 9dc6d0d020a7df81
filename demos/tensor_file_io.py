"""
The three file formats: tensor containers, scenes, detections
=============================================================

Head tensors travel in a little-endian binary container (magic DMRK): a
fixed header, a directory of named float32 blocks, then the payload. Each
block is dense (every value) or sparse (a count, then the flat indices and
values of the nonzeros), whichever is smaller; encoder output is almost all
zeros, so its blocks are sparse.
Scenes and detections are plain JSON. This script writes all three,
peeks at the container bytes, and reads everything back.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from clothdet import (
    DecodeConfig, SynthParams, decode_scene, default_table, encode_scene, synth_scenes,
)
from clothdet.fileio import (
    read_detections, read_scenes, read_tensors,
    write_detections, write_scenes, write_tensors,
)

table = default_table()
scene = synth_scenes(SynthParams(seed=3, num_images=1), table)[0]
tensors = encode_scene(scene, table)
detections = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))

out = Path(tempfile.mkdtemp())

# --- tensor container -------------------------------------------------
tensor_path = out / f"{scene.image_id}.dmrk"
write_tensors(tensor_path, tensors)
raw = tensor_path.read_bytes()
print(f"{tensor_path.name}: {len(raw)} bytes")

magic, version, stride, n_entries = struct.unpack_from("<4sIII", raw)
print(f"  magic {magic}  version {version}  stride {stride}  entries {n_entries}")

# Each directory entry names one block: the tensor's shape, its encoding
# and where the block starts inside the payload.
pos = struct.calcsize("<4sIII")
entries = []
for _ in range(n_entries):
    name_len = struct.unpack_from("<H", raw, pos)[0]
    pos += 2
    name = raw[pos:pos + name_len].decode()
    pos += name_len
    channels, height, width, encoding, start = struct.unpack_from("<IIIBQ", raw, pos)
    pos += struct.calcsize("<IIIBQ")
    entries.append((name, channels, height, width, encoding, start))
payload_size = struct.unpack_from("<Q", raw, pos)[0]
payload = pos + 8
for name, channels, height, width, encoding, start in entries:
    if encoding == 1:
        kind, nonzeros = "sparse", struct.unpack_from("<I", raw, payload + start)[0]
    else:
        block = np.frombuffer(raw, "<f4", channels * height * width, payload + start)
        kind, nonzeros = "dense", int(np.count_nonzero(block))
    print(f"    {name:16s} {channels:3d} x {height} x {width}  {kind:6s} {nonzeros:5d} nonzeros"
          f"  payload offset {start}")
dense_bytes = sum(4 * c * h * w for _, c, h, w, _, _ in entries)
print(f"  payload: {payload_size} bytes ({dense_bytes} if every block were dense)")

same = read_tensors(tensor_path)
assert all(np.array_equal(g, tensors.named()[n]) for n, g in same.named().items())
print("  read back bit-exact")

# --- scenes JSON ------------------------------------------------------
scene_path = out / "scenes.json"
write_scenes(scene_path, [scene])
doc = json.loads(scene_path.read_text())
image = doc["images"][0]
print(f"\n{scene_path.name}: {len(doc['images'])} image(s)")
print(f"  keys per image: {sorted(image)}")
print(f"  first item: category {image['items'][0]['category_id']}, "
      f"{len(image['items'][0]['landmarks']) // 3} landmarks as flat x,y,v triples")
assert read_scenes(scene_path, table)[0].image_id == scene.image_id

# --- detections JSON --------------------------------------------------
det_path = out / "detections.json"
write_detections(det_path, {scene.image_id: detections})
doc = json.loads(det_path.read_text())
entry = doc["detections"][0]
print(f"\n{det_path.name}: {len(doc['detections'])} detection(s)")
print(f"  keys per detection: {sorted(entry)}")
restored = read_detections(det_path)[scene.image_id]
assert np.array_equal(restored[0].box, detections[0].box)
print("  read back bit-exact")
