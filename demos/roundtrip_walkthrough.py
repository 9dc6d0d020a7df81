"""
Encode one synthetic scene into head tensors and decode it back
===============================================================

The encoder rasterizes ground truth onto a stride-4 grid: a gaussian
splat per object on the center heatmap, box size and sub-cell offset at
the center cell, landmark displacements in box-size units, and per
landmark heatmaps with their own sub-cell refinement. The decoder
inverts all of that. On clean tensors the roundtrip is exact up to the
grid resolution, which is what this script demonstrates.
"""

import numpy as np

from clothdet import (
    DecodeConfig, SynthParams, decode_scene, default_table, encode_scene, synth_scenes,
)

table = default_table()

# One reproducible scene with three well-separated garments.
params = SynthParams(seed=11, num_images=1, min_objects=3, max_objects=3)
scene = synth_scenes(params, table)[0]
print(f"scene {scene.image_id}: {scene.width}x{scene.height}, {len(scene.items)} items")
for item in scene.items:
    spec = table.spec(item.category_id)
    print(f"  {spec.name:24s} box {np.round(item.box, 1)}  {spec.keypoint_count} landmarks")

# Encode. Six tensors on a grid 4x smaller than the image.
tensors = encode_scene(scene, table)
print(f"\ngrid {tensors.height}x{tensors.width}, stride {tensors.stride}")
# encode_scene keeps each tensor as its nonzeros; np.asarray gives the array.
for name, grid in tensors.named().items():
    print(f"  {name:16s} {str(grid.shape):14s} max {np.asarray(grid).max():.3f}")

# Every object contributes one exact 1.0 peak on its category channel.
peak_count = int((np.asarray(tensors.center) == 1.0).sum())
print(f"\nunit peaks on the center heatmap: {peak_count}")

# Decode and line the detections up against the ground truth.
dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
print(f"decoded {len(dets)} detections\n")
by_box = {tuple(np.round(i.box, 3)): i for i in scene.items}
for det in dets:
    item = by_box[tuple(np.round(det.box, 3))]
    lm_err = np.abs(det.landmarks[:, :2] - item.landmarks[:, :2]).max()
    print(
        f"  {table.spec(det.category_id).name:24s} score {det.score:.2f}"
        f"  box error {np.abs(det.box - item.box).max():.6f}"
        f"  worst landmark error {lm_err:.6f} px"
    )
