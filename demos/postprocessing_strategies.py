"""
How much does each post-processing stage buy?
=============================================

Clean encoded tensors decode perfectly, so to compare post-processing
strategies we corrupt the tensors instead: random peak heights, peak
dropout, and duplicated peaks one cell off. A horizontally mirrored and
a 0.75x scaled view of every scene get the same treatment, which gives
flip fusion and multiscale fusion something to recover from. The ladder
then scores four decoders on the same noisy views:

  none                 raw decode of the 1.0-scale view
  nms                  + greedy overlap suppression
  nms+flip             + averaging with the unflipped mirror view
  nms+flip+multiscale  + the same at 0.75x, merged by score under NMS
"""

import logging

from clothdet import NoiseParams, SynthParams, default_table, synth_scenes
from clothdet.bench import compare_strategies

# Crowded scenes make landmark windows of different objects collide on the
# shared offset map. The encoder reports each collision; snapping during
# decode absorbs them, so keep the demo output to the table.
logging.getLogger("clothdet.encode").setLevel(logging.ERROR)

table = default_table()

params = SynthParams(
    seed=4, num_images=16, image_width=256, image_height=256,
    min_objects=2, max_objects=4, min_box_size=48, max_box_size=96,
    avoid_cell_boundaries=True,
)
scenes = synth_scenes(params, table)
noise = NoiseParams(seed=4, dropout_prob=0.2, duplicate_prob=0.3)

report = compare_strategies(scenes, table, noise)

widths = [max(len(row[i]) for row in report.rows()) for i in range(5)]
for row in report.rows():
    print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

# Dropout hides peaks from single views, so fusion should claw mAP back.
first, last = report.results[0], report.results[-1]
print(f"\nbox mAP recovered by the full ladder: {last.map_box - first.map_box:+.3f}")
print(f"point mAP recovered by the full ladder: {last.map_pt - first.map_pt:+.3f}")
