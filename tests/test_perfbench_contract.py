"""perfbench's tracer contract, held on tiny inputs.

perfbench (`perfbench/`) times clothdet by wrapping module attributes by
name, and its span counters and input writer read values of what clothdet
returns. A wrapped name that is no longer called, or a value that no longer
reads, would otherwise surface only as a `BenchError` after minutes of
benchmarking. These tests run perfbench's own `Tracer`, `install_spans` and
`Program` over the calls of its four workloads, and its input writer and
workloads themselves on pools of a few images.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from clothdet import HeadTensorSet, NoiseParams, SynthParams, encode_scene, noisy_view_tensors, synth_scenes
from clothdet.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("run", "tracing", "workloads", "inputs")}


def test_traced_workload_calls_record_every_layer_span(perfbench, table, tmp_path):
    run, tracing, workloads = perfbench["run"], perfbench["tracing"], perfbench["workloads"]
    scenes_file, views, dets, report = (tmp_path / name for name in ("scenes.json", "views", "dets.json", "report.json"))
    assert main(["synth", "--out", str(scenes_file), "--images", "2", "--width", "96", "--height", "96",
                 "--min-box", "24", "--max-box", "48", "--seed", "3"]) == 0
    scene = synth_scenes(SynthParams(seed=3, num_images=1, image_width=96, image_height=96, min_box_size=24, max_box_size=48), table)[0]
    dense = HeadTensorSet(stride=4, **{name: np.asarray(grid) for name, grid in encode_scene(scene, table).named().items()})

    program = workloads.Program()
    tracer = tracing.Tracer()
    workloads.install_spans(tracer, program)
    with tracer.active():
        program.postprocess.nms(program.decode.decode_scene(dense, table), workloads.NMS_IOU)
        assert program.cli.main(["encode", "--scenes", str(scenes_file), "--out-dir", str(views),
                                 "--flip", "--scales", "1.0,0.75"]) == 0
        assert program.cli.main(["decode", "--tensors", str(views), "--out", str(dets),
                                 "--flip", "--scales", "1.0,0.75"]) == 0
        assert program.cli.main(["eval", "--detections", str(dets), "--scenes", str(scenes_file),
                                 "--out-json", str(report)]) == 0
    tracer.write(tmp_path / "spans.jsonl")
    spans = tracing.load_spans(tmp_path / "spans.jsonl")

    for name, _, _, span, stat in run.LAYERS:
        # BenchError when no span of that name was recorded.
        value = run._layer_value(spans, span, stat)
        assert math.isfinite(value), name
        if not isinstance(stat, str):
            # The span's counter ran on every call and stored what the metric reads.
            assert all(key in s for s in spans if s["name"] == span for key in stat[1:]), name


def test_input_writer_reads_encoder_and_noisy_view_sets(perfbench, table):
    scene = synth_scenes(SynthParams(seed=5, num_images=1, image_width=96, image_height=96, min_box_size=24, max_box_size=48), table)[0]
    for tensors in (encode_scene(scene, table), noisy_view_tensors(scene, table, NoiseParams(seed=5), flipped=True)):
        indices, values = perfbench["inputs"]._sparse(tensors)
        flat = np.concatenate([np.asarray(grid).reshape(-1) for grid in tensors.named().values()])
        np.testing.assert_array_equal(indices, np.flatnonzero(flat))
        np.testing.assert_array_equal(values, flat[indices])


# perfbench's pool sizes cut to a few images each; TTA_CLEAN_CANDIDATES stays as it is.
SMALL_POOLS = {"SERVE_POOL": 2, "SERVE_CLEAN": 1, "TTA_POOL": 1, "TTA_CLEAN": 1, "ENCODE_POOL": 1,
               "EVAL_IMAGES": 5, "EVAL_WARMUP_IMAGES": 2}


@pytest.mark.parametrize("workload", ["serve_single", "tta_files", "encode_files", "eval_dataset"])
def test_input_writer_and_workload_run_one_round(perfbench, monkeypatch, tmp_path, workload):
    inputs, workloads = perfbench["inputs"], perfbench["workloads"]
    for name, size in SMALL_POOLS.items():
        monkeypatch.setattr(inputs, name, size)
    inputs.generate(workload, 1, tmp_path / "inputs")
    wl, _ = workloads.set_up(workload, tmp_path / "inputs", tmp_path / "work")
    for key in wl.ops():
        wl.prepare(key)
        output = wl.call(key)
        assert not wl.failed(output), key
        wl.after(key, output)
    # finish() checks the outputs: the brute-force scorer, and mAP 1.0 on the clean views.
    map_box, map_pt = wl.finish()
    assert 0.0 <= map_box <= 1.0 and 0.0 <= map_pt <= 1.0
