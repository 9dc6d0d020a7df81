"""Release-gate checks.

Seven end-to-end criteria, each printing one `[criterion N] name: PASS/FAIL`
line on the real stdout so the gate summary stays visible under capture.
"""

import dataclasses
import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from clothdet import (
    DecodeConfig,
    Detection,
    EvalConfig,
    GroundTruthItem,
    HeadTensorSet,
    SynthParams,
    decode_scene,
    encode_scene,
    evaluate,
    flip_tensors,
    fuse_tensors,
    iou,
    new_head_tensors,
    nms,
    oks,
    synth_scenes,
)
from clothdet.cli import main
from clothdet.scene import mirror_scene, translate_scene

from bruteforce_eval import evaluate_bruteforce, perturbed_case, report_diffs
from test_postprocess import same_detections


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"[criterion {number}] {name}: PASS", file=sys.__stdout__)


def random_tensor_set(rng):
    """Random float32 tensors whose x-offset channels sit on a dyadic grid,
    so the mirror transform's 1 - x stays exactly representable."""
    height = int(rng.integers(8, 33))
    width = int(rng.integers(8, 33))
    tensors = new_head_tensors(height, width, 4)
    for grid in tensors.named().values():
        grid[:] = rng.random(grid.shape, dtype=np.float32)
    for grid in (tensors.center_offset, tensors.kp_refine_offset):
        grid[0] = (rng.integers(0, 4097, grid[0].shape) / 4096).astype(np.float32)
    return tensors


def test_criterion_1_perfect_roundtrip(table):
    with criterion(1, "synthetic 1000-scene roundtrip scores 1.0 everywhere"):
        start = time.monotonic()
        scenes = synth_scenes(SynthParams(seed=123, num_images=1000), table)
        detections = {s.image_id: decode_scene(encode_scene(s, table), table) for s in scenes}
        report = evaluate(detections, scenes, table)
        elapsed = time.monotonic() - start

        assert abs(report.box.map - 1.0) <= 1e-9
        assert abs(report.box.map_50 - 1.0) <= 1e-9
        assert abs(report.box.map_75 - 1.0) <= 1e-9
        assert set(report.pt) == {"visible_only", "visible_and_occluded"}
        for block in report.pt.values():
            assert abs(block.map - 1.0) <= 1e-9
            assert abs(block.map_50 - 1.0) <= 1e-9
            assert abs(block.map_75 - 1.0) <= 1e-9
        # Every category, metric, and threshold: the sampled precision
        # envelope must be identically 1.
        assert len(report.curves) == 13 * 10 * 3
        for curve in report.curves:
            assert np.abs(curve.precision - 1.0).max() <= 1e-9
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def test_criterion_2_evaluator_matches_bruteforce(table):
    with criterion(2, "evaluate() agrees with the brute-force scorer on 50 cases"):
        thresholds = EvalConfig().thresholds
        for seed in range(50):
            scenes, dets = perturbed_case(seed, table, num_images=20)
            report = evaluate(dets, scenes, table)
            expected = evaluate_bruteforce(dets, scenes, table, thresholds)
            diffs = report_diffs(report, expected, tol=1e-9)
            assert diffs == [], f"seed {seed}: {diffs[:5]}"


def test_criterion_3_pinned_values(table):
    with criterion(3, "pinned IoU, OKS, and decode values"):
        assert iou([0, 0, 2, 2], [1, 1, 3, 3]) == 1 / 7

        landmarks = np.array([(1.0, 0.5, 2)] + [(0.5, 0.5, 0)] * 24)
        item = GroundTruthItem(1, np.array([0.0, 0.0, 2.0, 1.0]), landmarks)
        pred = landmarks[:, :2].copy()
        pred[0, 0] += 1.0  # d^2 = 1 = 2 * area(2) * (0.5)^2
        value = oks(pred, item, np.full(25, 0.5), "visible_only")
        assert abs(value - math.exp(-1)) <= 1e-12

        base = new_head_tensors(32, 32, 4)
        grids = {name: grid.astype(np.float64) for name, grid in base.named().items()}
        tensors = HeadTensorSet(stride=4, **grids)
        tensors.center[4, 10, 10] = 1.0
        tensors.center_offset[0, 10, 10] = 0.3
        tensors.center_offset[1, 10, 10] = 0.7
        tensors.wh[0, 10, 10] = 4.0
        tensors.wh[1, 10, 10] = 6.0
        dets = decode_scene(tensors, table, DecodeConfig(min_center_score=0.5))
        assert len(dets) == 1 and dets[0].category_id == 5
        assert np.abs(dets[0].box - [33.2, 30.8, 49.2, 54.8]).max() <= 1e-9


def test_criterion_4_transform_guarantees(paired_table):
    with criterion(4, "flip involution, NMS overlap bound, self-fusion identity"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            tensors = random_tensor_set(rng)
            twice = flip_tensors(flip_tensors(tensors, paired_table), paired_table)
            for name, grid in tensors.named().items():
                assert np.array_equal(twice.named()[name], grid), name

            fused = fuse_tensors([tensors, tensors])
            for name, grid in tensors.named().items():
                assert np.array_equal(fused.named()[name], grid), name

        for _ in range(1000):
            n = int(rng.integers(0, 16))
            dets = [
                Detection(
                    int(rng.integers(1, 4)),
                    float(rng.random()),
                    np.sort(rng.uniform(0, 24, (2, 2)), axis=0).reshape(4),
                    np.empty((0, 3)),
                )
                for _ in range(n)
            ]
            threshold = float(rng.uniform(0.2, 0.8))
            kept = nms(dets, threshold)
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    if a.category_id == b.category_id:
                        assert iou(a.box, b.box) < threshold


def test_criterion_5_strategy_ladder_is_monotone(capsys):
    with criterion(5, "post-processing ladder never loses mAP"):
        assert main(["strategies"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(l for l in lines if l.startswith("metric"))
        assert header.split()[1:] == ["none", "nms", "nms+flip", "nms+flip+multiscale"]
        for label in ("mAP_box", "mAP_pt"):
            row = next(l for l in lines if l.startswith(label))
            values = [float(tok) for tok in row.split()[1:]]
            assert len(values) == 4
            assert all(a <= b for a, b in zip(values, values[1:])), f"{label}: {values}"


def test_criterion_6_decode_latency(table):
    with criterion(6, "decode p50 within 10 ms on a 128x128 grid"):
        scene = synth_scenes(SynthParams(seed=7, num_images=1, min_objects=4, max_objects=6), table)[0]
        tensors = encode_scene(scene, table)
        assert (tensors.height, tensors.width) == (128, 128)
        # 5 warm-up calls, then 30 timed ones; every call must give the same detections.
        outputs, samples_ms = [], []
        for _ in range(5 + 30):
            start = time.perf_counter()
            outputs.append(decode_scene(tensors, table))
            samples_ms.append((time.perf_counter() - start) * 1e3)
        assert all(same_detections(out, outputs[0]) for out in outputs[1:])
        assert np.percentile(samples_ms[5:], 50) <= 10.0


def _mirror_detection(det, width, table):
    box = np.array([width - det.box[2], det.box[1], width - det.box[0], det.box[3]])
    landmarks = det.landmarks.copy()
    landmarks[:, 0] = width - landmarks[:, 0]
    spec = table.spec(det.category_id)
    for g1, g2 in table.flip_pairs:
        if spec.global_offset <= g1 < spec.global_offset + spec.keypoint_count:
            a, b = g1 - spec.global_offset, g2 - spec.global_offset
            landmarks[[a, b]] = landmarks[[b, a]]
    return det.category_id, det.score, box, landmarks


def test_criterion_7_geometric_equivariance(table, paired_table):
    with criterion(7, "decode commutes with translation and mirroring"):
        config = DecodeConfig(min_center_score=0.5)

        for seed in range(4):
            params = SynthParams(seed=200 + seed, num_images=1, min_objects=2, max_objects=3,
                                 image_width=384, image_height=384)
            scene = dataclasses.replace(synth_scenes(params, table)[0], width=512, height=512)
            moved = translate_scene(scene, 16, 48)
            base = decode_scene(encode_scene(scene, table), table, config)
            shifted = decode_scene(encode_scene(moved, table), table, config)
            assert len(base) == len(shifted) == len(scene.items)
            for d, e in zip(base, shifted):
                assert d.category_id == e.category_id and d.score == e.score
                assert np.array_equal(e.box, d.box + [16, 48, 16, 48])
                assert np.array_equal(e.landmarks[:, :2], d.landmarks[:, :2] + [16, 48])
                assert np.array_equal(e.landmarks[:, 2], d.landmarks[:, 2])

        for seed in range(6):
            params = SynthParams(seed=100 + seed, num_images=1, min_objects=2, max_objects=4,
                                 avoid_cell_boundaries=True)
            scene = synth_scenes(params, paired_table)[0]
            base = decode_scene(encode_scene(scene, paired_table), paired_table, config)
            mirrored = decode_scene(
                encode_scene(mirror_scene(scene, paired_table), paired_table), paired_table, config
            )
            manual = sorted(
                (_mirror_detection(d, scene.width, paired_table) for d in base),
                key=lambda t: (t[0], t[2][0]),
            )
            got = sorted(
                ((d.category_id, d.score, d.box, d.landmarks) for d in mirrored),
                key=lambda t: (t[0], t[2][0]),
            )
            assert len(manual) == len(got) == len(scene.items)
            for (c1, s1, b1, l1), (c2, s2, b2, l2) in zip(manual, got):
                assert c1 == c2 and s1 == s2
                assert np.abs(b1 - b2).max() <= 1e-6
                assert np.abs(l1 - l2).max() <= 1e-6
