import math

import numpy as np
import pytest

from clothdet import (
    Detection,
    EvalConfig,
    GroundTruthItem,
    SynthParams,
    evaluate,
    iou,
    oks,
    synth_scenes,
)
from clothdet.metrics import EvaluationError, report_to_csv_rows, report_to_dict

from bruteforce_eval import evaluate_bruteforce, perturbed_case, report_diffs
from conftest import make_item, make_scene


def perfect_detections(scenes, score=1.0):
    out = {}
    for scene in scenes:
        dets = []
        for item in scene.items:
            lm = np.column_stack((item.landmarks[:, :2], np.ones(len(item.landmarks))))
            dets.append(Detection(item.category_id, score, item.box.copy(), lm))
        out[scene.image_id] = dets
    return out


def noisy_detections(scenes, rng, box_noise=6.0, lm_noise=3.0):
    out = {}
    for scene in scenes:
        dets = []
        for item in scene.items:
            if rng.random() < 0.1:
                continue
            box = np.sort(item.box.reshape(2, 2) + rng.uniform(-box_noise, box_noise, (2, 2)), axis=0).reshape(4)
            lm = np.column_stack((
                item.landmarks[:, :2] + rng.normal(0, lm_noise, (len(item.landmarks), 2)),
                rng.uniform(0, 1, len(item.landmarks)),
            ))
            dets.append(Detection(item.category_id, float(rng.uniform(0.1, 1.0)), box, lm))
        out[scene.image_id] = dets
    return out


class TestOks:
    def test_exact_landmarks(self, table):
        item = make_item(table, 1, (0, 0, 40, 40))
        sigmas = np.full(25, 0.05)
        assert oks(item.landmarks[:, :2], item, sigmas, "visible_only") == 1.0
        assert oks(item.landmarks[:, :2], item, sigmas, "visible_and_occluded") == 1.0

    def test_characteristic_distance(self, table):
        # One counted landmark displaced so that d^2 = 2 s^2 k^2 gives e^-1.
        lm = np.array([(1.0, 0.5, 2)] + [(0.5, 0.5, 0)] * 24)
        item = GroundTruthItem(1, np.array([0.0, 0.0, 2.0, 1.0]), lm)
        pred = lm[:, :2].copy()
        pred[0, 0] += 1.0  # d^2 = 1 = 2 * area(2) * (0.5)^2
        value = oks(pred, item, np.full(25, 0.5), "visible_only")
        assert abs(value - math.exp(-1)) < 1e-12

    def test_all_unlabeled_is_undefined(self, table):
        item = make_item(table, 1, (0, 0, 10, 10), visibility=0)
        assert oks(item.landmarks[:, :2], item, np.full(25, 0.05), "visible_only") is None
        assert oks(item.landmarks[:, :2], item, np.full(25, 0.05), "visible_and_occluded") is None

    def test_occluded_counted_by_mode(self, table):
        lm = np.array([(5.0, 5.0, 2)] * 24 + [(9.0, 9.0, 1)])
        item = GroundTruthItem(1, np.array([0.0, 0.0, 10.0, 10.0]), lm)
        pred = lm[:, :2].copy()
        pred[24] += 50.0
        sigmas = np.full(25, 0.05)
        assert oks(pred, item, sigmas, "visible_only") == 1.0
        assert oks(pred, item, sigmas, "visible_and_occluded") < 1.0

    def test_zero_area_box(self, table):
        lm = np.array([(3.0, 3.0, 2)] * 25)
        item = GroundTruthItem(1, np.array([3.0, 3.0, 3.0, 3.0]), lm)
        pred = lm[:, :2].copy()
        sigmas = np.full(25, 0.05)
        assert oks(pred, item, sigmas, "visible_only") == 1.0
        pred[0] += 0.001
        assert oks(pred, item, sigmas, "visible_only") == pytest.approx(24 / 25)

    def test_errors(self, table):
        item = make_item(table, 1, (0, 0, 10, 10))
        good = item.landmarks[:, :2]
        with pytest.raises(EvaluationError, match="count mismatch"):
            oks(good[:-1], item, np.full(25, 0.05), "visible_only")
        with pytest.raises(EvaluationError, match="sigmas"):
            oks(good, item, np.full(24, 0.05), "visible_only")
        with pytest.raises(EvaluationError, match="visibility mode"):
            oks(good, item, np.full(25, 0.05), "everything")


def box_map(table, scenes_items, dets_per_image, **config):
    """Box mAP of evaluate over images given as lists of GT items and of detections."""
    scenes = [make_scene(table, items, image_id=f"img-{i}") for i, items in enumerate(scenes_items)]
    dets = {scene.image_id: d for scene, d in zip(scenes, dets_per_image)}
    return evaluate(dets, scenes, table, EvalConfig(**config)).box


def box_det(score, box):
    return Detection(1, score, np.asarray(box, dtype=np.float64), np.empty((0, 3)))


# Greedy matching, observed through evaluate's box AP. With two GTs a
# detection that is wrongly left unmatched (or wrongly matched) moves AP
# between 51/101 (recall stops at 1/2) and 1.0.
HALF_RECALL_AP = 51 / 101


class TestMatching:
    def test_exact_match(self, table):
        gt = make_item(table, 1, (0, 0, 10, 10))
        assert box_map(table, [[gt]], [[box_det(0.9, gt.box)]]).map == 1.0

    def test_second_detection_on_same_gt_is_fp(self, table):
        gts = [make_item(table, 1, (0, 0, 10, 10)), make_item(table, 1, (50, 50, 60, 60))]
        dets = [box_det(0.9, gts[0].box), box_det(0.8, gts[0].box)]
        assert box_map(table, [gts], [dets], thresholds=(0.5,)).map == HALF_RECALL_AP

    def test_below_threshold_is_fp(self, table):
        gt = make_item(table, 1, (0, 0, 10, 10))
        det = box_det(0.9, (0.0, 0.0, 9.0, 5.0))
        assert iou(det.box, gt.box) == 0.45
        assert box_map(table, [[gt]], [[det]], thresholds=(0.5,)).map == 0.0
        assert box_map(table, [[gt]], [[det]], thresholds=(0.45,)).map == 1.0

    def test_tie_takes_lowest_gt_index(self, table):
        # The first detection overlaps both GTs with IoU 1/3; taking GT 0
        # leaves the second detection, which only overlaps GT 0, unmatched.
        gts = [make_item(table, 1, (0, 0, 10, 10)), make_item(table, 1, (10, 0, 20, 10))]
        dets = [box_det(0.9, (5, 0, 15, 10)), box_det(0.8, gts[0].box)]
        assert iou(dets[0].box, gts[0].box) == iou(dets[0].box, gts[1].box)
        assert box_map(table, [gts], [dets], thresholds=(0.3,)).map == HALF_RECALL_AP
        # Higher similarity beats the lower index: the first detection takes
        # GT 1, so the second, which only overlaps GT 1, is unmatched.
        dets = [box_det(0.9, (9, 0, 19, 10)), box_det(0.8, gts[1].box)]
        assert iou(dets[0].box, gts[0].box) < iou(dets[0].box, gts[1].box)
        assert box_map(table, [gts], [dets], thresholds=(0.05,)).map == HALF_RECALL_AP

    def test_max_detections_truncates(self, table):
        gts = [make_item(table, 1, (0, 0, 10, 10)), make_item(table, 1, (50, 50, 60, 60))]
        dets = [box_det(0.9, gts[0].box), box_det(0.8, gts[0].box), box_det(0.7, gts[1].box)]
        assert box_map(table, [gts], [dets], thresholds=(0.5,), max_detections_per_image=2).map == HALF_RECALL_AP
        assert box_map(table, [gts], [dets], thresholds=(0.5,)).map > HALF_RECALL_AP

    def test_no_gt(self, table):
        # The top-scored detection sits in an image without GT: a false
        # positive ranked first halves the precision of the true one.
        gt = make_item(table, 1, (0, 0, 10, 10))
        assert box_map(table, [[gt], []], [[box_det(0.5, gt.box)], [box_det(0.9, gt.box)]]).map == 0.5


class TestAveragePrecision:
    def test_single_true_positive(self, table):
        gt = make_item(table, 1, (0, 0, 10, 10))
        assert box_map(table, [[gt]], [[box_det(0.9, gt.box)]]).map == 1.0

    def test_fp_above_tp_halves(self, table):
        gt = make_item(table, 1, (0, 0, 10, 10))
        dets = [box_det(0.9, (50, 50, 60, 60)), box_det(0.8, gt.box)]
        assert box_map(table, [[gt]], [dets]).map == 0.5

    def test_input_order_irrelevant(self, table):
        # Ranked by score within an image and across images, whatever the input order.
        gt = make_item(table, 1, (0, 0, 10, 10))
        dets = [box_det(0.8, gt.box), box_det(0.9, (50, 50, 60, 60))]
        assert box_map(table, [[gt]], [dets]).map == 0.5
        assert box_map(table, [[gt], []], [dets[:1], dets[1:]]).map == 0.5

    def test_no_detections(self, table):
        gts = [make_item(table, 1, (x, 0, x + 10, 10)) for x in (0, 30, 60)]
        assert box_map(table, [gts], [[]]).map == 0.0

    def test_no_gt_with_detections(self, table):
        block = box_map(table, [[]], [[box_det(0.9, (0, 0, 10, 10))]])
        assert block.per_category[1] == 0.0
        assert block.map is None  # a GT-less category stays out of the mean

    def test_nothing_at_all(self, table):
        block = box_map(table, [[]], [[box_det(0.9, (0, 0, 10, 10))]])
        assert block.per_category[2] is None

    def test_two_of_three(self, table):
        # TPs at scores 0.9 and 0.7, FP at 0.8, n_gt 3.
        gts = [make_item(table, 1, (x, 0, x + 10, 10)) for x in (0, 30, 60)]
        dets = [box_det(0.9, gts[0].box), box_det(0.8, (0, 50, 10, 60)), box_det(0.7, gts[1].box)]
        # Envelope: precision 1.0 up to recall 1/3, 2/3 up to recall 2/3, 0 beyond.
        expected = (34 * 1.0 + 33 * (2 / 3)) / 101
        assert box_map(table, [gts], [dets], thresholds=(0.5,)).map == pytest.approx(expected, abs=1e-12)


class TestEvaluate:
    def test_perfect_detections_score_one(self, table):
        scenes = synth_scenes(SynthParams(seed=1, num_images=4), table)
        report = evaluate(perfect_detections(scenes), scenes, table)
        assert report.box.map == 1.0 and report.box.map_50 == 1.0 and report.box.map_75 == 1.0
        for block in report.pt.values():
            assert block.map == 1.0 and block.map_50 == 1.0 and block.map_75 == 1.0
        present = {i.category_id for s in scenes for i in s.items}
        for cat, ap in report.box.per_category.items():
            assert ap == (1.0 if cat in present else None)
        assert report.images == 4
        assert report.gt_items == sum(len(s.items) for s in scenes)
        assert report.detections == report.gt_items

    def test_no_detections_scores_zero(self, table):
        scenes = synth_scenes(SynthParams(seed=2, num_images=2), table)
        report = evaluate({}, scenes, table)
        assert report.box.map == 0.0
        for block in report.pt.values():
            assert block.map == 0.0
        assert report.detections == 0

    def test_unknown_image_id(self, table):
        scenes = synth_scenes(SynthParams(seed=3, num_images=1), table)
        with pytest.raises(EvaluationError, match="unknown image id"):
            evaluate({"nope": []}, scenes, table)

    def test_duplicate_scene_ids(self, table):
        scene = synth_scenes(SynthParams(seed=3, num_images=1), table)[0]
        with pytest.raises(EvaluationError, match="duplicate"):
            evaluate({}, [scene, scene], table)

    def test_score_scaling_invariance(self, table):
        scenes = synth_scenes(SynthParams(seed=5, num_images=4), table)
        dets = noisy_detections(scenes, np.random.default_rng(5))
        halved = {
            iid: [Detection(d.category_id, d.score * 0.5, d.box, d.landmarks) for d in ds]
            for iid, ds in dets.items()
        }
        assert report_to_dict(evaluate(dets, scenes, table)) == report_to_dict(evaluate(halved, scenes, table))

    def test_permutation_invariance(self, table):
        scenes = synth_scenes(SynthParams(seed=6, num_images=4), table)
        dets = noisy_detections(scenes, np.random.default_rng(6))
        baseline = report_to_dict(evaluate(dets, scenes, table))
        rng = np.random.default_rng(0)
        shuffled_scenes = list(scenes)
        rng.shuffle(shuffled_scenes)
        shuffled_dets = {iid: list(rng.permutation(ds)) for iid, ds in dets.items()}
        assert report_to_dict(evaluate(shuffled_dets, shuffled_scenes, table)) == baseline

    def test_map_50_bounds_map(self, table):
        scenes = synth_scenes(SynthParams(seed=7, num_images=6), table)
        dets = noisy_detections(scenes, np.random.default_rng(7))
        report = evaluate(dets, scenes, table)
        assert report.box.map_50 >= report.box.map
        for block in report.pt.values():
            assert block.map_50 >= block.map

    def test_zero_iou_detection_never_helps(self, table):
        scenes = synth_scenes(SynthParams(seed=8, num_images=4), table)
        dets = noisy_detections(scenes, np.random.default_rng(8))
        before = evaluate(dets, scenes, table)
        spiked = {iid: list(ds) for iid, ds in dets.items()}
        cat = scenes[0].items[0].category_id
        k = len(scenes[0].items[0].landmarks)
        far = Detection(cat, 0.99, np.array([9000.0, 9000.0, 9010.0, 9010.0]),
                        np.column_stack((np.full((k, 2), 9005.0), np.ones(k))))
        spiked[scenes[0].image_id] = spiked[scenes[0].image_id] + [far]
        after = evaluate(spiked, scenes, table)
        assert after.box.map <= before.box.map
        for mode in after.pt:
            assert after.pt[mode].map <= before.pt[mode].map

    def test_modes_agree_without_occlusion(self, table):
        scenes = synth_scenes(SynthParams(seed=9, num_images=4, occlusion_prob=0.0), table)
        report = evaluate(noisy_detections(scenes, np.random.default_rng(9)), scenes, table)
        a = report_to_dict(report, mode="visible_only")
        b = report_to_dict(report, mode="visible_and_occluded")
        assert a == b

    def test_visible_only_superset_data(self, table):
        # With occlusions present, the two modes legitimately diverge.
        scenes = synth_scenes(SynthParams(seed=10, num_images=6, occlusion_prob=0.4), table)
        report = evaluate(perfect_detections(scenes), scenes, table)
        assert set(report.pt) == {"visible_only", "visible_and_occluded"}
        for block in report.pt.values():
            assert block.map == 1.0

    def test_single_mode_config(self, table):
        scenes = synth_scenes(SynthParams(seed=11, num_images=2), table)
        report = evaluate(perfect_detections(scenes), scenes, table,
                          EvalConfig(visibility_mode="visible_only"))
        assert set(report.pt) == {"visible_only"}

    def test_sigma_override_changes_strictness(self, table):
        scenes = synth_scenes(SynthParams(seed=12, num_images=6), table)
        dets = noisy_detections(scenes, np.random.default_rng(12), box_noise=0.0, lm_noise=4.0)
        default = evaluate(dets, scenes, table)
        strict = evaluate(dets, scenes, table, EvalConfig(sigmas=np.full(294, 0.005)))
        assert strict.pt["visible_only"].map < default.pt["visible_only"].map

    def test_max_detections_cap(self, table):
        gt = make_item(table, 1, (10, 10, 50, 50))
        scene = make_scene(table, [gt])
        junk = [Detection(1, 0.9 - 0.001 * i, np.array([60.0, 60.0, 70.0, 70.0]),
                          np.column_stack((np.full((25, 2), 65.0), np.ones(25))))
                for i in range(30)]
        hit = Detection(1, 0.1, gt.box.copy(),
                        np.column_stack((gt.landmarks[:, :2], np.ones(25))))
        dets = {scene.image_id: junk + [hit]}
        capped = evaluate(dets, [scene], table, EvalConfig(max_detections_per_image=10))
        full = evaluate(dets, [scene], table, EvalConfig(max_detections_per_image=100))
        assert capped.box.map == 0.0  # the true positive was truncated away
        assert full.box.map > 0.0
        assert capped.detections == full.detections == 31  # counts stay untruncated

    def test_curve_inventory(self, table):
        scenes = synth_scenes(SynthParams(seed=13, num_images=2), table)
        report = evaluate(perfect_detections(scenes), scenes, table)
        present = {i.category_id for s in scenes for i in s.items}
        assert len(report.curves) == len(present) * 10 * 3
        assert {c.category_id for c in report.curves} == present
        assert {c.metric for c in report.curves} == {"box", "pt_visible_only", "pt_visible_and_occluded"}
        for curve in report.curves:
            assert curve.recall.shape == curve.precision.shape == (101,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(thresholds=())
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.5, 0.5))
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.5, 1.5))
        with pytest.raises(ValueError):
            EvalConfig(visibility_mode="both")
        with pytest.raises(ValueError):
            EvalConfig(max_detections_per_image=0)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce(self, table, seed):
        scenes, dets = perturbed_case(seed, table)
        report = evaluate(dets, scenes, table)
        expected = evaluate_bruteforce(dets, scenes, table, EvalConfig().thresholds)
        assert report_diffs(report, expected) == []


class TestSerialization:
    def test_dict_shape(self, table):
        scenes = synth_scenes(SynthParams(seed=14, num_images=2), table)
        d = report_to_dict(evaluate(perfect_detections(scenes), scenes, table))
        assert set(d) == {"box", "pt", "counts"}
        assert set(d["pt"]) == {"visible_only", "visible_and_occluded"}
        assert set(d["box"]) == {"map", "map_50", "map_75", "per_category"}
        assert set(d["box"]["per_category"]) == {str(i) for i in range(1, 14)}
        assert d["counts"]["images"] == 2

    def test_dict_unknown_mode(self, table):
        scenes = synth_scenes(SynthParams(seed=14, num_images=1), table)
        report = evaluate({}, scenes, table)
        with pytest.raises(EvaluationError, match="visibility mode"):
            report_to_dict(report, mode="nope")

    def test_csv_rows(self, table):
        scenes = synth_scenes(SynthParams(seed=15, num_images=2), table)
        report = evaluate(perfect_detections(scenes), scenes, table)
        rows = report_to_csv_rows(report)
        assert rows[0] == ["metric", "visibility", "value"]
        assert all(len(r) == 3 for r in rows)
        named = report_to_csv_rows(report, mode="visible_only")
        assert named[0] == ["metric", "value"]
        assert ["mAP_box", "1.000000"] in named
        assert ["mAP_pt", "1.000000"] in named
