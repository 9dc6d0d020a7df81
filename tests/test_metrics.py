import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clothdet import (
    Detection,
    EvalConfig,
    GroundTruthItem,
    SynthParams,
    box_area,
    evaluate,
    iou,
    oks,
    synth_scenes,
)
from clothdet.metrics import VISIBILITY_MODES, EvaluationError, _box_iou, _CategoryBatch, report_to_csv_rows, report_to_dict

import unbatched_reference
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


# The default config's cases keep their bare seed ids.
ORACLE_CONFIGS = {
    "": EvalConfig(),
    "t0.5": EvalConfig(thresholds=(0.5,)),
    "t0.3-0.7": EvalConfig(thresholds=(0.3, 0.5, 0.7)),
    "maxdet1": EvalConfig(max_detections_per_image=1),
}


class TestOracleAgreement:
    @pytest.mark.parametrize("seed,config", [
        pytest.param(seed, config, id=f"{name}-{seed}" if name else str(seed))
        for name, config in ORACLE_CONFIGS.items()
        for seed in (0, 1, 2)
    ])
    def test_matches_bruteforce(self, table, seed, config):
        scenes, dets = perturbed_case(seed, table)
        report = evaluate(dets, scenes, table, config)
        expected = evaluate_bruteforce(dets, scenes, table, config.thresholds,
                                       max_det=config.max_detections_per_image)
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
        scenes = synth_scenes(SynthParams(seed=16, num_images=4, occlusion_prob=0.3), table)
        dets = noisy_detections(scenes, np.random.default_rng(16), box_noise=10.0, lm_noise=4.0)
        report = evaluate(dets, scenes, table)
        assert report_to_csv_rows(report) == [
            ["metric", "visibility", "value"],
            ["mAP_box", "", "0.662659"],
            ["mAP_box@0.50", "", "0.971711"],
            ["mAP_box@0.75", "", "0.687412"],
            ["mAP_pt", "visible_only", "0.340594"],
            ["mAP_pt@0.50", "visible_only", "0.836634"],
            ["mAP_pt@0.75", "visible_only", "0.214993"],
            ["mAP_pt", "visible_and_occluded", "0.367610"],
            ["mAP_pt@0.50", "visible_and_occluded", "0.943423"],
            ["mAP_pt@0.75", "visible_and_occluded", "0.224894"],
        ]
        assert report_to_csv_rows(report, mode="visible_and_occluded") == [
            ["metric", "value"],
            ["mAP_box", "0.662659"],
            ["mAP_box@0.50", "0.971711"],
            ["mAP_box@0.75", "0.687412"],
            ["mAP_pt", "0.367610"],
            ["mAP_pt@0.50", "0.943423"],
            ["mAP_pt@0.75", "0.224894"],
        ]


# Scores drawn from this short list tie often, within and across images.
TIED_SCORES = (0.25, 0.5, 0.75, 1.0)


def identity_case(seed, table):
    """Scenes, detections and a config that exercise every branch of matching.

    Two or three categories share the images, so buckets collide; one more
    category draws detections and never has ground truth. GT boxes are
    sometimes zero-area, visibilities leave anywhere from none to all
    landmarks counted (and 3, above the scale, now and then), detections
    copy, jitter or miss their GT, carry a wrong landmark count now and
    then and often share scores, and some images have no detections. In
    crowded cases the GT boxes are congruent squares on a 5-pixel grid and
    some detections sit halfway between two of them, tying in IoU, so the
    tie rule decides which one they take.
    """
    rng = np.random.default_rng(seed)
    with_gt = [int(c) for c in rng.choice(np.arange(1, 14), size=int(rng.integers(2, 4)), replace=False)]
    ghost = int(rng.choice([c for c in range(1, 14) if c not in with_gt]))
    crowded = rng.random() < 0.3

    def landmarks(count, box):
        out = np.empty((count, 3))
        out[:, 0] = rng.uniform(min(box[0], box[2]) - 2, max(box[0], box[2]) + 2, count)
        out[:, 1] = rng.uniform(min(box[1], box[3]) - 2, max(box[1], box[3]) + 2, count)
        return out

    def random_box(extent):
        if crowded:
            x1, y1 = rng.integers(0, 7, 2) * 5.0
            return np.array([x1, y1, x1 + 20, y1 + 20])
        x1, y1 = rng.uniform(0, 80, 2)
        w, h = rng.uniform(*extent, 2)
        return np.array([x1, y1, x1 + w, y1 + h])

    scenes, dets = [], {}
    for i in range(int(rng.integers(1, 7))):
        items = []
        for _ in range(int(rng.integers(0, 5))):
            cat = int(rng.choice(with_gt))
            box = random_box((2, 40))
            if rng.random() < 0.15:
                axis = int(rng.integers(2))
                box[axis + 2] = box[axis]
            lm = landmarks(table.keypoint_count(cat), box)
            lm[:, 2] = rng.choice([0, 1, 2], size=len(lm), p=rng.dirichlet(np.ones(3) * 0.7))
            if rng.random() < 0.05:
                lm[rng.integers(len(lm)), 2] = 3
            items.append(GroundTruthItem(cat, box, lm))
        image_dets = []
        for _ in range(int(rng.integers(0, 8)) if rng.random() > 0.2 else 0):
            score = float(rng.choice(TIED_SCORES)) if rng.random() < 0.5 else float(rng.uniform(0.01, 1.0))
            a, b = (items[int(j)] for j in rng.integers(len(items), size=2)) if items else (None, None)
            if crowded and a is not None and a.category_id == b.category_id and rng.random() < 0.5:
                cat, box, lm = a.category_id, (a.box + b.box) / 2, (a.landmarks + b.landmarks) / 2
            elif a is not None and rng.random() < 0.7:
                cat, box, lm = a.category_id, a.box.copy(), a.landmarks.copy()
                if rng.random() < 0.7:
                    box += rng.normal(0, 2, 4)
                    lm[:, :2] += rng.normal(0, 1.5, (len(lm), 2)) * (rng.random((len(lm), 1)) < 0.8)
            else:
                cat = int(rng.choice(with_gt + [ghost]))
                box = random_box((1, 40))
                lm = landmarks(table.keypoint_count(cat), box)
            if rng.random() < 0.1:
                lm = landmarks(max(0, len(lm) + int(rng.choice([-1, 1, -len(lm)]))), box)
            lm[:, 2] = rng.random(len(lm))
            image_dets.append(Detection(cat, score, box, lm))
        scenes.append(make_scene(table, items, image_id=f"img-{i}"))
        if image_dets or rng.random() < 0.5:
            dets[f"img-{i}"] = image_dets

    sigmas = None
    if rng.random() < 0.3:
        sigmas = rng.uniform(0.01, 0.2, 294) * (rng.random(294) > 0.1)
    config = EvalConfig(
        thresholds=EvalConfig().thresholds if rng.random() < 0.7 else (0.1, 0.3, 0.5, 0.7),
        visibility_mode=rng.choice([None, "visible_only", "visible_and_occluded"]),
        max_detections_per_image=int(rng.choice([1, 2, 3, 100])),
        sigmas=sigmas,
    )
    return scenes, dets, config


def case_features(scenes, dets, config, table):
    """Which of the cases that the identity test must include this case holds."""
    found = set()
    with_gt = {item.category_id for scene in scenes for item in scene.items}
    for scene in scenes:
        image_dets = dets.get(scene.image_id, [])
        if not image_dets:
            found.add("image without detections")
        scores = [d.score for d in image_dets]
        if len(set(scores)) < len(scores):
            found.add("tied scores")
        for det in image_dets:
            if det.landmarks.shape[0] != table.keypoint_count(det.category_id):
                found.add("wrong landmark count")
            if det.category_id not in with_gt:
                found.add("GT-less category with detections")
        for item in scene.items:
            if box_area(item.box) == 0:
                found.add("zero-area GT box")
            same = [d for d in image_dets if d.category_id == item.category_id and len(d.landmarks) == len(item.landmarks)]
            for mode in ("visible_only", "visible_and_occluded"):
                counted = int(np.count_nonzero(item.landmarks[:, 2] == 2 if mode == "visible_only" else item.landmarks[:, 2] >= 1))
                if same and 1 <= counted <= 7:
                    found.add("pair with 1-7 counted landmarks")
                if same and counted >= 8:
                    found.add("pair with 8 or more counted landmarks")
    if config.max_detections_per_image <= 3:
        found.add("max detections 1-3")
    return found


def assert_same_report(got, want):
    assert report_to_dict(got) == report_to_dict(want)
    assert len(got.curves) == len(want.curves)
    for a, b in zip(got.curves, want.curves):
        assert (a.metric, a.category_id, a.threshold) == (b.metric, b.category_id, b.threshold)
        assert np.array_equal(a.recall, b.recall)
        assert np.array_equal(a.precision, b.precision)


class TestBatchedEvaluatorIdentity:
    """evaluate and oks against per-pair copies of the evaluator they replaced."""

    def test_cases_cover_every_required_kind(self, table):
        found = set()
        for seed in range(40):
            found |= case_features(*identity_case(seed, table), table)
        assert found == {
            "image without detections", "tied scores", "wrong landmark count", "GT-less category with detections",
            "zero-area GT box", "pair with 1-7 counted landmarks", "pair with 8 or more counted landmarks",
            "max detections 1-3",
        }

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_similarities_identical(self, table, seed):
        # Bit for bit, at every (detection, GT) pair of every bucket: a
        # last-bit difference seldom moves an AP, so the reports alone would
        # not show one.
        scenes, dets, config = identity_case(seed, table)
        sigmas = table.sigmas if config.sigmas is None else config.sigmas
        for spec in table.specs:
            buckets = [([d for d in dets.get(s.image_id, []) if d.category_id == spec.id],
                        [g for g in s.items if g.category_id == spec.id]) for s in scenes]
            batch = _CategoryBatch(buckets, spec.keypoint_count)
            k = sigmas[table.global_slice(spec.id)]
            matrices = {"box": batch.box_sim(), **{mode: batch.oks_sim(k, mode)[0] for mode in VISIBILITY_MODES}}
            for d, g in zip(batch.pair_det, batch.pair_gt):
                det, gt = batch.dets[d], batch.gts[g]
                want = {"box": iou(det.box, gt.box)}
                for mode in VISIBILITY_MODES:
                    min_vis = 2 if mode == "visible_only" else 1
                    value = None
                    if det.landmarks.shape[0] == gt.landmarks.shape[0] and np.any(gt.landmarks[:, 2] >= min_vis):
                        value = unbatched_reference.oks(det.landmarks, gt, k, mode)
                    want[mode] = -np.inf if value is None else value
                for name, matrix in matrices.items():
                    got = matrix[batch.row[d], batch.gt_col[g]]
                    assert np.float64(got).tobytes() == np.float64(want[name]).tobytes(), (name, d, g)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_reports_and_curves_identical(self, table, seed):
        scenes, dets, config = identity_case(seed, table)
        assert_same_report(evaluate(dets, scenes, table, config), unbatched_reference.evaluate(dets, scenes, table, config))

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_cases_identical(self, table, seed):
        scenes, dets = perturbed_case(seed, table)
        config = EvalConfig(max_detections_per_image=2)
        assert_same_report(evaluate(dets, scenes, table, config), unbatched_reference.evaluate(dets, scenes, table, config))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_oks_identical(self, table, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 40))
        box = np.sort(rng.uniform(0, 50, (2, 2)), axis=0).reshape(4) * (rng.random() > 0.2)
        gt_lm = np.column_stack((rng.uniform(0, 50, (count, 2)), rng.choice([0, 1, 2, 3], count)))
        pred = gt_lm[:, :2] + rng.normal(0, 3, (count, 2)) * (rng.random((count, 1)) < 0.7)
        sigmas = rng.uniform(0, 0.2, count) * (rng.random(count) > 0.2)
        item = GroundTruthItem(1, box, gt_lm)
        for mode in ("visible_only", "visible_and_occluded"):
            got, want = oks(pred, item, sigmas, mode), unbatched_reference.oks(pred, item, sigmas, mode)
            assert (got is None and want is None) or np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_box_iou_identical_on_non_finite_and_signed_zero(self):
        # evaluate accepts Detection objects with any float boxes; NaN, inf
        # and -0.0 must score as postprocess.iou scores them.
        rng = np.random.default_rng(0)
        values = [np.nan, 0.0, -0.0, 1.0, 3.0, -2.0, np.inf, -np.inf]
        a, b = rng.choice(values, (5000, 4)), rng.choice(values, (5000, 4))
        with np.errstate(all="ignore"):
            got = _box_iou(a, b)
        want = np.array([iou(x, y) for x, y in zip(a, b)])
        assert got.tobytes() == want.tobytes()


class TestSigmas:
    @pytest.mark.parametrize("sigmas,message", [
        (np.full(10, 0.05), r"sigmas must hold 294 values, one per keypoint of the table, got 10 \(first bad index 10\)"),
        (np.full(400, 0.05), r"sigmas must hold 294 values, one per keypoint of the table, got 400 \(first bad index 294\)"),
        (np.full((2, 147), 0.05), r"sigmas must be a flat list of 294 values, got shape \(2, 147\)"),
        (np.r_[np.full(7, 0.05), np.nan, np.full(286, 0.05)], r"sigmas\[7\] = nan is not a finite non-negative number \(need 294"),
        (np.r_[np.full(290, 0.05), -0.1, np.inf, 0.05, 0.05], r"sigmas\[290\] = -0.1 is not a finite non-negative number"),
        (np.r_[np.full(290, 0.05), np.inf, 0.05, 0.05, 0.05], r"sigmas\[290\] = inf is not"),
    ], ids=["short", "long", "2-d", "nan", "negative", "inf"])
    def test_rejected_where_they_enter_evaluate(self, table, sigmas, message):
        scenes = synth_scenes(SynthParams(seed=3, num_images=2), table)
        with pytest.raises(EvaluationError, match=message):
            evaluate(perfect_detections(scenes), scenes, table, EvalConfig(sigmas=sigmas))

    def test_zero_sigmas_match_exactly(self, table):
        scenes = synth_scenes(SynthParams(seed=3, num_images=2), table)
        dets = perfect_detections(scenes)
        assert evaluate(dets, scenes, table, EvalConfig(sigmas=np.zeros(294))).pt["visible_only"].map == 1.0
        shifted = {k: [Detection(d.category_id, d.score, d.box, d.landmarks + (0.01, 0, 0)) for d in v] for k, v in dets.items()}
        assert evaluate(shifted, scenes, table, EvalConfig(sigmas=np.zeros(294))).pt["visible_only"].map == 0.0
