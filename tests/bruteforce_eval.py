"""Slow reference evaluator used to cross-check clothdet.metrics.evaluate.

Everything is spelled out as plain Python loops over floats: pairwise
similarity tables, per-image greedy matching, precision/recall points after
every detection, and the 101-point envelope taken literally as the best
precision among points with recall >= r. No evaluation logic is shared with
the package; only the domain types and the category table are reused.

Also hosts the seeded perturbed-case generator that both the metrics tests
and the acceptance suite feed to evaluate() and to this oracle.
"""

from __future__ import annotations

import math

import numpy as np

from clothdet import Detection, SynthParams, synth_scenes

RECALL_POINTS = [i / 100.0 for i in range(101)]

MODE_MIN_VIS = {"visible_only": 2, "visible_and_occluded": 1}


def box_iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = (float(v) for v in a)
    bx1, by1, bx2, by2 = (float(v) for v in b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def oks_sim(det, gt, sigma_slice, min_vis) -> float:
    """OKS as a similarity; -inf when not comparable or nothing is counted."""
    if det.landmarks.shape[0] != gt.landmarks.shape[0]:
        return float("-inf")
    area = max(0.0, float(gt.box[2]) - float(gt.box[0])) * max(0.0, float(gt.box[3]) - float(gt.box[1]))
    values = []
    for (px, py, _conf), (gx, gy, vis), k in zip(det.landmarks.tolist(), gt.landmarks.tolist(), sigma_slice):
        if vis < min_vis:
            continue
        d2 = (px - gx) ** 2 + (py - gy) ** 2
        denom = 2.0 * area * k * k
        if denom > 0:
            values.append(math.exp(-d2 / denom))
        else:
            values.append(1.0 if d2 == 0 else 0.0)
    if not values:
        return float("-inf")
    return sum(values) / len(values)


def greedy_labels(sim_rows, threshold) -> list[bool]:
    """TP flags for detections in given order; rows are per-GT similarities."""
    taken = set()
    labels = []
    for row in sim_rows:
        best_idx = -1
        best_sim = float("-inf")
        for g, s in enumerate(row):
            if g in taken:
                continue
            if s > best_sim:
                best_sim = s
                best_idx = g
        if best_idx >= 0 and best_sim >= threshold:
            taken.add(best_idx)
            labels.append(True)
        else:
            labels.append(False)
    return labels


def envelope_ap(scored_flags, n_gt) -> float:
    """101-point AP from (score, is_tp) pairs, stable-sorted score-descending."""
    ordered = sorted(range(len(scored_flags)), key=lambda i: (-scored_flags[i][0], i))
    tp = 0
    fp = 0
    points = []
    for i in ordered:
        if scored_flags[i][1]:
            tp += 1
        else:
            fp += 1
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in RECALL_POINTS:
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / len(RECALL_POINTS)


def _canonical_order(dets) -> list[Detection]:
    return sorted(dets, key=lambda d: (-d.score, d.category_id, *[float(v) for v in d.box], d.landmarks.tobytes()))


def evaluate_bruteforce(detections_by_image, scenes, table, thresholds, max_det=100) -> dict:
    """Mirror of the fast evaluator's report as a plain nested dict."""
    scenes = sorted(scenes, key=lambda s: s.image_id)
    sigma_of = {
        spec.id: table.sigmas[spec.global_offset : spec.global_offset + spec.keypoint_count].tolist()
        for spec in table.specs
    }
    categories = [spec.id for spec in table.specs]

    per_image = []
    n_detections = 0
    n_gt_items = 0
    for scene in scenes:
        dets = _canonical_order(detections_by_image.get(scene.image_id, []))
        n_detections += len(dets)
        n_gt_items += len(scene.items)
        per_image.append(
            {
                cat: (
                    [d for d in dets if d.category_id == cat][:max_det],
                    [g for g in scene.items if g.category_id == cat],
                )
                for cat in categories
            }
        )

    def metric_block(gt_keep, sim_fn) -> dict:
        aps = {}
        has_gt = {}
        for cat in categories:
            n_gt = 0
            image_sims = []
            scored = []
            for buckets in per_image:
                cat_dets, cat_gts = buckets[cat]
                gts = [g for g in cat_gts if gt_keep(g)]
                n_gt += len(gts)
                image_sims.append([[sim_fn(d, g) for g in gts] for d in cat_dets])
                scored.extend(d.score for d in cat_dets)
            has_gt[cat] = n_gt > 0
            if n_gt == 0:
                aps[cat] = {t: (0.0 if scored else None) for t in thresholds}
                continue
            aps[cat] = {}
            for t in thresholds:
                flags = []
                for rows in image_sims:
                    flags.extend(greedy_labels(rows, t))
                aps[cat][t] = envelope_ap(list(zip(scored, flags)), n_gt)

        def mean_over_cats(t):
            vals = [aps[c][t] for c in categories if has_gt[c]]
            return sum(vals) / len(vals) if vals else None

        per_thr = [mean_over_cats(t) for t in thresholds]
        defined = [v for v in per_thr if v is not None]
        per_category = {}
        for c in categories:
            vals = [v for v in aps[c].values() if v is not None]
            per_category[c] = sum(vals) / len(vals) if vals else None
        return {
            "map": sum(defined) / len(defined) if defined else None,
            "map_50": mean_over_cats(0.5) if 0.5 in thresholds else None,
            "map_75": mean_over_cats(0.75) if 0.75 in thresholds else None,
            "per_category": per_category,
        }

    box = metric_block(lambda g: True, lambda d, g: box_iou(d.box, g.box))
    pt = {}
    for mode, min_vis in MODE_MIN_VIS.items():
        pt[mode] = metric_block(
            lambda g, mv=min_vis: any(v >= mv for v in g.landmarks[:, 2].tolist()),
            lambda d, g, mv=min_vis: oks_sim(d, g, sigma_of[g.category_id], mv),
        )
    return {
        "box": box,
        "pt": pt,
        "counts": {"images": len(scenes), "gt_items": n_gt_items, "detections": n_detections},
    }


def report_diffs(report, expected, tol=1e-9) -> list[str]:
    """Human-readable mismatches between a MetricReport and an oracle dict."""
    diffs = []

    def check(label, got, want):
        if got is None or want is None:
            if got is not want:
                diffs.append(f"{label}: {got} vs {want}")
        elif abs(got - want) > tol:
            diffs.append(f"{label}: {got!r} vs {want!r} (diff {abs(got - want):.3e})")

    def check_block(label, block, want):
        check(f"{label}.map", block.map, want["map"])
        check(f"{label}.map_50", block.map_50, want["map_50"])
        check(f"{label}.map_75", block.map_75, want["map_75"])
        for cat, val in want["per_category"].items():
            check(f"{label}.per_category[{cat}]", block.per_category[cat], val)

    check_block("box", report.box, expected["box"])
    for mode, want in expected["pt"].items():
        check_block(f"pt.{mode}", report.pt[mode], want)
    counts = expected["counts"]
    for field, want in counts.items():
        got = getattr(report, {"images": "images", "gt_items": "gt_items", "detections": "detections"}[field])
        if got != want:
            diffs.append(f"counts.{field}: {got} vs {want}")
    return diffs


def perturbed_case(seed, table, num_images=20):
    """Scenes plus detections with jitter, drops, duplicates, and spurious hits."""
    params = SynthParams(
        seed=seed,
        num_images=num_images,
        image_width=256,
        image_height=256,
        min_objects=1,
        max_objects=4,
        min_box_size=32,
        max_box_size=96,
        occlusion_prob=0.2,
        unlabeled_prob=0.1,
        separation=False,
    )
    scenes = synth_scenes(params, table)
    rng = np.random.default_rng(seed + 40_000)

    def jittered(item) -> Detection:
        category = item.category_id
        landmarks = item.landmarks.copy()
        if rng.random() < 0.1:
            category = int(rng.integers(1, 14))
        if table.keypoint_count(category) != landmarks.shape[0]:
            landmarks = random_landmarks(category, item.box)
        else:
            landmarks[:, :2] += rng.normal(0.0, 4.0, size=(landmarks.shape[0], 2))
            landmarks[:, 2] = rng.uniform(0.0, 1.0, size=landmarks.shape[0])
        xs = np.sort(item.box[[0, 2]] + rng.uniform(-10.0, 10.0, size=2))
        ys = np.sort(item.box[[1, 3]] + rng.uniform(-10.0, 10.0, size=2))
        return Detection(
            category_id=category,
            score=float(rng.uniform(0.05, 1.0)),
            box=np.array([xs[0], ys[0], xs[1], ys[1]]),
            landmarks=landmarks,
        )

    def random_landmarks(category, box) -> np.ndarray:
        count = table.keypoint_count(category)
        out = np.empty((count, 3))
        out[:, 0] = rng.uniform(box[0], box[2], size=count)
        out[:, 1] = rng.uniform(box[1], box[3], size=count)
        out[:, 2] = rng.uniform(0.0, 1.0, size=count)
        return out

    detections = {}
    for scene in scenes:
        dets = []
        for item in scene.items:
            if rng.random() < 0.15:
                continue
            dets.append(jittered(item))
            while rng.random() < 0.3:
                dets.append(jittered(item))
        for _ in range(int(rng.integers(0, 3))):
            category = int(rng.integers(1, 14))
            x1, y1 = rng.uniform(0, 200, size=2)
            box = np.array([x1, y1, x1 + rng.uniform(10, 56), y1 + rng.uniform(10, 56)])
            dets.append(
                Detection(
                    category_id=category,
                    score=float(rng.uniform(0.05, 1.0)),
                    box=box,
                    landmarks=random_landmarks(category, box),
                )
            )
        if dets or rng.random() < 0.8:
            detections[scene.image_id] = dets
    return scenes, detections
