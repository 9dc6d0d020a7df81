"""The four workloads: set-up, timed rounds and output checks.

Runs inside the workload process. Nothing here imports clothdet at module
level: `Program()` does, so that set-up time covers the import.

Every workload is a list of operations that one round runs in order. The
timed span of an operation holds only the call into clothdet; preparing its
input and checking its output happen outside it. Rounds repeat until the
timed work adds up to the run's seconds, and every round after the first
must reproduce the first round's outputs exactly.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import replace
from pathlib import Path


MODE = "visible_and_occluded"
NMS_IOU = 0.5
FLIP_TABLE = Path(__file__).with_name("flip_categories.json")
TTA_SCALES = (1.0, 0.75)


def view_file(image_id: str, scale: float, flipped: bool) -> str:
    """File name `clothdet encode` gives a view and `clothdet decode` looks for."""
    return image_id + (f"@s{scale:g}" if scale != 1.0 else "") + ("@flip" if flipped else "") + ".dmrk"


class CheckFailed(Exception):
    """An output of the program failed a check."""


class Program:
    """The clothdet modules, imported on construction."""

    def __init__(self):
        import clothdet
        import clothdet.cli
        import clothdet.decode
        import clothdet.fileio
        import clothdet.heads
        import clothdet.metrics
        import clothdet.postprocess

        self.pkg = clothdet
        self.cli = clothdet.cli
        self.decode = clothdet.decode
        self.fileio = clothdet.fileio
        self.heads = clothdet.heads
        self.metrics = clothdet.metrics
        self.postprocess = clothdet.postprocess


def _evaluate_pairs(args, kwargs, result) -> dict:
    """Similarity evaluations evaluate() needs: detections x ground truth per image, category and metric."""
    detections_by_image, scenes = args[0], args[1]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    max_det = config.max_detections_per_image if config is not None else 100
    mode = config.visibility_mode if config is not None else None
    min_vis = (2, 1) if mode is None else ((2,) if mode == "visible_only" else (1,))
    pairs = 0
    for scene in scenes:
        per_category: dict[int, int] = {}
        for det in detections_by_image.get(scene.image_id, ()):
            per_category[det.category_id] = per_category.get(det.category_id, 0) + 1
        for item in scene.items:
            dets = min(per_category.get(item.category_id, 0), max_det)
            if dets:
                vis = item.landmarks[:, 2]
                pairs += dets * (1 + sum(bool((vis >= v).any()) for v in min_vis))
    return {"pairs": pairs}


def install_spans(tracer, program: Program) -> None:
    """Register the names callers look up, in the modules they look them up in."""
    import os

    def file_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def decoded(args, kwargs, result):
        return {"detections": len(result), "zero_score": sum(1 for d in result if d.score == 0)}

    counts = {
        "decode.kp_peaks": lambda a, k, r: {"candidates": int(r.channel.size)},
        "decode.decode_scene": decoded,
        "postprocess.nms": lambda a, k, r: {"input": len(a[0]), "kept": len(r)},
        "postprocess.fuse": lambda a, k, r: {"bytes_in": sum(g.nbytes for ts in a[0] for g in ts.named().values())},
        "fileio.read_tensors": file_bytes,
        "fileio.write_tensors": file_bytes,
        "metrics.evaluate": _evaluate_pairs,
    }
    shared = {
        "read_tensors": "fileio.read_tensors",
        "write_tensors": "fileio.write_tensors",
        "read_scenes": "fileio.read_scenes",
        "read_detections": "fileio.read_detections",
        "write_detections": "fileio.write_detections",
        "flip_tensors": "postprocess.flip",
        "fuse_tensors": "postprocess.fuse",
        "rescale_detections": "postprocess.rescale",
        "nms": "postprocess.nms",
        "decode_scene": "decode.decode_scene",
        "encode_scene": "encode.encode_scene",
        "evaluate": "metrics.evaluate",
        "report_to_dict": "metrics.report",
        "mirror_scene": "scene.mirror",
        "scale_scene": "scene.scale",
    }
    for attr, name in shared.items():
        tracer.wrap(program.cli, attr, name, counts.get(name))
    for module, attrs in (
        (program.decode, {"decode_scene": "decode.decode_scene", "require_valid": "heads.validate",
                          "extract_peaks": "decode.center_peaks", "extract_keypoint_candidates": "decode.kp_peaks"}),
        (program.postprocess, {"nms": "postprocess.nms", "flip_tensors": "postprocess.flip",
                               "fuse_tensors": "postprocess.fuse", "rescale_detections": "postprocess.rescale"}),
    ):
        for attr, name in attrs.items():
            tracer.wrap(module, attr, name, counts.get(name))
    tracer.wrap(program.cli, "main", lambda args, kwargs: "cli." + (args[0][0] if args and args[0] else "none"))


def _oracle():
    import bruteforce_eval

    return bruteforce_eval


def _strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def check_detections(dets_by_image: dict, table) -> None:
    """Finite boxes, scores in [0, 1], the category's landmark count, no same-category IoU >= 0.5."""
    for image_id, dets in dets_by_image.items():
        for i, det in enumerate(dets):
            box = [float(v) for v in det.box]
            if len(box) != 4 or not all(math.isfinite(v) for v in box):
                raise CheckFailed(f"{image_id} detection {i}: box {box} is not four finite numbers")
            if not 0.0 <= det.score <= 1.0:
                raise CheckFailed(f"{image_id} detection {i}: score {det.score} outside [0, 1]")
            if det.landmarks.shape != (table.keypoint_count(det.category_id), 3):
                raise CheckFailed(f"{image_id} detection {i}: landmarks of shape {det.landmarks.shape}")
        for i, a in enumerate(dets):
            for b in dets[i + 1:]:
                if a.category_id == b.category_id and _iou(a.box.tolist(), b.box.tolist()) >= NMS_IOU:
                    raise CheckFailed(f"{image_id}: two kept boxes of category {a.category_id} overlap at IoU >= {NMS_IOU}")


def scored(program: Program, dets_by_image: dict, scenes: list, table) -> tuple[float, float]:
    """(box mAP, landmark mAP) from clothdet.metrics.evaluate, checked against the brute-force scorer."""
    oracle = _oracle()
    report = program.metrics.evaluate(dets_by_image, scenes, table, program.metrics.EvalConfig())
    want = oracle.evaluate_bruteforce(dets_by_image, scenes, table, program.metrics.EvalConfig().thresholds)
    diffs = oracle.report_diffs(report, want)
    if diffs:
        raise CheckFailed("evaluate disagrees with the brute-force scorer: " + "; ".join(diffs[:3]))
    return report.box.map, report.pt[MODE].map


def require_perfect(dets_by_image: dict, scenes: list, table, what: str) -> None:
    want = _oracle().evaluate_bruteforce(dets_by_image, scenes, table, tuple(round(0.5 + 0.05 * i, 2) for i in range(10)))
    maps = {"box": want["box"]["map"], **{f"pt[{m}]": b["map"] for m, b in want["pt"].items()}}
    if any(v != 1.0 for v in maps.values()):
        raise CheckFailed(f"{what} should score mAP 1.0, scored {maps}")


def same_detections(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(
        d.category_id == e.category_id and d.score == e.score
        and np.array_equal(d.box, e.box) and np.array_equal(d.landmarks, e.landmarks)
        for d, e in zip(a, b)
    )


class Workload:
    """One round is `ops()`; `call` is the timed part of an operation."""

    images_per_op = 1
    # Untraced runs continue past their seconds until this many operations
    # are timed.
    min_samples = 0
    # Rounds repeat the same images: latency quantiles are then taken over
    # each image's median across rounds, which keeps delays from the shared
    # host (they hit random operations) out of the tail.
    repeats_images = False

    def __init__(self, program: Program, inputs: Path, work: Path):
        self.p = program
        self.inputs = inputs
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)

    def load_table(self):
        self.table = self.p.pkg.default_table()

    def load_inputs(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def prepare(self, key) -> None:
        pass

    def call(self, key):
        raise NotImplementedError

    def failed(self, output) -> bool:
        """Whether the operation failed; a command fails when it exits non-zero."""
        return isinstance(output, int) and output != 0

    def after(self, key, output) -> None:
        """Check or store one operation's output, outside the timed span."""

    def finish(self) -> tuple[float, float]:
        """Check the run's outputs; return (map_box, map_pt)."""
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> None:
        rc = self.p.cli.main(argv)
        if rc != 0:
            raise CheckFailed(f"clothdet {' '.join(argv)} exited {rc}")


class ServeSingle(Workload):
    """One noisy 512x512 view already in memory: decode_scene, then nms."""

    min_samples = 200
    repeats_images = True

    def load_inputs(self) -> None:
        import numpy as np

        read = self.p.fileio.read_scenes
        self.scenes = read(self.inputs / "scenes.json", self.table)
        self.clean_scenes = read(self.inputs / "clean_scenes.json", self.table)
        self.views = dict(np.load(self.inputs / "views.npz"))
        self.clean_views = dict(np.load(self.inputs / "clean_views.npz"))
        height, width, stride = (int(v) for v in self.views["grid"])
        # One output buffer, every page touched, refilled per image the way a
        # device rewrites its head outputs in place.
        template = self.p.heads.new_head_tensors(height, width, stride, len(self.table.specs))
        channels = [getattr(template, name).shape[0] for name in self.p.heads.TENSOR_NAMES]
        self.buffer = np.zeros(sum(channels) * height * width, dtype=np.float32)
        self.buffer.fill(0.0)
        grids, start = {}, 0
        for name, count in zip(self.p.heads.TENSOR_NAMES, channels):
            grids[name] = self.buffer[start : start + count * height * width].reshape(count, height, width)
            start += count * height * width
        self.tensors = self.p.heads.HeadTensorSet(stride=stride, **grids)
        self.filled = np.empty(0, dtype=np.int64)
        self.config = self.p.decode.DecodeConfig()
        self.first: dict[int, list] = {}

    def _fill(self, views: dict, i: int) -> None:
        lo, hi = views["starts"][i], views["starts"][i + 1]
        self.buffer[self.filled] = 0.0
        self.filled = views["idx"][lo:hi]
        self.buffer[self.filled] = views["val"][lo:hi]

    def _decode(self) -> list:
        dets = self.p.decode.decode_scene(self.tensors, self.table, self.config)
        return self.p.postprocess.nms(dets, NMS_IOU)

    def warmup(self) -> None:
        self._fill(self.views, 0)
        self._decode()

    def ops(self) -> list:
        return list(range(len(self.scenes)))

    def prepare(self, key) -> None:
        self._fill(self.views, key)

    def call(self, key):
        return self._decode()

    def after(self, key, output) -> None:
        if key not in self.first:
            self.first[key] = output
        elif not same_detections(output, self.first[key]):
            raise CheckFailed(f"image {key}: detections differ from the first round")

    def finish(self) -> tuple[float, float]:
        dets = {self.scenes[k].image_id: v for k, v in self.first.items()}
        check_detections(dets, self.table)
        clean = {}
        for i, scene in enumerate(self.clean_scenes):
            self._fill(self.clean_views, i)
            clean[scene.image_id] = self._decode()
        require_perfect(clean, self.clean_scenes, self.table, "clean views through decode_scene + nms")
        return scored(self.p, dets, [s for s in self.scenes if s.image_id in dets], self.table)


class TtaFiles(Workload):
    """`clothdet decode --flip --scales 1.0,0.75` on one image's four containers."""

    # Slow periods of the shared host last seconds; a longer run averages
    # over more of them.
    min_samples = 300
    repeats_images = True

    def load_table(self):
        self.table = self.p.pkg.load_category_table(FLIP_TABLE.read_text("utf-8"))

    def load_inputs(self) -> None:
        read = self.p.fileio.read_scenes
        self.scenes = read(self.inputs / "scenes.json", self.table)
        self.clean_scenes = read(self.inputs / "clean_scenes.json", self.table)
        (self.work / "dets").mkdir(exist_ok=True)
        self.first: dict[int, bytes] = {}

    def _argv(self, image_dir: Path, out: Path) -> list[str]:
        scales = ",".join(f"{s:g}" for s in TTA_SCALES)
        return ["decode", "--tensors", str(image_dir), "--out", str(out), "--flip", "--scales", scales,
                "--categories", str(FLIP_TABLE)]

    def _out(self, image_id: str) -> Path:
        return self.work / "dets" / f"{image_id}.json"

    def warmup(self) -> None:
        scene = self.scenes[0]
        self._cli(self._argv(self.inputs / "pool" / scene.image_id, self.work / "warmup.json"))

    def ops(self) -> list:
        return list(range(len(self.scenes)))

    def call(self, key):
        image_id = self.scenes[key].image_id
        return self.p.cli.main(self._argv(self.inputs / "pool" / image_id, self._out(image_id)))

    def after(self, key, output) -> None:
        data = self._out(self.scenes[key].image_id).read_bytes()
        if key not in self.first:
            self.first[key] = data
        elif data != self.first[key]:
            raise CheckFailed(f"image {key}: detections file differs from the first round")

    def _read_back(self, path: Path) -> dict:
        _strict_json(path.read_text("utf-8"))
        return self.p.fileio.read_detections(path)

    def finish(self) -> tuple[float, float]:
        dets = {}
        for key in self.first:
            image_id = self.scenes[key].image_id
            dets[image_id] = self._read_back(self._out(image_id)).get(image_id, [])
        check_detections(dets, self.table)
        clean = {}
        for scene in self.clean_scenes:
            out = self._out(scene.image_id)
            self._cli(self._argv(self.inputs / "clean" / scene.image_id, out))
            clean[scene.image_id] = self._read_back(out).get(scene.image_id, [])
        check_detections(clean, self.table)
        require_perfect(clean, self.clean_scenes, self.table, "clean views through clothdet decode --flip --scales")
        return scored(self.p, dets, [s for s in self.scenes if s.image_id in dets], self.table)


class EncodeFiles(Workload):
    """`clothdet encode --flip --scales 1.0,0.75` on a one-image scenes file."""

    def load_inputs(self) -> None:
        self.files = sorted((self.inputs / "scenes").glob("*.json"))
        self.turn = -1
        self.decoded: dict[str, list] = {}
        self.truth: list = []
        self.disk_bytes: list[int] = []

    def _argv(self, scenes_file: Path, out_dir: Path) -> list[str]:
        scales = ",".join(f"{s:g}" for s in TTA_SCALES)
        return ["encode", "--scenes", str(scenes_file), "--out-dir", str(out_dir), "--flip", "--scales", scales]

    def warmup(self) -> None:
        self._cli(self._argv(self.files[0], self.work / "warmup"))
        shutil.rmtree(self.work / "warmup")

    def ops(self) -> list:
        """One image per round; the pool's files are taken in turn."""
        self.turn += 1
        return [self.turn % len(self.files)]

    def prepare(self, key) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def call(self, key):
        return self.p.cli.main(self._argv(self.files[key], self.work / "out"))

    def after(self, key, output) -> None:
        out = self.work / "out"
        try:
            (scene,) = self.p.fileio.read_scenes(self.files[key], self.table)
            names = {view_file(scene.image_id, s, f) for s in TTA_SCALES for f in (False, True)}
            found = {p.name for p in out.iterdir()}
            if found != names:
                raise CheckFailed(f"encode wrote {sorted(found)}, expected {sorted(names)}")
            self.disk_bytes.append(sum((out / name).stat().st_size for name in names))
            tag = f"#{len(self.disk_bytes)}"
            for scale in TTA_SCALES:
                for flipped in (False, True):
                    tensors = self.p.fileio.read_tensors(out / view_file(scene.image_id, scale, flipped))
                    if scale != 1.0:
                        continue
                    truth = self.p.pkg.mirror_scene(scene, self.table) if flipped else scene
                    truth = replace(truth, image_id=truth.image_id + ("@flip" if flipped else "") + tag)
                    self.decoded[truth.image_id] = self.p.decode.decode_scene(tensors, self.table)
                    self.truth.append(truth)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self) -> tuple[float, float]:
        require_perfect(self.decoded, self.truth, self.table, "plain and mirrored views decoded from encode's containers")
        return scored(self.p, self.decoded, self.truth, self.table)


class EvalDataset(Workload):
    """`clothdet eval --out-json` over a large seeded scenes/detections pair."""

    def load_inputs(self) -> None:
        self.scenes_file = self.inputs / "scenes.json"
        self.dets_file = self.inputs / "detections.json"
        self.images_per_op = int((self.inputs / "eval_images.txt").read_text("utf-8"))
        self.first: bytes | None = None

    def _argv(self, prefix: str, out: Path) -> list[str]:
        return ["eval", "--detections", str(self.inputs / f"{prefix}detections.json"),
                "--scenes", str(self.inputs / f"{prefix}scenes.json"), "--out-json", str(out)]

    def warmup(self) -> None:
        self._cli(self._argv("warmup_", self.work / "warmup_report.json"))

    def ops(self) -> list:
        return [0]

    def call(self, key):
        return self.p.cli.main(self._argv("", self.work / "report.json"))

    def after(self, key, output) -> None:
        data = (self.work / "report.json").read_bytes()
        if self.first is None:
            self.first = data
        elif data != self.first:
            raise CheckFailed("eval report differs from the first round")

    def finish(self) -> tuple[float, float]:
        report = _strict_json(self.first.decode("utf-8"))
        scenes = self.p.fileio.read_scenes(self.scenes_file, self.table)
        dets = self.p.fileio.read_detections(self.dets_file)
        want = _oracle().evaluate_bruteforce(dets, scenes, self.table, self.p.metrics.EvalConfig().thresholds)
        diffs = []

        def compare(label, got, expected):
            if got is None or expected is None:
                if got is not expected:
                    diffs.append(f"{label}: {got} vs {expected}")
            elif abs(got - expected) > 1e-9:
                diffs.append(f"{label}: {got} vs {expected}")

        for label, got, expected in [("box", report["box"], want["box"])] + [
            (f"pt.{m}", report["pt"][m], want["pt"][m]) for m in want["pt"]
        ]:
            for key in ("map", "map_50", "map_75"):
                compare(f"{label}.{key}", got[key], expected[key])
            if set(got["per_category"]) != {str(c) for c in expected["per_category"]}:
                diffs.append(f"{label}.per_category keys differ")
            for cat, value in expected["per_category"].items():
                compare(f"{label}.per_category[{cat}]", got["per_category"].get(str(cat)), value)
        if report["counts"] != want["counts"]:
            diffs.append(f"counts {report['counts']} vs {want['counts']}")
        if diffs:
            raise CheckFailed("eval report disagrees with the brute-force scorer: " + "; ".join(diffs[:3]))
        return report["box"]["map"], report["pt"][MODE]["map"]


WORKLOADS = {
    "serve_single": ServeSingle,
    "tta_files": TtaFiles,
    "encode_files": EncodeFiles,
    "eval_dataset": EvalDataset,
}


def set_up(workload: str, inputs: Path, work: Path) -> tuple[Workload, float]:
    """Import clothdet, load the category table, run one warm-up operation.

    Returns the workload and the seconds those three steps took; loading the
    generated inputs in between is not counted.
    """
    start = time.perf_counter()
    program = Program()
    imported = time.perf_counter()
    wl = WORKLOADS[workload](program, inputs, work)
    wl.load_table()
    loaded = time.perf_counter()
    wl.load_inputs()
    warm_start = time.perf_counter()
    wl.warmup()
    done = time.perf_counter()
    return wl, (loaded - start) + (done - warm_start)
