"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, failed
validation). Every command that draws random numbers takes --seed, and
identical inputs plus seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import StrategyReport, compare_strategies
from .categories import CategoryTable, default_table, load_category_table
from .charts import line_chart, scatter_chart
from .decode import DecodeConfig
from .encode import EncodeParams, encode_scene
from .fileio import read_detections, read_scenes, read_tensors, write_detections, write_scenes, write_tensors
from .heads import TensorValidationError, _regression_issues, require_valid
from .metrics import (
    VISIBLE_AND_OCCLUDED,
    VISIBLE_ONLY,
    EvalConfig,
    MetricReport,
    evaluate,
    report_to_csv_rows,
    report_to_dict,
)
# decode_scene, nms and rescale_detections are not called here. They stay
# importable from this module because perfbench/workloads.py times the
# decode command by wrapping these names in it.
from .postprocess import decode_scene, flip_tensors, fuse_tensors, infer, nms, rescale_detections  # noqa: F401
from .scene import Detection, Scene, _stride_padded, mirror_scene, scale_scene
from .synth import NoiseParams, SynthParams, synth_scenes

_MODES = {"visible": VISIBLE_ONLY, "all": VISIBLE_AND_OCCLUDED}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# CategoryTable is frozen with read-only arrays, so calls in one process can
# share the table of a --categories text. A failed parse is not cached. This
# pays only when main() runs more than once in a process (an embedding
# harness); a shell command parses its file once either way.
_parsed_table = functools.lru_cache(maxsize=8)(load_category_table)


def _load_table(args) -> CategoryTable:
    if getattr(args, "categories", None):
        # The file is read on every call, so an edited file takes effect.
        return _parsed_table(Path(args.categories).read_text("utf-8"))
    return default_table()


def _scale_tag(scale: float) -> str:
    return f"@s{scale:g}"


def _view_name(image_id: str, scale: float, flipped: bool) -> str:
    name = image_id
    if scale != 1.0:
        name += _scale_tag(scale)
    if flipped:
        name += "@flip"
    return name + ".dmrk"


def _require_view_names(scenes: list[Scene]) -> None:
    """Reject ids that repeat, that would write views outside the output directory, or that decode reads as tags."""
    first: dict[str, int] = {}
    for i, scene in enumerate(scenes):
        if scene.image_id in ("", ".", "..") or any(ch in scene.image_id for ch in "/@\0"):
            raise ValueError(f"image {i}: image_id {scene.image_id!r} cannot name a view file: an id must not "
                             "be empty, '.' or '..', or contain '/', '@' or NUL")
        if first.setdefault(scene.image_id, i) != i:
            raise ValueError(f"image {i}: image_id {scene.image_id!r} repeats image {first[scene.image_id]}'s")


def _parse_scales(text: str) -> tuple[float, ...]:
    """The scales of a --scales comma list: positive, finite, and each naming its own view files."""
    try:
        scales = tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ValueError(f"--scales must be a comma list of numbers, got {text!r}")
    if not scales:
        raise ValueError(f"--scales must list at least one scale, got {text!r}")
    names = set()
    for scale in scales:
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"--scales must be positive and finite, got {scale:g} in {text!r}")
        name = _view_name("", scale, False)
        if name in names:
            raise ValueError(f"--scales lists scale {scale:g} twice, in {text!r}")
        names.add(name)
    return scales


def _cmd_synth(args) -> int:
    table = _load_table(args)
    params = SynthParams(
        seed=args.seed,
        num_images=args.images,
        image_width=args.width,
        image_height=args.height,
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        min_box_size=args.min_box,
        max_box_size=args.max_box,
        keypoint_scatter=args.scatter,
        occlusion_prob=args.occlusion,
        unlabeled_prob=args.unlabeled,
        min_visible=args.min_visible,
        separation=not args.no_separation,
    )
    scenes = synth_scenes(params, table)
    write_scenes(args.out, scenes)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    table = _load_table(args)
    scenes = read_scenes(args.scenes, table)
    _require_view_names(scenes)
    params = EncodeParams(stride=args.stride, min_overlap=args.min_overlap)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scales = _parse_scales(args.scales)
    written = 0
    for scene in scenes:
        for scale in scales:
            view = scene if scale == 1.0 else scale_scene(scene, scale)
            if not (view.width and view.height):
                raise ValueError(
                    f"--scales value {scale:g} leaves image {scene.image_id!r} ({scene.width}x{scene.height}) with no pixels"
                )
            for flipped in (False, True) if args.flip else (False,):
                # The mirror of the stride-padded view, which flip_tensors undoes.
                final = mirror_scene(_stride_padded(view, params.stride), table) if flipped else view
                write_tensors(out_dir / _view_name(scene.image_id, scale, flipped), encode_scene(final, table, params))
                written += 1
    print(f"wrote {written} tensor files to {out_dir}")
    return 0


def _decode_one(
    image_id: str,
    tensor_dir: Path,
    table: CategoryTable,
    config: DecodeConfig,
    scales: tuple[float, ...],
    flip: bool,
    nms_iou: float | None,
) -> list[Detection]:
    # A generator, so that infer reads one scale's containers at a time.
    views = (
        (
            scale,
            read_tensors(tensor_dir / _view_name(image_id, scale, False)),
            read_tensors(tensor_dir / _view_name(image_id, scale, True)) if flip else None,
        )
        for scale in scales
    )
    return infer(views, table, config, nms_iou)


def _cmd_decode(args) -> int:
    table = _load_table(args)
    config = DecodeConfig(
        top_k=args.topk,
        min_center_score=args.min_score,
        min_kp_candidate_score=args.kp_min_score,
        snap_box_margin=args.snap_margin,
    )
    tensor_dir = Path(args.tensors)
    scales = _parse_scales(args.scales)
    # The images are those with a plain view at the first listed scale.
    suffix = _view_name("", scales[0], False)
    ids = sorted(
        image_id
        for image_id in (p.name[: -len(suffix)] for p in tensor_dir.glob("*" + suffix))
        if image_id and "@" not in image_id
    )
    if not ids:
        raise ValueError(
            f"no base .dmrk files found in {tensor_dir} (looked for <id>{suffix}, "
            "the plain views of the first --scales value)"
        )
    nms_iou = None if args.no_nms else args.nms_iou
    results = {
        image_id: _decode_one(image_id, tensor_dir, table, config, scales, args.flip, nms_iou) for image_id in ids
    }
    write_detections(args.out, results)
    total = sum(len(v) for v in results.values())
    print(f"decoded {total} detections over {len(ids)} images to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    table = _load_table(args)
    sets = [read_tensors(path) for path in args.inputs]
    for i, (path, tensors) in enumerate(zip(args.inputs, sets)):
        try:
            require_valid(tensors, table)
            # Every regression value is averaged and written, not only those decode reads.
            issues = _regression_issues(tensors)
            if issues:
                raise TensorValidationError(issues)
        except TensorValidationError as exc:
            raise ValueError(f"{exc}, in input {i} ({path})") from None
    try:
        unflip = {int(tok) for tok in args.unflip.split(",") if tok} if args.unflip else set()
    except ValueError:
        raise ValueError(f"--unflip must be a comma list of input indices, got {args.unflip!r}")
    bad = [i for i in unflip if not 0 <= i < len(sets)]
    if bad:
        raise ValueError(f"--unflip indices {bad} out of range for {len(sets)} inputs")
    sets = [flip_tensors(t, table) if i in unflip else t for i, t in enumerate(sets)]
    try:
        weights = [float(tok) for tok in args.weights.split(",")] if args.weights else None
    except ValueError:
        raise ValueError(f"--weights must be a comma list of numbers, got {args.weights!r}")
    write_tensors(args.out, fuse_tensors(sets, weights))
    print(f"fused {len(sets)} tensor sets to {args.out}")
    return 0


def _print_report(report: MetricReport) -> None:
    def fmt(v: float | None) -> str:
        return "n/a" if v is None else f"{v:.3f}"

    print(f"images {report.images}  gt_items {report.gt_items}  detections {report.detections}")
    print(f"mAP_box = {fmt(report.box.map)}  (AP50 {fmt(report.box.map_50)}, AP75 {fmt(report.box.map_75)})")
    for name, block in report.pt.items():
        label = "mAP_pt" if len(report.pt) == 1 else f"mAP_pt[{name}]"
        print(f"{label} = {fmt(block.map)}  (AP50 {fmt(block.map_50)}, AP75 {fmt(block.map_75)})")


def _write_pr_outputs(report: MetricReport, plot_dir: Path) -> None:
    plot_dir.mkdir(parents=True, exist_ok=True)
    with open(plot_dir / "pr_curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "category_id", "threshold", "recall", "precision"])
        for curve in report.curves:
            label = "pt" if len(report.pt) == 1 and curve.metric.startswith("pt") else curve.metric
            for r, p in zip(curve.recall, curve.precision):
                writer.writerow([label, curve.category_id, f"{curve.threshold:.2f}", f"{r:.4f}", f"{p:.6f}"])
    half = [c for c in report.curves if abs(c.threshold - 0.5) < 1e-9]
    series = []
    palette = {"box": "#1f77b4", "pt": "#d62728"}
    for curve in half:
        kind = "box" if curve.metric == "box" else "pt"
        pts = list(zip(curve.recall.tolist(), curve.precision.tolist()))
        series.append((pts, palette[kind]))
    svg = line_chart(series, x_label="recall", y_label="precision", title="PR at IoU/OKS 0.50")
    (plot_dir / "pr_curves.svg").write_text(svg, "utf-8")


def _cmd_eval(args) -> int:
    table = _load_table(args)
    if args.sigmas:
        # The table checks the file's JSON value. Its CategoryConfigError and
        # json's errors (and those of bytes that are not UTF-8) are ValueErrors.
        try:
            table = replace(table, sigmas=json.loads(Path(args.sigmas).read_text("utf-8")))
        except ValueError as exc:
            raise ValueError(f"--sigmas {args.sigmas}: {exc}") from None
    scenes = read_scenes(args.scenes, table)
    detections = read_detections(args.detections)
    config = EvalConfig(visibility_mode=_MODES[args.mode] if args.mode else None, max_detections_per_image=args.maxdets)
    report = evaluate(detections, scenes, table, config)
    _print_report(report)
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True), "utf-8")
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            csv.writer(fh).writerows(report_to_csv_rows(report))
    if args.plot:
        _write_pr_outputs(report, Path(args.plot))
    return 0


def _cmd_strategies(args) -> int:
    table = _load_table(args)
    params = SynthParams(
        seed=args.seed,
        num_images=args.images,
        image_width=args.width,
        image_height=args.height,
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        min_box_size=48,
        max_box_size=96,
        avoid_cell_boundaries=True,
    )
    scenes = synth_scenes(params, table)
    noise = NoiseParams(seed=args.seed, dropout_prob=args.dropout, duplicate_prob=args.duplicates)
    report = compare_strategies(scenes, table, noise)
    _print_table(report.rows())
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(report.rows())
    if args.plot:
        _write_strategy_plot(report, Path(args.plot))
    return 0


def _print_table(rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _write_strategy_plot(report: StrategyReport, plot_dir: Path) -> None:
    plot_dir.mkdir(parents=True, exist_ok=True)
    points = [(r.latency_ms, r.map_box, r.name) for r in report.results]
    svg = scatter_chart(points, x_label="latency ms/image", y_label="mAP_box", title="Speed-accuracy trade-off")
    (plot_dir / "strategies.svg").write_text(svg, "utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="clothdet", description="Clothing detection codec and evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, seed: bool = True) -> None:
        p.add_argument("--categories", help="category config JSON (defaults to the built-in 13-category table)")
        if seed:
            p.add_argument("--seed", type=int, default=SynthParams.seed)

    p = sub.add_parser("synth", help="sample synthetic annotated scenes")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--images", type=int, default=SynthParams.num_images)
    p.add_argument("--width", type=int, default=SynthParams.image_width)
    p.add_argument("--height", type=int, default=SynthParams.image_height)
    p.add_argument("--min-objects", type=int, default=SynthParams.min_objects)
    p.add_argument("--max-objects", type=int, default=SynthParams.max_objects)
    p.add_argument("--min-box", type=int, default=SynthParams.min_box_size)
    p.add_argument("--max-box", type=int, default=SynthParams.max_box_size)
    p.add_argument("--scatter", type=float, default=SynthParams.keypoint_scatter)
    p.add_argument("--occlusion", type=float, default=SynthParams.occlusion_prob)
    p.add_argument("--unlabeled", type=float, default=SynthParams.unlabeled_prob)
    p.add_argument("--min-visible", type=int, default=SynthParams.min_visible)
    p.add_argument("--no-separation", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("encode", help="render scenes into head tensor files")
    common(p, seed=False)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stride", type=int, default=EncodeParams.stride)
    p.add_argument("--min-overlap", type=float, default=EncodeParams.min_overlap)
    p.add_argument("--flip", action="store_true", help="also write mirrored views")
    p.add_argument("--scales", default="1.0", help="comma list; extra views per scale")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode tensor files into detections")
    common(p, seed=False)
    p.add_argument("--tensors", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topk", type=int, default=DecodeConfig.top_k)
    p.add_argument("--min-score", type=float, default=DecodeConfig.min_center_score)
    p.add_argument("--kp-min-score", type=float, default=DecodeConfig.min_kp_candidate_score)
    p.add_argument("--snap-margin", type=float, default=DecodeConfig.snap_box_margin)
    p.add_argument("--nms-iou", type=float, default=0.5)
    p.add_argument("--no-nms", action="store_true")
    p.add_argument("--flip", action="store_true", help="fuse each view with its mirrored file")
    p.add_argument("--scales", default="1.0", help="comma list; images are those with a plain view at the first")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("fuse", help="weighted-average tensor files")
    common(p, seed=False)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", help="comma list, one per input")
    p.add_argument("--unflip", help="comma list of input indices to mirror before fusing")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="score detections against scenes")
    common(p, seed=False)
    p.add_argument("--detections", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--mode", choices=sorted(_MODES))
    p.add_argument("--sigmas", help="JSON file with 294 per-landmark tolerances")
    p.add_argument("--maxdets", type=int, default=EvalConfig.max_detections_per_image)
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    p.add_argument("--plot", help="directory for PR curve CSV and SVG")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("strategies", help="compare post-processing strategies on noisy views")
    common(p)
    p.add_argument("--images", type=int, default=24)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--min-objects", type=int, default=2)
    p.add_argument("--max-objects", type=int, default=4)
    p.add_argument("--dropout", type=float, default=NoiseParams.dropout_prob)
    p.add_argument("--duplicates", type=float, default=NoiseParams.duplicate_prob)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--plot", help="directory for the speed-accuracy SVG")
    p.set_defaults(func=_cmd_strategies)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
