"""The package's public surface, pinned: adding or dropping an export shows up as a diff here."""

import dataclasses
import inspect
import re

import pytest

import clothdet
from clothdet import DecodeConfig, EncodeParams, EvalConfig, NoiseParams, SynthParams
from clothdet.cli import build_parser

PUBLIC_NAMES = [
    "CategoryConfigError", "CategorySpec", "CategoryTable", "DEFAULT_SIGMA", "DecodeConfig", "Detection",
    "EncodeParams", "EvalConfig", "EvaluationError", "FormatError", "GroundTruthItem", "HeadTensorSet",
    "KeypointCandidates", "MetricBlock", "MetricReport", "NUM_CATEGORIES", "NoiseParams", "PRCurve", "Scene",
    "SceneError", "StrategyReport", "StrategyResult", "SynthParams", "TENSOR_NAMES", "TOTAL_KEYPOINTS",
    "TensorValidationError", "VISIBILITY_MODES", "VISIBLE_AND_OCCLUDED", "VISIBLE_ONLY", "VIS_OCCLUDED",
    "VIS_UNLABELED", "VIS_VISIBLE", "box_area", "clamp_scene", "compare_strategies", "decode_scene",
    "default_table", "dump_category_table", "encode_scene", "evaluate",
    "extract_keypoint_candidates", "extract_peaks", "flip_tensors", "fuse_multiscale", "fuse_tensors",
    "gaussian_radius", "infer", "iou", "load_category_table", "mirror_scene", "new_head_tensors", "nms",
    "noisy_view_tensors", "oks", "read_detections", "read_scenes", "read_tensors", "render_gaussian",
    "report_to_csv_rows", "report_to_dict", "require_valid", "rescale_detections", "scale_scene",
    "synth_scenes", "validate_scene", "write_detections", "write_scenes", "write_tensors",
]


def test_all_lists_the_pinned_names_once():
    assert sorted(clothdet.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 68


def test_every_public_name_resolves():
    missing = [name for name in clothdet.__all__ if not hasattr(clothdet, name)]
    assert missing == []


CONFIG_FIELDS = {
    DecodeConfig: ["top_k", "min_center_score", "min_kp_candidate_score", "snap_box_margin"],
    EncodeParams: ["stride", "min_overlap"],
    SynthParams: [
        "seed", "num_images", "image_width", "image_height", "min_objects", "max_objects", "min_box_size",
        "max_box_size", "keypoint_scatter", "occlusion_prob", "unlabeled_prob", "min_visible", "separation",
        "avoid_cell_boundaries",
    ],
    NoiseParams: ["seed", "dropout_prob", "duplicate_prob"],
    EvalConfig: ["thresholds", "visibility_mode", "max_detections_per_image", "sigmas"],
}


def test_config_fields_and_noisy_view_signature_are_pinned():
    assert {cls: [f.name for f in dataclasses.fields(cls)] for cls in CONFIG_FIELDS} == CONFIG_FIELDS
    assert sum(len(names) for names in CONFIG_FIELDS.values()) == 27
    assert list(inspect.signature(clothdet.noisy_view_tensors).parameters) == [
        "scene", "table", "noise", "scale", "flipped",
    ]


# Per command: the arguments it requires, and each option whose default is a config field's.
# strategies' --images, --width, --height, --min-objects and --max-objects differ from SynthParams on purpose.
CLI_DEFAULTS = {
    ("synth", "--out", "s.json"): {
        "seed": (SynthParams, "seed"), "images": (SynthParams, "num_images"),
        "width": (SynthParams, "image_width"), "height": (SynthParams, "image_height"),
        "min_objects": (SynthParams, "min_objects"), "max_objects": (SynthParams, "max_objects"),
        "min_box": (SynthParams, "min_box_size"), "max_box": (SynthParams, "max_box_size"),
        "scatter": (SynthParams, "keypoint_scatter"), "occlusion": (SynthParams, "occlusion_prob"),
        "unlabeled": (SynthParams, "unlabeled_prob"), "min_visible": (SynthParams, "min_visible"),
    },
    ("encode", "--scenes", "s.json", "--out-dir", "v"): {
        "stride": (EncodeParams, "stride"), "min_overlap": (EncodeParams, "min_overlap"),
    },
    ("decode", "--tensors", "v", "--out", "d.json"): {
        "topk": (DecodeConfig, "top_k"), "min_score": (DecodeConfig, "min_center_score"),
        "kp_min_score": (DecodeConfig, "min_kp_candidate_score"), "snap_margin": (DecodeConfig, "snap_box_margin"),
    },
    ("eval", "--detections", "d.json", "--scenes", "s.json"): {
        "maxdets": (EvalConfig, "max_detections_per_image"),
    },
    ("strategies",): {
        "seed": (NoiseParams, "seed"), "dropout": (NoiseParams, "dropout_prob"),
        "duplicates": (NoiseParams, "duplicate_prob"),
    },
}


@pytest.mark.parametrize("argv", list(CLI_DEFAULTS), ids=[argv[0] for argv in CLI_DEFAULTS])
def test_cli_defaults_are_the_config_defaults(argv):
    args = build_parser().parse_args(list(argv))
    parsed = {dest: getattr(args, dest) for dest in CLI_DEFAULTS[argv]}
    assert parsed == {dest: getattr(cls(), field) for dest, (cls, field) in CLI_DEFAULTS[argv].items()}


def test_cli_subcommands_are_pinned():
    usage = build_parser().format_usage()
    assert re.search(r"\{(.*?)\}", usage).group(1).split(",") == [
        "synth", "encode", "decode", "fuse", "eval", "strategies",
    ]
