"""The package's public surface, pinned: adding or dropping an export shows up as a diff here."""

import clothdet

PUBLIC_NAMES = [
    "CategoryConfigError", "CategorySpec", "CategoryTable", "DEFAULT_SIGMA", "DecodeConfig", "Detection",
    "EncodeParams", "EvalConfig", "EvaluationError", "FormatError", "GroundTruthItem", "HeadTensorSet",
    "KeypointCandidates", "MetricBlock", "MetricReport", "NUM_CATEGORIES", "NoiseParams", "PRCurve", "Peak",
    "Scene", "SceneError", "StrategyReport", "StrategyResult", "SynthParams", "TENSOR_NAMES", "TOTAL_KEYPOINTS",
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


def test_every_public_name_resolves():
    missing = [name for name in clothdet.__all__ if not hasattr(clothdet, name)]
    assert missing == []
