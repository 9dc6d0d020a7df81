"""Codec and evaluation toolkit for one-shot clothing detection heads.

Encodes annotated scenes into center/size/offset/landmark head tensors,
decodes head tensors back into box and 294-landmark detections over 13
categories, fuses flipped and rescaled views, and scores results with
COCO-style AP over box IoU and landmark OKS.
"""

from .bench import StrategyReport, StrategyResult, compare_strategies
from .categories import (
    DEFAULT_SIGMA,
    NUM_CATEGORIES,
    TOTAL_KEYPOINTS,
    CategoryConfigError,
    CategorySpec,
    CategoryTable,
    default_table,
    dump_category_table,
    load_category_table,
)
from .decode import (
    DecodeConfig,
    KeypointCandidates,
    decode_scene,
    extract_keypoint_candidates,
    extract_peaks,
)
from .encode import EncodeParams, encode_scene, gaussian_radius, render_gaussian
from .fileio import (
    FormatError,
    read_detections,
    read_scenes,
    read_tensors,
    write_detections,
    write_scenes,
    write_tensors,
)
from .heads import (
    TENSOR_NAMES,
    HeadTensorSet,
    TensorValidationError,
    new_head_tensors,
    require_valid,
)
from .metrics import (
    VISIBILITY_MODES,
    VISIBLE_AND_OCCLUDED,
    VISIBLE_ONLY,
    EvalConfig,
    EvaluationError,
    MetricBlock,
    MetricReport,
    PRCurve,
    evaluate,
    oks,
    report_to_csv_rows,
    report_to_dict,
)
from .postprocess import (
    flip_tensors,
    fuse_multiscale,
    fuse_tensors,
    infer,
    iou,
    nms,
    rescale_detections,
)
from .scene import (
    VIS_OCCLUDED,
    VIS_UNLABELED,
    VIS_VISIBLE,
    Detection,
    GroundTruthItem,
    Scene,
    SceneError,
    box_area,
    clamp_scene,
    mirror_scene,
    scale_scene,
    validate_scene,
)
from .synth import NoiseParams, SynthParams, noisy_view_tensors, synth_scenes

__version__ = "0.1.0"

__all__ = [
    # bench
    "StrategyReport", "StrategyResult", "compare_strategies",
    # categories
    "DEFAULT_SIGMA", "NUM_CATEGORIES", "TOTAL_KEYPOINTS", "CategoryConfigError", "CategorySpec",
    "CategoryTable", "default_table", "dump_category_table", "load_category_table",
    # decode
    "DecodeConfig", "KeypointCandidates", "decode_scene",
    "extract_keypoint_candidates", "extract_peaks",
    # encode
    "EncodeParams", "encode_scene", "gaussian_radius", "render_gaussian",
    # fileio
    "FormatError", "read_detections", "read_scenes", "read_tensors", "write_detections", "write_scenes",
    "write_tensors",
    # heads
    "TENSOR_NAMES", "HeadTensorSet", "TensorValidationError", "new_head_tensors", "require_valid",
    # metrics
    "VISIBILITY_MODES", "VISIBLE_AND_OCCLUDED", "VISIBLE_ONLY", "EvalConfig", "EvaluationError",
    "MetricBlock", "MetricReport", "PRCurve", "evaluate", "oks", "report_to_csv_rows", "report_to_dict",
    # postprocess
    "flip_tensors", "fuse_multiscale", "fuse_tensors", "infer", "iou", "nms", "rescale_detections",
    # scene
    "VIS_OCCLUDED", "VIS_UNLABELED", "VIS_VISIBLE", "Detection", "GroundTruthItem", "Scene", "SceneError",
    "box_area", "clamp_scene", "mirror_scene", "scale_scene", "validate_scene",
    # synth
    "NoiseParams", "SynthParams", "noisy_view_tensors", "synth_scenes",
]
