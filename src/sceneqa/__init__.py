"""Deterministic scene-graph QA generation and scoring for 3D captures."""

from .errors import SceneQaError
from .geometry import (
    OrientedBox3,
    box_box_distance,
    closest_point_on_box,
    planar_signed_angle,
    world_to_camera,
)
from .graph import SceneGraph, build_graph, sample_frame_sequence
from .metadata import (
    FrameMetadata,
    Intrinsics,
    ObjectInstance,
    SceneMetadata,
    derive_instance_boxes,
    load_frame_metadata,
    load_scene_metadata,
)
from .ply_io import LabeledPointCloud, parse_ply
from .qa_records import GenConfig, QaRecord, validate_record

__version__ = "0.1.0"

__all__ = [
    "FrameMetadata",
    "GenConfig",
    "Intrinsics",
    "LabeledPointCloud",
    "ObjectInstance",
    "OrientedBox3",
    "QaRecord",
    "SceneGraph",
    "SceneMetadata",
    "SceneQaError",
    "box_box_distance",
    "build_graph",
    "closest_point_on_box",
    "derive_instance_boxes",
    "load_frame_metadata",
    "load_scene_metadata",
    "parse_ply",
    "planar_signed_angle",
    "sample_frame_sequence",
    "validate_record",
    "world_to_camera",
    "__version__",
]
