"""Deterministic scene-graph QA generation and scoring for 3D captures."""

import os as _os

# numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and
# by default starts a pool of worker threads that busy-wait. gen makes no BLAS
# call, the ones left are tiny (ingest's 2x2 covariances) and `gen --workers`
# parallelises with processes, so load it single-threaded unless the user
# chose a count. The environment is restored exactly, so the children of a
# program that imports sceneqa see no change.
_blas_threads = _os.environ.get("OPENBLAS_NUM_THREADS")
if _blas_threads is None:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy  # a no-op when numpy was imported first
finally:
    if _blas_threads is None:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _numpy, _blas_threads

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
