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

import importlib as _importlib

__version__ = "0.1.0"

# Each exported name -> the module that defines it. A name is imported on
# first use (PEP 562), not here: importing a submodule such as sceneqa.cli
# runs this file, so every module named below would otherwise load with each
# command, including the graph, record and route modules that ingest never
# calls.
_EXPORTS = {
    "FrameMetadata": "metadata",
    "GenConfig": "qa_records",
    "Intrinsics": "metadata",
    "LabeledPointCloud": "ply_io",
    "ObjectInstance": "metadata",
    "OrientedBox3": "geometry",
    "QaRecord": "qa_records",
    "SceneGraph": "graph",
    "SceneMetadata": "metadata",
    "SceneQaError": "errors",
    "box_box_distance": "geometry",
    "build_graph": "graph",
    "closest_point_on_box": "geometry",
    "derive_instance_boxes": "metadata",
    "load_frame_metadata": "metadata",
    "load_scene_metadata": "metadata",
    "parse_ply": "ply_io",
    "planar_signed_angle": "geometry",
    "sample_frame_sequence": "graph",
    "validate_record": "qa_records",
    "world_to_camera": "geometry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
