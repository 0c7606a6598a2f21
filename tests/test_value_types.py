"""The package's value types: plain classes, none built by ``@dataclass`` at start-up.

Importing ``sceneqa.cli`` runs the dataclass decorator on ``GenConfig`` at
most, and compiles none of ``evaluate``'s regexes; the 14 value types on
that import path keep a frozen dataclass's contract: the same constructor,
immutable fields, a ``repr`` that names the class, ``==`` over equal
fields, and a pickle or deep-copy round trip.
"""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synth import make_scene
import sceneqa
from sceneqa import graph
from sceneqa.cli import SceneInputs
from sceneqa.evaluate import EvalReport, Prediction
from sceneqa.geometry import OrientedBox3
from sceneqa.graph import SceneGraph, build_graph
from sceneqa.metadata import (CameraFrame, FrameMetadata, Intrinsics, ObjectInstance,
                              SceneMetadata)
from sceneqa.ply_io import LabeledPointCloud
from sceneqa.qa_records import GenConfig, QaRecord
from sceneqa.route_plan import ClassifiedRoute, Trajectory

SRC = str(Path(sceneqa.__file__).parents[1])

STARTUP_CHILD = """
import dataclasses, json, re

processed = []
process_class = dataclasses._process_class

def recording(cls, *args, **kwargs):
    processed.append(cls.__name__)
    return process_class(cls, *args, **kwargs)

dataclasses._process_class = recording
import sceneqa.cli
from sceneqa import evaluate

patterns = sorted(name for name, value in vars(evaluate).items()
                  if isinstance(value, re.Pattern))
print(json.dumps({"processed": processed, "patterns": patterns,
                  "number": evaluate.extract_number("about 2.5 m"),
                  "option": evaluate.match_option("(B)", ["x", "y"])}))
"""


def test_importing_the_cli_decorates_only_genconfig_and_compiles_no_regex():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", STARTUP_CHILD], capture_output=True, text=True,
                         timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["processed"] in ([], ["GenConfig"])
    assert got["patterns"] == []
    assert (got["number"], got["option"]) == (2.5, 1)  # compiled on first use


def _box():
    return OrientedBox3([1.0, 2.0, 0.5], [0.5, 0.4, 1.0], [1.0, 0.0, 0.0, 0.0])


def _intrinsics():
    return Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def _frames():
    frame = CameraFrame(0, np.eye(3), np.zeros(3), "c0.png", "d0.png",
                        ((1, np.array([10.0, 10.0, 50.0, 60.0])),))
    return FrameMetadata("s", _intrinsics(), (frame,))


def _scene():
    return SceneMetadata("s", (np.zeros(3), np.full(3, 4.0)), np.full(3, 2.0), {"chair": 1},
                         (ObjectInstance(1, "chair", _box()),))


# class -> (its constructor's arguments, in order, with every default left
# out; the defaults a frozen dataclass gave them)
EXAMPLES = {
    SceneInputs: (lambda: ("a/scene_metadata.json", "a/frame_metadata.json", None, None), {}),
    Prediction: (lambda: ("s:abs_dist:0000", "about 2 m"), {}),
    EvalReport: (lambda: ({"abs_dist": {"count": 1, "score": 0.5}}, 0.5,
                          ({"qid": "s:abs_dist:0000", "score": 0.5},), False,
                          {"abs_dist": {"scored": 1}}, 0), {}),
    OrientedBox3: (lambda: ([1.0, 2.0, 0.5], [0.5, 0.4, 1.0], [1.0, 0.0, 0.0, 0.0]), {}),
    SceneGraph: (lambda: (_scene(), _frames(), {0: frozenset({1})}, {1: 0}, {"chair": 0},
                          {}, {}),
                 {"sample_frames": GenConfig.sample_frames, "cloud": None, "trajectories": ()}),
    Intrinsics: (lambda: (500.0, 500.0, 320.0, 240.0, 640, 480), {}),
    ObjectInstance: (lambda: (1, "chair", _box()), {}),
    SceneMetadata: (lambda: ("s", (np.zeros(3), np.full(3, 4.0)), np.full(3, 2.0),
                             {"chair": 1}, (ObjectInstance(1, "chair", _box()),)), {}),
    CameraFrame: (lambda: (0, np.eye(3), np.zeros(3), "c0.png", "d0.png", ()), {}),
    FrameMetadata: (lambda: ("s", _intrinsics(), ()), {}),
    LabeledPointCloud: (lambda: (np.zeros((2, 3)), np.zeros((2, 3), dtype=np.uint8),
                                 np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64)), {}),
    QaRecord: (lambda: ("s:obj_count:0000", "s", "obj_count", "NA", "How many chairs?", None,
                        "2", (0,)), {"meta": {}}),
    Trajectory: (lambda: (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),), {}),
    ClassifiedRoute: (lambda: ("TurnLeft", (np.zeros(3), np.ones(3), np.full(3, 2.0)), 90.0),
                      {}),
}
# These two copy their arrays, so instances built apart compare as the
# dataclasses did: numpy refuses the truth value of an elementwise ==.
COPIES_ARRAYS = (OrientedBox3, Trajectory)


def _params(cls) -> list:
    return list(inspect.signature(cls).parameters)


def same(a, b) -> bool:
    """Whether two values hold the same data, arrays and value types included."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if type(a) in EXAMPLES:
        return type(a) is type(b) and all(same(getattr(a, n), getattr(b, n))
                                          for n in _params(type(a)))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_value_type_keeps_the_frozen_dataclass_contract(cls):
    make, defaults = EXAMPLES[cls]
    args = make()
    names = _params(cls)
    assert names[len(args):] == list(defaults)  # the defaults are the trailing parameters

    # positionally and by keyword, with the same defaults
    obj = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert same(obj, by_keyword)
    for name, value in defaults.items():
        assert same(getattr(obj, name), value), name
    if cls is QaRecord:  # a fresh {} each
        assert obj.meta is not cls(*args).meta
    explicit = cls(*args, *defaults.values())
    assert same(obj, explicit)

    # immutable: setting or deleting a field, or adding one, raises
    for name in names + ["not_a_field"]:
        before = getattr(obj, name, None)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name, None) is before

    assert repr(obj).startswith(f"{cls.__name__}(")

    # == over equal fields, as the frame loader's comparisons of Intrinsics need
    assert obj == obj
    if cls not in COPIES_ARRAYS:
        assert obj == cls(*args) and not obj != cls(*args)
    assert obj.__eq__(args) is NotImplemented

    # a pickle and a deep copy give back the same data, through the constructor
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(back) is cls and same(back, obj)
    if cls is OrientedBox3:
        back = pickle.loads(pickle.dumps(obj))
        assert (back.center_floats, back.half_floats, back.matrix_floats) == \
            (obj.center_floats, obj.half_floats, obj.matrix_floats)
        assert not any(a.flags.writeable for a in (back.center, back.size, back.rotation,
                                                   back.matrix, back.half))


def test_equal_intrinsics_compare_equal_and_others_not():
    assert _intrinsics() == _intrinsics()
    assert _intrinsics() != Intrinsics(500.0, 500.0, 320.0, 240.0, 640, 481)
    assert hash(_intrinsics()) == hash(_intrinsics())


def test_scene_graph_memos_fill_once(monkeypatch):
    scene, frames = make_scene(seed=4242, scene_id="memo")
    g = build_graph(scene, frames)
    calls = []
    sample = graph.sample_frame_sequence
    monkeypatch.setattr(graph, "sample_frame_sequence",
                        lambda *a: calls.append(a) or sample(*a))
    assert g.frame_seq is g.frame_seq and len(calls) == 1
    assert g.unique_objects is g.unique_objects
    assert {"frame_seq", "unique_objects"} <= set(vars(g))
    a, b = scene.objects[:2]
    assert g.box_distance(a, b) == g.box_distance(b, a) and len(g._box_distances) == 1
    # each graph has memos of its own
    other = build_graph(scene, frames)
    assert other._box_distances == {} and "frame_seq" not in vars(other)
