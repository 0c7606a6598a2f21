"""Every malformed input is rejected where it enters the package.

Geometry, the generators and scoring trust the values the loaders hand
them, so each loader must reject every bad document by itself, with a
SceneQaError that names the bad field (scene metadata) or path:line (a
trajectory file). These tests break valid documents one defect at a time
and check exactly that; ``test_metadata_batched`` does the same for frame
metadata.
"""

import copy
import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synth import make_scene, make_single_turn_waypoints
from test_metadata import MINIMAL_SCENE
from sceneqa.errors import InputError, SchemaViolation
from sceneqa.geometry import MAX_COORD
from sceneqa.metadata import scene_metadata_from_dict, scene_metadata_to_dict
from sceneqa.route_plan import load_trajectories

NOT_A_STRING = [None, 0, 1.5, True, "", [], {}, ["chair"]]
NOT_AN_INTEGER = [None, 1.5, True, "1", [], {}, [1]]
NOT_A_NUMBER = [None, True, "1", [], {}, [1.0], math.nan, math.inf, -math.inf, 10 ** 400]
NOT_A_CONTAINER = [None, 1, "x", True]


def names(want: str, path: str) -> bool:
    """Whether an error at ``path`` names the field ``want`` or a part of it."""
    return path == want or path.startswith((want + ".", want + "["))


# --- scene metadata -----------------------------------------------------------------

SCENE_DOCS = [copy.deepcopy(MINIMAL_SCENE)] + [
    json.loads(json.dumps(scene_metadata_to_dict(make_scene(seed, f"fz{seed}")[0])))
    for seed in (5, 6)]


def vectors(doc) -> list:
    """(owner, key, field path, length) of every number list in a scene document."""
    out = [(doc["scene_extents"], k, f"scene_extents.{k}", 3) for k in ("min", "max")]
    out.append((doc, "room_center", "room_center", 3))
    for i, obj in enumerate(doc["objects"]):
        out += [(obj, k, f"objects[{i}].{k}", n)
                for k, n in (("center", 3), ("size", 3), ("rotation", 4))]
    return out


def break_scene(doc, data) -> str:
    """Give the document one defect; returns the field path it must be
    rejected with."""
    draw = data.draw
    objects = doc["objects"]
    i = draw(st.integers(0, len(objects) - 1), label="object")
    obj = objects[i]
    kind = draw(st.sampled_from(["drop", "retype", "element", "ragged", "value"]), label="kind")
    if kind == "drop":
        owner, path = draw(st.sampled_from([(doc, ""), (doc["scene_extents"], "scene_extents"),
                                            (obj, f"objects[{i}]")]))
        key = draw(st.sampled_from(sorted(owner)), label="key")
        del owner[key]
        return f"{path}.{key}" if path else key
    if kind == "retype":
        owner, key, path, bad = draw(st.sampled_from([
            (doc, "scene_id", "scene_id", NOT_A_STRING),
            (obj, "category", f"objects[{i}].category", NOT_A_STRING),
            (obj, "instance_id", f"objects[{i}].instance_id", NOT_AN_INTEGER),
            (doc, "scene_extents", "scene_extents", NOT_A_CONTAINER + [[]]),
            (doc, "objects", "objects", NOT_A_CONTAINER + [{}]),
            (objects, i, f"objects[{i}]", NOT_A_CONTAINER + [[]]),
            (doc, "category_counts", "category_counts", NOT_A_CONTAINER + [[]]),
            (doc["category_counts"], obj["category"], f"category_counts.{obj['category']}",
             NOT_AN_INTEGER),
        ] + [(owner, key, path, NOT_A_CONTAINER + [{}, [], [0.0] * (n - 1)])
             for owner, key, path, n in vectors(doc)]), label="field")
        owner[key] = copy.deepcopy(draw(st.sampled_from(bad), label="value"))
        return path
    if kind in ("element", "ragged"):
        owner, key, path, n = draw(st.sampled_from(vectors(doc)), label="vector")
        values = owner[key]
        if kind == "element":
            k = draw(st.integers(0, n - 1))
            values[k] = copy.deepcopy(draw(st.sampled_from(NOT_A_NUMBER), label="value"))
            return f"{path}[{k}]"
        how = draw(st.sampled_from(["append", "pop", "nest"]))
        if how == "append":
            values.append(0.0)
        elif how == "pop":
            values.pop()
        else:
            values[0] = [values[0]]
        return path
    how = draw(st.sampled_from(["inverted_extents", "size", "center", "rotation",
                                "duplicate_id", "count", "extra_count", "renamed"]))
    if how == "inverted_extents":
        k = draw(st.integers(0, 2))
        doc["scene_extents"]["min"][k] = doc["scene_extents"]["max"][k] + 1.0
        return "scene_extents"
    if how == "size":
        obj["size"][draw(st.integers(0, 2))] = draw(st.sampled_from(
            [0.0, -0.5, math.nextafter(MAX_COORD, math.inf), 1e300]))
        return f"objects[{i}]"
    if how == "center":
        obj["center"][draw(st.integers(0, 2))] = draw(st.sampled_from(
            [math.nextafter(MAX_COORD, math.inf), -1e160, 1e300]))
        return f"objects[{i}]"
    if how == "rotation":
        scale = draw(st.sampled_from([0.0, 0.999, 1.001, 2.0]))
        obj["rotation"] = [scale * v for v in obj["rotation"]]
        return f"objects[{i}]"
    if how == "duplicate_id":
        assume(len(objects) >= 2)
        j = draw(st.integers(0, len(objects) - 1).filter(lambda j: j != i))
        first, second = sorted((i, j))
        objects[second]["instance_id"] = objects[first]["instance_id"]
        return f"objects[{second}].instance_id"
    if how == "count":
        doc["category_counts"][obj["category"]] += draw(st.sampled_from([-1, 1]))
    elif how == "extra_count":
        doc["category_counts"]["zz_extra"] = 1
    else:
        obj["category"] = "zz_renamed"
    return "category_counts"


def test_scene_docs_are_valid():
    for doc in SCENE_DOCS:
        scene_metadata_from_dict(copy.deepcopy(doc))


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_broken_scene_metadata_is_rejected_naming_the_field(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SCENE_DOCS), label="base"))
    want = break_scene(doc, data)
    try:
        scene_metadata_from_dict(doc)
    except SchemaViolation as exc:
        assert names(want, exc.field_path), (want, str(exc))
    else:
        raise AssertionError(f"accepted a document broken at {want}")


# --- trajectories -----------------------------------------------------------------

def trajectory_lines() -> list:
    rng = np.random.default_rng(17)
    lines = [{"scene_id": "s1", "waypoints": make_single_turn_waypoints(rng)[0].tolist()}
             for _ in range(3)]
    lines.append({"scene_id": "s2", "waypoints": [[0, 0], [2, 0], [2, 2.5]]})
    return lines


TRAJECTORY_LINES = trajectory_lines()


def encode(lines) -> bytes:
    return b"".join(line if isinstance(line, bytes) else (json.dumps(line) + "\n").encode()
                    for line in lines)


def break_trajectory(doc, data):
    """The line with one defect, as a document or as raw bytes."""
    draw = data.draw
    waypoints = doc["waypoints"]
    k = draw(st.integers(0, len(waypoints) - 1), label="waypoint")
    kind = draw(st.sampled_from(["drop", "scene_id", "waypoints", "coordinate", "far",
                                 "ragged", "repeat", "not_an_object", "text"]), label="kind")
    if kind == "drop":
        del doc[draw(st.sampled_from(["scene_id", "waypoints"]))]
    elif kind == "scene_id":
        doc["scene_id"] = copy.deepcopy(draw(st.sampled_from(NOT_A_STRING)))
    elif kind == "waypoints":
        doc["waypoints"] = copy.deepcopy(draw(st.sampled_from(
            NOT_A_CONTAINER + [{}, [], [[]], [0.0, 1.0], "0,0;1,0"])))
    elif kind == "coordinate":
        point = waypoints[k]
        point[draw(st.integers(0, len(point) - 1))] = copy.deepcopy(
            draw(st.sampled_from(NOT_A_NUMBER)))
    elif kind == "far":  # finite, but the steps between waypoints could overflow
        point = waypoints[k]
        point[draw(st.integers(0, len(point) - 1))] = draw(st.sampled_from(
            [math.nextafter(MAX_COORD, math.inf), -1e160, 1e308, -1e308]))
    elif kind == "ragged":
        if draw(st.booleans()):
            waypoints[k].append(0.0)
        else:
            waypoints[k].pop()
    elif kind == "repeat":
        waypoints.insert(k + 1, list(waypoints[k]))
    elif kind == "not_an_object":
        return (json.dumps(draw(st.sampled_from([None, [], 5, "x", [doc]]))) + "\n").encode()
    else:
        text = (json.dumps(doc) + "\n").encode()
        return draw(st.sampled_from([text[:len(text) // 2] + b"\n",
                                     text.replace(b'"s', b'"\xe9s', 1)]))
    return doc


def test_trajectory_lines_are_valid(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(encode(TRAJECTORY_LINES))
    assert len(load_trajectories(path)) == len(TRAJECTORY_LINES)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_broken_trajectory_line_is_rejected_naming_path_and_line(tmp_path_factory, data):
    lines = copy.deepcopy(TRAJECTORY_LINES)
    n = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[n] = break_trajectory(lines[n], data)
    path = tmp_path_factory.mktemp("traj") / "trajectories.jsonl"
    path.write_bytes(encode(lines))
    try:
        load_trajectories(path)
    except InputError as exc:
        assert str(exc).startswith(f"{path}:{n + 1}: "), str(exc)
    else:
        raise AssertionError(f"accepted a file broken at line {n + 1}")
