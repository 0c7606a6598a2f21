"""The batched frame-metadata pass against the former per-field walker.

``frame_metadata_from_dict`` checks every value of a capture in one pass
over stacked arrays and names the first failure from its masks; only a
field of the wrong type, a missing key, an id out of order or a number that
is not finite goes to the walker. The accepted set,
the error raised for a rejected document (with its field path) and every
loaded pose and bbox bit must stay those of
``oracles.reference_frame_metadata_from_dict``, with two documented changes:

- an intrinsics width or height too large for a float is a SchemaViolation
  naming the field (the former walker raised a bare OverflowError, or
  accepted a capture with no bbox to compare);
- a pose whose camera position has a component beyond ``MAX_COORD`` is a
  SchemaViolation naming ``frames[i].pose_c2w`` (the former walker accepted
  it, and a camera-object distance then overflowed in a generator).
"""

import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_frame_metadata_from_dict
from synth import frame_metadata_to_dict, make_scene, upright_pose_matrix
from test_metadata import minimal_frames
from sceneqa.errors import SchemaViolation
from sceneqa.geometry import MAX_COORD, ORTHO_TOL
from sceneqa.metadata import frame_metadata_from_dict


def as_json(doc) -> dict:
    return json.loads(json.dumps(doc))


def capture_doc(seed: int, frames: int | None = None) -> dict:
    doc = as_json(frame_metadata_to_dict(make_scene(seed, f"cap{seed}")[1]))
    if frames is not None:
        doc["frames"] = doc["frames"][:frames]
    return doc


def bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def outcome(loader, doc):
    """What a loader makes of a document: every loaded value bit for bit, or
    the error it raised."""
    try:
        meta = loader(copy.deepcopy(doc))
    except SchemaViolation as exc:
        return "rejected", exc.field_path, str(exc)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", type(exc).__name__, str(exc)
    return "accepted", meta.scene_id, meta.intrinsics, [
        (fr.frame_id, bits(fr.rotation), bits(fr.position),
         fr.color_path, fr.depth_path,
         [(type(vid), vid, bits(bbox)) for vid, bbox in fr.visible_objects])
        for fr in meta.frames]


def first_far_camera(doc):
    """Index of the first frame whose pose_c2w is a 16-list holding a
    position component beyond MAX_COORD, or None."""
    frames = doc.get("frames") if isinstance(doc, dict) else None
    for i, fr in enumerate(frames if isinstance(frames, list) else []):
        pose = fr.get("pose_c2w") if isinstance(fr, dict) else None
        if isinstance(pose, list) and len(pose) == 16 and any(
                isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) > MAX_COORD
                for v in pose[3:12:4]):
            return i
    return None


def reference_outcome(doc):
    """The former walker's outcome, except for two documents it accepts:
    intrinsics with a width or height too large for a float, and a camera
    position beyond MAX_COORD in a frame whose id and pose rotation pass.
    Each is now a SchemaViolation naming the field."""
    if outcome(reference_frame_metadata_from_dict, {**doc, "frames": []})[0] == "accepted":
        for key in ("width", "height"):
            try:
                float(doc["intrinsics"][key])
            except OverflowError:
                path = f"intrinsics.{key}"
                return "rejected", path, f"{path}: number out of float range"
    i = first_far_camera(doc)
    if i is not None:
        # the walker checks a frame's id and pose before its other fields
        rest = {"color_path": "c.jpg", "depth_path": "d.png", "visible_objects": []}
        head = {**doc, "frames": doc["frames"][:i] + [{**doc["frames"][i], **rest}]}
        if outcome(reference_frame_metadata_from_dict, head)[0] == "accepted":
            path = f"frames[{i}].pose_c2w"
            return ("rejected", path,
                    f"{path}: camera position components must be at most {MAX_COORD:g} m")
    return outcome(reference_frame_metadata_from_dict, doc)


def assert_same_outcome(doc):
    new = outcome(frame_metadata_from_dict, doc)
    assert new == reference_outcome(doc)
    return new


def float64_doc(doc) -> dict:
    """The document with every bbox value an np.float64, as tests/synth.py
    passes them."""
    doc = copy.deepcopy(doc)
    for fr in doc["frames"]:
        for det in fr["visible_objects"]:
            det["bbox_2d"] = [np.float64(v) for v in det["bbox_2d"]]
    return doc


# --- accepted captures ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_synth_capture_loads_bit_for_bit(seed):
    doc = capture_doc(3100 + seed)
    assert assert_same_outcome(doc)[0] == "accepted"


@pytest.mark.parametrize("make", [
    minimal_frames,
    lambda: as_json(minimal_frames()),
    lambda: {**minimal_frames(), "frames": []},
    lambda: capture_doc(77, frames=1),
], ids=["fixture", "fixture_json", "no_frames", "one_frame"])
def test_fixtures_load_bit_for_bit(make):
    doc = make()
    assert assert_same_outcome(doc)[0] == "accepted"


def test_loaded_arrays_are_read_only():
    meta = frame_metadata_from_dict(capture_doc(3200))
    for fr in meta.frames:
        assert not fr.rotation.flags.writeable
        assert not fr.position.flags.writeable
        for _, bbox in fr.visible_objects:
            assert not bbox.flags.writeable


def assert_views_into_one_stack(meta):
    """Every rotation and position is a read-only view into one pose stack,
    and every bbox into one bbox stack."""
    poses = [a for fr in meta.frames for a in (fr.rotation, fr.position)]
    bboxes = [bbox for fr in meta.frames for _, bbox in fr.visible_objects]
    for arrays, per_item, items in ((poses, 16, len(meta.frames)), (bboxes, 4, len(bboxes))):
        stack = arrays[0].base
        assert stack is not None and stack.size == per_item * items
        assert all(a.base is stack and not a.flags.writeable for a in arrays)


@pytest.mark.parametrize("make", [
    lambda: capture_doc(3201),
    lambda: float64_doc(capture_doc(3202)),
], ids=["batched", "float64"])
def test_frames_are_read_only_views_into_one_stack(make):
    doc = make()
    assert assert_same_outcome(doc)[0] == "accepted"
    assert_views_into_one_stack(frame_metadata_from_dict(doc))


# --- single bad fields -----------------------------------------------------------------

BAD_VALUES = [True, False, "1", "", None, [], {}, [1.0], 10 ** 400, 2 ** 53 + 1, -(2 ** 63),
              2 ** 64 + 3, math.nan, math.inf, -math.inf, -0.0, 0, 1e308, 5e-324, -1]

# (owner, key) of one field of minimal_frames(); frame 0 sees instance 1 at
# bbox [10, 10, 60, 60] in a 640 x 480 image, and frame 1 has no detections.
FIELDS = {
    "frame_id": lambda d: (d["frames"][1], "frame_id"),
    "pose_c2w": lambda d: (d["frames"][1], "pose_c2w"),
    "pose_rotation_entry": lambda d: (d["frames"][0]["pose_c2w"], 0),
    "pose_translation_entry": lambda d: (d["frames"][1]["pose_c2w"], 3),
    "pose_last_entry": lambda d: (d["frames"][1]["pose_c2w"], 15),
    "color_path": lambda d: (d["frames"][0], "color_path"),
    "depth_path": lambda d: (d["frames"][1], "depth_path"),
    "visible_objects": lambda d: (d["frames"][1], "visible_objects"),
    "detection": lambda d: (d["frames"][0]["visible_objects"], 0),
    "instance_id": lambda d: (d["frames"][0]["visible_objects"][0], "instance_id"),
    "bbox_2d": lambda d: (d["frames"][0]["visible_objects"][0], "bbox_2d"),
    "bbox_xmin": lambda d: (d["frames"][0]["visible_objects"][0]["bbox_2d"], 0),
    "bbox_xmax": lambda d: (d["frames"][0]["visible_objects"][0]["bbox_2d"], 2),
    "width": lambda d: (d["intrinsics"], "width"),
}


def test_each_bad_value_in_each_field_matches_the_walker():
    for field, locate in FIELDS.items():
        for value in BAD_VALUES:
            doc = minimal_frames()
            owner, key = locate(doc)
            owner[key] = value
            new = outcome(frame_metadata_from_dict, doc)
            with np.errstate(all="ignore"):  # the former walker's overflows
                assert new == reference_outcome(doc), (field, value)
                if field == "width" and value == 10 ** 400:
                    # a documented change from the former walker
                    assert outcome(reference_frame_metadata_from_dict, doc)[:2] == \
                        ("raised", "OverflowError")
                    assert new[:2] == ("rejected", "intrinsics.width")
                if field == "pose_translation_entry" and value == 1e308:
                    # the other one
                    assert outcome(reference_frame_metadata_from_dict, doc)[0] == "accepted"
                    assert new[:2] == ("rejected", "frames[1].pose_c2w")


@pytest.mark.parametrize("value", [1e155, -1e200, 1e308])
@pytest.mark.parametrize("frame,index", [(0, 0), (1, 5), (1, 10)])
def test_huge_rotation_entries_fail_without_a_warning(frame, index, value):
    """A rotation entry whose square overflows is "not orthonormal", raised
    from the batched masks with no RuntimeWarning on the way."""
    doc = minimal_frames()
    doc["frames"][frame]["pose_c2w"][index] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = outcome(frame_metadata_from_dict, doc)
    path = f"frames[{frame}].pose.rotation"
    assert new == ("rejected", path, f"{path}: rotation is not orthonormal")
    with np.errstate(all="ignore"):
        assert new == reference_outcome(doc)


def edit_fields(doc, edits) -> dict:
    """The document with each (frame, key path, value) of ``edits`` set."""
    for frame, keys, value in edits:
        owner = doc["frames"][frame]
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = value
    return doc


@pytest.mark.parametrize("edits, path", [
    ([(0, ("visible_objects", 0, "bbox_2d"), [60, 10, 10, 60]), (1, ("depth_path",), "")],
     "frames[0].visible_objects[0].bbox_2d"),
    ([(1, ("pose_c2w", 0), 2.0), (1, ("color_path",), 5)], "frames[1].pose.rotation"),
    ([(1, ("pose_c2w", 15), 2.0), (1, ("visible_objects",), [{"instance_id": 1,
                                                            "bbox_2d": [1, 2, 3, math.nan]}])],
     "frames[1].pose.rotation"),
    ([(0, ("visible_objects",), [{"instance_id": 1, "bbox_2d": [10, 10, 641, 60]},
                                 {"instance_id": "2", "bbox_2d": [1, 2, 3, 4]}])],
     "frames[0].visible_objects[0].bbox_2d"),
    ([(0, ("color_path",), None), (1, ("pose_c2w", 0), 2.0)], "frames[0].color_path"),
    ([(0, ("pose_c2w", 0), 2.0), (0, ("visible_objects", 0, "bbox_2d", 0), 70)],
     "frames[0].pose.rotation"),
    ([(0, ("pose_c2w", 0), 10 ** 400), (0, ("visible_objects", 0, "bbox_2d", 0), 70)],
     "frames[0].pose_c2w[0]"),
], ids=["bbox_before_path", "pose_before_path", "pose_before_nan", "bbox_before_id",
        "path_before_pose", "pose_before_its_bbox", "huge_int_before_bbox"])
def test_the_first_bad_field_in_document_order_is_named(edits, path):
    """A bad value before a field the walker rejects is named from the masks
    first, and a field the walker rejects before a bad value is named."""
    doc = edit_fields(minimal_frames(), edits)
    assert assert_same_outcome(doc)[:2] == ("rejected", path)


@pytest.mark.parametrize("index,value", [
    (2, 640), (2, 640.0), (2, math.nextafter(640.0, math.inf)), (2, 641),
    (3, 480), (3, math.nextafter(480.0, math.inf)),
    (0, 0), (0, -0.0), (0, -5e-324), (1, math.nextafter(0.0, -1.0)),
    (0, 60), (1, 60), (2, 10), (2, math.nextafter(10.0, math.inf)),
])
def test_bboxes_on_the_image_edge_match_the_walker(index, value):
    doc = minimal_frames()
    doc["frames"][0]["visible_objects"][0]["bbox_2d"][index] = value
    assert_same_outcome(doc)


@pytest.mark.parametrize("index", [3, 7, 11])
@pytest.mark.parametrize("value", [MAX_COORD, -MAX_COORD, math.nextafter(MAX_COORD, math.inf),
                                   -1e160, 1e300])
def test_camera_positions_are_bounded_by_max_coord(index, value):
    doc = minimal_frames()
    doc["frames"][1]["pose_c2w"][index] = value
    new = assert_same_outcome(doc)
    if abs(value) <= MAX_COORD:
        assert new[0] == "accepted"
    else:
        assert new[:2] == ("rejected", "frames[1].pose_c2w")


# --- rotations at the tolerance -------------------------------------------------------

def scaled_pose(scales) -> list:
    """An upright pose whose rotation block is R @ diag(1 + scales): its
    orthonormality error is about 2 * max|scale| and its |det - 1| about
    |sum(scales)|."""
    m = upright_pose_matrix([1.0, 2.0, 1.5], 0.7, 0.1)
    m[:3, :3] = m[:3, :3] @ np.diag(1.0 + np.asarray(scales))
    return [float(v) for v in m.reshape(-1)]


def walker_errors(pose) -> tuple:
    r = np.array(pose).reshape(4, 4)[:3, :3]
    return (float(np.max(np.abs(r.T @ r - np.eye(3)))), abs(np.linalg.det(r) - 1.0))


def probe_scales(target: float, kind: str) -> list:
    """Scale triples whose orthonormality error ("ortho") or |det - 1|
    ("det") walks across ``target`` in steps of about one float64 ulp of 1."""
    out = []
    for k in range(-12, 13):
        t = target * (1.0 + k * 1e-6)
        out.append((t / 2, -t / 2, 0.0) if kind == "ortho" else (t / 3,) * 3)
    return out


@pytest.mark.parametrize("target", [ORTHO_TOL, ORTHO_TOL / 2], ids=["tol", "half_tol"])
@pytest.mark.parametrize("kind", ["ortho", "det"])
def test_rotations_just_under_at_and_over_the_tolerance(kind, target):
    outcomes, errors = set(), []
    for scales in probe_scales(target, kind):
        doc = minimal_frames()
        doc["frames"][1]["pose_c2w"] = scaled_pose(scales)
        outcomes.add(assert_same_outcome(doc)[0])
        errors.append(walker_errors(doc["frames"][1]["pose_c2w"])[kind == "det"])
    # the probes straddle the target in the walker's own arithmetic
    assert min(errors) < target < max(errors)
    assert outcomes == ({"accepted", "rejected"} if target == ORTHO_TOL else {"accepted"})


# --- fuzzed documents -----------------------------------------------------------------

BASE_DOCS = [capture_doc(3300 + i, frames=4) for i in range(4)] + [
    minimal_frames(), float64_doc(capture_doc(3304, frames=4))]

def frame_fields(doc, data):
    frames = doc.get("frames")
    if not isinstance(frames, list) or not frames:
        return None
    i = data.draw(st.integers(0, len(frames) - 1), label="frame")
    return frames[i] if isinstance(frames[i], dict) else None


def detection_fields(doc, data):
    fr = frame_fields(doc, data)
    vis = fr.get("visible_objects") if fr else None
    if not isinstance(vis, list) or not vis:
        return None
    j = data.draw(st.integers(0, len(vis) - 1), label="detection")
    return vis[j] if isinstance(vis[j], dict) else None


def number_list(owner, key):
    value = owner.get(key) if owner else None
    return value if isinstance(value, list) and value else None


def plain_number(value, default):
    """value when it is a number that float arithmetic can shift, else default."""
    return value if type(value) in (int, float) and abs(value) < 1e300 else default


def mutate(doc, data):
    kind = data.draw(st.sampled_from([
        "drop", "retype", "retype_number", "ragged", "order", "bbox_edge", "rotation",
        "last_row", "far_camera"]), label="mutation")
    if kind in ("drop", "retype"):
        where = data.draw(st.sampled_from(["doc", "intrinsics", "frame", "detection"]))
        owner = {"doc": lambda: doc, "intrinsics": lambda: doc.get("intrinsics"),
                 "frame": lambda: frame_fields(doc, data),
                 "detection": lambda: detection_fields(doc, data)}[where]()
        if not isinstance(owner, dict) or not owner:
            return
        key = data.draw(st.sampled_from(sorted(owner)), label="key")
        if kind == "drop":
            del owner[key]
        else:
            owner[key] = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES), label="value"))
    elif kind == "retype_number":
        owner = data.draw(st.sampled_from(["pose", "bbox"]))
        values = (number_list(frame_fields(doc, data), "pose_c2w") if owner == "pose"
                  else number_list(detection_fields(doc, data), "bbox_2d"))
        if values:
            k = data.draw(st.integers(0, len(values) - 1))
            values[k] = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES), label="value"))
    elif kind == "ragged":
        values = data.draw(st.sampled_from(["pose", "bbox"]))
        values = (number_list(frame_fields(doc, data), "pose_c2w") if values == "pose"
                  else number_list(detection_fields(doc, data), "bbox_2d"))
        if values:
            how = data.draw(st.sampled_from(["append", "pop", "nest"]))
            if how == "append":
                values.append(0.0)
            elif how == "pop":
                values.pop()
            else:
                values[0] = [values[0]]
    elif kind == "order":
        frames = doc.get("frames")
        if isinstance(frames, list) and len(frames) >= 2:
            i = data.draw(st.integers(0, len(frames) - 2))
            a, b = frames[i], frames[i + 1]
            if not ("frame_id" in a and "frame_id" in b):  # an earlier mutation dropped one
                return
            if data.draw(st.booleans()):
                a["frame_id"], b["frame_id"] = b["frame_id"], a["frame_id"]
            else:
                b["frame_id"] = a["frame_id"]
    elif kind == "bbox_edge":
        bbox = number_list(detection_fields(doc, data), "bbox_2d")
        intr = doc.get("intrinsics", {})
        if bbox and len(bbox) == 4 and isinstance(intr, dict):
            w, h = (plain_number(intr.get("width"), 640), plain_number(intr.get("height"), 480))
            k, value = data.draw(st.sampled_from([
                (2, w), (3, h), (0, 0), (1, 0), (0, -0.0), (2, float(w)),
                (2, math.nextafter(w, math.inf)), (3, math.nextafter(h, math.inf)),
                (0, math.nextafter(0.0, -1.0)), (1, -5e-324), (2, bbox[0]), (3, bbox[1]),
                (0, bbox[2]), (2, w + 1)]), label="edge")
            bbox[k] = value
    elif kind == "rotation":
        fr = frame_fields(doc, data)
        if fr is not None:
            target = data.draw(st.sampled_from([ORTHO_TOL, ORTHO_TOL / 2]))
            scales = data.draw(st.sampled_from(probe_scales(target, data.draw(
                st.sampled_from(["ortho", "det"])))), label="scales")
            fr["pose_c2w"] = scaled_pose(scales)
    elif kind == "far_camera":
        pose = number_list(frame_fields(doc, data), "pose_c2w")
        if pose and len(pose) == 16:
            pose[data.draw(st.sampled_from([3, 7, 11]))] = data.draw(st.sampled_from(
                [MAX_COORD, -MAX_COORD, math.nextafter(MAX_COORD, math.inf), -1e160, 1e308]),
                label="position")
    else:
        pose = number_list(frame_fields(doc, data), "pose_c2w")
        if pose and len(pose) == 16:
            k = data.draw(st.integers(12, 15))
            step = data.draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.0000001, 2.0]))
            pose[k] = plain_number(pose[k], float(k == 15)) + step * ORTHO_TOL


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_documents_match_the_walker(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASE_DOCS), label="base"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        mutate(doc, data)
    new = outcome(frame_metadata_from_dict, doc)
    with np.errstate(all="ignore"):
        assert new == reference_outcome(doc)
