"""Scene- and frame-level metadata: schema, validation, instance-box fitting.

Two JSON documents describe a capture:

scene_metadata.json::

    {"scene_id": str,
     "scene_extents": {"min": [x,y,z], "max": [x,y,z]},
     "room_center": [x,y,z],
     "category_counts": {category: int, ...},
     "objects": [{"instance_id": int, "category": str,
                  "center": [x,y,z], "size": [x,y,z],
                  "rotation": [w,x,y,z]}, ...]}

frame_metadata.json::

    {"scene_id": str,
     "intrinsics": {"fx": px, "fy": px, "cx": px, "cy": px,
                    "width": int, "height": int},
     "frames": [{"frame_id": int,
                 "pose_c2w": [16 row-major reals, last row (0,0,0,1)],
                 "color_path": str, "depth_path": str,
                 "visible_objects": [{"instance_id": int,
                                      "bbox_2d": [xmin,ymin,xmax,ymax]}, ...]}, ...]}

Rotations are unit quaternions (w, x, y, z); poses are camera-to-world.
Parsing is strict: any violation raises SchemaViolation with the offending
field path. A saved scene document re-parses to a structurally identical
object.

A frame's camera view is a 3x3 ``rotation`` and a (3,) ``position``
(p_world = rotation @ p_cam + position); position components are bounded
by ``geometry.MAX_COORD``, like box centres. This loader is the one place
that checks a pose. It checks a whole capture in one batched pass over one
(F, 4, 4) pose stack and one (N, 4) bbox stack; a document that pass cannot
clear goes to the per-field walker, which raises naming the first bad field
or accepts it. Either way the frames are read-only views into the stacks.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptyAfterFiltering, InputError, SchemaViolation
from .geometry import MAX_COORD, ORTHO_TOL, OrientedBox3, quat_from_yaw
from .ply_io import LabeledPointCloud

DEFAULT_MIN_POINTS = 50


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie within the image")


@dataclass(frozen=True)
class ObjectInstance:
    instance_id: int
    category: str
    box: OrientedBox3


@dataclass(frozen=True)
class SceneMetadata:
    scene_id: str
    scene_extents: tuple  # (min: (3,) array, max: (3,) array)
    room_center: np.ndarray
    category_counts: dict
    objects: tuple  # of ObjectInstance


@dataclass(frozen=True)
class CameraFrame:
    frame_id: int
    rotation: np.ndarray  # (3, 3) camera-to-world rotation, read-only
    position: np.ndarray  # (3,) camera center in world coordinates, read-only
    color_path: str
    depth_path: str
    visible_objects: tuple  # of (instance_id, bbox_2d (4,) array)


@dataclass(frozen=True)
class FrameMetadata:
    scene_id: str
    intrinsics: Intrinsics
    frames: tuple  # of CameraFrame, frame_id strictly increasing


# --- strict JSON decoding helpers -------------------------------------------

def _require(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaViolation(f"{path}.{key}" if path else key, "missing field")
    return doc[key]


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        raise SchemaViolation(path, "number out of float range") from None
    if not math.isfinite(number):
        raise SchemaViolation(path, "non-finite number")
    return number


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(path, "expected an integer")
    return value


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise SchemaViolation(path, "expected a nonempty string")
    return value


def _vec(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        raise SchemaViolation(path, f"expected a list of {length} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


# --- scene metadata ----------------------------------------------------------

def scene_metadata_from_dict(doc) -> SceneMetadata:
    scene_id = _string(_require(doc, "scene_id", ""), "scene_id")

    extents_doc = _require(doc, "scene_extents", "")
    lo = _vec(_require(extents_doc, "min", "scene_extents"), 3, "scene_extents.min")
    hi = _vec(_require(extents_doc, "max", "scene_extents"), 3, "scene_extents.max")
    if np.any(lo > hi):
        raise SchemaViolation("scene_extents", "min exceeds max")
    room_center = _vec(_require(doc, "room_center", ""), 3, "room_center")

    objects_doc = _require(doc, "objects", "")
    if not isinstance(objects_doc, list):
        raise SchemaViolation("objects", "expected a list")
    objects = []
    seen_ids = set()
    for i, obj in enumerate(objects_doc):
        path = f"objects[{i}]"
        instance_id = _integer(_require(obj, "instance_id", path), f"{path}.instance_id")
        if instance_id in seen_ids:
            raise SchemaViolation(f"{path}.instance_id", "duplicate instance id")
        seen_ids.add(instance_id)
        category = _string(_require(obj, "category", path), f"{path}.category")
        center = _vec(_require(obj, "center", path), 3, f"{path}.center")
        size = _vec(_require(obj, "size", path), 3, f"{path}.size")
        rotation = _vec(_require(obj, "rotation", path), 4, f"{path}.rotation")
        try:
            box = OrientedBox3(center, size, rotation)
        except ValueError as exc:
            raise SchemaViolation(path, str(exc)) from None
        objects.append(ObjectInstance(instance_id, category, box))

    counts_doc = _require(doc, "category_counts", "")
    if not isinstance(counts_doc, dict):
        raise SchemaViolation("category_counts", "expected a mapping")
    declared = {k: _integer(v, f"category_counts.{k}") for k, v in counts_doc.items()}
    if declared != dict(Counter(obj.category for obj in objects)):
        raise SchemaViolation("category_counts", "inconsistent with objects list")

    return SceneMetadata(scene_id, (lo, hi), room_center, declared, tuple(objects))


def scene_metadata_to_dict(meta: SceneMetadata) -> dict:
    return {
        "scene_id": meta.scene_id,
        "scene_extents": {"min": list(meta.scene_extents[0]),
                          "max": list(meta.scene_extents[1])},
        "room_center": list(meta.room_center),
        "category_counts": {k: meta.category_counts[k] for k in sorted(meta.category_counts)},
        "objects": [
            {"instance_id": o.instance_id,
             "category": o.category,
             "center": list(o.box.center),
             "size": list(o.box.size),
             "rotation": list(o.box.rotation)}
            for o in meta.objects
        ],
    }


def load_scene_metadata(path) -> SceneMetadata:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_metadata_from_dict(json.load(fh))


def save_scene_metadata(path, meta: SceneMetadata):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_metadata_to_dict(meta), fh, sort_keys=True, indent=1)
        fh.write("\n")


# --- frame metadata ----------------------------------------------------------

def frame_metadata_from_dict(doc) -> FrameMetadata:
    scene_id = _string(_require(doc, "scene_id", ""), "scene_id")

    intr_doc = _require(doc, "intrinsics", "")
    try:
        intrinsics = Intrinsics(
            fx=_number(_require(intr_doc, "fx", "intrinsics"), "intrinsics.fx"),
            fy=_number(_require(intr_doc, "fy", "intrinsics"), "intrinsics.fy"),
            cx=_number(_require(intr_doc, "cx", "intrinsics"), "intrinsics.cx"),
            cy=_number(_require(intr_doc, "cy", "intrinsics"), "intrinsics.cy"),
            width=_integer(_require(intr_doc, "width", "intrinsics"), "intrinsics.width"),
            height=_integer(_require(intr_doc, "height", "intrinsics"), "intrinsics.height"),
        )
    except ValueError as exc:
        raise SchemaViolation("intrinsics", str(exc)) from None

    for key in ("width", "height"):  # range-checked: bboxes are compared with them as floats
        _number(getattr(intrinsics, key), f"intrinsics.{key}")

    frames_doc = _require(doc, "frames", "")
    if not isinstance(frames_doc, list):
        raise SchemaViolation("frames", "expected a list")
    return FrameMetadata(scene_id, intrinsics, _frames(frames_doc, intrinsics))


def _all_instances(values, kinds) -> bool:
    """Whether every value is an instance of ``kinds`` and none is a bool,
    as the walker's isinstance checks test them."""
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, kinds) for t in types)


def _columns(frames_doc: list):
    """(frame ids, poses, color paths, depth paths, per-frame detections,
    instance ids, bboxes), or None when one of the walker's type, key,
    length, order or path checks fails."""
    if not _all_instances(frames_doc, dict):
        return None
    try:
        ids = [fr["frame_id"] for fr in frames_doc]
        poses = [fr["pose_c2w"] for fr in frames_doc]
        colors = [fr["color_path"] for fr in frames_doc]
        depths = [fr["depth_path"] for fr in frames_doc]
        visible = [fr["visible_objects"] for fr in frames_doc]
        if not _all_instances(poses + visible, list):
            return None
        detections = [d for vis in visible for d in vis]
        if not _all_instances(detections, dict):
            return None
        instance_ids = [d["instance_id"] for d in detections]
        bboxes = [d["bbox_2d"] for d in detections]
    except KeyError:
        return None
    paths = colors + depths
    # bboxes must be lists before their lengths and values are read
    if not (_all_instances(ids + instance_ids, int)
            and all(map(operator.lt, ids, ids[1:]))
            and _all_instances(paths, str) and all(paths)
            and _all_instances(bboxes, list)
            and set(map(len, poses)) <= {16} and set(map(len, bboxes)) <= {4}
            and _all_instances(chain.from_iterable(poses + bboxes), (int, float))):
        return None
    return ids, poses, colors, depths, visible, instance_ids, bboxes


def _frames(frames_doc: list, intrinsics: Intrinsics) -> tuple:
    """The capture's frames, checked in one pass over its stacked arrays.

    The array checks are the walker's, except that a rotation clears only
    when its batched orthonormality and determinant errors are at most
    ORTHO_TOL / 2, so that the walker's per-matrix expressions, which may
    round differently, are within ORTHO_TOL too. Otherwise the walker runs.
    """
    columns = _columns(frames_doc)
    if columns is None:
        _check_frames(frames_doc, intrinsics)  # raises
    ids, poses, colors, depths, visible, instance_ids, bboxes = columns
    try:
        with np.errstate(all="ignore"):
            m = np.fromiter(chain.from_iterable(poses), float, 16 * len(poses)).reshape(-1, 4, 4)
            b = np.fromiter(chain.from_iterable(bboxes), float, 4 * len(bboxes)).reshape(-1, 4)
            rot = m[:, :3, :3]
            ortho_err = np.abs(np.matmul(rot.transpose(0, 2, 1), rot) - np.eye(3)).max(axis=(1, 2))
            det_err = np.abs(np.linalg.det(rot) - 1.0)
            cleared = (np.isfinite(m).all() and np.isfinite(b).all()
                       and (np.abs(m[:, 3] - np.array([0.0, 0.0, 0.0, 1.0])).max(axis=1)
                            <= ORTHO_TOL).all()
                       and (ortho_err <= ORTHO_TOL / 2).all() and (det_err <= ORTHO_TOL / 2).all()
                       and (np.abs(m[:, :3, 3]) <= MAX_COORD).all()
                       and ((b[:, 0] < b[:, 2]) & (b[:, 1] < b[:, 3])).all()
                       and ((b[:, 0] >= 0) & (b[:, 1] >= 0) & (b[:, 2] <= intrinsics.width)
                            & (b[:, 3] <= intrinsics.height)).all())
    except OverflowError:  # an integer too large for a float
        _check_frames(frames_doc, intrinsics)  # raises
    if not cleared:
        _check_frames(frames_doc, intrinsics)
    m.flags.writeable = False
    b.flags.writeable = False
    rows = list(b)
    frames, start = [], 0
    for frame_id, rot, t, color_path, depth_path, vis in zip(
            ids, m[:, :3, :3], m[:, :3, 3], colors, depths, visible):
        stop = start + len(vis)
        frames.append(CameraFrame(frame_id, rot, t, color_path, depth_path,
                                  tuple(zip(instance_ids[start:stop], rows[start:stop]))))
        start = stop
    return tuple(frames)


def _check_frames(frames_doc: list, intrinsics: Intrinsics):
    """Check the capture's frames field by field; raises SchemaViolation
    naming the first bad field, and returns only when every field is valid."""
    prev_id = None
    for i, fr in enumerate(frames_doc):
        path = f"frames[{i}]"
        frame_id = _integer(_require(fr, "frame_id", path), f"{path}.frame_id")
        if prev_id is not None and frame_id <= prev_id:
            raise SchemaViolation(f"{path}.frame_id", "frame ids must strictly increase")
        prev_id = frame_id

        # every entry is finite (_number checks it); then the pose checks
        m = _vec(_require(fr, "pose_c2w", path), 16, f"{path}.pose_c2w").reshape(4, 4)
        r = m[:3, :3]
        pose_path = f"{path}.pose.rotation"
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > ORTHO_TOL:
            raise SchemaViolation(pose_path, "pose matrix last row must be (0, 0, 0, 1)")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
            raise SchemaViolation(pose_path, "rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
            raise SchemaViolation(pose_path, "rotation determinant is not +1")
        if np.abs(m[:3, 3]).max() > MAX_COORD:  # the box bound: no camera distance overflows
            raise SchemaViolation(f"{path}.pose_c2w", "camera position components must be "
                                                      f"at most {MAX_COORD:g} m")

        _string(_require(fr, "color_path", path), f"{path}.color_path")
        _string(_require(fr, "depth_path", path), f"{path}.depth_path")

        vis_doc = _require(fr, "visible_objects", path)
        if not isinstance(vis_doc, list):
            raise SchemaViolation(f"{path}.visible_objects", "expected a list")
        for j, v in enumerate(vis_doc):
            vpath = f"{path}.visible_objects[{j}]"
            _integer(_require(v, "instance_id", vpath), f"{vpath}.instance_id")
            xmin, ymin, xmax, ymax = _vec(_require(v, "bbox_2d", vpath), 4, f"{vpath}.bbox_2d")
            if not (xmin < xmax and ymin < ymax):
                raise SchemaViolation(f"{vpath}.bbox_2d", "empty or inverted box")
            if xmin < 0 or ymin < 0 or xmax > intrinsics.width or ymax > intrinsics.height:
                raise SchemaViolation(f"{vpath}.bbox_2d", "box exceeds image bounds")


def load_frame_metadata(path) -> FrameMetadata:
    with open(path, "r", encoding="utf-8") as fh:
        return frame_metadata_from_dict(json.load(fh))


def iter_jsonl(path, parse, on_header=None):
    """Yield ``parse(doc)`` per non-blank line of a JSONL file, reading one
    line at a time; the value of a ``{"_header": ...}`` line goes to
    ``on_header`` instead, if given. A line that is not JSON, lacks a field or
    fails ``parse`` raises InputError naming path:line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                doc = json.loads(line)
                if "_header" in doc:
                    header = doc["_header"]  # a line that is not an object fails here
                    if on_header is not None:
                        on_header(header)
                    continue
                item = parse(doc)
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing field {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            yield item


def read_jsonl(path, parse):
    """(``{"_header": ...}`` value or None, [parse(doc) per other non-blank
    line]) of a JSONL file, read by iter_jsonl."""
    headers = []
    items = list(iter_jsonl(path, parse, headers.append))
    return (headers[-1] if headers else None), items


# --- instance boxes from labeled points --------------------------------------

def derive_instance_boxes(cloud: LabeledPointCloud, label_map: dict,
                          min_points: int = DEFAULT_MIN_POINTS,
                          oriented: bool = False):
    """Fit one box per instance id with at least ``min_points`` points;
    returns (instances in increasing id order, number of ids dropped).

    The points are grouped once: a stable sort of the instance ids makes
    each instance's point indices one contiguous slice of the sort order, in
    file order, so the grouping costs O(N log N) for N points however many
    instances there are.

    ``label_map`` maps semantic label ids to category names; an instance's
    category comes from the majority semantic label of its points, the
    smallest such id on a tie (ids not in the map become "class_<id>").
    Boxes are axis-aligned min/max fits by default; with ``oriented=True`` a
    PCA-derived yaw (rotation about +Z only) is removed before fitting.

    Raises EmptyAfterFiltering when no instance survives.
    """
    order = np.argsort(cloud.instance_labels, kind="stable")
    ids, starts, counts = np.unique(cloud.instance_labels[order],
                                    return_index=True, return_counts=True)
    instances = []
    for inst_id, start, n in zip(ids.tolist(), starts.tolist(), counts.tolist()):
        if n < min_points:
            continue
        rows = order[start:start + n]
        pts = cloud.positions[rows]
        labels, freq = np.unique(cloud.semantic_labels[rows], return_counts=True)
        majority = int(labels[np.argmax(freq)])
        category = label_map.get(majority, f"class_{majority}")

        if oriented:
            xy = pts[:, :2] - pts[:, :2].mean(axis=0)
            cov = xy.T @ xy
            _, vecs = np.linalg.eigh(cov)
            major = vecs[:, -1]  # eigh sorts ascending
            yaw = float(np.arctan2(major[1], major[0]))
            quat = quat_from_yaw(yaw)
            c, s = np.cos(-yaw), np.sin(-yaw)
            unrot = pts.copy()
            unrot[:, 0] = c * pts[:, 0] - s * pts[:, 1]
            unrot[:, 1] = s * pts[:, 0] + c * pts[:, 1]
            lo, hi = unrot.min(axis=0), unrot.max(axis=0)
            center_local = (lo + hi) / 2.0
            center = np.array([np.cos(yaw) * center_local[0] - np.sin(yaw) * center_local[1],
                               np.sin(yaw) * center_local[0] + np.cos(yaw) * center_local[1],
                               center_local[2]])
        else:
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            center = (lo + hi) / 2.0
            quat = np.array([1.0, 0.0, 0.0, 0.0])

        size = np.maximum(hi - lo, 1e-6)  # avoid zero extents on planar blobs
        instances.append(ObjectInstance(inst_id, category, OrientedBox3(center, size, quat)))

    if not instances:
        raise EmptyAfterFiltering(
            f"no instance has at least {min_points} points")
    return instances, len(ids) - len(instances)


def build_scene_metadata(scene_id: str, objects, points=None) -> SceneMetadata:
    """Assemble SceneMetadata from fitted instances (ingest plumbing).

    Extents come from the point cloud when given, otherwise from the union
    of box corners; room center is the extents midpoint.
    """
    objects = tuple(objects)
    if points is not None and len(points):
        lo, hi = points.min(axis=0), points.max(axis=0)
    else:
        corners = np.concatenate([o.box.corners() for o in objects], axis=0)
        lo, hi = corners.min(axis=0), corners.max(axis=0)
    counts = dict(Counter(o.category for o in objects))
    return SceneMetadata(scene_id, (lo, hi), (lo + hi) / 2.0, counts, objects)
