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
by ``geometry.MAX_COORD``, like box centres and scene extents. This
loader is the one place that checks a pose. It checks each value once, as
masks over one (F, 4, 4) pose stack and one (N, 4) bbox stack, and names
the first failure from them; a missing key, a wrong type, an id out of
order or a number that is not finite goes to the per-field walker, which
names that field. The frames are read-only views into the stacks. The
rotation checks take R^T R and det R entrywise over the stack, summed in
the fixed order of the ``geometry`` docstring (``_gram``, ``_det``), so no
BLAS or LAPACK kernel can move a verdict at ``ORTHO_TOL``.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from itertools import chain

import numpy as np

from .errors import EmptyAfterFiltering, InputError, SchemaViolation
from .frozen import Frozen, set_field
from .geometry import MAX_COORD, ORTHO_TOL, OrientedBox3, quat_from_yaw
from .ply_io import LabeledPointCloud

DEFAULT_MIN_POINTS = 50
# Sorted instance ids compared at a time when the box fit looks for the
# ends of each instance's run.
_SCAN_ROWS = 1 << 14


class Intrinsics(Frozen):
    """Pinhole intrinsics in pixels, with the image size."""

    __slots__ = _fields = ("fx", "fy", "cx", "cy", "width", "height")

    def __init__(self, fx: float, fy: float, cx: float, cy: float, width: int, height: int):
        if fx <= 0 or fy <= 0:
            raise ValueError("focal lengths must be positive")
        if width <= 0 or height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= cx <= width and 0 <= cy <= height):
            raise ValueError("principal point must lie within the image")
        set_field(self, "fx", fx)
        set_field(self, "fy", fy)
        set_field(self, "cx", cx)
        set_field(self, "cy", cy)
        set_field(self, "width", width)
        set_field(self, "height", height)


class ObjectInstance(Frozen):
    __slots__ = _fields = ("instance_id", "category", "box")

    def __init__(self, instance_id: int, category: str, box: OrientedBox3):
        set_field(self, "instance_id", instance_id)
        set_field(self, "category", category)
        set_field(self, "box", box)


class SceneMetadata(Frozen):
    """``scene_extents`` is (min, max), two (3,) arrays; ``objects`` a tuple
    of ObjectInstance."""

    __slots__ = _fields = ("scene_id", "scene_extents", "room_center", "category_counts",
                           "objects")

    def __init__(self, scene_id: str, scene_extents: tuple, room_center: np.ndarray,
                 category_counts: dict, objects: tuple):
        set_field(self, "scene_id", scene_id)
        set_field(self, "scene_extents", scene_extents)
        set_field(self, "room_center", room_center)
        set_field(self, "category_counts", category_counts)
        set_field(self, "objects", objects)


class CameraFrame(Frozen):
    """``rotation`` is the (3, 3) camera-to-world rotation and ``position``
    the (3,) camera center in world coordinates, both read-only;
    ``visible_objects`` is a tuple of (instance_id, bbox_2d (4,) array)."""

    __slots__ = _fields = ("frame_id", "rotation", "position", "color_path", "depth_path",
                           "visible_objects")

    def __init__(self, frame_id: int, rotation: np.ndarray, position: np.ndarray,
                 color_path: str, depth_path: str, visible_objects: tuple):
        set_field(self, "frame_id", frame_id)
        set_field(self, "rotation", rotation)
        set_field(self, "position", position)
        set_field(self, "color_path", color_path)
        set_field(self, "depth_path", depth_path)
        set_field(self, "visible_objects", visible_objects)


class FrameMetadata(Frozen):
    """``frames`` is a tuple of CameraFrame, frame_id strictly increasing."""

    __slots__ = _fields = ("scene_id", "intrinsics", "frames")

    def __init__(self, scene_id: str, intrinsics: Intrinsics, frames: tuple):
        set_field(self, "scene_id", scene_id)
        set_field(self, "intrinsics", intrinsics)
        set_field(self, "frames", frames)


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
    for name, v in (("min", lo), ("max", hi)):  # the box bound: no extent overflows
        if np.abs(v).max() > MAX_COORD:
            raise SchemaViolation(f"scene_extents.{name}",
                                  f"components must be at most {MAX_COORD:g} m")
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


def write_json(path, doc):
    """``doc`` at ``path`` as every JSON document is written: strict, sorted, indent 1."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def save_scene_metadata(path, meta: SceneMetadata):
    write_json(path, scene_metadata_to_dict(meta))


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


def _gram(rot: np.ndarray) -> np.ndarray:
    """R^T R of each rotation of an (F, 3, 3) stack, entrywise:
    ``(R0i*R0j + R1i*R1j) + R2i*R2j``."""
    p = rot[:, :, :, None] * rot[:, :, None, :]  # p[f, k, i, j] = R[k][i] R[k][j]
    return (p[:, 0] + p[:, 1]) + p[:, 2]


def _det(rot: np.ndarray) -> np.ndarray:
    """The determinant of each rotation of an (F, 3, 3) stack, by cofactors
    along the first row: ``(R00*(R11*R22 - R12*R21) - R01*(R10*R22 -
    R12*R20)) + R02*(R10*R21 - R11*R20)``."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.transpose(1, 2, 0)
    return ((r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20))
            + r02 * (r10 * r21 - r11 * r20))


def _frames(frames_doc: list, intrinsics: Intrinsics) -> tuple:
    """The capture's frames, each value checked once as a mask over the
    stacked arrays; the walker names a field _columns rejects or a non-finite number."""
    columns = _columns(frames_doc)
    if columns is None:
        _check_frames(frames_doc, intrinsics)  # raises
    ids, poses, colors, depths, visible, instance_ids, bboxes = columns
    try:
        m = np.fromiter(chain.from_iterable(poses), float, 16 * len(poses)).reshape(-1, 4, 4)
        b = np.fromiter(chain.from_iterable(bboxes), float, 4 * len(bboxes)).reshape(-1, 4)
    except OverflowError:  # an integer too large for a float
        _check_frames(frames_doc, intrinsics)  # raises
    if not (np.isfinite(m).all() and np.isfinite(b).all()):
        _check_frames(frames_doc, intrinsics)  # raises
    rot, (x0, y0, x1, y1) = m[:, :3, :3], b.T
    with np.errstate(all="ignore"):  # an overflow fails its check, as does inf - inf
        ortho = ~(np.abs(_gram(rot) - np.eye(3)).max(axis=(1, 2)) <= ORTHO_TOL)
        det = ~(np.abs(_det(rot) - 1.0) <= ORTHO_TOL)
    checks = (  # (mask, field, message): per frame in field order, then per detection
        (np.abs(m[:, 3] - np.array([0.0, 0.0, 0.0, 1.0])).max(axis=1) > ORTHO_TOL,
         "pose.rotation", "pose matrix last row must be (0, 0, 0, 1)"),
        (ortho, "pose.rotation", "rotation is not orthonormal"),
        (det, "pose.rotation", "rotation determinant is not +1"),
        (np.abs(m[:, :3, 3]).max(axis=1) > MAX_COORD,  # no camera distance overflows
         "pose_c2w", f"camera position components must be at most {MAX_COORD:g} m"),
        ((x0 >= x1) | (y0 >= y1), "bbox_2d", "empty or inverted box"),  # all finite here
        ((x0 < 0) | (y0 < 0) | (x1 > intrinsics.width) | (y1 > intrinsics.height),
         "bbox_2d", "box exceeds image bounds"))
    pose = checks[0][0] | checks[1][0] | checks[2][0] | checks[3][0]
    bbox = checks[4][0] | checks[5][0]
    if pose.any() or bbox.any():  # raise the first failure in document order
        i = int(pose.argmax()) if pose.any() else len(pose)
        d = int(bbox.argmax()) if bbox.any() else len(bbox)
        f = int(np.searchsorted(np.cumsum(list(map(len, visible))), d, side="right"))  # d's frame
        if i <= f:
            at, check = f"frames[{i}]", next(c for c in checks[:4] if c[0][i])
        else:
            at = f"frames[{f}].visible_objects[{d - sum(map(len, visible[:f]))}]"
            check = next(c for c in checks[4:] if c[0][d])
        raise SchemaViolation(f"{at}.{check[1]}", check[2])
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
    """Raise SchemaViolation naming the first field that _columns rejects or
    that is not a finite number, once _frames has checked the part before it."""
    prev_id, i, sound = None, 0, None  # sound: this frame's part found sound
    try:
        for i, fr in enumerate(frames_doc):
            path, sound = f"frames[{i}]", None
            frame_id = _integer(_require(fr, "frame_id", path), f"{path}.frame_id")
            if prev_id is not None and frame_id <= prev_id:
                raise SchemaViolation(f"{path}.frame_id", "frame ids must strictly increase")
            prev_id = frame_id

            # every entry is finite (_number checks it)
            _vec(_require(fr, "pose_c2w", path), 16, f"{path}.pose_c2w")
            sound = {**fr, "color_path": "-", "depth_path": "-", "visible_objects": []}
            _string(_require(fr, "color_path", path), f"{path}.color_path")
            _string(_require(fr, "depth_path", path), f"{path}.depth_path")

            vis_doc = _require(fr, "visible_objects", path)
            if not isinstance(vis_doc, list):
                raise SchemaViolation(f"{path}.visible_objects", "expected a list")
            for j, v in enumerate(vis_doc):
                vpath = f"{path}.visible_objects[{j}]"
                _integer(_require(v, "instance_id", vpath), f"{vpath}.instance_id")
                _vec(_require(v, "bbox_2d", vpath), 4, f"{vpath}.bbox_2d")
                sound["visible_objects"].append(v)
    except SchemaViolation:
        _frames(frames_doc[:i] + ([sound] if sound else []), intrinsics)  # raises for a bad value
        raise


def load_frame_metadata(path) -> FrameMetadata:
    with open(path, "r", encoding="utf-8") as fh:
        return frame_metadata_from_dict(json.load(fh))


# the JSON name of each type that json.loads returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def iter_jsonl(path, parse, on_header=None):
    """Yield ``parse(doc)`` per non-blank line of a JSONL file, reading one
    line at a time; the value of a ``{"_header": ...}`` line goes to
    ``on_header`` instead, if given. A line that is not JSON, lacks a field or
    fails ``parse`` raises InputError naming path:line. Once the file is
    read, a header's ``record_count`` (the last header's, if several have
    one) must equal the number of other lines, or InputError names the file
    and both counts: the file was cut short or added to. A ``record_count``
    that is not a non-negative int (a bool is none) is an InputError too, as
    is a line whose value is not a JSON object."""
    want, seen = None, 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise InputError(f"{path}:{lineno}: expected a JSON object, "
                                     f"got {_JSON_TYPES[type(doc)]}")
                if "_header" in doc:
                    header = doc["_header"]
                    if on_header is not None:
                        on_header(header)
                    if isinstance(header, dict) and "record_count" in header:
                        want = header["record_count"]
                        if isinstance(want, bool) or not isinstance(want, int) or want < 0:
                            raise InputError(f"{path}:{lineno}: the header's record_count "
                                             f"is {want!r}, not a non-negative integer")
                    continue
                item = parse(doc)
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing field {exc}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            seen += 1
            yield item
    if want is not None and want != seen:
        raise InputError(f"{path}: the header's record_count is {want!r}, but the file "
                         f"holds {seen} record(s)")


def read_jsonl(path, parse):
    """(``{"_header": ...}`` value or None, [parse(doc) per other non-blank
    line]) of a JSONL file, read by iter_jsonl."""
    headers = []
    items = list(iter_jsonl(path, parse, headers.append))
    return (headers[-1] if headers else None), items


# --- instance boxes from labeled points --------------------------------------

def _runs(labels, order):
    """(ids, starts, counts) of the runs of equal values in
    ``labels[order]``, as np.unique(labels[order], return_index=True,
    return_counts=True) gives them for sorted labels, without a copy of the
    sorted labels: they are compared _SCAN_ROWS at a time."""
    n = len(order)
    bounds = [0]
    for first in range(0, n, _SCAN_ROWS):
        block = labels[order[first:first + _SCAN_ROWS + 1]]  # one past, to see a run end
        bounds += (np.flatnonzero(block[1:] != block[:-1]) + first + 1).tolist()
    bounds.append(n)
    starts = np.array(bounds[:-1], dtype=np.intp)
    return labels[order[starts]], starts, np.diff(bounds)


def _extents(*columns) -> tuple:
    """``(lo, hi)`` of an (N, k) array given as its k 1-D columns: the
    per-column min and max, as the array's axis-0 reduction gives them. A
    1-D reduction, fastest over a contiguous column, takes a fraction of the
    time of the axis-0 one, whose inner loop runs over the k values of one
    row. The two break a tie between 0.0 and -0.0 differently, so when any
    extremum is zero the axis-0 reduction over the stacked columns gives
    both extents."""
    lo = np.array([col.min() for col in columns])
    hi = np.array([col.max() for col in columns])
    if lo.all() and hi.all():
        return lo, hi
    stacked = np.stack(columns, axis=1)
    return stacked.min(axis=0), stacked.max(axis=0)


def derive_instance_boxes(cloud: LabeledPointCloud, label_map: dict,
                          min_points: int = DEFAULT_MIN_POINTS,
                          oriented: bool = False):
    """Fit one box per instance id with at least ``min_points`` points;
    returns (instances in increasing id order, number of ids dropped).

    The points are grouped once: a stable sort of the instance ids makes
    each instance's point indices one contiguous slice of the sort order, in
    file order, so the grouping costs O(N log N) for N points however many
    instances there are. The sort order is the one per-point array the fit
    keeps (8 bytes a point); the rest is per instance.

    ``label_map`` maps semantic label ids to category names; an instance's
    category comes from the majority semantic label of its points, the
    smallest such id on a tie (ids not in the map become "class_<id>").
    Boxes are axis-aligned min/max fits by default; with ``oriented=True`` a
    PCA-derived yaw (rotation about +Z only) is removed before fitting. The
    min and max are taken over each instance's x, y and z as contiguous 1-D
    columns (with a yaw, the unrotated x and y), not by an axis-0 reduction
    over its (n, 3) points; only when an extremum is zero, where the two
    could keep different signs of zero, is the axis-0 reduction used.

    Raises EmptyAfterFiltering when no instance survives.
    """
    order = np.argsort(cloud.instance_labels, kind="stable")
    ids, starts, counts = _runs(cloud.instance_labels, order)
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
            x, y, z = pts.T.copy()
            lo, hi = _extents(c * x - s * y, s * x + c * y, z)
            center_local = (lo + hi) / 2.0
            center = np.array([np.cos(yaw) * center_local[0] - np.sin(yaw) * center_local[1],
                               np.sin(yaw) * center_local[0] + np.cos(yaw) * center_local[1],
                               center_local[2]])
        else:
            lo, hi = _extents(*pts.T.copy())
            center = (lo + hi) / 2.0
            quat = np.array([1.0, 0.0, 0.0, 0.0])

        size = np.maximum(hi - lo, 1e-6)  # avoid zero extents on planar blobs
        instances.append(ObjectInstance(inst_id, category, OrientedBox3(center, size, quat)))

    if not instances:
        raise EmptyAfterFiltering(
            f"no instance has at least {min_points} points")
    return instances, len(ids) - len(instances)


def build_scene_metadata(scene_id: str, objects, points) -> SceneMetadata:
    """Assemble SceneMetadata from fitted instances (ingest plumbing): the
    extents are those of the (N, 3) cloud ``points``, and the room center is
    their midpoint."""
    objects = tuple(objects)
    lo, hi = _extents(*points.T)
    counts = dict(Counter(o.category for o in objects))
    return SceneMetadata(scene_id, (lo, hi), (lo + hi) / 2.0, counts, objects)
