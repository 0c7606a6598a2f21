"""Independent brute-force oracles used to verify generated answers.

Everything here deliberately avoids the package's own geometry paths:
rotations go through scipy, box distances through surface sampling with a
k-d tree plus local grid refinement, camera transforms through explicit
4x4 matrix inversion. The ``reference_*`` functions are the exception: they
keep former implementations verbatim, or restate the fixed-order float
formulas of ``sceneqa.geometry`` as plain loops, so faster code can be
checked bit for bit against them. The ``former_*`` functions keep the BLAS
geometry those formulas replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.transform import Rotation

from sceneqa.cli import task_generators
from sceneqa.errors import (
    DegenerateDirection,
    EmptyAfterFiltering,
    MalformedHeader,
    NoNearbyObject,
    SchemaViolation,
    TruncatedBody,
    UnsupportedEncoding,
)
from sceneqa.geometry import MAX_COORD, ORTHO_TOL, OrientedBox3, quat_from_yaw
from sceneqa.graph import build_graph
from sceneqa.metadata import (
    DEFAULT_MIN_POINTS,
    CameraFrame,
    FrameMetadata,
    Intrinsics,
    ObjectInstance,
    _integer,
    _number,
    _require,
    _string,
    _vec,
    load_scene_metadata,
)
from sceneqa.ply_io import (
    _INSTANCE_NAMES,
    _SCALAR_TYPES,
    _SEMANTIC_NAMES,
    LabeledPointCloud,
    _cast_column,
    _Element,
    _vertex_element,
    parse_ply,
)
from sceneqa.qa_records import TASK_ORDER, TASKS, record_to_dict
from sceneqa.route_plan import load_trajectories

DIST_ABS_TOL = 0.05 + 2e-2 + 1e-9   # rounding half-step + sampling slack
EXACT_NA_TOL = 0.05 + 1e-9          # rounding half-step only


def rot_from_quat_wxyz(q) -> np.ndarray:
    w, x, y, z = q
    return Rotation.from_quat([x, y, z, w]).as_matrix()


def box_surface_samples(box, per_side: int = 41):
    """Grid-sample all six faces; returns (points, face_ids, uv, half)."""
    half = np.asarray(box.size, dtype=float) / 2.0
    rot = rot_from_quat_wxyz(box.rotation)
    center = np.asarray(box.center, dtype=float)
    pts, faces, uvs = [], [], []
    face = 0
    for axis in range(3):
        u_axis, v_axis = [a for a in range(3) if a != axis]
        u = np.linspace(-half[u_axis], half[u_axis], per_side)
        v = np.linspace(-half[v_axis], half[v_axis], per_side)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        for sign in (-1.0, 1.0):
            local = np.zeros((per_side * per_side, 3))
            local[:, axis] = sign * half[axis]
            local[:, u_axis] = uu.ravel()
            local[:, v_axis] = vv.ravel()
            pts.append(local @ rot.T + center)
            faces.append(np.full(len(local), face))
            uvs.append(np.column_stack([uu.ravel(), vv.ravel()]))
            face += 1
    return np.concatenate(pts), np.concatenate(faces), np.concatenate(uvs), half


def _face_patch(box, face: int, uv_center, du, per_side: int = 21):
    """Dense samples of one face around uv_center with half-width du."""
    half = np.asarray(box.size, dtype=float) / 2.0
    rot = rot_from_quat_wxyz(box.rotation)
    axis, sign = face // 2, (-1.0, 1.0)[face % 2]
    u_axis, v_axis = [a for a in range(3) if a != axis]
    u = np.linspace(max(-half[u_axis], uv_center[0] - du),
                    min(half[u_axis], uv_center[0] + du), per_side)
    v = np.linspace(max(-half[v_axis], uv_center[1] - du),
                    min(half[v_axis], uv_center[1] + du), per_side)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    local = np.zeros((per_side * per_side, 3))
    local[:, axis] = sign * half[axis]
    local[:, u_axis] = uu.ravel()
    local[:, v_axis] = vv.ravel()
    return local @ rot.T + np.asarray(box.center, dtype=float)


def points_inside_box(points, box, atol: float = 1e-12) -> np.ndarray:
    rot = rot_from_quat_wxyz(box.rotation)
    local = (np.atleast_2d(points) - np.asarray(box.center, dtype=float)) @ rot
    return np.all(np.abs(local) <= np.asarray(box.size) / 2.0 + atol, axis=1)


def oracle_point_box_distance(p, box, per_side: int = 41,
                              refine_rounds: int = 2) -> float:
    """Point-to-solid-box distance by surface sampling with local refinement."""
    p = np.asarray(p, dtype=float)
    if points_inside_box(p, box)[0]:
        return 0.0
    pts, faces, uvs, _ = box_surface_samples(box, per_side)
    dists = np.linalg.norm(pts - p, axis=1)
    i = int(np.argmin(dists))
    best = float(dists[i])
    face, uv = int(faces[i]), uvs[i]
    du = float(np.max(box.size)) / (per_side - 1)
    rot = rot_from_quat_wxyz(box.rotation)
    u_axes = [ax for ax in range(3) if ax != face // 2]
    for _ in range(refine_rounds):
        patch = _face_patch(box, face, uv, du)
        d = np.linalg.norm(patch - p, axis=1)
        j = int(np.argmin(d))
        if float(d[j]) < best:
            best = float(d[j])
        uv = ((patch[j] - np.asarray(box.center, dtype=float)) @ rot)[u_axes]
        du /= 10.0
    return best


def oracle_box_box_distance(a, b, per_side: int = 19, refine_rounds: int = 2) -> float:
    """Solid box-to-box distance by pairwise surface sampling.

    Coarse grids feed a k-d tree nearest-pair query; the winning faces are
    then locally re-gridded around the best pair, shrinking the cell each
    round. Overlapping solids are detected by point containment and return 0.
    """
    pa, fa, uva, _ = box_surface_samples(a, per_side)
    pb, fb, uvb, _ = box_surface_samples(b, per_side)
    if (points_inside_box(a.center, b)[0] or points_inside_box(b.center, a)[0]
            or np.any(points_inside_box(pa, b)) or np.any(points_inside_box(pb, a))):
        return 0.0

    dist, idx_b = cKDTree(pb).query(pa)
    ia = int(np.argmin(dist))
    best = float(dist[ia])
    face_a, uv_a = int(fa[ia]), uva[ia]
    ib = int(idx_b[ia])
    face_b, uv_b = int(fb[ib]), uvb[ib]

    du_a = float(np.max(a.size)) / (per_side - 1)
    du_b = float(np.max(b.size)) / (per_side - 1)
    for _ in range(refine_rounds):
        patch_a = _face_patch(a, face_a, uv_a, du_a)
        patch_b = _face_patch(b, face_b, uv_b, du_b)
        d, j = cKDTree(patch_b).query(patch_a)
        i = int(np.argmin(d))
        if float(d[i]) < best:
            best = float(d[i])
        # recentre the patches on the new best pair
        rot_a = rot_from_quat_wxyz(a.rotation)
        rot_b = rot_from_quat_wxyz(b.rotation)
        local_a = (patch_a[i] - a.center) @ rot_a
        local_b = (patch_b[int(j[i])] - b.center) @ rot_b
        ua = [ax for ax in range(3) if ax != face_a // 2]
        ub = [ax for ax in range(3) if ax != face_b // 2]
        uv_a = local_a[ua]
        uv_b = local_b[ub]
        du_a /= 10.0
        du_b /= 10.0
    return best


def hull_area_xy(points) -> float:
    pts = np.asarray(points, dtype=float)[:, :2]
    return float(ConvexHull(pts).volume)  # 2D "volume" is the area


def _reference_hull(points: np.ndarray) -> np.ndarray | None:
    """The former hull of ``qa_spatial.convex_hull_area_xy``, kept verbatim:
    a monotone chain over every unique point. Its vertices, in order, or
    None for fewer than 3 unique points."""
    pts = np.unique(np.asarray(points, dtype=float)[:, :2], axis=0)
    if len(pts) < 3:
        return None
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2 and cross2(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def reference_hull_area_xy(points: np.ndarray) -> float:
    """The area over the full chain, the shoelace as one ``math.fsum`` of
    the products x_k y_k+1 and -(y_k x_k+1). The culled hull must return the
    same float bits, so the cull must keep the hull vertices as they were."""
    hull = _reference_hull(points)
    if hull is None:
        return 0.0
    x, y = hull[:, 0].tolist(), hull[:, 1].tolist()
    n = len(x)
    products = []
    for k in range(n):
        products.append(x[k] * y[(k + 1) % n])
        products.append(-(y[k] * x[(k + 1) % n]))
    return abs(math.fsum(products)) / 2.0


def former_hull_area_xy(points: np.ndarray) -> float:
    """The former BLAS shoelace over the same hull: two ``np.dot`` calls."""
    hull = _reference_hull(points)
    if hull is None:
        return 0.0
    x, y = hull[:, 0], hull[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


def reference_derive_instance_boxes(cloud, label_map: dict,
                                    min_points: int = DEFAULT_MIN_POINTS,
                                    oriented: bool = False):
    """The former ``metadata.derive_instance_boxes``, kept verbatim: one
    boolean mask over the whole cloud per instance id. The one-sort grouping
    must fit the same boxes, bit for bit."""
    instances = []
    for inst_id in np.unique(cloud.instance_labels):
        mask = cloud.instance_labels == inst_id
        if int(mask.sum()) < min_points:
            continue
        pts = cloud.positions[mask]
        sem = cloud.semantic_labels[mask]
        ids, freq = np.unique(sem, return_counts=True)
        majority = int(ids[np.argmax(freq)])
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
        instances.append(ObjectInstance(int(inst_id), category, OrientedBox3(center, size, quat)))

    if not instances:
        raise EmptyAfterFiltering(
            f"no instance has at least {min_points} points")
    return instances


def reference_scene_extents(points):
    """The former extents of ``metadata.build_scene_metadata``, kept
    verbatim: one axis-0 min and max over the (N, 3) points. A tie between
    0.0 and -0.0 keeps the sign this reduction gives."""
    return points.min(axis=0), points.max(axis=0)


# --- the geometry path's fixed-order formulas, the bitwise reference -----------
#
# sceneqa.geometry computes every value in the fixed order its module
# docstring writes down. The references below restate those formulas as
# index loops over plain Python floats, with no call into the package's
# geometry, and the current code must return the same float bits. The
# ``former_*`` functions keep the BLAS implementations the formulas
# replaced (``@`` products and ``np.linalg.norm``); the tests bound how far
# the two ever drift apart.

REFERENCE_STEP_TOL = 1e-7
REFERENCE_MAX_PROJECTION_ITERS = 200

_REFERENCE_CORNER_SIGNS = np.array([
    [-1, -1, -1], [+1, -1, -1], [-1, +1, -1], [+1, +1, -1],
    [-1, -1, +1], [+1, -1, +1], [-1, +1, +1], [+1, +1, +1],
], dtype=float)


def _reference_as_vec3(v, name="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components")
    return a


def reference_quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _reference_half_size(box):
    return box.size / 2.0


def reference_norm(v) -> float:
    """sqrt of the squares summed left to right: ((x*x + y*y) + z*z) ..."""
    v = [float(x) for x in v]
    total = v[0] * v[0]
    for k in range(1, len(v)):
        total = total + v[k] * v[k]
    return math.sqrt(total)


def _reference_transposed_apply(rotation, t, p) -> list:
    """l_j = (R[0][j]*d0 + R[1][j]*d1) + R[2][j]*d2 with d = p - t."""
    r, t, p = np.asarray(rotation, dtype=float).tolist(), list(t), list(p)
    d = [p[i] - t[i] for i in range(3)]
    out = []
    for j in range(3):
        acc = r[0][j] * d[0]
        for i in range(1, 3):
            acc = acc + r[i][j] * d[i]
        out.append(acc)
    return out


def _reference_to_local(box, p) -> list:
    return _reference_transposed_apply(reference_quat_to_matrix(box.rotation),
                                       box.center.tolist(), p)


def _reference_to_world(box, p_local) -> list:
    """w_i = ((R[i][0]*l0 + R[i][1]*l1) + R[i][2]*l2) + c_i."""
    r, c = reference_quat_to_matrix(box.rotation).tolist(), box.center.tolist()
    out = []
    for i in range(3):
        acc = r[i][0] * p_local[0]
        for j in range(1, 3):
            acc = acc + r[i][j] * p_local[j]
        out.append(acc + c[i])
    return out


def reference_corners(box) -> np.ndarray:
    half = _reference_half_size(box).tolist()
    return np.array([_reference_to_world(box, [sign[j] * half[j] for j in range(3)])
                     for sign in _REFERENCE_CORNER_SIGNS.tolist()])


def reference_world_to_camera(p, rotation, translation) -> np.ndarray:
    p = _reference_as_vec3(p, "point").tolist()
    return np.array(_reference_transposed_apply(rotation, np.asarray(translation).tolist(), p))


def _reference_closest(p, box) -> list:
    """Local, clamp with min(max(l, -h), h), back to world; p a float list."""
    half = _reference_half_size(box).tolist()
    local = _reference_to_local(box, p)
    clamped = [min(max(local[j], -half[j]), half[j]) for j in range(3)]
    return _reference_to_world(box, clamped)


def _reference_distance(p, q) -> float:
    return reference_norm([p[i] - q[i] for i in range(3)])


def reference_closest_point_on_box(p, box):
    p = _reference_as_vec3(p, "point").tolist()
    point = _reference_closest(p, box)
    return np.array(point), _reference_distance(p, point)


def _reference_box_sort_key(box):
    return tuple(box.center) + tuple(box.size) + tuple(box.rotation)


def _reference_projections(a, b) -> tuple:
    """Alternating projections as box_box_distance runs them: (distance,
    iterations run), the iterations equal to the cap when it stops there."""
    if _reference_box_sort_key(b) < _reference_box_sort_key(a):
        a, b = b, a
    p = _reference_closest(b.center.tolist(), a)
    iters = REFERENCE_MAX_PROJECTION_ITERS
    for k in range(REFERENCE_MAX_PROJECTION_ITERS):
        p_next = _reference_closest(_reference_closest(p, b), a)
        if _reference_distance(p_next, p) < REFERENCE_STEP_TOL:
            p, iters = p_next, k + 1
            break
        p = p_next
    return _reference_distance(p, _reference_closest(p, b)), iters


def reference_box_box_distance(a, b) -> float:
    return _reference_projections(a, b)[0]


def reference_projection_iters(a, b) -> int:
    """Iterations reference_box_box_distance runs on a pair; equal to
    REFERENCE_MAX_PROJECTION_ITERS when it stops at the cap."""
    return _reference_projections(a, b)[1]


def former_world_to_camera(p, rotation, translation) -> np.ndarray:
    """The former BLAS world_to_camera of one point: R^T (p - t) as ``@``."""
    return rotation.T @ (_reference_as_vec3(p, "point") - translation)


def former_closest_point_on_box(p, box):
    """The former BLAS closest_point_on_box: ``@`` products, np.clip and
    np.linalg.norm."""
    p = _reference_as_vec3(p, "point")
    rot = reference_quat_to_matrix(box.rotation)
    local = rot.T @ (p - box.center)
    clamped = np.clip(local, -_reference_half_size(box), _reference_half_size(box))
    point = rot @ clamped + box.center
    return point, float(np.linalg.norm(p - point))


def former_box_box_distance(a, b) -> float:
    """The former BLAS box_box_distance, on former_closest_point_on_box."""
    if _reference_box_sort_key(b) < _reference_box_sort_key(a):
        a, b = b, a
    p, _ = former_closest_point_on_box(b.center, a)
    for _ in range(REFERENCE_MAX_PROJECTION_ITERS):
        q, _ = former_closest_point_on_box(p, b)
        p_next, _ = former_closest_point_on_box(q, a)
        if np.linalg.norm(p_next - p) < REFERENCE_STEP_TOL:
            p = p_next
            break
        p = p_next
    _, dist = former_closest_point_on_box(p, b)
    return dist


def reference_box_error(center, size, rotation) -> str | None:
    """The message of the first OrientedBox3 check the former constructor
    failed, in its order, or None when it accepted the box."""
    try:
        c = _reference_as_vec3(center, "center").copy()
        s = _reference_as_vec3(size, "size").copy()
        q = np.array(rotation, dtype=float)
        if (s <= 0).any():
            raise ValueError("size components must be strictly positive")
        if (np.abs(c) > MAX_COORD).any() or (s > MAX_COORD).any():
            raise ValueError(f"center and size components must be at most {MAX_COORD:g} m")
        if q.shape != (4,):
            raise ValueError(f"rotation quaternion must have shape (4,), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("rotation quaternion has non-finite components")
        if abs(reference_norm(q) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation quaternion is not unit norm")
    except ValueError as exc:
        return str(exc)
    return None


def reference_box_key(box) -> tuple:
    """The former OrientedBox3 sort key, from the arrays' own tolist."""
    return tuple(box.center.tolist() + box.size.tolist() + box.rotation.tolist())


def reference_planar_signed_angle(from_dir, to_dir) -> float:
    """planar_signed_angle: numpy scalar arithmetic on the first two
    components, the degeneracy norms in the fixed order."""
    u = from_dir[:2]
    v = to_dir[:2]
    if reference_norm(u) < 1e-9:
        raise DegenerateDirection("from_dir has no floor-plane component")
    if reference_norm(v) < 1e-9:
        raise DegenerateDirection("to_dir has no floor-plane component")
    ang = math.degrees(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]))
    if ang >= 180.0:
        ang -= 360.0
    return ang


def reference_trajectory_waypoints(waypoints):
    """The former Trajectory checks: the (m, 3) waypoints it kept, or the
    message it raised."""
    w = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if w.shape[1] == 2:
        w = np.column_stack([w, np.zeros(len(w))])
    if w.shape[1] != 3:
        return f"waypoints must be (m, 3), got {w.shape}"
    if not np.all(np.abs(w) <= MAX_COORD):
        return f"waypoints must be finite and within {MAX_COORD:g} m"
    steps = np.linalg.norm(np.diff(w, axis=0), axis=1)
    if np.any(steps <= 1e-6):
        return "consecutive waypoints must be more than 1e-6 m apart"
    return w


def reference_object_in_camera(g, frame_id, instance_id) -> np.ndarray:
    fr = g.frame(frame_id)
    obj = g.object(instance_id)
    corners = reference_corners(obj.box)
    return np.stack([reference_world_to_camera(c, fr.rotation, fr.position) for c in corners])


def former_object_in_camera(g, frame_id, instance_id) -> np.ndarray:
    """The former BLAS corners, ``local @ R^T + c``, each mapped by
    former_world_to_camera."""
    fr = g.frame(frame_id)
    box = g.object(instance_id).box
    local = _REFERENCE_CORNER_SIGNS * _reference_half_size(box)
    corners = local @ reference_quat_to_matrix(box.rotation).T + box.center
    return np.stack([former_world_to_camera(c, fr.rotation, fr.position) for c in corners])


def reference_label_anchors(route, g, max_anchor_dist_m):
    """The former ``route_plan.label_anchors``: ``min`` over the scene objects
    per anchor, so the first of equally near objects wins."""
    if not g.scene.objects:
        raise NoNearbyObject("scene has no objects")
    labels = []
    used = []
    for anchor in route.anchors:
        best = min(
            g.scene.objects,
            key=lambda o: reference_norm(o.box.center[:2] - anchor[:2]),
        )
        dist = reference_norm(best.box.center[:2] - anchor[:2])
        if dist > max_anchor_dist_m:
            raise NoNearbyObject(f"nearest object is {dist:.2f} m away")
        if best.instance_id in used:
            raise NoNearbyObject(f"two anchors share instance {best.instance_id}")
        used.append(best.instance_id)
        labels.append(best.category)
    return tuple(labels)


def _reference_pose_from_matrix(m):
    """The former ``Pose.from_matrix`` and ``Pose.__post_init__`` checks;
    returns the (rotation, translation) a Pose held."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"pose matrix must be 4x4, got {m.shape}")
    if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > ORTHO_TOL:
        raise ValueError("pose matrix last row must be (0, 0, 0, 1)")
    r = np.asarray(m[:3, :3], dtype=float)
    t = _reference_as_vec3(m[:3, 3], "translation")
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("rotation has non-finite entries")
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
        raise ValueError("rotation determinant is not +1")
    return r, t


def reference_frame_metadata_from_dict(doc):
    """The former frame-metadata loader: every field checked one by one,
    every pose through the former ``Pose.from_matrix`` checks."""
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

    frames_doc = _require(doc, "frames", "")
    if not isinstance(frames_doc, list):
        raise SchemaViolation("frames", "expected a list")
    frames = []
    prev_id = None
    for i, fr in enumerate(frames_doc):
        path = f"frames[{i}]"
        frame_id = _integer(_require(fr, "frame_id", path), f"{path}.frame_id")
        if prev_id is not None and frame_id <= prev_id:
            raise SchemaViolation(f"{path}.frame_id", "frame ids must strictly increase")
        prev_id = frame_id

        raw = _vec(_require(fr, "pose_c2w", path), 16, f"{path}.pose_c2w")
        try:
            rotation, translation = _reference_pose_from_matrix(raw.reshape(4, 4))
        except ValueError as exc:
            raise SchemaViolation(f"{path}.pose.rotation", str(exc)) from None

        color_path = _string(_require(fr, "color_path", path), f"{path}.color_path")
        depth_path = _string(_require(fr, "depth_path", path), f"{path}.depth_path")

        vis_doc = _require(fr, "visible_objects", path)
        if not isinstance(vis_doc, list):
            raise SchemaViolation(f"{path}.visible_objects", "expected a list")
        visible = []
        for j, v in enumerate(vis_doc):
            vpath = f"{path}.visible_objects[{j}]"
            vid = _integer(_require(v, "instance_id", vpath), f"{vpath}.instance_id")
            bbox = _vec(_require(v, "bbox_2d", vpath), 4, f"{vpath}.bbox_2d")
            xmin, ymin, xmax, ymax = bbox
            if not (xmin < xmax and ymin < ymax):
                raise SchemaViolation(f"{vpath}.bbox_2d", "empty or inverted box")
            if xmin < 0 or ymin < 0 or xmax > intrinsics.width or ymax > intrinsics.height:
                raise SchemaViolation(f"{vpath}.bbox_2d", "box exceeds image bounds")
            visible.append((vid, bbox))
        frames.append(CameraFrame(frame_id, rotation, translation, color_path, depth_path,
                                  tuple(visible)))

    return FrameMetadata(scene_id, intrinsics, tuple(frames))


# --- the former whole-file PLY reader ----------------------------------------------

def _reference_parse_header(blob: bytes):
    """Parse header lines; returns (format, elements, body offset)."""
    end = blob.find(b"end_header\n")
    if end < 0:
        raise MalformedHeader("missing end_header", offset=len(blob))
    body_offset = end + len(b"end_header\n")
    lines = blob[:end].decode("ascii", errors="replace").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedHeader("missing 'ply' magic", offset=0)

    fmt = None
    elements = []
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            offset += len(line) + 1
            continue
        kind = tokens[0]
        if kind == "format":
            if len(tokens) != 3:
                raise MalformedHeader(f"bad format line: {line!r}", offset=offset)
            if tokens[1] == "binary_big_endian":
                raise UnsupportedEncoding("binary_big_endian is not supported", offset=offset)
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise MalformedHeader(f"unknown format {tokens[1]!r}", offset=offset)
            fmt = tokens[1]
        elif kind == "element":
            if len(tokens) != 3:
                raise MalformedHeader(f"bad element line: {line!r}", offset=offset)
            try:
                count = int(tokens[2])
            except ValueError:
                raise MalformedHeader(f"bad element count: {line!r}", offset=offset) from None
            if count < 0:
                raise MalformedHeader(f"negative element count: {line!r}", offset=offset)
            elements.append(_Element(tokens[1], count))
        elif kind == "property":
            if not elements:
                raise MalformedHeader("property before any element", offset=offset)
            if tokens[1:2] == ["list"]:
                if len(tokens) != 5:
                    raise MalformedHeader(f"bad list property: {line!r}", offset=offset)
                elements[-1].has_list = True
                elements[-1].properties.append((tokens[4], None))
            else:
                if len(tokens) != 3:
                    raise MalformedHeader(f"bad property line: {line!r}", offset=offset)
                np_type = _SCALAR_TYPES.get(tokens[1])
                if np_type is None:
                    raise MalformedHeader(f"unknown property type {tokens[1]!r}", offset=offset)
                elements[-1].properties.append((tokens[2], "<" + np_type))
        else:
            raise MalformedHeader(f"unexpected header line: {line!r}", offset=offset)
        offset += len(line) + 1

    if fmt is None:
        raise MalformedHeader("header has no format line", offset=body_offset)
    return fmt, elements, body_offset


def _reference_read_binary_vertices(blob, body_offset, before, count, dtype):
    offset = body_offset
    for el in before:
        if el.has_list:
            raise UnsupportedEncoding(
                f"cannot skip list-typed element {el.name!r} before vertex", offset=offset)
        row = sum(np.dtype(t).itemsize for _, t in el.properties)
        offset += row * el.count
    need = dtype.itemsize * count
    if len(blob) - offset < need:
        raise TruncatedBody(
            f"vertex element needs {need} bytes, file has {len(blob) - offset}",
            offset=len(blob))
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset)


def _reference_read_ascii_vertices(blob, body_offset, before, count, dtype):
    """The vertex block decoded one line of the blob at a time. The first
    line that is not one row is named by its row, counted from 0: a value
    that does not decode as its property's type or a short row is
    MalformedHeader, a blank line or the end of the body TruncatedBody."""
    lines = blob[body_offset:].split(b"\n")
    if lines[-1] == b"":  # the newline that ends the last line
        lines.pop()
    lines = lines[sum(el.count for el in before):]
    rows = []
    with warnings.catch_warnings():
        # a blank line decodes to no row, and loadtxt warns of that
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        for row, line in enumerate(lines[:count]):
            try:
                table = np.loadtxt([line], dtype=dtype, comments=None,
                                   usecols=range(len(dtype)), ndmin=1)
            except ValueError:
                tokens = line.decode("latin-1").split()
                for name, token in zip(dtype.names, tokens):
                    try:
                        np.loadtxt([token], dtype=dtype.fields[name][0], comments=None)
                    except ValueError:
                        raise MalformedHeader(
                            f"vertex element: property {name!r} holds {token!r} in row "
                            f"{row}, not a {dtype.fields[name][0].name} value") from None
                raise MalformedHeader(f"vertex element: row {row} does not split into "
                                      f"{len(dtype)} values") from None
            if len(table) == 0:
                break
            rows.append(table)
    if len(rows) < count:
        raise TruncatedBody(
            f"vertex element declares {count} rows, body holds {len(rows)}",
            offset=len(blob))
    return np.concatenate(rows) if rows else np.zeros(0, dtype=dtype)


def _reference_int_column(table, aliases):
    for name in aliases:
        if name in table.dtype.names:
            return _cast_column(table, name, np.int64)
    return np.zeros(len(table), dtype=np.int64)


def reference_parse_ply(path) -> LabeledPointCloud:
    """The former ``parse_ply``: the whole file read into one bytes blob,
    then parsed from it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fmt, elements, body_offset = _reference_parse_header(blob)
    v_idx, vertex = _vertex_element(elements)
    if vertex.has_list:
        raise UnsupportedEncoding("list-typed vertex properties are not supported",
                                  offset=body_offset)
    try:
        dtype = np.dtype(vertex.properties)
    except ValueError as exc:
        raise MalformedHeader(f"vertex element: {exc}") from None
    for axis in ("x", "y", "z"):
        if axis not in dtype.names:
            raise MalformedHeader(f"vertex element lacks property {axis!r}")

    read = (_reference_read_binary_vertices if fmt == "binary_little_endian"
            else _reference_read_ascii_vertices)
    table = read(blob, body_offset, elements[:v_idx], vertex.count, dtype)

    positions = np.stack([table["x"], table["y"], table["z"]], axis=1).astype(np.float64)
    colors = np.zeros((len(table), 3), dtype=np.uint8)
    if all(c in dtype.names for c in ("red", "green", "blue")):
        colors = np.stack([_cast_column(table, c, np.uint8) for c in ("red", "green", "blue")],
                          axis=1)
    try:
        return LabeledPointCloud(positions, colors, _reference_int_column(table, _SEMANTIC_NAMES),
                                 _reference_int_column(table, _INSTANCE_NAMES))
    except ValueError as exc:
        raise MalformedHeader(f"vertex element: {exc}") from None


def reference_rng(seed, scene_id: str, task: str, *parts) -> np.random.Generator:
    """The former TaskRecords.rng: the digest's words reach SeedSequence as a
    list of Python ints."""
    name = ":".join([str(seed), scene_id, task, *map(str, parts)])
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words.tolist())))


def reference_visibility(scene, frames, min_area) -> tuple:
    """The former build_graph filter, one detection at a time with numpy
    scalars: (visibility, first_seen)."""
    visibility, first_seen = {}, {}
    for fr in frames.frames:
        kept = set()
        for instance_id, bbox in fr.visible_objects:
            if (bbox[2] - bbox[0]) * (bbox[3] - bbox[1]) >= min_area:
                kept.add(instance_id)
                first_seen.setdefault(instance_id, fr.frame_id)
        visibility[fr.frame_id] = frozenset(kept)
    return visibility, first_seen


def _reference_dump_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _reference_scene_records(inputs, cfg, tasks) -> list:
    scene = load_scene_metadata(inputs.scene_path)
    with open(inputs.frames_path, "r", encoding="utf-8") as fh:
        frames = reference_frame_metadata_from_dict(json.load(fh))
    cloud = None
    if "room_size" in tasks and inputs.cloud_path:
        cloud = parse_ply(inputs.cloud_path)
    trajectories = ()
    if "route_plan" in tasks and inputs.trajectories_path:
        trajectories = [t for sid, t in load_trajectories(inputs.trajectories_path)
                        if sid == scene.scene_id]
    ctx = build_graph(scene, frames, cfg.min_bbox_area_px, cfg.sample_frames, cloud,
                      trajectories)
    generators = task_generators()
    return [rec for task in TASKS if task in tasks for rec in generators[task](ctx, cfg)]


def reference_write_records(path, scene_inputs, cfg, tasks):
    """The former gen write path: the QaRecords of every scene gathered in
    one list, stable-sorted by (scene_id, task order, qid), then one
    ``json.dumps`` per line after the header."""
    records = [rec for inp in scene_inputs for rec in _reference_scene_records(inp, cfg, tasks)]
    records.sort(key=lambda r: (r.scene_id, TASK_ORDER[r.task], r.qid))
    header = {"config": dataclasses.asdict(cfg), "tasks": list(tasks),
              "record_count": len(records)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_reference_dump_line({"_header": header}))
        for rec in records:
            fh.write(_reference_dump_line(record_to_dict(rec)))


# --- record re-derivation ------------------------------------------------------

def _camera_frame(frames, frame_id):
    for fr in frames.frames:
        if fr.frame_id == frame_id:
            return fr
    raise AssertionError(f"frame {frame_id} missing from metadata")


def _world_to_cam_via_inverse(points, frame) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = frame.rotation
    m[:3, 3] = frame.position
    inv = np.linalg.inv(m)
    pts = np.atleast_2d(points)
    hom = np.column_stack([pts, np.ones(len(pts))])
    return (hom @ inv.T)[:, :3]


def _corners_independent(box) -> np.ndarray:
    half = np.asarray(box.size, dtype=float) / 2.0
    rot = rot_from_quat_wxyz(box.rotation)
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return (signs * half) @ rot.T + np.asarray(box.center, dtype=float)


def _first_seen_by_category(scene, frames, min_area):
    cat_of = {o.instance_id: o.category for o in scene.objects}
    first = {}
    for fr in frames.frames:
        for vid, bbox in fr.visible_objects:
            if (bbox[2] - bbox[0]) * (bbox[3] - bbox[1]) < min_area:
                continue
            cat = cat_of[vid]
            if cat not in first:
                first[cat] = fr.frame_id
    return first


def verify_record(rec, scene, frames, cfg, cloud=None) -> str | None:
    """Re-derive one record's ground truth by brute force.

    Returns None when the record checks out, otherwise a description of the
    mismatch. Uses only record metadata (instance ids, frame refs) plus the
    raw scene and frame metadata.
    """
    objs = {o.instance_id: o for o in scene.objects}
    gt = rec.ground_truth

    if rec.task == "obj_count":
        count = sum(1 for o in scene.objects if o.category == rec.meta["category"])
        return None if str(count) == gt else f"count {count} != {gt}"

    if rec.task == "abs_dist":
        a, b = (objs[i] for i in rec.meta["pair"])
        want = oracle_box_box_distance(a.box, b.box)
        ok = abs(float(gt) - want) <= DIST_ABS_TOL
        return None if ok else f"distance {want:.4f} vs {gt}"

    if rec.task == "rel_dist":
        target = objs[rec.meta["target"]].box
        cands = [objs[i] for i in rec.meta["candidates"]]
        dists = [oracle_box_box_distance(target, c.box) for c in cands]
        winner = cands[int(np.argmin(dists))].category
        return None if winner == gt else f"winner {winner} != {gt}"

    if rec.task == "rel_dir":
        a = objs[rec.meta["standing_at"]].box.center
        b = objs[rec.meta["facing"]].box.center
        c = objs[rec.meta["query"]].box.center
        fwd = complex(b[0] - a[0], b[1] - a[1])
        rel = complex(c[0] - a[0], c[1] - a[1])
        theta = float(np.degrees(np.angle(rel / fwd)))
        if cfg.rel_dir_front_deg < theta < cfg.rel_dir_back_deg:
            bucket = "left"
        elif -cfg.rel_dir_back_deg < theta < -cfg.rel_dir_front_deg:
            bucket = "right"
        elif abs(theta) >= cfg.rel_dir_back_deg:
            bucket = "back"
        else:
            bucket = "front"
        return None if bucket == gt else f"bucket {bucket} != {gt} (theta {theta:.2f})"

    if rec.task == "obj_size":
        box = objs[rec.meta["instance"]].box
        want = float(max(box.size)) * 100.0
        ok = abs(float(gt) - want) <= 0.5 + 1e-9
        return None if ok else f"size {want:.2f} cm vs {gt}"

    if rec.task == "room_size":
        if rec.meta["method"] == "convex_hull":
            want = hull_area_xy(cloud.positions)
        else:
            lo, hi = scene.scene_extents
            want = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
        ok = abs(float(gt) - want) <= EXACT_NA_TOL
        return None if ok else f"area {want:.3f} vs {gt}"

    if rec.task == "appearance_order":
        first = _first_seen_by_category(scene, frames, cfg.min_bbox_area_px)
        cats = [c.strip() for c in gt.split(",")]
        seen = [first[c] for c in cats]
        ordered = all(seen[i] < seen[i + 1] for i in range(3))
        gaps_ok = all(seen[i + 1] - seen[i] >= cfg.appearance_gap_frames for i in range(3))
        return None if (ordered and gaps_ok and gt in rec.options) else \
            f"order {cats} has first-seen {seen}"

    if rec.task == "cam_obj_abs_dist":
        fr = _camera_frame(frames, rec.frame_refs[0])
        want = oracle_point_box_distance(fr.position, objs[rec.meta["instance"]].box)
        ok = abs(float(gt) - want) <= DIST_ABS_TOL
        return None if ok else f"distance {want:.4f} vs {gt}"

    if rec.task == "cam_obj_rel_dist":
        fr = _camera_frame(frames, rec.frame_refs[0])
        cands = [objs[i] for i in rec.meta["candidates"]]
        dists = [oracle_point_box_distance(fr.position, c.box) for c in cands]
        winner = cands[int(np.argmin(dists))].category
        return None if winner == gt else f"winner {winner} != {gt}"

    if rec.task == "obj_obj_rel_pos":
        fr = _camera_frame(frames, rec.frame_refs[0])
        a, b = (objs[i] for i in rec.meta["pair"])
        low_label, high_label = rec.meta["axis"].split("_")
        axis = {"near": 2, "left": 0, "up": 1}[low_label]
        ca = _world_to_cam_via_inverse(_corners_independent(a.box), fr)[:, axis]
        cb = _world_to_cam_via_inverse(_corners_independent(b.box), fr)[:, axis]
        if ca.max() + cfg.interval_gap_m <= cb.min():
            want = low_label
        elif cb.max() + cfg.interval_gap_m <= ca.min():
            want = high_label
        else:
            return f"intervals not separated: {ca.min():.3f}..{ca.max():.3f} vs " \
                   f"{cb.min():.3f}..{cb.max():.3f}"
        return None if want == gt else f"side {want} != {gt}"

    if rec.task == "cam_displacement":
        p1 = _camera_frame(frames, rec.frame_refs[0]).position
        p2 = _camera_frame(frames, rec.frame_refs[1]).position
        want = float(np.sqrt(((p2 - p1) ** 2).sum()))
        ok = abs(float(gt) - want) <= EXACT_NA_TOL and want >= cfg.min_displacement_m - 1e-9
        return None if ok else f"displacement {want:.4f} vs {gt}"

    if rec.task == "cam_move_dir":
        fr_i = _camera_frame(frames, rec.frame_refs[0])
        fr_j = _camera_frame(frames, rec.frame_refs[1])
        net = fr_j.position - fr_i.position
        local = np.linalg.solve(fr_i.rotation, net)
        x, z = local[0], local[2]
        if abs(z) >= cfg.dominance_ratio * abs(x) and abs(z) > 0:
            want = "Forward" if z > 0 else "Backward"
        elif abs(x) >= cfg.dominance_ratio * abs(z):
            want = "Right" if x > 0 else "Left"
        else:
            return f"no dominant axis: x={x:.3f} z={z:.3f}"
        return None if want == gt else f"direction {want} != {gt}"

    return f"no oracle for task {rec.task}"
