"""Independent brute-force oracles used to verify generated answers.

Everything here deliberately avoids the package's own geometry paths:
rotations go through scipy, box distances through surface sampling with a
k-d tree plus local grid refinement, camera transforms through explicit
4x4 matrix inversion. The ``reference_*`` functions are the exception: they
keep former implementations verbatim, so faster code can be checked bit
for bit against them.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.transform import Rotation

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


def reference_hull_area_xy(points: np.ndarray) -> float:
    """The former ``qa_spatial.convex_hull_area_xy``, kept verbatim: a
    monotone chain over every unique point + shoelace. The culled hull must
    return the same float bits."""
    pts = np.unique(np.asarray(points, dtype=float)[:, :2], axis=0)
    if len(pts) < 3:
        return 0.0
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
    hull = np.array(lower[:-1] + upper[:-1])
    x, y = hull[:, 0], hull[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


# --- the former geometry path, kept verbatim as the bitwise reference ---------
#
# Before boxes derived their matrices once and the hot loops skipped
# re-validation, sceneqa.geometry computed these exactly as below. The
# current code must return the same float bits.

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


def _reference_to_local(box, p):
    return reference_quat_to_matrix(box.rotation).T @ (_reference_as_vec3(p, "point") - box.center)


def _reference_to_world(box, p_local):
    return reference_quat_to_matrix(box.rotation) @ np.asarray(p_local, dtype=float) + box.center


def reference_corners(box) -> np.ndarray:
    local = _REFERENCE_CORNER_SIGNS * _reference_half_size(box)
    return local @ reference_quat_to_matrix(box.rotation).T + box.center


def reference_world_to_camera(p, pose) -> np.ndarray:
    return pose.rotation.T @ (_reference_as_vec3(p, "point") - pose.translation)


def reference_closest_point_on_box(p, box):
    p = _reference_as_vec3(p, "point")
    local = _reference_to_local(box, p)
    clamped = np.clip(local, -_reference_half_size(box), _reference_half_size(box))
    point = _reference_to_world(box, clamped)
    return point, float(np.linalg.norm(p - point))


def _reference_box_sort_key(box):
    return tuple(box.center) + tuple(box.size) + tuple(box.rotation)


def reference_box_box_distance(a, b) -> float:
    if _reference_box_sort_key(b) < _reference_box_sort_key(a):
        a, b = b, a
    p, _ = reference_closest_point_on_box(b.center, a)
    for _ in range(REFERENCE_MAX_PROJECTION_ITERS):
        q, _ = reference_closest_point_on_box(p, b)
        p_next, _ = reference_closest_point_on_box(q, a)
        if np.linalg.norm(p_next - p) < REFERENCE_STEP_TOL:
            p = p_next
            break
        p = p_next
    _, dist = reference_closest_point_on_box(p, b)
    return dist


def reference_projection_iters(a, b) -> int:
    """Iterations reference_box_box_distance runs on a pair; equal to
    REFERENCE_MAX_PROJECTION_ITERS when it stops at the cap."""
    if _reference_box_sort_key(b) < _reference_box_sort_key(a):
        a, b = b, a
    p, _ = reference_closest_point_on_box(b.center, a)
    for k in range(REFERENCE_MAX_PROJECTION_ITERS):
        q, _ = reference_closest_point_on_box(p, b)
        p_next, _ = reference_closest_point_on_box(q, a)
        if np.linalg.norm(p_next - p) < REFERENCE_STEP_TOL:
            return k + 1
        p = p_next
    return REFERENCE_MAX_PROJECTION_ITERS


def reference_object_in_camera(g, frame_id, instance_id) -> np.ndarray:
    fr = g.frame(frame_id)
    obj = g.object(instance_id)
    corners = reference_corners(obj.box)
    return np.stack([reference_world_to_camera(c, fr.pose) for c in corners])


# --- record re-derivation ------------------------------------------------------

def _camera_pose_by_frame(frames, frame_id):
    for fr in frames.frames:
        if fr.frame_id == frame_id:
            return fr.pose
    raise AssertionError(f"frame {frame_id} missing from metadata")


def _world_to_cam_via_inverse(points, pose) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
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
        pose = _camera_pose_by_frame(frames, rec.frame_refs[0])
        want = oracle_point_box_distance(pose.translation, objs[rec.meta["instance"]].box)
        ok = abs(float(gt) - want) <= DIST_ABS_TOL
        return None if ok else f"distance {want:.4f} vs {gt}"

    if rec.task == "cam_obj_rel_dist":
        pose = _camera_pose_by_frame(frames, rec.frame_refs[0])
        cands = [objs[i] for i in rec.meta["candidates"]]
        dists = [oracle_point_box_distance(pose.translation, c.box) for c in cands]
        winner = cands[int(np.argmin(dists))].category
        return None if winner == gt else f"winner {winner} != {gt}"

    if rec.task == "obj_obj_rel_pos":
        pose = _camera_pose_by_frame(frames, rec.frame_refs[0])
        a, b = (objs[i] for i in rec.meta["pair"])
        low_label, high_label = rec.meta["axis"].split("_")
        axis = {"near": 2, "left": 0, "up": 1}[low_label]
        ca = _world_to_cam_via_inverse(_corners_independent(a.box), pose)[:, axis]
        cb = _world_to_cam_via_inverse(_corners_independent(b.box), pose)[:, axis]
        if ca.max() + cfg.interval_gap_m <= cb.min():
            want = low_label
        elif cb.max() + cfg.interval_gap_m <= ca.min():
            want = high_label
        else:
            return f"intervals not separated: {ca.min():.3f}..{ca.max():.3f} vs " \
                   f"{cb.min():.3f}..{cb.max():.3f}"
        return None if want == gt else f"side {want} != {gt}"

    if rec.task == "cam_displacement":
        p1 = _camera_pose_by_frame(frames, rec.frame_refs[0]).translation
        p2 = _camera_pose_by_frame(frames, rec.frame_refs[1]).translation
        want = float(np.sqrt(((p2 - p1) ** 2).sum()))
        ok = abs(float(gt) - want) <= EXACT_NA_TOL and want >= cfg.min_displacement_m - 1e-9
        return None if ok else f"displacement {want:.4f} vs {gt}"

    if rec.task == "cam_move_dir":
        pose_i = _camera_pose_by_frame(frames, rec.frame_refs[0])
        pose_j = _camera_pose_by_frame(frames, rec.frame_refs[1])
        net = pose_j.translation - pose_i.translation
        local = np.linalg.solve(pose_i.rotation, net)
        x, z = local[0], local[2]
        if abs(z) >= cfg.dominance_ratio * abs(x) and abs(z) > 0:
            want = "Forward" if z > 0 else "Backward"
        elif abs(x) >= cfg.dominance_ratio * abs(z):
            want = "Right" if x > 0 else "Left"
        else:
            return f"no dominant axis: x={x:.3f} z={z:.3f}"
        return None if want == gt else f"direction {want} != {gt}"

    return f"no oracle for task {rec.task}"
