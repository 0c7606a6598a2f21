"""The five frame- and sequence-level temporal question families.

All scenes are static: every temporal quantity here is a function of the
camera poses alone. Questions refer to 1-based positions within a sampled
frame sequence ("frame i of n"); record frame_refs carry the underlying
frame ids. A capture with fewer than two frames has an empty sequence, and
every generator here then emits nothing. As in ``qa_spatial``, each
generator names its task once, in the ``TaskRecords`` that numbers its
qids and draws its named RNG streams.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .geometry import point_box_distance, vector_norm
from .graph import SceneGraph, object_in_camera
from .qa_records import ANSWER_MCA, ANSWER_NA, GenConfig, TaskRecords, round_tenth


def gen_cam_obj_abs_dist(ctx: SceneGraph, cfg: GenConfig):
    """Distance from the camera to the closest box point of a visible object."""
    seq = ctx.frame_seq
    n = len(seq)
    out = TaskRecords(ctx.scene_id, "cam_obj_abs_dist", cfg)
    cases = [(pos, fid, obj)
             for pos, fid in enumerate(seq)
             for obj in ctx.unique_visible(fid)]
    for pos, fid, obj in out.select(cases):
        dist = point_box_distance(ctx.frame(fid).position, obj.box)
        if dist < cfg.min_pair_dist_m:  # camera inside or touching: degenerate
            continue
        out.add(
            ANSWER_NA,
            f"In frame {pos + 1} of {n}, approximately how far (in meters) is "
            f"the camera from the closest point of the {obj.category}?",
            round_tenth(dist),
            frame_refs=[fid],
            meta={"instance": obj.instance_id, "position": pos + 1, "of": n},
        )
    return out.records


def gen_cam_obj_rel_dist(ctx: SceneGraph, cfg: GenConfig):
    """Which of four visible candidates is closest to the camera (MCA)."""
    seq = ctx.frame_seq
    n = len(seq)
    out = TaskRecords(ctx.scene_id, "cam_obj_rel_dist", cfg)
    for pos, fid in out.until_full(enumerate(seq)):
        visible = ctx.unique_visible(fid)
        if len(visible) < 4:
            continue
        rng = out.rng(pos)
        picks = rng.choice(len(visible), size=4, replace=False).tolist()
        candidates = [visible[i] for i in picks]
        cam = ctx.frame(fid).position.tolist()
        dists = [point_box_distance(cam, c.box) for c in candidates]
        order = np.argsort(dists, kind="stable")
        if dists[order[1]] - dists[order[0]] < cfg.ambiguity_margin_m:
            continue
        options = [c.category for c in candidates]
        out.add(
            ANSWER_MCA,
            f"In frame {pos + 1} of {n}, which of these objects "
            f"({', '.join(options)}) is the closest to the camera?",
            candidates[order[0]].category, options=options,
            frame_refs=[fid],
            meta={"candidates": [c.instance_id for c in candidates],
                  "position": pos + 1, "of": n},
        )
    return out.records


# (axis index in camera coordinates, label when A's interval is lower,
#  label when A's interval is higher, question fragment)
_AXIS_RULES = (
    (2, "near", "far", "nearer to the camera or farther from it"),
    (0, "left", "right", "to the left or to the right"),
    (1, "up", "down", "above or below"),  # +Y is down: lower Y means above
)


def gen_obj_obj_rel_pos(ctx: SceneGraph, cfg: GenConfig):
    """Axis-separated relative position of two objects from the camera.

    A question is emitted only when one object's corner interval on the
    compared camera axis lies entirely beyond the other's by the configured
    gap, so the answer is unambiguous.
    """
    seq = ctx.frame_seq
    n = len(seq)
    cases = []
    for pos, fid in enumerate(seq):
        for a, b in combinations(ctx.unique_visible(fid), 2):
            for axis_idx in range(3):
                cases.append((pos, fid, a, b, axis_idx))
    out = TaskRecords(ctx.scene_id, "obj_obj_rel_pos", cfg)
    for pos, fid, a, b, axis_idx in out.select(cases):
        axis, low_label, high_label, fragment = _AXIS_RULES[axis_idx]
        ca = object_in_camera(ctx, fid, a.instance_id)[:, axis].tolist()  # max, min: exact
        cb = object_in_camera(ctx, fid, b.instance_id)[:, axis].tolist()
        if max(ca) + cfg.interval_gap_m <= min(cb):
            truth = low_label
        elif max(cb) + cfg.interval_gap_m <= min(ca):
            truth = high_label
        else:
            continue
        out.add(
            ANSWER_MCA,
            f"From the camera's viewpoint in frame {pos + 1} of {n}, is the "
            f"{a.category} {fragment} relative to the {b.category}?",
            truth, options=[low_label, high_label],
            frame_refs=[fid],
            meta={"pair": [a.instance_id, b.instance_id],
                  "axis": low_label + "_" + high_label,
                  "position": pos + 1, "of": n},
        )
    return out.records


def gen_cam_displacement(ctx: SceneGraph, cfg: GenConfig):
    """Straight-line camera travel between two sampled frames, in meters."""
    seq = ctx.frame_seq
    n = len(seq)
    out = TaskRecords(ctx.scene_id, "cam_displacement", cfg)
    positions = [ctx.frame(fid).position.tolist() for fid in seq]
    for i, j in out.select(combinations(range(n), 2)):
        dist = vector_norm([b - a for a, b in zip(positions[i], positions[j])])
        if dist < cfg.min_displacement_m:
            continue
        out.add(
            ANSWER_NA,
            f"Approximately how far (in meters) did the camera move between "
            f"frame {i + 1} and frame {j + 1} of {n}?",
            round_tenth(dist),
            frame_refs=[seq[i], seq[j]],
            meta={"positions": [i + 1, j + 1], "of": n},
        )
    return out.records


MOVE_DIR_OPTIONS = ("Forward", "Backward", "Left", "Right")


def classify_camera_motion(rotation_start: np.ndarray, displacement,
                           dominance_ratio: float):
    """Dominant planar motion direction in the starting frame's coordinates.

    The world displacement (an array or a sequence of 3 floats) is rotated
    into the start camera frame, R^T d in ``geometry``'s fixed order; the
    vertical component (+Y, pointing down) is ignored. Returns one of
    MOVE_DIR_OPTIONS, or None when neither remaining axis dominates the
    other by ``dominance_ratio``.
    """
    (r00, _, r02), (r10, _, r12), (r20, _, r22) = rotation_start.tolist()
    d0, d1, d2 = displacement.tolist() if isinstance(displacement, np.ndarray) else displacement
    x = (r00 * d0 + r10 * d1) + r20 * d2
    z = (r02 * d0 + r12 * d1) + r22 * d2
    if max(abs(x), abs(z)) < 1e-9:  # purely vertical motion
        return None
    if abs(z) >= dominance_ratio * abs(x):
        return "Forward" if z > 0 else "Backward"
    if abs(x) >= dominance_ratio * abs(z):
        return "Right" if x > 0 else "Left"
    return None


def gen_cam_move_dir(ctx: SceneGraph, cfg: GenConfig):
    """Primary direction of camera translation over a frame span (MCA)."""
    seq = ctx.frame_seq
    n = len(seq)
    out = TaskRecords(ctx.scene_id, "cam_move_dir", cfg)
    positions = [ctx.frame(fid).position.tolist() for fid in seq]
    for i, j in out.select(combinations(range(n), 2)):
        net = [b - a for a, b in zip(positions[i], positions[j])]
        if vector_norm(net) < cfg.min_displacement_m:
            continue
        direction = classify_camera_motion(ctx.frame(seq[i]).rotation, net,
                                           cfg.dominance_ratio)
        if direction is None:
            continue
        out.add(
            ANSWER_MCA,
            f"Relative to its orientation in frame {i + 1}, in which direction "
            f"did the camera mainly move between frame {i + 1} and frame "
            f"{j + 1} of {n}?",
            direction, options=list(MOVE_DIR_OPTIONS),
            frame_refs=[seq[i], seq[j]],
            meta={"positions": [i + 1, j + 1], "of": n},
        )
    return out.records


TEMPORAL_GENERATORS = {
    "cam_obj_abs_dist": gen_cam_obj_abs_dist,
    "cam_obj_rel_dist": gen_cam_obj_rel_dist,
    "obj_obj_rel_pos": gen_obj_obj_rel_pos,
    "cam_displacement": gen_cam_displacement,
    "cam_move_dir": gen_cam_move_dir,
}
