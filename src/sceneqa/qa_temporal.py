"""The five frame- and sequence-level temporal question families.

All scenes are static: every temporal quantity here is a function of the
camera poses alone. Questions refer to 1-based positions within a sampled
frame sequence ("frame i of n"); record frame_refs carry the underlying
frame ids. A capture with fewer than two frames has an empty sequence, and
every generator here then emits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import closest_point_on_box, vector_norm
from .graph import SceneContext, camera_position
from .qa_records import (
    ANSWER_MCA,
    ANSWER_NA,
    GenConfig,
    make_record,
    rng_stream,
    round_tenth,
    subsample,
)


@dataclass(frozen=True)
class FramePairSpec:
    """1-based positions of a frame pair within the sampled sequence."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not 1 <= self.i < self.j <= self.n:
            raise ValueError(f"need 1 <= i < j <= n, got ({self.i}, {self.j}, {self.n})")


def gen_cam_obj_abs_dist(ctx: SceneContext, cfg: GenConfig):
    """Distance from the camera to the closest box point of a visible object."""
    g, seq = ctx.graph, ctx.frame_seq
    n = len(seq)
    cases = [(pos, fid, obj)
             for pos, fid in enumerate(seq)
             for obj in ctx.unique_visible(fid)]
    cases = subsample(cases, cfg.max_per_task,
                      rng_stream(cfg.seed, ctx.scene_id, "cam_obj_abs_dist", "select"))
    records = []
    for pos, fid, obj in cases:
        _, dist = closest_point_on_box(camera_position(g, fid), obj.box)
        if dist < cfg.min_pair_dist_m:  # camera inside or touching: degenerate
            continue
        records.append(make_record(
            ctx.scene_id, "cam_obj_abs_dist", len(records), ANSWER_NA,
            f"In frame {pos + 1} of {n}, approximately how far (in meters) is "
            f"the camera from the closest point of the {obj.category}?",
            round_tenth(dist),
            frame_refs=[fid],
            meta={"instance": obj.instance_id, "position": pos + 1, "of": n},
        ))
    return records


def gen_cam_obj_rel_dist(ctx: SceneContext, cfg: GenConfig):
    """Which of four visible candidates is closest to the camera (MCA)."""
    g, seq = ctx.graph, ctx.frame_seq
    n = len(seq)
    records = []
    for pos, fid in enumerate(seq):
        if len(records) >= cfg.max_per_task:
            break
        visible = ctx.unique_visible(fid)
        if len(visible) < 4:
            continue
        rng = rng_stream(cfg.seed, ctx.scene_id, "cam_obj_rel_dist", pos)
        picks = rng.choice(len(visible), size=4, replace=False).tolist()
        candidates = [visible[i] for i in picks]
        cam = camera_position(g, fid)
        dists = [closest_point_on_box(cam, c.box)[1] for c in candidates]
        order = np.argsort(dists, kind="stable")
        if dists[order[1]] - dists[order[0]] < cfg.ambiguity_margin_m:
            continue
        options = [c.category for c in candidates]
        records.append(make_record(
            ctx.scene_id, "cam_obj_rel_dist", len(records), ANSWER_MCA,
            f"In frame {pos + 1} of {n}, which of these objects "
            f"({', '.join(options)}) is the closest to the camera?",
            candidates[order[0]].category, options=options,
            frame_refs=[fid],
            meta={"candidates": [c.instance_id for c in candidates],
                  "position": pos + 1, "of": n},
        ))
    return records


# (axis index in camera coordinates, label when A's interval is lower,
#  label when A's interval is higher, question fragment)
_AXIS_RULES = (
    (2, "near", "far", "nearer to the camera or farther from it"),
    (0, "left", "right", "to the left or to the right"),
    (1, "up", "down", "above or below"),  # +Y is down: lower Y means above
)


def gen_obj_obj_rel_pos(ctx: SceneContext, cfg: GenConfig):
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
    cases = subsample(cases, cfg.max_per_task,
                      rng_stream(cfg.seed, ctx.scene_id, "obj_obj_rel_pos", "select"))
    records = []
    for pos, fid, a, b, axis_idx in cases:
        axis, low_label, high_label, fragment = _AXIS_RULES[axis_idx]
        ca = ctx.corners_in_camera(fid, a.instance_id)[:, axis]
        cb = ctx.corners_in_camera(fid, b.instance_id)[:, axis]
        if ca.max() + cfg.interval_gap_m <= cb.min():
            truth = low_label
        elif cb.max() + cfg.interval_gap_m <= ca.min():
            truth = high_label
        else:
            continue
        records.append(make_record(
            ctx.scene_id, "obj_obj_rel_pos", len(records), ANSWER_MCA,
            f"From the camera's viewpoint in frame {pos + 1} of {n}, is the "
            f"{a.category} {fragment} relative to the {b.category}?",
            truth, options=[low_label, high_label],
            frame_refs=[fid],
            meta={"pair": [a.instance_id, b.instance_id],
                  "axis": low_label + "_" + high_label,
                  "position": pos + 1, "of": n},
        ))
    return records


def gen_cam_displacement(ctx: SceneContext, cfg: GenConfig):
    """Straight-line camera travel between two sampled frames, in meters."""
    g, seq = ctx.graph, ctx.frame_seq
    n = len(seq)
    pairs = list(combinations(range(n), 2))
    pairs = subsample(pairs, cfg.max_per_task,
                      rng_stream(cfg.seed, ctx.scene_id, "cam_displacement", "select"))
    records = []
    for i, j in pairs:
        pair = FramePairSpec(i + 1, j + 1, n)
        t_i = camera_position(g, seq[i])
        t_j = camera_position(g, seq[j])
        dist = vector_norm(t_j - t_i)
        if dist < cfg.min_displacement_m:
            continue
        records.append(make_record(
            ctx.scene_id, "cam_displacement", len(records), ANSWER_NA,
            f"Approximately how far (in meters) did the camera move between "
            f"frame {pair.i} and frame {pair.j} of {pair.n}?",
            round_tenth(dist),
            frame_refs=[seq[i], seq[j]],
            meta={"positions": [pair.i, pair.j], "of": pair.n},
        ))
    return records


MOVE_DIR_OPTIONS = ("Forward", "Backward", "Left", "Right")


def classify_camera_motion(rotation_start: np.ndarray, displacement: np.ndarray,
                           dominance_ratio: float):
    """Dominant planar motion direction in the starting frame's coordinates.

    The world displacement is rotated into the start camera frame; the
    vertical component (+Y, pointing down) is ignored. Returns one of
    MOVE_DIR_OPTIONS, or None when neither remaining axis dominates the
    other by ``dominance_ratio``.
    """
    local = rotation_start.T @ np.asarray(displacement, dtype=float)
    x, z = local[0], local[2]
    if max(abs(x), abs(z)) < 1e-9:  # purely vertical motion
        return None
    if abs(z) >= dominance_ratio * abs(x):
        return "Forward" if z > 0 else "Backward"
    if abs(x) >= dominance_ratio * abs(z):
        return "Right" if x > 0 else "Left"
    return None


def gen_cam_move_dir(ctx: SceneContext, cfg: GenConfig):
    """Primary direction of camera translation over a frame span (MCA)."""
    g, seq = ctx.graph, ctx.frame_seq
    n = len(seq)
    pairs = list(combinations(range(n), 2))
    pairs = subsample(pairs, cfg.max_per_task,
                      rng_stream(cfg.seed, ctx.scene_id, "cam_move_dir", "select"))
    records = []
    for i, j in pairs:
        pair = FramePairSpec(i + 1, j + 1, n)
        start = g.frame(seq[i]).pose
        net = camera_position(g, seq[j]) - start.position
        if vector_norm(net) < cfg.min_displacement_m:
            continue
        direction = classify_camera_motion(start.rotation, net, cfg.dominance_ratio)
        if direction is None:
            continue
        records.append(make_record(
            ctx.scene_id, "cam_move_dir", len(records), ANSWER_MCA,
            f"Relative to its orientation in frame {pair.i}, in which direction "
            f"did the camera mainly move between frame {pair.i} and frame "
            f"{pair.j} of {pair.n}?",
            direction, options=list(MOVE_DIR_OPTIONS),
            frame_refs=[seq[i], seq[j]],
            meta={"positions": [pair.i, pair.j], "of": pair.n},
        ))
    return records


TEMPORAL_GENERATORS = {
    "cam_obj_abs_dist": gen_cam_obj_abs_dist,
    "cam_obj_rel_dist": gen_cam_obj_rel_dist,
    "obj_obj_rel_pos": gen_obj_obj_rel_pos,
    "cam_displacement": gen_cam_displacement,
    "cam_move_dir": gen_cam_move_dir,
}
