import math

import numpy as np

from oracles import oracle_point_box_distance
from synth import upright_pose_matrix
from sceneqa.geometry import closest_point_on_box, quat_to_matrix
from sceneqa.graph import build_graph
from sceneqa.metadata import frame_metadata_from_dict, scene_metadata_from_dict
from sceneqa.qa_records import GenConfig, validate_record
from sceneqa.qa_temporal import (
    classify_camera_motion,
    gen_cam_displacement,
    gen_cam_move_dir,
    gen_cam_obj_abs_dist,
    gen_cam_obj_rel_dist,
    gen_obj_obj_rel_pos,
)

CFG = GenConfig(seed=0)
INTR = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
        "width": 640, "height": 480}


def temporal_context(objects, poses, visible=None):
    """objects: hand dicts; poses: list of 4x4; visible: frame -> instance ids
    (defaults to everything visible everywhere)."""
    counts = {}
    for o in objects:
        counts[o["category"]] = counts.get(o["category"], 0) + 1
    scene = scene_metadata_from_dict({
        "scene_id": "temp",
        "scene_extents": {"min": [-10, -10, -10], "max": [10, 10, 10]},
        "room_center": [0, 0, 0],
        "category_counts": counts,
        "objects": objects,
    })
    ids = [o["instance_id"] for o in objects]
    frames = frame_metadata_from_dict({
        "scene_id": "temp",
        "intrinsics": dict(INTR),
        "frames": [
            {"frame_id": f,
             "pose_c2w": [float(v) for v in np.asarray(m).reshape(-1)],
             "color_path": "c", "depth_path": "d",
             "visible_objects": [{"instance_id": i, "bbox_2d": [10, 10, 110, 110]}
                                 for i in (visible or {}).get(f, ids)]}
            for f, m in enumerate(poses)
        ],
    })
    return build_graph(scene, frames, sample_frames=CFG.sample_frames)


def obj(instance_id, category, center, size=(2, 2, 2), yaw=None):
    quat = [1.0, 0.0, 0.0, 0.0]
    if yaw is not None:
        quat = [math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)]
    return {"instance_id": instance_id, "category": category,
            "center": list(center), "size": list(size), "rotation": quat}


def identity_poses(n=2):
    return [np.eye(4) for _ in range(n)]


# --- camera-object absolute distance ----------------------------------------------

def test_cam_obj_abs_dist_axis_case():
    ctx = temporal_context([obj(1, "crate", [0, 0, 3])], identity_poses())
    records = gen_cam_obj_abs_dist(ctx, CFG)
    assert records and all(r.ground_truth == "2.0" for r in records)
    validate_record(records[0])
    assert "closest point of the crate" in records[0].question


def test_cam_obj_abs_dist_camera_inside_discarded():
    ctx = temporal_context([obj(1, "crate", [0, 0, 0])], identity_poses())
    assert gen_cam_obj_abs_dist(ctx, CFG) == []


def test_cam_obj_abs_dist_rotated_matches_oracle():
    box_obj = obj(1, "crate", [1.0, 2.0, 0.5], (1.5, 1.0, 0.8),
                  yaw=math.radians(35))
    ctx = temporal_context([box_obj], identity_poses())
    [rec] = gen_cam_obj_abs_dist(ctx, CFG)[:1]
    box = ctx.object(1).box
    want = oracle_point_box_distance(np.zeros(3), box)
    _, got = closest_point_on_box(np.zeros(3), box)
    assert abs(got - want) < 0.05
    assert abs(float(rec.ground_truth) - want) < 0.05 + 0.05


# --- camera-object relative distance ----------------------------------------------

def ladder_objects(gaps, cats=("bed", "chair", "desk", "lamp")):
    # cubes straight ahead of the camera (+Z), each with a prescribed
    # closest-face distance; boxes may interpenetrate, only camera distance matters
    out = []
    for i, (cat, gap) in enumerate(zip(cats, gaps), start=1):
        out.append(obj(i, cat, [0.0, 0.0, gap + 1.0], (2, 2, 2)))
    return out


def test_cam_obj_rel_dist_picks_nearest():
    ctx = temporal_context(ladder_objects([1.0, 2.0, 3.0, 4.0]), identity_poses())
    records = gen_cam_obj_rel_dist(ctx, CFG)
    assert records
    for rec in records:
        validate_record(rec)
        assert rec.ground_truth == "bed"
        assert set(rec.options) == {"bed", "chair", "desk", "lamp"}


def test_cam_obj_rel_dist_margin_discard():
    ctx = temporal_context(ladder_objects([1.0, 1.05, 3.0, 4.0]), identity_poses())
    assert gen_cam_obj_rel_dist(ctx, CFG) == []


def test_cam_obj_rel_dist_needs_four():
    ctx = temporal_context(ladder_objects([1.0, 2.0, 3.0],
                                           cats=("bed", "chair", "desk")),
                            identity_poses())
    assert gen_cam_obj_rel_dist(ctx, CFG) == []


# --- object-object relative position ----------------------------------------------

def rel_pos_records(a_center, b_center, size=(1, 1, 1)):
    ctx = temporal_context([obj(1, "bed", a_center, size),
                             obj(2, "chair", b_center, size)],
                            identity_poses())
    cfg = GenConfig(seed=0, max_per_task=50)
    return gen_obj_obj_rel_pos(ctx, cfg)


def test_rel_pos_near_far_separated_intervals():
    # A corners z in [1, 2], B in [3, 4]
    records = rel_pos_records([0, 0, 1.5], [0, 3, 3.5])
    near = [r for r in records if r.meta["axis"] == "near_far"]
    assert near
    for rec in near:
        a_first = rec.meta["pair"][0] == 1
        assert rec.ground_truth == ("near" if a_first else "far")
        assert rec.options in (("near", "far"),)
        validate_record(rec)


def test_rel_pos_overlapping_axis_not_emitted():
    # X intervals overlap; only the z axis separates
    records = rel_pos_records([0, 0, 1.5], [0.3, 0, 3.5])
    axes = {r.meta["axis"] for r in records}
    assert "left_right" not in axes
    assert "near_far" in axes


def test_rel_pos_up_down_y_convention():
    # +Y is down in camera coordinates: smaller Y means above.
    # A corners y in [-2, -1], B in [0, 1]; both in front (z > 0).
    records = rel_pos_records([0, -1.5, 3], [0, 0.5, 3])
    ups = [r for r in records if r.meta["axis"] == "up_down"]
    assert ups
    for rec in ups:
        a_first = rec.meta["pair"][0] == 1
        assert rec.ground_truth == ("up" if a_first else "down")


# --- camera displacement -----------------------------------------------------------

def test_cam_displacement_345_triangle():
    poses = [np.eye(4), np.eye(4)]
    poses[1][:3, 3] = [3.0, 4.0, 0.0]
    ctx = temporal_context([obj(1, "crate", [0, 0, 5])], poses)
    [rec] = gen_cam_displacement(ctx, CFG)
    assert rec.ground_truth == "5.0"
    assert "of 2?" in rec.question
    validate_record(rec)


def test_cam_displacement_below_minimum_discarded():
    poses = [np.eye(4), np.eye(4)]
    poses[1][:3, 3] = [0.3, 0.0, 0.0]
    ctx = temporal_context([obj(1, "crate", [0, 0, 5])], poses)
    assert gen_cam_displacement(ctx, CFG) == []


def test_cam_displacement_phrasing_frame_16_of_32():
    poses = []
    for i in range(32):
        m = np.eye(4)
        m[:3, 3] = [0.11 * i, 0.0, 0.0]
        poses.append(m)
    ctx = temporal_context([obj(1, "crate", [0, 0, 5])], poses)
    cfg = GenConfig(seed=0, max_per_task=600)
    records = gen_cam_displacement(ctx, cfg)
    hits = [r for r in records if r.meta["positions"] == [1, 16]]
    assert len(hits) == 1
    assert "between frame 1 and frame 16 of 32" in hits[0].question
    assert hits[0].ground_truth == "1.7"  # 15 * 0.11 = 1.65 rounds up


# --- camera movement direction ------------------------------------------------------

def move_dir_records(net, rotation=None):
    poses = [np.eye(4), np.eye(4)]
    if rotation is not None:
        poses[0][:3, :3] = rotation
    poses[1][:3, :3] = poses[0][:3, :3]
    poses[1][:3, 3] = poses[0][:3, 3] + np.asarray(net, dtype=float)
    ctx = temporal_context([obj(1, "crate", [0, 0, 5])], poses)
    return gen_cam_move_dir(ctx, CFG)


def test_cam_move_dir_pure_forward():
    [rec] = move_dir_records([0, 0, 2.0])
    assert rec.ground_truth == "Forward"
    assert rec.options == ("Forward", "Backward", "Left", "Right")
    validate_record(rec)


def test_cam_move_dir_left_dominance():
    [rec] = move_dir_records([-2.0, 0, 0.5])
    assert rec.ground_truth == "Left"


def test_cam_move_dir_tie_discarded():
    assert move_dir_records([1.0, 0, 1.0]) == []


def test_cam_move_dir_respects_start_rotation():
    # camera yawed 90 degrees about world Z; world +Y motion is forward
    rot = quat_to_matrix([math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)])
    [rec] = move_dir_records(rot @ np.array([0.0, 0.0, 2.0]), rotation=rot)
    assert rec.ground_truth == "Forward"


def test_classify_motion_reversal_antisymmetry():
    rng = np.random.default_rng(17)
    swaps = {"Forward": "Backward", "Backward": "Forward",
             "Left": "Right", "Right": "Left"}
    seen = set()
    for _ in range(300):
        q = rng.normal(size=4)
        rot = quat_to_matrix(q / np.linalg.norm(q))
        d = rng.uniform(-2, 2, size=3)
        fwd = classify_camera_motion(rot, d, CFG.dominance_ratio)
        rev = classify_camera_motion(rot, -d, CFG.dominance_ratio)
        if fwd is None:
            assert rev is None
        else:
            assert rev == swaps[fwd]
            seen.add(fwd)
    assert seen == set(swaps)  # all four labels exercised


def test_displacement_invariant_under_rigid_rebasing():
    rng = np.random.default_rng(21)
    q = rng.normal(size=4)
    rebase = np.eye(4)
    rebase[:3, :3] = quat_to_matrix(q / np.linalg.norm(q))
    rebase[:3, 3] = rng.uniform(-5, 5, size=3)

    poses = []
    for i in range(6):
        m = upright_pose_matrix([0.437 * i, 0.129 * i * i, 1.5], 0.2 * i)
        poses.append(m)
    rebased = [rebase @ m for m in poses]

    ctx1 = temporal_context([obj(1, "crate", [0, 0, 5])], poses)
    ctx2 = temporal_context([obj(1, "crate", [0, 0, 5])], rebased)
    r1 = gen_cam_displacement(ctx1, CFG)
    r2 = gen_cam_displacement(ctx2, CFG)
    assert [r.ground_truth for r in r1] == [r.ground_truth for r in r2]
    m1 = gen_cam_move_dir(ctx1, CFG)
    m2 = gen_cam_move_dir(ctx2, CFG)
    assert [r.ground_truth for r in m1] == [r.ground_truth for r in m2]
