import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from oracles import hull_area_xy, oracle_box_box_distance, reference_hull_area_xy
from synth import make_rect_cloud
from sceneqa.geometry import box_box_distance
from sceneqa.graph import build_graph
from sceneqa.metadata import frame_metadata_from_dict, scene_metadata_from_dict
from sceneqa.ply_io import LabeledPointCloud
from sceneqa.qa_records import GenConfig, record_to_dict, validate_record
from sceneqa.qa_spatial import (
    _octagon_survivors,
    convex_hull_area_xy,
    gen_absolute_distance,
    gen_appearance_order,
    gen_object_count,
    gen_object_size,
    gen_relative_direction,
    gen_relative_distance,
    gen_room_size,
)

CFG = GenConfig(seed=0)

INTR = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
        "width": 640, "height": 480}


def hand_context(objects, visibility_by_frame=None, n_frames=2, extent=6.0, cloud=None):
    """Build a scene context from handwritten object dicts and an optional
    frame -> [instance ids] visibility table."""
    counts = {}
    for o in objects:
        counts[o["category"]] = counts.get(o["category"], 0) + 1
    scene = scene_metadata_from_dict({
        "scene_id": "hand",
        "scene_extents": {"min": [-extent, -extent, 0], "max": [extent, extent, 2.5]},
        "room_center": [0, 0, 1.25],
        "category_counts": counts,
        "objects": objects,
    })
    visibility_by_frame = visibility_by_frame or {}
    frames = frame_metadata_from_dict({
        "scene_id": "hand",
        "intrinsics": dict(INTR),
        "frames": [
            {"frame_id": f,
             "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
             "color_path": "c", "depth_path": "d",
             "visible_objects": [{"instance_id": i, "bbox_2d": [10, 10, 110, 110]}
                                 for i in visibility_by_frame.get(f, [])]}
            for f in range(n_frames)
        ],
    })
    return build_graph(scene, frames, sample_frames=CFG.sample_frames, cloud=cloud)


def obj(instance_id, category, center, size=(0.5, 0.5, 0.5), yaw=None):
    quat = [1.0, 0.0, 0.0, 0.0]
    if yaw is not None:
        quat = [math.cos(yaw / 2), 0.0, 0.0, math.sin(yaw / 2)]
    return {"instance_id": instance_id, "category": category,
            "center": list(center), "size": list(size), "rotation": quat}


# --- object count ---------------------------------------------------------------

def test_object_count_basic():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3]), obj(2, "chair", [1, 0, 0.3]),
                    obj(3, "chair", [2, 0, 0.3]), obj(4, "lamp", [3, 0, 0.3])])
    records = gen_object_count(ctx, CFG)
    assert len(records) == 1  # the singleton lamp is excluded
    assert records[0].ground_truth == "3"
    assert "chair" in records[0].question
    validate_record(records[0])


def test_object_count_empty_scene_categories():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3]), obj(2, "lamp", [1, 0, 0.3])])
    assert gen_object_count(ctx, CFG) == []


# --- absolute distance ----------------------------------------------------------

def test_absolute_distance_axis_gap():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3], (2, 2, 2)),
                    obj(2, "table", [5, 0, 0.3], (2, 2, 2))])
    [rec] = gen_absolute_distance(ctx, CFG)
    assert rec.ground_truth == "3.0"
    validate_record(rec)


def test_absolute_distance_overlap_discarded():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3], (2, 2, 2)),
                    obj(2, "table", [1, 0, 0.3], (2, 2, 2))])
    assert gen_absolute_distance(ctx, CFG) == []


def test_absolute_distance_rotated_matches_oracle():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.5], (1.5, 1.0, 1.0), yaw=math.radians(30)),
                    obj(2, "table", [3, 0.5, 0.5], (1.0, 1.2, 0.8))])
    [rec] = gen_absolute_distance(ctx, CFG)
    a, b = ctx.object(1).box, ctx.object(2).box
    want = oracle_box_box_distance(a, b)
    assert abs(box_box_distance(a, b) - want) < 0.05  # before rounding
    assert abs(float(rec.ground_truth) - want) < 0.05 + 0.05


# --- relative distance ----------------------------------------------------------

def line_scene(gaps, target_cat="table"):
    """Five unique cubes on the x axis with prescribed surface gaps to the target."""
    cats = ["bed", "chair", "desk", "lamp"]
    half = 0.25
    objects = [obj(1, target_cat, [0, 0, 0.3], (0.5, 0.5, 0.5))]
    sign = 1
    for i, (cat, gap) in enumerate(zip(cats, gaps)):
        x = sign * (half + gap + half)
        objects.append(obj(2 + i, cat, [x, 0, 0.3], (0.5, 0.5, 0.5)))
        sign = -sign
    return hand_context(objects)


def test_relative_distance_picks_nearest_with_margin():
    ctx = line_scene([0.5, 1.0, 2.0, 3.0])
    records = gen_relative_distance(ctx, CFG)
    assert records, "expected at least one record"
    for rec in records:
        validate_record(rec)
        target = ctx.object(rec.meta["target"]).box
        cands = [ctx.object(i) for i in rec.meta["candidates"]]
        dists = [box_box_distance(target, c.box) for c in cands]
        order = np.argsort(dists)
        assert dists[order[1]] - dists[order[0]] >= CFG.ambiguity_margin_m
        assert rec.ground_truth == cands[order[0]].category
    by_target = {ctx.object(r.meta["target"]).category: r for r in records}
    assert by_target["table"].ground_truth == "bed"


def test_relative_distance_margin_discard():
    ctx = line_scene([1.0, 1.05, 2.0, 3.0])
    records = gen_relative_distance(ctx, CFG)
    assert "table" not in {ctx.object(r.meta["target"]).category for r in records}


def test_relative_distance_needs_five_objects():
    ctx = hand_context([obj(i, c, [i, 0, 0.3]) for i, c in
                    enumerate(["bed", "chair", "desk", "lamp"], start=1)])
    assert gen_relative_distance(ctx, CFG) == []


# --- relative direction ---------------------------------------------------------

def rel_dir_fixture(c_pos):
    return hand_context([obj(1, "bed", [0, 0, 0.3]),
                       obj(2, "chair", [1, 0, 0.3]),
                       obj(3, "desk", list(c_pos) + [0.3])])


@pytest.mark.parametrize("c_pos,expected", [
    ((0, 1), "left"),
    ((0, -1), "right"),
    ((-1, 0), "back"),
])
def test_relative_direction_buckets(c_pos, expected):
    records = gen_relative_direction(rel_dir_fixture(c_pos), CFG)
    match = [r for r in records
             if r.meta["standing_at"] == 1 and r.meta["facing"] == 2
             and r.meta["query"] == 3]
    assert len(match) == 1
    assert match[0].ground_truth == expected
    assert match[0].options == ("left", "right", "back")
    validate_record(match[0])


def test_relative_direction_front_cone_discarded():
    records = gen_relative_direction(rel_dir_fixture((2, 0.1)), CFG)
    assert not any(r.meta["standing_at"] == 1 and r.meta["facing"] == 2
                   and r.meta["query"] == 3 for r in records)


def test_relative_direction_min_planar_distance():
    records = gen_relative_direction(rel_dir_fixture((0, 0.2)), CFG)
    assert not any(r.meta["query"] == 3 and r.meta["standing_at"] == 1
                   and r.meta["facing"] == 2 for r in records)


# --- object size ----------------------------------------------------------------

def test_object_size_longest_dimension():
    ctx = hand_context([obj(1, "sofa", [0, 0, 0.3], (0.5, 2.0, 0.8)),
                    obj(2, "crate", [3, 0, 0.3], (1.0, 1.0, 1.0)),
                    obj(3, "chair", [5, 0, 0.3]), obj(4, "chair", [5, 2, 0.3])])
    records = gen_object_size(ctx, CFG)
    by_cat = {ctx.object(r.meta["instance"]).category: r for r in records}
    assert by_cat["sofa"].ground_truth == "200"
    assert by_cat["crate"].ground_truth == "100"
    assert "chair" not in by_cat  # non-unique category skipped


def test_object_size_skips_objects_rounding_to_zero():
    ctx = hand_context([obj(1, "button", [0, 0, 0.3], (0.004, 0.003, 0.002)),
                        obj(2, "crate", [3, 0, 0.3], (1.0, 1.0, 1.0))])
    [rec] = gen_object_size(ctx, CFG)
    assert rec.meta["instance"] == 2 and rec.qid.endswith(":0000")


# --- room size ------------------------------------------------------------------

def test_room_size_from_extents_footprint():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3])], extent=1.5)  # 3 x 3 footprint
    [rec] = gen_room_size(ctx, CFG)
    assert rec.ground_truth == "9.0"
    assert rec.meta["method"] == "extents"


def test_room_size_zero_area_not_emitted():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3])], extent=0.01)  # 0.02 x 0.02 m
    assert gen_room_size(ctx, CFG) == []


def test_room_size_rectangular_cloud():
    ctx = hand_context([obj(1, "chair", [0, 0, 0.3])], cloud=make_rect_cloud(3, 4.0, 5.0))
    [rec] = gen_room_size(ctx, CFG)
    assert rec.ground_truth == "20.0"
    assert rec.meta["method"] == "convex_hull"


def test_room_size_l_shape_hull_over_estimates():
    rng = np.random.default_rng(4)
    left = np.column_stack([rng.uniform(0, 2, 3000), rng.uniform(0, 4, 3000),
                            rng.uniform(0, 0.1, 3000)])
    bottom = np.column_stack([rng.uniform(2, 4, 3000), rng.uniform(0, 2, 3000),
                              rng.uniform(0, 0.1, 3000)])
    corners = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0], [2, 4, 0], [4, 2, 0]],
                       dtype=float)
    pts = np.vstack([left, bottom, corners])
    zeros = np.zeros(len(pts), dtype=np.int64)
    cloud = LabeledPointCloud(pts, np.zeros((len(pts), 3), dtype=np.uint8), zeros, zeros)

    true_area = 2 * 4 + 2 * 2  # 12 for the L
    ctx = hand_context([obj(1, "chair", [1, 1, 0.3])], cloud=cloud)
    [rec] = gen_room_size(ctx, CFG)
    assert float(rec.ground_truth) > true_area
    assert rec.meta["method"] == "convex_hull"
    # shoelace-on-hull oracle agrees with our monotone-chain implementation
    assert convex_hull_area_xy(pts) == pytest.approx(hull_area_xy(pts), abs=1e-9)
    assert convex_hull_area_xy(pts) == pytest.approx(14.0, abs=1e-9)


# --- convex hull: the culled chain against the full-chain reference ----------------

def _hull_clouds():
    rng = np.random.default_rng(17)
    n = 4000
    r, th = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * np.pi, n)
    circle = np.column_stack([np.cos(th), np.sin(th)])
    lattice = rng.integers(0, 40, size=(n, 2)) * 0.1
    lattice = np.vstack([lattice, lattice[: n // 3],            # duplicates
                         np.column_stack([np.zeros(50), np.arange(50) * 0.1])])  # a vertical run
    t = rng.uniform(0, 1, n)
    k = 7
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    verts = np.column_stack([np.cos(ang), np.sin(ang)]) * 4
    edge, s = rng.integers(0, k, n), rng.uniform(0, 1, (n, 1))
    on_edge = verts[edge] * (1 - s) + verts[(edge + 1) % k] * s
    hug = on_edge + (verts.mean(axis=0) - on_edge) * 10.0 ** rng.uniform(-14, -6, (n, 1))
    rect = make_rect_cloud(5, 7.3, 5.1, n=20000).positions
    return {
        "rect_20k": rect,
        "rect_20k_float32": rect.astype(np.float32),
        "disc": np.column_stack([r * np.cos(th), r * np.sin(th)]) * 3.0,
        "circle": circle * 2.5,
        "lattice_duplicates_vertical_runs": lattice,
        "near_collinear": np.column_stack([t * 5, t * 3 + rng.normal(0, 1e-12, n)]),
        "collinear": np.column_stack([t, 2 * t]),
        "polygon_edges_and_hugging_interior": np.vstack([verts, on_edge, hug]),
        "two_unique": np.repeat([[0.0, 0.0], [1.0, 2.0]], 5, axis=0),
        "one_point": np.array([[3.0, 4.0, 0.0]]),
        "empty": np.zeros((0, 3)),
        "tiny_scale": rng.uniform(0, 1e-6, (n, 2)),
        "far_offset": rng.uniform(0, 3, (n, 2)) + 1e4,
        "far_offset_circle": circle + 1e4,
        "nan_point": np.vstack([rect[:500, :2], [[np.nan, 1.0]]]),
    }


HULL_CLOUDS = _hull_clouds()


@pytest.mark.parametrize("name", sorted(HULL_CLOUDS))
def test_hull_area_bitwise_equals_reference(name):
    pts = HULL_CLOUDS[name]
    assert convex_hull_area_xy(pts).hex() == reference_hull_area_xy(pts).hex()


def test_hull_cull_keeps_every_vertex_and_drops_the_interior():
    xy = np.asarray(HULL_CLOUDS["rect_20k"], dtype=float)[:, :2]
    kept = _octagon_survivors(xy)
    assert len(kept) < len(xy) // 100
    for name in ("disc", "lattice_duplicates_vertical_runs", "far_offset",
                 "polygon_edges_and_hugging_interior"):
        xy = np.asarray(HULL_CLOUDS[name], dtype=float)
        vertices = {tuple(p) for p in xy[ConvexHull(xy).vertices]}
        assert vertices <= {tuple(p) for p in _octagon_survivors(xy)}, name


def test_hull_huge_coordinates_cull_nothing():
    xy = np.random.default_rng(3).uniform(-1e200, 1e200, (50, 2))
    assert len(_octagon_survivors(xy)) == len(xy)  # the margin overflows: keep every point


_COORDS = st.one_of(st.integers(-6, 6).map(lambda k: k * 0.1),
                    st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None, database=None)
@given(pts=st.lists(st.tuples(_COORDS, _COORDS), max_size=40),
       scale=st.sampled_from([1e-6, 1.0, 1e3]), offset=st.sampled_from([0.0, -7.5, 1e4]))
def test_hull_area_bitwise_equals_reference_fuzzed(pts, scale, offset):
    xy = np.array(pts, dtype=float).reshape(-1, 2) * scale + offset
    assert convex_hull_area_xy(xy).hex() == reference_hull_area_xy(xy).hex()


# --- appearance order -----------------------------------------------------------

def appearance_fixture(first_seen, n_frames=25):
    objects = []
    vis = {f: [] for f in range(n_frames)}
    for i, (cat, first) in enumerate(sorted(first_seen.items()), start=1):
        objects.append(obj(i, cat, [i, 0, 0.3]))
        for f in range(first, n_frames):
            vis[f].append(i)
    return hand_context(objects, visibility_by_frame=vis, n_frames=n_frames)


def test_appearance_order_truth_ascending():
    ctx = appearance_fixture({"chair": 2, "table": 7, "lamp": 15, "sofa": 20})
    records = gen_appearance_order(ctx, CFG)
    assert len(records) == 1
    rec = records[0]
    assert rec.ground_truth == "chair, table, lamp, sofa"
    assert rec.ground_truth in rec.options
    assert len(rec.options) == 4 and len(set(rec.options)) == 4
    validate_record(rec)


def test_appearance_order_gap_rule():
    ctx = appearance_fixture({"chair": 2, "table": 10, "lamp": 12, "sofa": 20})
    for rec in gen_appearance_order(ctx, CFG):
        cats = [c.strip() for c in rec.ground_truth.split(",")]
        assert not ({"table", "lamp"} <= set(cats))  # gap 2 < 5: never co-selected


def test_appearance_order_needs_four_categories():
    ctx = appearance_fixture({"chair": 2, "table": 10, "lamp": 18})
    assert gen_appearance_order(ctx, CFG) == []


# --- determinism ------------------------------------------------------------------

def test_generators_are_deterministic(synthetic_scenes):
    scene, frames = synthetic_scenes[0]
    ctx = build_graph(scene, frames, sample_frames=CFG.sample_frames)
    for gen in (gen_object_count, gen_absolute_distance, gen_relative_distance,
                gen_relative_direction, gen_object_size, gen_appearance_order):
        a = [json.dumps(record_to_dict(r), sort_keys=True) for r in gen(ctx, CFG)]
        b = [json.dumps(record_to_dict(r), sort_keys=True) for r in gen(ctx, CFG)]
        assert a == b


def test_mca_invariants_on_synthetic_scenes(synthetic_scenes):
    for scene, frames in synthetic_scenes[:5]:
        ctx = build_graph(scene, frames, sample_frames=CFG.sample_frames)
        for rec in (gen_relative_distance(ctx, CFG) + gen_relative_direction(ctx, CFG)
                    + gen_appearance_order(ctx, CFG)):
            validate_record(rec)
            assert rec.ground_truth in rec.options
