import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_label_anchors
from synth import make_single_turn_waypoints
from sceneqa.errors import InputError, MultiTurn, NoNearbyObject, TooShort
from sceneqa.graph import build_graph
from sceneqa.metadata import frame_metadata_from_dict, scene_metadata_from_dict
from sceneqa.qa_records import ANSWER_NA, GenConfig, TaskRecords, validate_record
from sceneqa.route_plan import (
    ClassifiedRoute,
    Trajectory,
    classify_trajectory,
    gen_route_plan,
    label_anchors,
    load_trajectories,
    render_route_qa,
)

CFG = GenConfig(seed=0)

ACTION_CLAUSE = "choose either 'turn back,' 'turn left,' or 'turn right.'"


def traj(points):
    return Trajectory(np.asarray(points, dtype=float))


def scene_graph_with(objects):
    counts = {}
    for o in objects:
        counts[o["category"]] = counts.get(o["category"], 0) + 1
    scene = scene_metadata_from_dict({
        "scene_id": "route",
        "scene_extents": {"min": [-10, -10, 0], "max": [10, 10, 2.5]},
        "room_center": [0, 0, 1.25],
        "category_counts": counts,
        "objects": objects,
    })
    frames = frame_metadata_from_dict({
        "scene_id": "route",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [{"frame_id": 0,
                    "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
                    "color_path": "c", "depth_path": "d", "visible_objects": []},
                   {"frame_id": 1,
                    "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
                    "color_path": "c", "depth_path": "d", "visible_objects": []}],
    })
    return build_graph(scene, frames)


def obj(instance_id, category, center):
    return {"instance_id": instance_id, "category": category,
            "center": list(center), "size": [0.5, 0.5, 0.5],
            "rotation": [1.0, 0.0, 0.0, 0.0]}


# --- classification -----------------------------------------------------------

def test_right_angle_left_turn():
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)
    assert route.kind == "TurnLeft"
    assert route.turn_angle_deg == pytest.approx(90.0)
    assert np.allclose(route.anchors[0], [0, 0, 0])
    assert np.allclose(route.anchors[1], [2, 0, 0])
    assert np.allclose(route.anchors[2], [2, 2, 0])


def test_right_angle_right_turn_mirror():
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, -2, 0)]), CFG)
    assert route.kind == "TurnRight"
    assert route.turn_angle_deg == pytest.approx(-90.0)


def test_straight_path_is_turn_back_with_arclength_midpoint():
    route = classify_trajectory(traj([(0, 0, 0), (4, 0, 0)]), CFG)
    assert route.kind == "TurnBack"
    assert np.allclose(route.anchors[1], [2, 0, 0])


def gentle_polyline(seed, m):
    """m waypoints, each step 0.3-2 m long and turning under 4 degrees, so
    the route has no qualifying turn and classifies as TurnBack."""
    rng = np.random.default_rng(seed)
    heading = rng.uniform(-math.pi, math.pi)
    x, y = rng.uniform(-5, 5, size=2).tolist()
    rows = [[x, y, 0.0]]
    for _ in range(m - 1):
        heading += math.radians(rng.uniform(-4, 4))
        step = rng.uniform(0.3, 2.0)
        x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        rows.append([x, y, rng.uniform(0, 0.05)])
    return rows


def midpoint_walk(rows):
    """The arclength midpoint as a plain float walk: step lengths as
    sqrt((dx*dx + dy*dy) + dz*dz), their total summed left to right."""
    lengths = []
    for a, b in zip(rows, rows[1:]):
        dx, dy, dz = (q - p for p, q in zip(a, b))
        lengths.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
    total = 0.0
    for length in lengths:
        total += length
    half, walked = total / 2.0, 0.0
    for k, length in enumerate(lengths):
        if walked + length >= half:
            t = (half - walked) / length
            return [p + t * (q - p) for p, q in zip(rows[k], rows[k + 1])]
        walked += length
    return rows[-1]


@pytest.mark.parametrize("seed", [0, 4, 6])
def test_turn_back_midpoint_of_12_waypoints_is_a_left_to_right_walk(seed):
    # from 8 terms on, numpy's sum adds pairwise; taken that way, these
    # seeds' midpoints differ from the left-to-right walk in the last bits
    rows = gentle_polyline(seed, 12)
    route = classify_trajectory(traj(rows), CFG)
    assert route.kind == "TurnBack"
    assert [v.hex() for v in route.anchors[1].tolist()] == \
        [v.hex() for v in midpoint_walk(rows)]


def test_trajectory_holds_a_copy_of_its_waypoints():
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    t = Trajectory(points)
    points[2] = [5.0, 5.0, 0.0]  # the caller's array changes; the steps were derived
    assert t.waypoints[2].tolist() == [1.0, 2.0, 0.0]
    assert t.steps.tolist() == [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]] and t.step_lengths == (1.0, 2.0)


def test_multi_turn_rejected():
    # two opposite 90-degree corners separated by a long straight run,
    # well outside the jitter-merge window
    points = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (2, 4, 0), (2, 6, 0),
              (2, 8, 0), (4, 8, 0), (6, 8, 0)]
    with pytest.raises(MultiTurn):
        classify_trajectory(traj(points), CFG)


def test_adjacent_opposite_turns_merge_to_turn_back():
    # corners inside the merge window accumulate to ~0 and the route reads
    # as a straight-through (turn back) path
    points = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (4, 2, 0), (6, 2, 0)]
    route = classify_trajectory(traj(points), CFG)
    assert route.kind == "TurnBack"


def test_too_short():
    with pytest.raises(TooShort):
        classify_trajectory(Trajectory(np.array([[1.0, 1.0, 0.0]])), CFG)


def test_jitter_merged_into_one_turn():
    # small wobbles along the runs must not create extra turn loci
    points, angle = make_single_turn_waypoints(np.random.default_rng(3),
                                               angle_deg=75.0, jitter_deg=2.0)
    route = classify_trajectory(traj(points), CFG)
    assert route.kind == "TurnLeft"
    assert route.turn_angle_deg == pytest.approx(75.0, abs=8.0)


def test_mirror_symmetry_500_random_single_turns():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        points, _ = make_single_turn_waypoints(rng)
        mirrored = points * np.array([1.0, -1.0, 1.0])
        r1 = classify_trajectory(traj(points), CFG)
        r2 = classify_trajectory(traj(mirrored), CFG)
        assert {r1.kind, r2.kind} == {"TurnLeft", "TurnRight"}
        assert r1.turn_angle_deg == pytest.approx(-r2.turn_angle_deg, abs=1e-9)


# --- anchor labeling ------------------------------------------------------------

def anchor_labels(route, g, max_anchor_dist_m=CFG.max_anchor_dist_m):
    objects = g.scene.objects
    centers = np.array([o.box.center[:2] for o in objects])
    return label_anchors(route, objects, centers, max_anchor_dist_m)


def test_label_anchors_nearest():
    g = scene_graph_with([obj(1, "sofa", [0.1, 0.38, 0.3]),
                          obj(2, "table", [2.0, 0.3, 0.3]),
                          obj(3, "door", [2.1, 2.2, 0.3])])
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)
    assert anchor_labels(route, g) == ("sofa", "table", "door")


def test_label_anchors_too_far():
    g = scene_graph_with([obj(1, "sofa", [9.0, 9.0, 0.3]),
                          obj(2, "table", [9.5, 9.0, 0.3]),
                          obj(3, "door", [9.0, 9.5, 0.3])])
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)
    with pytest.raises(NoNearbyObject):
        anchor_labels(route, g)


def test_label_anchors_shared_instance_discarded():
    g = scene_graph_with([obj(1, "chair", [1.0, 0.0, 0.3]),
                          obj(2, "door", [2.1, 2.2, 0.3])])
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)
    with pytest.raises(NoNearbyObject):
        anchor_labels(route, g)  # src and mid both nearest to the chair


def test_label_anchors_ties_and_range_edge():
    # sofa and bed are equally near the start (the first in scene order wins);
    # the table is exactly max_anchor_dist_m (2 m) from the turn point
    g = scene_graph_with([obj(1, "sofa", [0.0, 1.0, 0.3]), obj(2, "bed", [0.0, -1.0, 0.3]),
                          obj(3, "table", [4.0, 0.0, 0.3]), obj(4, "door", [2.0, 3.0, 0.3])])
    route = classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)
    assert anchor_labels(route, g) == ("sofa", "table", "door")
    assert reference_label_anchors(route, g, CFG.max_anchor_dist_m) == ("sofa", "table", "door")


@st.composite
def anchored_scenes(draw):
    """Three lattice anchors and lattice objects in a drawn scene order: among
    them a pair equally near one anchor and an object exactly the range away."""
    coord = st.integers(-4, 4)
    anchors = tuple(np.array([draw(coord), draw(coord), 0.0]) for _ in range(3))
    max_dist = draw(st.sampled_from([1, 2, 5]))
    ax, ay, _ = anchors[draw(st.integers(0, 2))]
    dx, dy = draw(st.sampled_from([(1, 0), (1, 1), (2, 1), (3, 4)]))
    centers = [(ax + dx, ay + dy), (ax - dx, ay - dy), (ax, ay + max_dist)]
    centers += [(draw(coord), draw(coord)) for _ in range(draw(st.integers(0, 5)))]
    categories = st.sampled_from(["sofa", "table", "door", "lamp"])
    objects = [obj(k + 1, draw(categories), [x, y, 0.3])
               for k, (x, y) in enumerate(draw(st.permutations(centers)))]
    return ClassifiedRoute("TurnLeft", anchors, 90.0), scene_graph_with(objects), float(max_dist)


@settings(max_examples=200, deadline=None, database=None)
@given(case=anchored_scenes())
def test_label_anchors_equals_reference(case):
    route, g, max_dist = case
    try:
        want = reference_label_anchors(route, g, max_dist)
    except NoNearbyObject as exc:
        with pytest.raises(NoNearbyObject) as got:
            anchor_labels(route, g, max_dist)
        assert str(got.value) == str(exc)
    else:
        assert anchor_labels(route, g, max_dist) == want


# --- template rendering -----------------------------------------------------------

def left_route():
    return classify_trajectory(traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]), CFG)


def test_template1_contains_labels_and_clause():
    rec = render_route_qa(left_route(), ("table", "sofa", "door"), CFG,
                          TaskRecords("route", "route_plan", CFG))
    assert rec.ground_truth == "turn left"
    assert rec.options == ("turn back", "turn left", "turn right")
    assert ACTION_CLAUSE in rec.question
    for label in ("table", "sofa", "door"):
        assert rec.question.count(label) >= 1
    assert rec.question.count("sofa") == 2  # MID appears in intro and step 1
    assert "1. Go forward until the sofa." in rec.question
    assert "2. [please fill in]" in rec.question
    assert "3. Go forward until the door." in rec.question
    validate_record(rec)


def test_turn_back_uses_template2():
    route = classify_trajectory(traj([(0, 0, 0), (4, 0, 0)]), CFG)
    rec = render_route_qa(route, ("table", "sofa", "door"), CFG,
                          TaskRecords("route", "route_plan", CFG))
    assert rec.ground_truth == "turn back"
    assert rec.meta["template"] == "Template2"
    assert ACTION_CLAUSE in rec.question
    # agent stands at the midpoint facing the start anchor (table)
    assert "beginning at the sofa facing the table" in rec.question
    assert "1. [please fill in] 2. Go forward until the door." in rec.question


def test_alternative_mode_rederives_answer():
    # 50-degree left turn qualifies for the alternative template
    angle = math.radians(50)
    route = classify_trajectory(
        traj([(0, 0, 0), (2, 0, 0),
              (2 + 2 * math.cos(angle), 2 * math.sin(angle), 0)]), CFG)
    assert route.kind == "TurnLeft" and route.turn_angle_deg == pytest.approx(50.0)
    alt = dataclasses.replace(CFG, route_alternative_mode=True)
    rec = render_route_qa(route, ("table", "sofa", "door"), alt,
                          TaskRecords("route", "route_plan", alt))
    assert rec.meta["template"] == "Template2"
    assert "beginning at the sofa facing the door" in rec.question
    # re-classified reversed traversal: face the end, walk back to the start
    src, mid, tgt = route.anchors
    from sceneqa.route_plan import classify_turn_action
    assert rec.ground_truth == classify_turn_action(tgt - mid, src - mid, CFG)
    assert rec.ground_truth == "turn left"
    assert rec.meta["primary_action"] == "turn left"


def test_render_route_qa_numbers_its_records_in_the_task_records():
    out = TaskRecords("route", "route_plan", CFG)
    first = render_route_qa(left_route(), ("table", "sofa", "door"), CFG, out)
    # collinear anchors re-derive no turn: rejected, and nothing is added
    straight = ClassifiedRoute("TurnLeft", tuple(np.array([[0.0, 0, 0], [2, 0, 0], [4, 0, 0]])),
                               40.0)
    with pytest.raises(NoNearbyObject):
        render_route_qa(straight, ("table", "sofa", "door"), CFG, out)
    second = render_route_qa(left_route(), ("table", "sofa", "door"), CFG, out)
    assert out.records == [first, second]
    assert [r.qid for r in out.records] == ["route:route_plan:0000", "route:route_plan:0001"]


def test_gen_route_plan_keeps_the_first_usable_routes_up_to_the_cap():
    g = scene_graph_with([obj(1, "sofa", [0.1, 0.38, 0.3]),
                          obj(2, "table", [2.0, 0.3, 0.3]),
                          obj(3, "door", [2.1, 2.2, 0.3])])
    good = traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)])
    far = traj([(8, 8, 0), (9, 8, 0), (9, 9, 0)])
    cfg = dataclasses.replace(CFG, max_per_task=2)
    records, skipped = gen_route_plan(g, [far, good, far, good, far, good], cfg)
    assert skipped == 2  # the trajectories after the cap is met are never tried
    assert [r.qid for r in records] == ["route:route_plan:0000", "route:route_plan:0001"]


def test_gen_route_plan_skips_bad_trajectories():
    g = scene_graph_with([obj(1, "sofa", [0.1, 0.38, 0.3]),
                          obj(2, "table", [2.0, 0.3, 0.3]),
                          obj(3, "door", [2.1, 2.2, 0.3])])
    trajectories = [
        traj([(0, 0, 0), (2, 0, 0), (2, 2, 0)]),            # good
        Trajectory(np.array([[0.0, 0.0, 0.0]])),            # too short
        traj([(0, 0, 0), (2, 0, 0), (2, 2, 0), (2.2, 2, 0),
              (4, 2, 0), (4, 4, 0)]),                       # multi turn
        traj([(8, 8, 0), (9, 8, 0), (9, 9, 0)]),            # anchors too far
    ]
    records, skipped = gen_route_plan(g, trajectories, CFG)
    assert len(records) == 1 and skipped == 3
    assert records[0].ground_truth == "turn left"


# --- TaskRecords.until_full ------------------------------------------------------------

class CountingIterator:
    """0, 1, ..., n - 1, counting how many items were pulled."""

    def __init__(self, n):
        self.n, self.pulled = n, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == self.n:
            raise StopIteration
        self.pulled += 1
        return self.pulled - 1


def test_until_full_stops_before_the_item_after_the_cap():
    out = TaskRecords("s", "obj_count", dataclasses.replace(CFG, max_per_task=3))
    items, seen = CountingIterator(10), []
    for k in out.until_full(items):
        seen.append(k)
        if k % 2 == 0:
            out.add(ANSWER_NA, "q", "2")
    assert seen == [0, 1, 2, 3, 4] and len(out.records) == 3
    assert items.pulled == 5


def test_until_full_on_a_full_task_pulls_nothing():
    out = TaskRecords("s", "obj_count", dataclasses.replace(CFG, max_per_task=1))
    out.add(ANSWER_NA, "q", "2")
    items = CountingIterator(4)
    assert list(out.until_full(items)) == [] and items.pulled == 0


def test_until_full_passes_a_short_input_whole():
    out = TaskRecords("s", "obj_count", CFG)
    items = CountingIterator(3)
    assert list(out.until_full(items)) == [0, 1, 2] and items.pulled == 3


# --- ingestion ------------------------------------------------------------------------

def test_load_trajectories_jsonl(tmp_path):
    lines = [
        {"scene_id": "s1", "waypoints": [[0, 0], [2, 0], [2, 2]]},
        {"scene_id": "s2", "waypoints": [[0, 0, 0], [4, 0, 0]]},
    ]
    p = tmp_path / "t.jsonl"
    p.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    loaded = load_trajectories(p)
    assert [sid for sid, _ in loaded] == ["s1", "s2"]
    assert np.allclose(loaded[0][1].waypoints[:, 2], 0.0)  # z defaults to 0
    assert len(loaded[1][1]) == 2


@pytest.mark.parametrize("doc", [
    {"scene_id": 7, "waypoints": [[0, 0], [2, 0]]},
    {"scene_id": "", "waypoints": [[0, 0], [2, 0]]},
    {"scene_id": None, "waypoints": [[0, 0], [2, 0]]},
    {"scene_id": "s1", "waypoints": [[0, 0], ["1", 0]]},
    {"scene_id": "s1", "waypoints": [[0, 0], [True, 0]]},
    {"scene_id": "s1", "waypoints": [[0, 0], [None, 0]]},
    {"scene_id": "s1", "waypoints": [[0, 0], [[2], 0]]},
    {"scene_id": "s1", "waypoints": [[0, 0], [2, 0, 0]]},
    {"scene_id": "s1", "waypoints": "0,0;2,0"},
    {"scene_id": "s1", "waypoints": [0, 0, 2, 0]},
], ids=["int_scene_id", "empty_scene_id", "null_scene_id", "string_coordinate",
        "bool_coordinate", "null_coordinate", "nested_coordinate", "ragged_waypoints",
        "string_waypoints", "flat_waypoints"])
def test_load_trajectories_rejects_malformed_lines(tmp_path, doc):
    p = tmp_path / "t.jsonl"
    good = {"scene_id": "s1", "waypoints": [[0, 0], [2, 0], [2, 2]]}
    p.write_text(json.dumps(good) + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(InputError) as err:
        load_trajectories(p)
    assert f"{p}:2" in str(err.value)
