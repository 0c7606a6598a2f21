"""Trajectory classification, anchor labeling and route-plan question rendering.

A trajectory is a floor-plane waypoint polyline. Heading changes at interior
waypoints are clustered (junctions closer than a small window merge, sub-
noise-floor jitter is ignored); a single cluster whose accumulated change
exceeds the turn threshold makes the route a TurnLeft/TurnRight, none makes
it a TurnBack, and more than one makes it unusable ("multi_turn").

The two question templates are fixed text with SRC/MID/TGT slots; answers
are always re-derived from the traversal the rendered text actually
describes, so a mirrored or reversed route can never carry a stale label.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import DegenerateDirection
from .frozen import Frozen, set_field
from .geometry import MAX_COORD, ordered_sum, planar_signed_angle, row_norms
from .graph import SceneGraph
from .metadata import read_jsonl
from .qa_records import ANSWER_MCA, GenConfig, QaRecord, TaskRecords

ROUTE_OPTIONS = ("turn back", "turn left", "turn right")

# Why a trajectory yields no record, returned by the stage that finds it.
ROUTE_SKIPS = ("too_short", "multi_turn", "degenerate_direction", "no_objects",
               "anchor_too_far", "shared_anchor", "no_turn_named")

TEMPLATE_1 = (
    "You are a robot beginning at the {src} facing the {mid}. You want to "
    "navigate to the {tgt}. You will perform the following actions (Note: "
    "for each [please fill in], choose either 'turn back,' 'turn left,' or "
    "'turn right.'):  1. Go forward until the {mid}. 2. [please fill in] "
    "3. Go forward until the {tgt}. You have reached the final destination."
)

TEMPLATE_2 = (
    "You are a robot beginning at the {mid} facing the {tgt}. You want to "
    "navigate to the {src}. You will perform the following actions (Note: "
    "for each [please fill in], choose either 'turn back,' 'turn left,' or "
    "'turn right.'):  1. [please fill in] 2. Go forward until the {src}. "
    "You have reached the final destination."
)


class Trajectory(Frozen):
    """Ordered floor-plane waypoints, (m, 3), each coordinate within
    ``geometry.MAX_COORD``, and the (m - 1, 3) steps between them with their
    lengths, derived once. Consecutive waypoints must be distinct; a
    single-waypoint path is representable but unclassifiable ("too_short").
    Trajectories compare by their waypoints."""

    __slots__ = ("waypoints", "steps", "step_lengths")
    _fields = ("waypoints",)

    def __init__(self, waypoints: np.ndarray):
        w = np.array(waypoints, dtype=float)  # a copy: the derived steps cannot go stale
        if w.ndim < 2:  # as np.atleast_2d
            w = w.reshape(1, -1)
        if w.shape[1] == 2:
            w = np.column_stack([w, np.zeros(len(w))])
        if w.shape[1] != 3:
            raise ValueError(f"waypoints must be (m, 3), got {w.shape}")
        if not (np.abs(w) <= MAX_COORD).all():  # or NaN; bounded, so no step overflows
            raise ValueError(f"waypoints must be finite and within {MAX_COORD:g} m")
        steps = w[1:] - w[:-1]
        lengths = row_norms(steps).tolist()
        if any(length <= 1e-6 for length in lengths):
            raise ValueError("consecutive waypoints must be more than 1e-6 m apart")
        set_field(self, "waypoints", w)
        set_field(self, "steps", steps)
        set_field(self, "step_lengths", tuple(lengths))

    def __len__(self):
        return len(self.waypoints)


class ClassifiedRoute(Frozen):
    """``kind`` is "TurnLeft", "TurnRight" or "TurnBack"; ``anchors`` the
    (src, mid, tgt) positions, each (3,)."""

    __slots__ = _fields = ("kind", "anchors", "turn_angle_deg")

    def __init__(self, kind: str, anchors: tuple, turn_angle_deg: float):
        set_field(self, "kind", kind)
        set_field(self, "anchors", anchors)
        set_field(self, "turn_angle_deg", turn_angle_deg)


def _arclength_midpoint(t: Trajectory) -> np.ndarray:
    half = ordered_sum(t.step_lengths) / 2.0
    walked = 0.0
    for k, length in enumerate(t.step_lengths):
        if walked + length >= half:
            return t.waypoints[k] + (half - walked) / length * t.steps[k]
        walked += length
    return t.waypoints[-1]


def classify_trajectory(t: Trajectory, cfg: GenConfig) -> ClassifiedRoute | str:
    """Classify a trajectory as one logical turn or a turn-back route.

    Returns "too_short" for fewer than two waypoints, "degenerate_direction"
    for a step with no floor-plane component, and "multi_turn" when more than
    one accumulated heading change exceeds the threshold.
    """
    w = t.waypoints
    if len(w) < 2:
        return "too_short"

    try:
        deltas = [planar_signed_angle(a, b) for a, b in zip(t.steps, t.steps[1:])]
    except DegenerateDirection:
        return "degenerate_direction"

    # Cluster significant junctions that sit within the jitter window.
    clusters = []  # (first_junction, last_junction)
    for k, delta in enumerate(deltas):
        if abs(delta) <= cfg.turn_noise_floor_deg:
            continue
        if clusters and k - clusters[-1][1] <= cfg.turn_window_segments - 1:
            clusters[-1] = (clusters[-1][0], k)
        else:
            clusters.append((k, k))

    turns = [(first, last, ordered_sum(deltas[first:last + 1])) for first, last in clusters]
    qualifying = [turn for turn in turns if abs(turn[2]) > cfg.turn_threshold_deg]

    if len(qualifying) > 1:
        return "multi_turn"

    if len(qualifying) == 1:
        first, last, angle = qualifying[0]
        peak = max(range(first, last + 1), key=lambda k: abs(deltas[k]))
        turn_point = w[peak + 1]  # junction k sits at waypoint k+1
        kind = "TurnLeft" if angle > 0 else "TurnRight"
        return ClassifiedRoute(kind, (w[0], turn_point, w[-1]), float(angle))

    return ClassifiedRoute("TurnBack", (w[0], _arclength_midpoint(t), w[-1]), 0.0)


def label_anchors(route: ClassifiedRoute, objects, centers: np.ndarray,
                  max_anchor_dist_m: float):
    """Category of the nearest of the K objects (planar distance to their
    (K, 2) ``centers``; the first in scene order of equals) per anchor.

    Returns "no_objects" for a scene without objects, "anchor_too_far" when
    an anchor's nearest object is farther than ``max_anchor_dist_m``, and
    "shared_anchor" when two anchors resolve to the same instance: either
    way the route is unusable for question text.
    """
    if not objects:
        return "no_objects"
    labels = []
    used = []
    for anchor in route.anchors:
        dists = row_norms(centers - anchor[:2])
        k = int(np.argmin(dists))
        if dists[k] > max_anchor_dist_m:
            return "anchor_too_far"
        best = objects[k]
        if best.instance_id in used:
            return "shared_anchor"
        used.append(best.instance_id)
        labels.append(best.category)
    return tuple(labels)


def classify_turn_action(facing_dir, move_dir, cfg: GenConfig):
    """Action verb for "face along facing_dir, then move along move_dir".

    Returns "turn left" / "turn right" / "turn back", or None when the move
    stays inside the forward cone (no turn to name).
    """
    theta = planar_signed_angle(facing_dir, move_dir)
    if abs(theta) >= cfg.rel_dir_back_deg:
        return "turn back"
    if theta > cfg.turn_threshold_deg:
        return "turn left"
    if theta < -cfg.turn_threshold_deg:
        return "turn right"
    return None


def render_route_qa(route: ClassifiedRoute, labels, cfg: GenConfig,
                    out: TaskRecords) -> QaRecord | str:
    """Instantiate the route templates for a classified, labeled route, add
    the record to ``out`` and return it.

    Template 1 walks src -> mid -> tgt with the fill-in at mid. Template 2
    places the agent at mid; it is used for TurnBack routes (facing the
    start, moving to the end) and, when ``cfg.route_alternative_mode`` is
    set, for turns sharper than the alternative threshold (facing the end,
    moving back to the start). The ground truth is re-derived from whichever
    traversal the rendered text describes. A route whose re-derived action
    names no turn, or not its own turn under Template 1, adds nothing and
    returns "no_turn_named"; one whose traversal has a direction with no
    floor-plane component returns "degenerate_direction".
    """
    src_pos, mid_pos, tgt_pos = route.anchors
    src_lbl, mid_lbl, tgt_lbl = labels
    meta = {"kind": route.kind, "turn_angle_deg": round(route.turn_angle_deg, 3)}

    if route.kind == "TurnBack":
        # Agent stands at mid facing the start anchor, then moves to the end:
        # template slots are swapped so the text matches that traversal.
        question = TEMPLATE_2.format(mid=mid_lbl, tgt=src_lbl, src=tgt_lbl)
        facing, move = src_pos - mid_pos, tgt_pos - mid_pos
        meta["template"] = "Template2"
    elif cfg.route_alternative_mode and abs(route.turn_angle_deg) > cfg.alt_turn_threshold_deg:
        question = TEMPLATE_2.format(mid=mid_lbl, tgt=tgt_lbl, src=src_lbl)
        facing, move = tgt_pos - mid_pos, src_pos - mid_pos
        meta["template"] = "Template2"
        meta["primary_action"] = "turn left" if route.kind == "TurnLeft" else "turn right"
    else:
        question = TEMPLATE_1.format(src=src_lbl, mid=mid_lbl, tgt=tgt_lbl)
        facing, move = mid_pos - src_pos, tgt_pos - mid_pos
        meta["template"] = "Template1"
    try:
        truth = classify_turn_action(facing, move, cfg)
    except DegenerateDirection:
        return "degenerate_direction"

    expected = {"TurnLeft": "turn left", "TurnRight": "turn right",
                "TurnBack": "turn back"}[route.kind]
    if truth is None or (meta["template"] == "Template1" and truth != expected):
        return "no_turn_named"

    return out.add(ANSWER_MCA, question, truth, options=ROUTE_OPTIONS, meta=meta)


def route_outcome(traj: Trajectory, objects, centers: np.ndarray, cfg: GenConfig,
                  out: TaskRecords) -> QaRecord | str:
    """Classify, label and render one trajectory: the record it adds to
    ``out``, or the reason in ``ROUTE_SKIPS`` that it adds none."""
    route = classify_trajectory(traj, cfg)
    if isinstance(route, str):
        return route
    labels = label_anchors(route, objects, centers, cfg.max_anchor_dist_m)
    if isinstance(labels, str):
        return labels
    return render_route_qa(route, labels, cfg, out)


def gen_route_plan(g: SceneGraph, trajectories, cfg: GenConfig):
    """Classify, label and render a scene's usable trajectories, first come
    first kept up to ``max_per_task``; returns ``(records, skipped)``."""
    objects = g.scene.objects
    centers = np.array([o.box.center[:2] for o in objects])
    out = TaskRecords(g.scene_id, "route_plan", cfg)
    skipped = 0
    for traj in out.until_full(trajectories):
        skipped += isinstance(route_outcome(traj, objects, centers, cfg, out), str)
    return out.records, skipped


def _trajectory_from_dict(doc) -> tuple:
    scene_id, waypoints = doc["scene_id"], doc["waypoints"]
    if not isinstance(scene_id, str) or not scene_id:
        raise ValueError(f"scene_id must be a nonempty string, got {scene_id!r}")
    if not (isinstance(waypoints, list) and all(isinstance(w, list) for w in waypoints)
            and {int, float}.issuperset(map(type, chain.from_iterable(waypoints)))):
        raise ValueError("waypoints must be a list of [x, y] or [x, y, z] lists of numbers")
    return scene_id, Trajectory(np.asarray(waypoints, dtype=float))


def load_trajectories(path):
    """Read the trajectory ingestion format: one JSON object per line with
    {"scene_id": str, "waypoints": [[x, y, z?], ...]} (z defaults to 0).
    A malformed line, including a non-string scene id and a coordinate that
    is not a JSON number, raises InputError naming path:line."""
    _, out = read_jsonl(path, _trajectory_from_dict)
    return out
