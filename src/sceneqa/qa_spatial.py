"""The seven scene-level spatial question families.

Each generator is a pure function ``gen(ctx, cfg)`` of the scene graph
and the config. It names its task once, in the ``TaskRecords`` that numbers
its qids and draws its named RNG streams: iteration follows a sorted object
order, randomness comes only from those streams, and the emitted record
list is byte-stable across runs and worker layouts.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from .errors import DegenerateDirection
from .geometry import planar_signed_angle, vector_norm
from .graph import SceneGraph
from .qa_records import ANSWER_MCA, ANSWER_NA, GenConfig, TaskRecords, round_tenth, round_unit


def gen_object_count(ctx: SceneGraph, cfg: GenConfig):
    """One numeric question per category with at least two instances."""
    counts = ctx.scene.category_counts
    out = TaskRecords(ctx.scene_id, "obj_count", cfg)
    for cat in sorted(c for c, n in counts.items() if n >= 2):
        out.add(
            ANSWER_NA,
            f"How many {cat}(s) are in this room?",
            str(counts[cat]),
            meta={"category": cat},
        )
    return out.records


def gen_absolute_distance(ctx: SceneGraph, cfg: GenConfig):
    """Closest-point distance between two category-unique objects, in meters."""
    out = TaskRecords(ctx.scene_id, "abs_dist", cfg)
    for a, b in out.select(combinations(ctx.unique_objects, 2)):
        dist = ctx.box_distance(a, b)
        if dist < cfg.min_pair_dist_m:
            continue
        out.add(
            ANSWER_NA,
            f"Measuring from the closest point of each object, what is the "
            f"distance between the {a.category} and the {b.category} (in meters)?",
            round_tenth(dist),
            meta={"pair": [a.instance_id, b.instance_id]},
        )
    return out.records


def gen_relative_distance(ctx: SceneGraph, cfg: GenConfig):
    """Which of four candidates is closest to a target object (MCA).

    Emitted only when the winner beats the runner-up by the ambiguity
    margin; candidate draws come from a per-target RNG stream.
    """
    uniq = ctx.unique_objects
    if len(uniq) < 5:
        return []
    out = TaskRecords(ctx.scene_id, "rel_dist", cfg)
    for k, target in out.until_full(enumerate(uniq)):
        rng = out.rng(k)
        others = [o for o in uniq if o.instance_id != target.instance_id]
        picks = rng.choice(len(others), size=4, replace=False).tolist()
        candidates = [others[i] for i in picks]
        dists = [ctx.box_distance(target, c) for c in candidates]
        order = np.argsort(dists, kind="stable")
        if dists[order[1]] - dists[order[0]] < cfg.ambiguity_margin_m:
            continue
        options = [c.category for c in candidates]
        winner = candidates[order[0]].category
        out.add(
            ANSWER_MCA,
            f"Measuring from the closest point of each object, which of these "
            f"objects ({', '.join(options)}) is the closest to the {target.category}?",
            winner, options=options,
            meta={"target": target.instance_id,
                  "candidates": [c.instance_id for c in candidates]},
        )
    return out.records


def _direction_bucket(theta: float, cfg: GenConfig):
    if cfg.rel_dir_front_deg < theta < cfg.rel_dir_back_deg:
        return "left"
    if -cfg.rel_dir_back_deg < theta < -cfg.rel_dir_front_deg:
        return "right"
    if abs(theta) >= cfg.rel_dir_back_deg:
        return "back"
    return None  # front cone / boundary: discard


def gen_relative_direction(ctx: SceneGraph, cfg: GenConfig):
    """Left/right/back of a query object from an observer standing at A facing B."""
    out = TaskRecords(ctx.scene_id, "rel_dir", cfg)
    for a, b, c in out.select(permutations(ctx.unique_objects, 3)):
        ax, ay, _ = a.box.center_floats
        bx, by, _ = b.box.center_floats
        cx, cy, _ = c.box.center_floats
        forward = (bx - ax, by - ay)
        rel = (cx - ax, cy - ay)
        if vector_norm(rel) < cfg.min_planar_dist_m:
            continue
        try:
            theta = planar_signed_angle(forward, rel)
        except DegenerateDirection:
            continue
        bucket = _direction_bucket(theta, cfg)
        if bucket is None:
            continue
        out.add(
            ANSWER_MCA,
            f"If I am standing by the {a.category} and facing the {b.category}, "
            f"is the {c.category} to the left, to the right, or behind me?",
            bucket, options=["left", "right", "back"],
            meta={"standing_at": a.instance_id, "facing": b.instance_id,
                  "query": c.instance_id, "angle_deg": round(theta, 3)},
        )
    return out.records


def gen_object_size(ctx: SceneGraph, cfg: GenConfig):
    """Longest box dimension of each category-unique object, in centimeters.

    Objects whose size rounds to 0 cm are skipped: a zero truth cannot be
    scored by relative accuracy.
    """
    out = TaskRecords(ctx.scene_id, "obj_size", cfg)
    for obj in ctx.unique_objects:
        truth = round_unit(float(np.max(obj.box.size)) * 100.0)
        if truth == "0":
            continue
        out.add(
            ANSWER_NA,
            f"What is the length of the longest dimension (length, width, or "
            f"height) of the {obj.category}, measured in centimeters?",
            truth,
            meta={"instance": obj.instance_id},
        )
    return out.records


# A point is culled only when its orientation against every octagon edge
# exceeds this fraction of edge length (L1) times coordinate magnitude: over
# a thousand times the worst rounding error of that float64 test.
_CULL_MARGIN = 2.0 ** -40
_TINY = np.finfo(float).tiny


def _octagon_survivors(xy: np.ndarray) -> np.ndarray:
    """Akl-Toussaint prefilter: drop points strictly inside the octagon of
    the extreme points in x, y, x+y and x-y, by a margin.

    The eight extremes are input points listed counterclockwise, so their
    polygon lies inside the hull. A point whose computed orientation against
    every edge exceeds the margin is inside that polygon in exact
    arithmetic, deep enough that it is no hull vertex. Where the test is
    unsure, nothing is culled: a degenerate octagon (fewer than three edges)
    or a margin that underflows culls no point, and a comparison that
    overflows or meets a NaN is false, so the point stays.
    """
    if len(xy) == 0:
        return xy
    x, y = xy[:, 0], xy[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        s, d = x + y, x - y
        ring = xy[[np.argmin(y), np.argmax(d), np.argmax(x), np.argmax(s),
                   np.argmax(y), np.argmin(d), np.argmin(x), np.argmin(s)]]
        edges = [(a, b) for a, b in zip(ring, np.roll(ring, -1, axis=0))
                 if not np.array_equal(a, b)]
        if len(edges) < 3:
            return xy
        scale = np.max(np.abs(ring))
        keep = np.zeros(len(xy), dtype=bool)
        for (ax, ay), (bx, by) in edges:
            ex, ey = bx - ax, by - ay
            margin = _CULL_MARGIN * (abs(ex) + abs(ey)) * scale
            if not margin >= _TINY:
                return xy
            keep |= ~(ex * (y - ay) - ey * (x - ax) > margin)
    return xy[keep]


def _half_chain(xs: list, ys: list, order) -> list:
    """One half of Andrew's monotone chain over indices into xs/ys; a
    collinear middle point is dropped (``cross2 <= 0``)."""
    chain = []
    for i in order:
        px, py = xs[i], ys[i]
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            ox, oy = xs[o], ys[o]
            if (xs[a] - ox) * (py - oy) - (ys[a] - oy) * (px - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(i)
    return chain


def convex_hull_area_xy(points: np.ndarray) -> float:
    """Area of the 2D convex hull of floor-projected points.

    An Akl-Toussaint octagon cull runs first, on the raw points; the
    survivors are lexsorted and equal neighbours dropped, Andrew's monotone
    chain runs on them as plain Python floats, and the shoelace sum over the
    hull gives the area: each product x_k y_k+1 and -(y_k x_k+1) rounded
    once, and their sum rounded once by ``math.fsum``, so no summation order
    enters. The cull cannot change the area: it drops only points that lie
    inside the hull by over a thousand times the rounding error of an
    orientation test. Such a point is no hull vertex, and its depth, not
    rounding, decides every test it takes part in, so it enters the chain
    only to be popped again; the points near the hull boundary meet in the
    same triples, under the same float64 arithmetic, as in a chain over every
    point. The hull vertices, their order and so the area bits are unchanged;
    the tests check this bit for bit against that full chain.
    """
    xy = np.asarray(points, dtype=float)[:, :2]
    pts = _octagon_survivors(xy)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[distinct]
    if len(pts) < 3:
        return 0.0
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    lower = _half_chain(xs, ys, range(len(xs)))
    upper = _half_chain(xs, ys, range(len(xs) - 1, -1, -1))
    hull = lower[:-1] + upper[:-1]
    succ = hull[1:] + hull[:1]
    twice = math.fsum([xs[i] * ys[j] for i, j in zip(hull, succ)]
                      + [-(ys[i] * xs[j]) for i, j in zip(hull, succ)])
    return abs(twice) / 2.0


def gen_room_size(ctx: SceneGraph, cfg: GenConfig):
    """Room floor area in square meters.

    Uses the convex hull of the floor-projected cloud when the scene has one
    (an over-estimate for non-convex rooms, recorded in meta), otherwise the
    scene-extents footprint. Nothing is emitted when the area rounds to 0.
    """
    if ctx.cloud is not None:
        area = convex_hull_area_xy(ctx.cloud.positions)
        method = "convex_hull"
    else:
        lo, hi = ctx.scene.scene_extents
        area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
        method = "extents"
    truth = round_tenth(area)
    out = TaskRecords(ctx.scene_id, "room_size", cfg)
    if float(truth) > 0:
        out.add(
            ANSWER_NA,
            "What is the area of this room (in square meters)?",
            truth,
            meta={"method": method},
        )
    return out.records


def gen_appearance_order(ctx: SceneGraph, cfg: GenConfig):
    """First-appearance order of four categories (MCA over orderings).

    Only category quadruples whose first-seen frames are pairwise separated
    by at least ``appearance_gap_frames`` are used, so the right order stays
    unambiguous under small annotation shifts.
    """
    seen = sorted(ctx.category_first_seen.items(), key=lambda kv: (kv[1], kv[0]))
    if len(seen) < 4:
        return []
    quads = [q for q in combinations(seen, 4)
             if all(q[i + 1][1] - q[i][1] >= cfg.appearance_gap_frames for i in range(3))]
    out = TaskRecords(ctx.scene_id, "appearance_order", cfg)
    for k, quad in enumerate(out.select(quads)):
        rng = out.rng(k)
        cats = [cat for cat, _ in quad]  # already ascending by first-seen
        truth = ", ".join(cats)
        distractors = []
        while len(distractors) < 3:
            perm = ", ".join(rng.permutation(cats).tolist())
            if perm != truth and perm not in distractors:
                distractors.append(perm)
        options = [truth, *distractors]
        rng.shuffle(options)
        listed = rng.permutation(cats).tolist()
        out.add(
            ANSWER_MCA,
            f"What will be the first-time appearance order of the following "
            f"categories in the video: {', '.join(listed)}?",
            truth, options=options,
            meta={"first_seen": {cat: fid for cat, fid in quad}},
        )
    return out.records


SPATIAL_GENERATORS = {
    "obj_count": gen_object_count,
    "abs_dist": gen_absolute_distance,
    "rel_dist": gen_relative_distance,
    "rel_dir": gen_relative_direction,
    "obj_size": gen_object_size,
    "room_size": gen_room_size,
    "appearance_order": gen_appearance_order,
}
