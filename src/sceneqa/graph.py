"""Spatio-temporal scene graph: object nodes, per-frame camera nodes, visibility.

The graph is the per-scene object every task generator reads; one build_graph
call makes it, and derived facts are computed on first use and kept.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DanglingInstanceRef, TooFewFrames
from .frozen import Frozen, set_field
from .geometry import box_box_distance, world_to_camera
from .metadata import FrameMetadata, SceneMetadata
from .qa_records import GenConfig


class SceneGraph(Frozen):
    """``visibility`` maps a frame_id to the frozenset of instance ids kept
    in it, ``first_seen`` an instance_id to its first frame_id, and
    ``category_first_seen`` a category to its first frame_id; ``cloud`` is
    the scene's LabeledPointCloud, when it has one. Graphs compare by these
    constructor fields, not by their memos."""

    _fields = ("scene", "frames", "visibility", "first_seen", "category_first_seen",
               "_objects_by_id", "_frames_by_id", "sample_frames", "cloud", "trajectories")
    # per-scene memos, filled on first use and not part of the frozen state:
    # two dicts, and __dict__ for the cached properties
    __slots__ = _fields + ("_box_distances", "_camera_corners", "__dict__")

    def __init__(self, scene: SceneMetadata, frames: FrameMetadata, visibility: dict,
                 first_seen: dict, category_first_seen: dict, _objects_by_id: dict,
                 _frames_by_id: dict, sample_frames: int = GenConfig.sample_frames,
                 cloud=None, trajectories: tuple = ()):
        set_field(self, "scene", scene)
        set_field(self, "frames", frames)
        set_field(self, "visibility", visibility)
        set_field(self, "first_seen", first_seen)
        set_field(self, "category_first_seen", category_first_seen)
        set_field(self, "_objects_by_id", _objects_by_id)
        set_field(self, "_frames_by_id", _frames_by_id)
        set_field(self, "sample_frames", sample_frames)
        set_field(self, "cloud", cloud)
        set_field(self, "trajectories", trajectories)
        set_field(self, "_box_distances", {})
        set_field(self, "_camera_corners", {})

    @property
    def scene_id(self) -> str:
        return self.scene.scene_id

    def frame_ids(self):
        return [fr.frame_id for fr in self.frames.frames]

    def frame(self, frame_id: int):
        return self._frames_by_id[frame_id]

    def object(self, instance_id: int):
        return self._objects_by_id[instance_id]

    def visible_in(self, frame_id: int) -> frozenset:
        return self.visibility[frame_id]

    @cached_property
    def frame_seq(self) -> tuple:
        """Sampled frame ids; empty when the capture has fewer than 2 frames."""
        if len(self.frames.frames) < 2:
            return ()
        return tuple(sample_frame_sequence(self, self.sample_frames))

    @cached_property
    def unique_objects(self) -> tuple:
        """Objects whose category occurs once in the scene, sorted by category."""
        counts = self.scene.category_counts
        return tuple(sorted((o for o in self.scene.objects if counts[o.category] == 1),
                            key=lambda o: o.category))

    def unique_visible(self, frame_id: int) -> list:
        """Category-unique objects visible in a frame, sorted by category."""
        vis = self.visible_in(frame_id)
        return [o for o in self.unique_objects if o.instance_id in vis]

    def box_distance(self, a, b) -> float:
        """box_box_distance of two scene objects, computed once per unordered
        pair (exact: box_box_distance orders its arguments canonically)."""
        key = (min(a.instance_id, b.instance_id), max(a.instance_id, b.instance_id))
        dist = self._box_distances.get(key)
        if dist is None:
            dist = self._box_distances[key] = box_box_distance(a.box, b.box)
        return dist

    @cached_property
    def _world_corners(self) -> tuple:
        """(K, 8, 3) world corners of the K scene objects, and each instance's row."""
        objects = self.scene.objects
        rows = {o.instance_id: k for k, o in enumerate(objects)}
        return np.array([o.box.corners() for o in objects]), rows


def build_graph(scene: SceneMetadata, frames: FrameMetadata,
                min_bbox_area_px: float = GenConfig.min_bbox_area_px,
                sample_frames: int = GenConfig.sample_frames, cloud=None,
                trajectories=()) -> SceneGraph:
    """Build the graph, keeping only detections with 2D area >= the threshold,
    with a run's frame sample size, cloud and trajectories attached.

    Raises DanglingInstanceRef if any frame references an instance id that
    the scene metadata does not declare.
    """
    objects_by_id = {o.instance_id: o for o in scene.objects}
    # every detection's area at once over the capture's (N, 4) bbox stack,
    # by the same elementwise products; one flag per detection, in order
    b = np.array([bbox for fr in frames.frames for _, bbox in fr.visible_objects],
                 dtype=float).reshape(-1, 4)
    large = iter(((b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1]) >= min_bbox_area_px).tolist())

    visibility = {}
    first_seen = {}
    for fr in frames.frames:
        kept = set()
        for (instance_id, _), keep in zip(fr.visible_objects, large):
            if instance_id not in objects_by_id:
                raise DanglingInstanceRef(fr.frame_id, instance_id)
            if keep:
                kept.add(instance_id)
                if instance_id not in first_seen:
                    first_seen[instance_id] = fr.frame_id
        visibility[fr.frame_id] = frozenset(kept)

    category_first_seen = {}
    for instance_id, fid in first_seen.items():
        cat = objects_by_id[instance_id].category
        if cat not in category_first_seen or fid < category_first_seen[cat]:
            category_first_seen[cat] = fid

    frames_by_id = {fr.frame_id: fr for fr in frames.frames}
    return SceneGraph(scene, frames, visibility, first_seen, category_first_seen,
                      objects_by_id, frames_by_id, sample_frames, cloud, tuple(trajectories))


def object_in_camera(g: SceneGraph, frame_id: int, instance_id: int) -> np.ndarray:
    """The 8 box corners of an instance in the frame's camera coordinates: its
    row of the frame's read-only (K, 8, 3) memo, one product for all K objects."""
    world, rows = g._world_corners
    corners = g._camera_corners.get(frame_id)
    if corners is None:
        fr = g.frame(frame_id)
        corners = g._camera_corners[frame_id] = world_to_camera(world, fr.rotation, fr.position)
        corners.flags.writeable = False
    return corners[rows[instance_id]]


def sample_frame_sequence(g: SceneGraph, n: int):
    """n frame ids uniformly spaced over the capture, first and last included.

    Positions are round(i*(m-1)/(n-1)) with ties rounding up; when n reaches
    the frame count every frame is returned in order. Deterministic.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    ids = g.frame_ids()
    m = len(ids)
    if m < 2:
        raise TooFewFrames(f"need at least 2 frames, graph has {m}")
    if n >= m:
        return list(ids)
    picks = [int(i * (m - 1) / (n - 1) + 0.5) for i in range(n)]
    return [ids[p] for p in picks]


def graph_to_dict(g: SceneGraph) -> dict:
    """Single-document debug dump (non-normative)."""
    return {
        "scene_id": g.scene_id,
        "objects": [{"instance_id": o.instance_id, "category": o.category}
                    for o in g.scene.objects],
        "frames": g.frame_ids(),
        "visibility": {str(fid): sorted(g.visibility[fid]) for fid in sorted(g.visibility)},
        "first_seen": {str(k): v for k, v in sorted(g.first_seen.items())},
        "category_first_seen": dict(sorted(g.category_first_seen.items())),
    }
