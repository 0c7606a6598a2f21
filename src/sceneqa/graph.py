"""Spatio-temporal scene graph: object nodes, per-frame camera nodes, visibility.

The graph is immutable after build; all queries are read-only and safe to
call from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DanglingInstanceRef, TooFewFrames, UnknownFrame, UnknownInstance
from .geometry import _world_to_camera, box_box_distance
from .metadata import FrameMetadata, SceneMetadata

DEFAULT_MIN_BBOX_AREA_PX = 400.0


@dataclass(frozen=True)
class SceneGraph:
    scene: SceneMetadata
    frames: FrameMetadata
    visibility: dict        # frame_id -> frozenset of instance_id
    first_seen: dict        # instance_id -> frame_id
    category_first_seen: dict  # category -> frame_id
    _objects_by_id: dict = field(repr=False)
    _frames_by_id: dict = field(repr=False)

    @property
    def scene_id(self) -> str:
        return self.scene.scene_id

    def frame_ids(self):
        return [fr.frame_id for fr in self.frames.frames]

    def frame(self, frame_id: int):
        fr = self._frames_by_id.get(frame_id)
        if fr is None:
            raise UnknownFrame(f"frame {frame_id} not in graph")
        return fr

    def object(self, instance_id: int):
        obj = self._objects_by_id.get(instance_id)
        if obj is None:
            raise UnknownInstance(f"instance {instance_id} not in graph")
        return obj

    def visible_in(self, frame_id: int) -> frozenset:
        self.frame(frame_id)
        return self.visibility.get(frame_id, frozenset())


def build_graph(scene: SceneMetadata, frames: FrameMetadata,
                min_bbox_area_px: float = DEFAULT_MIN_BBOX_AREA_PX) -> SceneGraph:
    """Build the graph, keeping only detections with 2D area >= the threshold.

    Raises DanglingInstanceRef if any frame references an instance id that
    the scene metadata does not declare.
    """
    objects_by_id = {o.instance_id: o for o in scene.objects}

    visibility = {}
    first_seen = {}
    for fr in frames.frames:
        kept = set()
        for instance_id, bbox in fr.visible_objects:
            if instance_id not in objects_by_id:
                raise DanglingInstanceRef(fr.frame_id, instance_id)
            area = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
            if area >= min_bbox_area_px:
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
                      objects_by_id, frames_by_id)


def camera_position(g: SceneGraph, frame_id: int) -> np.ndarray:
    """World-frame camera center at a frame."""
    return g.frame(frame_id).pose.position


def object_in_camera(g: SceneGraph, frame_id: int, instance_id: int) -> np.ndarray:
    """The 8 box corners of an instance in the frame's camera coordinates."""
    pose = g.frame(frame_id).pose
    rot, t = pose.rotation, pose.translation
    return np.stack([_world_to_camera(c, rot, t) for c in g.object(instance_id).box.corners()])


def sample_frame_sequence(g: SceneGraph, n: int = 32):
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


@dataclass(frozen=True)
class SceneContext:
    """The per-scene facts every task generator reads, derived once per scene."""

    graph: SceneGraph
    frame_seq: tuple       # sampled frame ids; empty when the capture has < 2 frames
    unique_objects: tuple  # objects whose category occurs once, sorted by category
    cloud: object = None   # LabeledPointCloud, when the scene has one
    trajectories: tuple = ()
    # per-scene memos, filled on first use; not part of the frozen state
    _box_distances: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _camera_corners: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def scene_id(self) -> str:
        return self.graph.scene_id

    def box_distance(self, a, b) -> float:
        """box_box_distance of two scene objects, computed once per unordered
        pair (exact: box_box_distance orders its arguments canonically)."""
        key = (min(a.instance_id, b.instance_id), max(a.instance_id, b.instance_id))
        dist = self._box_distances.get(key)
        if dist is None:
            dist = self._box_distances[key] = box_box_distance(a.box, b.box)
        return dist

    def corners_in_camera(self, frame_id: int, instance_id: int) -> np.ndarray:
        """object_in_camera, computed once per (frame, instance); read-only."""
        key = (frame_id, instance_id)
        corners = self._camera_corners.get(key)
        if corners is None:
            corners = self._camera_corners[key] = object_in_camera(self.graph, frame_id, instance_id)
            corners.flags.writeable = False
        return corners

    def unique_visible(self, frame_id: int) -> list:
        """Category-unique objects visible in a frame, sorted by category."""
        vis = self.graph.visible_in(frame_id)
        return [o for o in self.unique_objects if o.instance_id in vis]


def scene_context(g: SceneGraph, sample_frames: int, cloud=None,
                  trajectories=()) -> SceneContext:
    """Sample the frame sequence and index the category-unique objects."""
    seq = sample_frame_sequence(g, sample_frames) if len(g.frames.frames) >= 2 else ()
    counts = g.scene.category_counts
    unique = sorted((o for o in g.scene.objects if counts[o.category] == 1),
                    key=lambda o: o.category)
    return SceneContext(g, tuple(seq), tuple(unique), cloud, tuple(trajectories))


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
