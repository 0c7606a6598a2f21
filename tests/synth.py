"""Synthetic scenes, clouds and trajectories for deterministic tests."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from sceneqa.metadata import (
    FrameMetadata,
    frame_metadata_from_dict,
    save_scene_metadata,
    scene_metadata_from_dict,
)
from sceneqa.ply_io import LabeledPointCloud, write_ply

CATEGORIES = (
    "chair", "table", "lamp", "sofa", "bed", "desk", "monitor", "plant",
    "shelf", "cabinet", "pillow", "tv", "rug", "stool", "mirror", "heater",
    "piano", "fridge",
)

INTRINSICS = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
              "width": 640, "height": 480}


def _cross(a, b) -> list:
    """np.cross of two 3-vectors on plain floats: the same products and
    differences, so the same bits, without numpy's per-call overhead."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def upright_pose_matrix(position, yaw, pitch=0.0) -> np.ndarray:
    """Camera-to-world 4x4 for an upright camera (+Y down maps near world -Z)."""
    forward = [math.cos(yaw) * math.cos(pitch), math.sin(yaw) * math.cos(pitch),
               -math.sin(pitch)]
    right = np.array(_cross([0.0, 0.0, -1.0], forward))
    right = right / np.linalg.norm(right)
    down_cam = _cross(forward, right.tolist())
    m = np.eye(4)
    m[:3, 0] = right
    m[:3, 1] = down_cam
    m[:3, 2] = forward
    m[:3, 3] = np.asarray(position, dtype=float)
    return m


def random_quat(rng) -> list:
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(yaw / 2.0), 0.0, 0.0, math.sin(yaw / 2.0)]


def make_scene(seed: int, scene_id: str, small_bbox_rate: float = 0.05):
    """One randomized synthetic capture: 5-15 objects, 8-64 frames."""
    rng = np.random.default_rng(seed)
    width = rng.uniform(5.0, 9.0)
    length = rng.uniform(5.0, 9.0)
    height = 2.6

    n_objects = int(rng.integers(5, 16))
    cats = list(rng.permutation(CATEGORIES))
    objects = []
    instance_id = 1
    cursor = 0
    while len(objects) < n_objects:
        cat = cats[cursor]
        cursor += 1
        copies = 1
        if rng.random() < 0.25 and len(objects) + 2 <= n_objects:
            copies = int(rng.integers(2, 4))
            copies = min(copies, n_objects - len(objects))
        for _ in range(copies):
            center = [rng.uniform(0.8, width - 0.8),
                      rng.uniform(0.8, length - 0.8),
                      rng.uniform(0.3, 1.2)]
            size = rng.uniform(0.25, 1.4, size=3).tolist()
            quat = random_quat(rng) if rng.random() < 0.5 else [1.0, 0.0, 0.0, 0.0]
            objects.append({"instance_id": instance_id, "category": cat,
                            "center": center, "size": size, "rotation": quat})
            instance_id += 1

    counts = {}
    for o in objects:
        counts[o["category"]] = counts.get(o["category"], 0) + 1

    n_frames = int(rng.integers(8, 65))
    first_visible = {o["instance_id"]: int(rng.integers(0, max(1, n_frames - 2)))
                     for o in objects}

    pos = np.array([rng.uniform(1.0, width - 1.0),
                    rng.uniform(1.0, length - 1.0), 1.5])
    vel = rng.normal(0.0, 0.25, size=2)
    yaw = rng.uniform(0.0, 2.0 * math.pi)

    frames = []
    for fid in range(n_frames):
        vel = 0.8 * vel + rng.normal(0.0, 0.15, size=2)
        pos[:2] = np.clip(pos[:2] + vel, [0.7, 0.7], [width - 0.7, length - 0.7])
        pos[2] = float(np.clip(pos[2] + rng.normal(0.0, 0.02), 1.3, 1.7))
        yaw += rng.normal(0.0, 0.25)
        pitch = rng.uniform(-0.15, 0.15)
        visible = []
        for o in objects:
            if fid < first_visible[o["instance_id"]] or rng.random() > 0.8:
                continue
            if rng.random() < small_bbox_rate:
                w, h = rng.uniform(5, 18, size=2)  # below the area filter
            else:
                w, h = rng.uniform(30, 220), rng.uniform(30, 180)
            x0 = rng.uniform(0, INTRINSICS["width"] - w)
            y0 = rng.uniform(0, INTRINSICS["height"] - h)
            visible.append({"instance_id": o["instance_id"],
                            "bbox_2d": [x0, y0, x0 + w, y0 + h]})
        frames.append({
            "frame_id": fid,
            "pose_c2w": [float(v) for v in
                         upright_pose_matrix(pos.copy(), yaw, pitch).reshape(-1)],
            "color_path": f"color/{fid:04d}.jpg",
            "depth_path": f"depth/{fid:04d}.png",
            "visible_objects": visible,
        })

    scene = scene_metadata_from_dict({
        "scene_id": scene_id,
        "scene_extents": {"min": [0.0, 0.0, 0.0], "max": [width, length, height]},
        "room_center": [width / 2.0, length / 2.0, height / 2.0],
        "category_counts": counts,
        "objects": objects,
    })
    frame_meta = frame_metadata_from_dict({
        "scene_id": scene_id,
        "intrinsics": dict(INTRINSICS),
        "frames": frames,
    })
    return scene, frame_meta


def make_rect_cloud(seed: int, width: float, length: float, n: int = 4000,
                    instance: int = 0) -> LabeledPointCloud:
    """Axis-aligned rectangular room slab, hull area = width * length."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([
        rng.uniform(0.0, width, n),
        rng.uniform(0.0, length, n),
        rng.uniform(0.0, 0.1, n),
    ])
    # pin the exact rectangle corners so the hull is the full footprint
    corners = np.array([[0, 0, 0], [width, 0, 0], [0, length, 0], [width, length, 0]],
                       dtype=float)
    pts = np.vstack([pts, corners])
    zeros = np.zeros(len(pts), dtype=np.int64)
    colors = np.zeros((len(pts), 3), dtype=np.uint8)
    return LabeledPointCloud(pts, colors, zeros, zeros + instance)


def make_cluster_cloud(seed: int, clusters) -> LabeledPointCloud:
    """Clusters = [(instance_id, semantic_id, center, size, n_points), ...]."""
    rng = np.random.default_rng(seed)
    pts, sems, insts = [], [], []
    for instance_id, semantic_id, center, size, n in clusters:
        center = np.asarray(center, dtype=float)
        size = np.asarray(size, dtype=float)
        p = center + rng.uniform(-0.5, 0.5, size=(n, 3)) * size
        pts.append(p)
        sems.append(np.full(n, semantic_id, dtype=np.int64))
        insts.append(np.full(n, instance_id, dtype=np.int64))
    pts = np.concatenate(pts)
    colors = rng.integers(0, 256, size=(len(pts), 3)).astype(np.uint8)
    return LabeledPointCloud(pts, colors, np.concatenate(sems), np.concatenate(insts))


def make_single_turn_waypoints(rng, angle_deg=None, jitter_deg: float = 1.5):
    """Polyline with straight runs around one corner of the given angle."""
    if angle_deg is None:
        sign = 1 if rng.random() < 0.5 else -1
        angle_deg = sign * rng.uniform(35.0, 145.0)
    start = rng.uniform(-3.0, 3.0, size=2)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    points = [np.array([*start, 0.0])]

    def advance(heading, steps):
        for _ in range(steps):
            wobble = math.radians(rng.uniform(-jitter_deg, jitter_deg))
            step = rng.uniform(0.5, 1.2)
            d = np.array([math.cos(heading + wobble), math.sin(heading + wobble), 0.0])
            points.append(points[-1] + step * d)
        return heading

    advance(heading, int(rng.integers(2, 4)))
    heading += math.radians(angle_deg)
    advance(heading, int(rng.integers(2, 4)))
    return np.array(points), angle_deg


def frame_metadata_to_dict(meta: FrameMetadata) -> dict:
    """The frame_metadata.json document of a capture; it re-parses to an
    equal FrameMetadata."""
    intr = meta.intrinsics
    return {
        "scene_id": meta.scene_id,
        "intrinsics": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                       "width": intr.width, "height": intr.height},
        "frames": [
            {"frame_id": fr.frame_id,
             "pose_c2w": np.column_stack([fr.rotation, fr.position]).ravel().tolist()
                         + [0.0, 0.0, 0.0, 1.0],
             "color_path": fr.color_path,
             "depth_path": fr.depth_path,
             "visible_objects": [
                 {"instance_id": vid, "bbox_2d": [float(b) for b in bbox]}
                 for vid, bbox in fr.visible_objects
             ]}
            for fr in meta.frames
        ],
    }


def save_frame_metadata(path, meta: FrameMetadata):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_metadata_to_dict(meta), fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_scene_dir(root, scene, frames, cloud=None, trajectories=None) -> Path:
    """Lay a scene out the way the CLI's --input-root expects."""
    scene_dir = Path(root) / scene.scene_id
    scene_dir.mkdir(parents=True, exist_ok=True)
    save_scene_metadata(scene_dir / "scene_metadata.json", scene)
    save_frame_metadata(scene_dir / "frame_metadata.json", frames)
    if cloud is not None:
        write_ply(scene_dir / "cloud.ply", cloud, binary=True)
    if trajectories is not None:
        with open(scene_dir / "trajectories.jsonl", "w", encoding="utf-8") as fh:
            for waypoints in trajectories:
                fh.write(json.dumps({"scene_id": scene.scene_id,
                                     "waypoints": np.asarray(waypoints).tolist()}) + "\n")
    return scene_dir
