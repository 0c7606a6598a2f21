import json
import math

import numpy as np
import pytest

from oracles import points_inside_box
from synth import (
    frame_metadata_to_dict,
    make_cluster_cloud,
    make_scene,
    save_frame_metadata,
    upright_pose_matrix,
)
from sceneqa.errors import EmptyAfterFiltering, SchemaViolation
from sceneqa.geometry import MAX_COORD, box_box_distance
from sceneqa.metadata import (
    build_scene_metadata,
    derive_instance_boxes,
    frame_metadata_from_dict,
    load_frame_metadata,
    load_scene_metadata,
    save_scene_metadata,
    scene_metadata_from_dict,
    scene_metadata_to_dict,
)
from sceneqa.ply_io import LabeledPointCloud

MINIMAL_SCENE = {
    "scene_id": "demo",
    "scene_extents": {"min": [0, 0, 0], "max": [4, 5, 2.5]},
    "room_center": [2, 2.5, 1.25],
    "category_counts": {"chair": 1},
    "objects": [
        {"instance_id": 1, "category": "chair",
         "center": [1, 1, 0.5], "size": [0.5, 0.5, 1.0],
         "rotation": [1, 0, 0, 0]},
    ],
}


def minimal_frames():
    return {
        "scene_id": "demo",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [
            {"frame_id": 0,
             "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
             "color_path": "color/0.jpg", "depth_path": "depth/0.png",
             "visible_objects": [{"instance_id": 1, "bbox_2d": [10, 10, 60, 60]}]},
            {"frame_id": 3,
             "pose_c2w": [float(v) for v in
                          upright_pose_matrix([1, 2, 1.5], 0.3).reshape(-1)],
             "color_path": "color/3.jpg", "depth_path": "depth/3.png",
             "visible_objects": []},
        ],
    }


def test_minimal_fixture_parses():
    scene = scene_metadata_from_dict(MINIMAL_SCENE)
    frames = frame_metadata_from_dict(minimal_frames())
    assert scene.scene_id == "demo"
    assert scene.objects[0].category == "chair"
    assert frames.frames[1].frame_id == 3
    assert frames.intrinsics.width == 640


def test_reflection_pose_rejected_with_field_path():
    doc = minimal_frames()
    m = np.eye(4)
    m[0, 0] = -1.0  # det(R) = -1
    doc["frames"][0]["pose_c2w"] = [float(v) for v in m.reshape(-1)]
    with pytest.raises(SchemaViolation) as err:
        frame_metadata_from_dict(doc)
    assert "pose.rotation" in err.value.field_path


def test_pose_rejects_non_rotation():
    # the loader is the one place that checks a pose
    for rotation, message in ((np.diag([1.0, 1.0, -1.0]), "rotation determinant is not +1"),
                              (np.eye(3) * 2.0, "rotation is not orthonormal")):
        doc = minimal_frames()
        m = np.eye(4)
        m[:3, :3] = rotation
        doc["frames"][1]["pose_c2w"] = [float(v) for v in m.reshape(-1)]
        with pytest.raises(SchemaViolation) as err:
            frame_metadata_from_dict(doc)
        assert err.value.field_path == "frames[1].pose.rotation"
        assert message in str(err.value)


@pytest.mark.parametrize("mutate,path_fragment", [
    (lambda d: d.pop("scene_id"), "scene_id"),
    (lambda d: d["objects"][0].pop("center"), "objects[0]"),
    (lambda d: d["objects"][0].update(rotation=[1, 1, 0, 0]), "objects[0]"),
    (lambda d: d["objects"][0].update(size=[0, 1, 1]), "objects[0]"),
    (lambda d: d.update(category_counts={"chair": 2}), "category_counts"),
    (lambda d: d["scene_extents"].update(min=[9, 9, 9]), "scene_extents"),
    (lambda d: d["scene_extents"].update(min=[-1e308] * 3, max=[1e308] * 3),
     "scene_extents.min"),
])
def test_scene_schema_violations(mutate, path_fragment):
    doc = json.loads(json.dumps(MINIMAL_SCENE))
    mutate(doc)
    with pytest.raises(SchemaViolation) as err:
        scene_metadata_from_dict(doc)
    assert path_fragment in err.value.field_path


def test_frame_schema_violations():
    doc = minimal_frames()
    doc["frames"][1]["frame_id"] = 0  # not strictly increasing
    with pytest.raises(SchemaViolation):
        frame_metadata_from_dict(doc)

    doc = minimal_frames()
    doc["frames"][0]["visible_objects"][0]["bbox_2d"] = [60, 10, 10, 60]
    with pytest.raises(SchemaViolation) as err:
        frame_metadata_from_dict(doc)
    assert "bbox_2d" in err.value.field_path

    doc = minimal_frames()
    doc["frames"][0]["visible_objects"][0]["bbox_2d"] = [10, 10, 9000, 60]
    with pytest.raises(SchemaViolation):
        frame_metadata_from_dict(doc)


def test_round_trip_randomized_documents(tmp_path):
    for i in range(50):
        scene, frames = make_scene(seed=400 + i, scene_id=f"rt{i:02d}")
        save_scene_metadata(tmp_path / "scene.json", scene)
        save_frame_metadata(tmp_path / "frames.json", frames)
        scene2 = load_scene_metadata(tmp_path / "scene.json")
        frames2 = load_frame_metadata(tmp_path / "frames.json")
        assert scene_metadata_to_dict(scene2) == scene_metadata_to_dict(scene)
        assert frame_metadata_to_dict(frames2) == frame_metadata_to_dict(frames)


def test_serialization_is_byte_stable(tmp_path):
    scene, frames = make_scene(seed=77, scene_id="stable")
    save_scene_metadata(tmp_path / "a.json", scene)
    save_scene_metadata(tmp_path / "b.json", scene)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    save_frame_metadata(tmp_path / "fa.json", frames)
    save_frame_metadata(tmp_path / "fb.json", frames)
    assert (tmp_path / "fa.json").read_bytes() == (tmp_path / "fb.json").read_bytes()


# --- derive_instance_boxes ----------------------------------------------------

def test_uniform_cube_box_matches_minmax_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(100, 3))
    cloud = make_cluster_cloud(0, [(1, 4, [0, 0, 0], [1, 1, 1], 10)])
    cloud = type(cloud)(pts, np.zeros((100, 3), dtype=np.uint8),
                        np.full(100, 4, dtype=np.int64), np.ones(100, dtype=np.int64))
    [inst], dropped = derive_instance_boxes(cloud, {4: "crate"}, min_points=50)
    assert dropped == 0
    lo, hi = pts.min(axis=0), pts.max(axis=0)  # direct min/max oracle
    assert np.allclose(inst.box.center, (lo + hi) / 2, atol=1e-12)
    assert np.allclose(inst.box.size, hi - lo, atol=1e-12)
    assert np.allclose(inst.box.center, [0.5, 0.5, 0.5], atol=0.1)
    assert np.allclose(inst.box.size, [1, 1, 1], atol=0.1)
    assert inst.category == "crate"


def test_two_clusters_give_disjoint_boxes():
    cloud = make_cluster_cloud(9, [(1, 4, [0, 0, 0.5], [1, 1, 1], 120),
                                   (2, 7, [5, 5, 0.5], [1, 1, 1], 120)])
    boxes, _ = derive_instance_boxes(cloud, {4: "chair", 7: "table"})
    assert [b.instance_id for b in boxes] == [1, 2]
    a, b = boxes
    assert box_box_distance(a.box, b.box) > 1.0  # well separated solids


def test_small_instances_dropped_and_empty_error():
    cloud = make_cluster_cloud(9, [(1, 4, [0, 0, 0], [1, 1, 1], 120),
                                   (2, 7, [5, 5, 0], [1, 1, 1], 10)])
    boxes, dropped = derive_instance_boxes(cloud, {}, min_points=50)
    assert [b.instance_id for b in boxes] == [1] and dropped == 1
    with pytest.raises(EmptyAfterFiltering):
        derive_instance_boxes(cloud, {}, min_points=1000)


@pytest.mark.parametrize("oriented", [False, True])
def test_all_source_points_inside_emitted_box(oriented):
    rng = np.random.default_rng(31)
    clusters = []
    for inst in range(1, 4):
        yaw = rng.uniform(0, math.pi)
        n = 300
        local = rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array([2.0, 0.6, 0.8])
        c, s = math.cos(yaw), math.sin(yaw)
        world = local.copy()
        world[:, 0] = c * local[:, 0] - s * local[:, 1]
        world[:, 1] = s * local[:, 0] + c * local[:, 1]
        world += rng.uniform(-3, 3, size=3)
        clusters.append((inst, world))
    pts = np.concatenate([w for _, w in clusters])
    inst_ids = np.concatenate([np.full(len(w), i, dtype=np.int64) for i, w in clusters])
    cloud_t = make_cluster_cloud(0, [(1, 0, [0, 0, 0], [1, 1, 1], 5)])
    cloud = type(cloud_t)(pts, np.zeros((len(pts), 3), dtype=np.uint8),
                          np.zeros(len(pts), dtype=np.int64), inst_ids)
    boxes, _ = derive_instance_boxes(cloud, {}, min_points=50, oriented=oriented)
    for inst in boxes:
        mask = inst_ids == inst.instance_id
        assert points_inside_box(pts[mask], inst.box, atol=1e-6).all()


@pytest.mark.parametrize("oriented", [False, True])
def test_boxes_fitted_to_a_cloud_at_the_bound_are_valid(oriented):
    # a cloud holds coordinates up to MAX_COORD / 4, so that every box fitted
    # to it, yawed or not, passes the OrientedBox3 bound
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(200, 3))
    pts[:8] = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    pts *= MAX_COORD / 4
    cloud = LabeledPointCloud(pts, np.zeros((200, 3), dtype=np.uint8),
                              np.zeros(200, dtype=np.int64), np.zeros(200, dtype=np.int64))
    (inst,), _ = derive_instance_boxes(cloud, {}, min_points=1, oriented=oriented)
    assert np.all(inst.box.size <= MAX_COORD) and np.all(np.abs(inst.box.center) <= MAX_COORD)
    with pytest.raises(ValueError):
        LabeledPointCloud(np.nextafter(pts, np.inf), cloud.colors, cloud.semantic_labels,
                          cloud.instance_labels)


def test_build_scene_metadata_counts():
    cloud = make_cluster_cloud(9, [(1, 4, [0, 0, 0.5], [1, 1, 1], 120),
                                   (2, 4, [5, 5, 0.5], [1, 1, 1], 120),
                                   (3, 7, [5, 0, 0.5], [1, 1, 1], 120)])
    objs, _ = derive_instance_boxes(cloud, {4: "chair", 7: "table"})
    meta = build_scene_metadata("s", objs, cloud.positions)
    assert meta.category_counts == {"chair": 2, "table": 1}
    lo, hi = meta.scene_extents
    assert np.all(lo <= hi)
