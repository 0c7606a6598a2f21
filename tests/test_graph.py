import json
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_visibility
from synth import make_scene, upright_pose_matrix
from sceneqa.errors import DanglingInstanceRef, TooFewFrames
from sceneqa.graph import build_graph, graph_to_dict, object_in_camera, sample_frame_sequence
from sceneqa.metadata import (CameraFrame, FrameMetadata, frame_metadata_from_dict,
                              scene_metadata_from_dict)


def two_frame_fixture(area_frame1=900.0, instance_ref=1):
    side = area_frame1 ** 0.5
    scene = scene_metadata_from_dict({
        "scene_id": "g",
        "scene_extents": {"min": [0, 0, 0], "max": [5, 5, 2.5]},
        "room_center": [2.5, 2.5, 1.25],
        "category_counts": {"chair": 1},
        "objects": [{"instance_id": 1, "category": "chair",
                     "center": [1, 1, 0.5], "size": [1, 1, 1],
                     "rotation": [1, 0, 0, 0]}],
    })
    frames = frame_metadata_from_dict({
        "scene_id": "g",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [
            {"frame_id": 0, "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
             "color_path": "c/0", "depth_path": "d/0", "visible_objects": []},
            {"frame_id": 1, "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
             "color_path": "c/1", "depth_path": "d/1",
             "visible_objects": [{"instance_id": instance_ref,
                                  "bbox_2d": [10, 10, 10 + side, 10 + side]}]},
        ],
    })
    return scene, frames


def test_first_seen_from_construction():
    g = build_graph(*two_frame_fixture(area_frame1=900.0))
    assert g.first_seen == {1: 1}
    assert g.category_first_seen == {"chair": 1}
    assert g.visible_in(1) == frozenset({1})


def test_small_detection_filtered():
    g = build_graph(*two_frame_fixture(area_frame1=100.0))
    assert g.first_seen == {}
    assert g.visible_in(1) == frozenset()


def test_dangling_instance_ref():
    scene, frames = two_frame_fixture(instance_ref=99)
    with pytest.raises(DanglingInstanceRef) as err:
        build_graph(scene, frames)
    assert err.value.instance_id == 99


def test_camera_queries_identity_and_translation():
    scene, frames = two_frame_fixture()
    g = build_graph(scene, frames)
    assert np.allclose(g.frame(0).position, [0, 0, 0])
    corners = object_in_camera(g, 0, 1)
    assert np.allclose(corners, g.object(1).box.corners())  # identity pose

    # +5 m along world X: expected camera coords from a direct matrix evaluation
    shifted = frame_metadata_from_dict({
        "scene_id": "g",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [{"frame_id": 0,
                    "pose_c2w": [1, 0, 0, 5, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
                    "color_path": "c", "depth_path": "d", "visible_objects": []},
                   {"frame_id": 1,
                    "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
                    "color_path": "c", "depth_path": "d", "visible_objects": []}],
    })
    g2 = build_graph(scene, shifted)
    world = g2.object(1).box.corners()
    expected = world - np.array([5.0, 0.0, 0.0])  # R = I, t = (5,0,0)
    assert np.allclose(object_in_camera(g2, 0, 1), expected, atol=1e-12)


def test_sample_sequence_64_of_32_matches_exact_arithmetic():
    scene, frames = make_scene(seed=52, scene_id="seq")
    # rebuild with exactly 64 dense frames
    doc = {
        "scene_id": "seq",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [{"frame_id": i,
                    "pose_c2w": [float(v) for v in
                                 upright_pose_matrix([i * 0.1, 0, 1.5], 0.0).reshape(-1)],
                    "color_path": "c", "depth_path": "d", "visible_objects": []}
                   for i in range(64)],
    }
    g = build_graph(scene, frame_metadata_from_dict(doc))
    seq = sample_frame_sequence(g, 32)
    # independent oracle: exact rational spacing, half-up rounding
    expected = [int(Fraction(i * 63, 31) + Fraction(1, 2)) for i in range(32)]
    assert seq == expected
    assert seq[0] == 0 and seq[-1] == 63
    assert seq[:4] == [0, 2, 4, 6]
    assert all(b > a for a, b in zip(seq, seq[1:]))


def test_sample_sequence_saturation_and_errors():
    g = build_graph(*two_frame_fixture())
    assert sample_frame_sequence(g, 32) == [0, 1]

    scene, _ = two_frame_fixture()
    one = frame_metadata_from_dict({
        "scene_id": "g",
        "intrinsics": {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
                       "width": 640, "height": 480},
        "frames": [{"frame_id": 0,
                    "pose_c2w": [float(v) for v in np.eye(4).reshape(-1)],
                    "color_path": "c", "depth_path": "d", "visible_objects": []}],
    })
    with pytest.raises(TooFewFrames):
        sample_frame_sequence(build_graph(scene, one), 32)


def test_first_seen_monotone_under_truncation():
    scene, frames = make_scene(seed=88, scene_id="mono")
    g_full = build_graph(scene, frames)
    from sceneqa.metadata import FrameMetadata
    truncated = FrameMetadata(frames.scene_id, frames.intrinsics,
                              frames.frames[:len(frames.frames) // 2])
    g_half = build_graph(scene, truncated)
    for inst, fid in g_half.first_seen.items():
        assert g_full.first_seen[inst] == fid  # earlier frames unchanged


def test_graph_dump_deterministic():
    scene, frames = make_scene(seed=13, scene_id="det")
    a = json.dumps(graph_to_dict(build_graph(scene, frames)), sort_keys=True)
    b = json.dumps(graph_to_dict(build_graph(scene, frames)), sort_keys=True)
    assert a == b


def assert_area_filter_matches_reference(scene, frames, min_area):
    g = build_graph(scene, frames, min_area)
    visibility, first_seen = reference_visibility(scene, frames, min_area)
    assert g.visibility == visibility
    assert g.first_seen == first_seen


def detection_areas(frames) -> list:
    return [float((b[2] - b[0]) * (b[3] - b[1]))
            for fr in frames.frames for _, b in fr.visible_objects]


def test_area_filter_over_the_stack_matches_the_per_detection_filter():
    for seed in (88, 89, 90):
        scene, frames = make_scene(seed=seed, scene_id=f"area{seed}")
        areas = detection_areas(frames)
        # subsets of the frames that are not a prefix: each is filtered by its
        # own detections' areas
        subsets = [frames.frames[1::2], frames.frames[2::3], frames.frames[-1:]]
        # thresholds equal to detection areas, where >= decides
        for min_area in (0.0, 400, 400.0, float(np.median(areas)), min(areas), max(areas),
                         np.nextafter(max(areas), np.inf), float("inf")):
            assert_area_filter_matches_reference(scene, frames, min_area)
            for subset in subsets:
                part = FrameMetadata(frames.scene_id, frames.intrinsics, subset)
                assert_area_filter_matches_reference(scene, part, min_area)


def test_area_filter_on_an_empty_capture():
    scene, frames = make_scene(seed=91, scene_id="stack")
    empty = FrameMetadata(frames.scene_id, frames.intrinsics, ())
    assert build_graph(scene, empty).visibility == {}
    no_detections = FrameMetadata(frames.scene_id, frames.intrinsics, tuple(
        CameraFrame(fr.frame_id, fr.rotation, fr.position, fr.color_path, fr.depth_path, ())
        for fr in frames.frames))
    g = build_graph(scene, no_detections)
    assert g.visibility == {fr.frame_id: frozenset() for fr in frames.frames}
    assert g.first_seen == {}
