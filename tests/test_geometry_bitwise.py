"""The geometry path bit for bit against its former implementation.

Boxes derive their rotation matrix and half extents once, the hot loops skip
re-validation, norms are sqrt(v . v) and SceneContext memoizes pair
distances and camera-space corners. None of that may change a float bit:
every result here is compared by ``float.hex`` with the ``reference_*``
functions in ``oracles.py``.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    REFERENCE_MAX_PROJECTION_ITERS,
    reference_box_box_distance,
    reference_closest_point_on_box,
    reference_object_in_camera,
    reference_projection_iters,
    reference_world_to_camera,
)
from synth import make_scene
from sceneqa.geometry import (
    OrientedBox3,
    Pose,
    box_box_distance,
    closest_point_on_box,
    quat_from_yaw,
    quat_to_matrix,
    world_to_camera,
)
from sceneqa.graph import build_graph, object_in_camera, scene_context

IDENTITY = [1.0, 0.0, 0.0, 0.0]


def hexes(a) -> list:
    return [float(x).hex() for x in np.ravel(a)]


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def seeded_boxes(seed, n, span=2.0, size_lo=0.2, size_hi=1.6, yaw_only=False):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(n):
        center = rng.uniform(-span, span, size=3)
        size = rng.uniform(size_lo, size_hi, size=3)
        rot = quat_from_yaw(rng.uniform(-math.pi, math.pi)) if yaw_only else unit_quat(rng)
        boxes.append(OrientedBox3(center, size, rot))
    return boxes


def assert_distance_bits(a, b):
    want = reference_box_box_distance(a, b).hex()
    assert box_box_distance(a, b).hex() == want
    assert box_box_distance(b, a).hex() == want


def assert_closest_point_bits(p, box):
    point, dist = closest_point_on_box(p, box)
    ref_point, ref_dist = reference_closest_point_on_box(p, box)
    assert hexes(point) == hexes(ref_point)
    assert dist.hex() == ref_dist.hex()


# --- box_box_distance ----------------------------------------------------------------

@pytest.mark.parametrize("yaw_only", [True, False], ids=["yaw", "quaternion"])
def test_box_box_distance_bits_on_seeded_boxes(yaw_only):
    boxes = seeded_boxes(17, 40, span=4.0, yaw_only=yaw_only)
    for a, b in zip(boxes[0::2], boxes[1::2]):
        assert_distance_bits(a, b)


def test_box_box_distance_bits_at_the_iteration_cap():
    boxes = seeded_boxes(5, 2000)
    pairs = list(zip(boxes[0::2], boxes[1::2]))
    capped = [(a, b) for a, b in pairs
              if reference_projection_iters(a, b) == REFERENCE_MAX_PROJECTION_ITERS]
    assert len(capped) >= 5  # the cap path is exercised, not only early stops
    for a, b in pairs:
        assert_distance_bits(a, b)


@pytest.mark.parametrize("a,b", [
    # overlapping
    (OrientedBox3([0, 0, 0], [2, 2, 2], IDENTITY), OrientedBox3([1, 0.5, 0], [2, 2, 2], IDENTITY)),
    (OrientedBox3([0, 0, 0], [2, 1, 1], quat_from_yaw(0.3)),
     OrientedBox3([0.9, 0.4, 0.1], [1, 1, 3], quat_from_yaw(-1.1))),
    # touching: shared face, shared edge, rotated corner on a face
    (OrientedBox3([0, 0, 0], [2, 2, 2], IDENTITY), OrientedBox3([2, 0, 0], [2, 2, 2], IDENTITY)),
    (OrientedBox3([0, 0, 0], [2, 2, 2], IDENTITY), OrientedBox3([2, 2, 0], [2, 2, 2], IDENTITY)),
    (OrientedBox3([0, 0, 0], [2, 2, 2], IDENTITY),
     OrientedBox3([1 + math.sqrt(0.5), 0, 0], [1, 1, 1], quat_from_yaw(math.pi / 4))),
    # nested
    (OrientedBox3([0, 0, 0], [4, 4, 4], IDENTITY), OrientedBox3([0.5, -0.3, 0.2], [1, 1, 1], quat_from_yaw(0.7))),
    # far apart
    (OrientedBox3([0, 0, 0], [1, 2, 3], quat_from_yaw(0.2)),
     OrientedBox3([1e3, -2e3, 5e2], [0.5, 0.5, 0.5], quat_from_yaw(2.9))),
    # 1e-6 m sizes
    (OrientedBox3([0, 0, 0], [1e-6, 1e-6, 1e-6], IDENTITY),
     OrientedBox3([0.3, 0.2, 0.1], [1e-6, 2e-6, 1e-6], quat_from_yaw(1.0))),
    (OrientedBox3([0, 0, 0], [1e-6, 1e-6, 1e-6], quat_from_yaw(0.4)),
     OrientedBox3([5e-7, 0, 0], [1e-6, 1e-6, 1e-6], quat_from_yaw(-0.4))),
], ids=["overlap", "overlap_rotated", "touch_face", "touch_edge", "touch_corner",
        "nested", "far", "tiny", "tiny_touching"])
def test_box_box_distance_bits_on_configurations(a, b):
    assert_distance_bits(a, b)


_COORD = st.floats(-5, 5, allow_nan=False)
_SIZE = st.floats(1e-6, 3.0)
_QUAT = st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 4).filter(
    lambda q: math.sqrt(sum(c * c for c in q)) > 0.1)
_BOX = st.builds(
    lambda c, s, q: OrientedBox3(c, s, np.array(q) / np.linalg.norm(q)),
    st.tuples(_COORD, _COORD, _COORD), st.tuples(_SIZE, _SIZE, _SIZE), _QUAT)


@settings(max_examples=100, deadline=None, database=None)
@given(a=_BOX, b=_BOX, p=st.tuples(_COORD, _COORD, _COORD))
def test_geometry_bits_fuzzed(a, b, p):
    assert_distance_bits(a, b)
    assert_closest_point_bits(p, a)


# --- closest_point_on_box and world_to_camera ---------------------------------------

def test_closest_point_bits_on_seeded_points():
    rng = np.random.default_rng(29)
    boxes = seeded_boxes(31, 10) + seeded_boxes(37, 10, yaw_only=True) + \
        seeded_boxes(41, 5, size_lo=1e-6, size_hi=2e-6)
    for box in boxes:
        for p in rng.uniform(-4, 4, size=(20, 3)):
            assert_closest_point_bits(p, box)
        assert_closest_point_bits(box.center, box)  # inside: distance 0


def test_world_to_camera_bits_on_seeded_poses():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pose = Pose(quat_to_matrix(unit_quat(rng)), rng.uniform(-5, 5, size=3))
        for p in rng.uniform(-10, 10, size=(10, 3)):
            assert hexes(world_to_camera(p, pose)) == hexes(reference_world_to_camera(p, pose))


# --- object_in_camera and the SceneContext memos -------------------------------------

@pytest.fixture(scope="module")
def synth_context():
    scene, frames = make_scene(seed=606, scene_id="bits00")
    return scene_context(build_graph(scene, frames), 32)


def test_object_in_camera_bits(synth_context):
    g = synth_context.graph
    cases = [(fid, iid) for fid in g.frame_ids() for iid in sorted(g.visible_in(fid))]
    assert cases
    for fid, iid in cases:
        got = object_in_camera(g, fid, iid)
        assert hexes(got) == hexes(reference_object_in_camera(g, fid, iid))
        memo = synth_context.corners_in_camera(fid, iid)
        assert hexes(memo) == hexes(got)
        assert synth_context.corners_in_camera(fid, iid) is memo
        with pytest.raises(ValueError):
            memo[0, 0] = 0.0


def test_context_box_distance_is_order_free_and_exact(synth_context):
    objects = synth_context.graph.scene.objects
    for a, b in combinations(objects, 2):
        want = reference_box_box_distance(a.box, b.box).hex()
        assert synth_context.box_distance(a, b).hex() == want
        assert synth_context.box_distance(b, a).hex() == want
        assert box_box_distance(a.box, b.box).hex() == want


# --- derived arrays cannot go stale ---------------------------------------------------

def test_box_arrays_are_read_only_copies():
    center = np.array([1.0, 2.0, 3.0])
    box = OrientedBox3(center, [1.0, 2.0, 3.0], quat_from_yaw(0.5))
    for arr in (box.center, box.size, box.rotation, box.rotation_matrix(), box.half_size()):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    center[0] = 9.0  # the caller's array stays writable and the box keeps its copy
    assert box.center[0] == 1.0
    assert hexes(box.rotation_matrix()) == hexes(quat_to_matrix(box.rotation))
    assert hexes(box.half_size()) == hexes(box.size / 2.0)
