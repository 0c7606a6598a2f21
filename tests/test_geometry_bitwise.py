"""The geometry path bit for bit against its fixed-order formulas.

Boxes derive their rotation matrix, half extents and their float copies
once, the hot loops skip re-validation, every value follows the fixed order
of ``sceneqa.geometry``'s docstring (norms ``sqrt((x*x + y*y) + z*z)``, no
BLAS call) and the scene graph memoizes pair distances and camera-space
corners. None of that may change a float bit: every result here is compared
by ``float.hex`` with the ``reference_*`` functions in ``oracles.py``, which
restate the formulas as plain loops. The former BLAS path, kept there as
``former_*``, must agree with them to 1e-12 m.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    REFERENCE_MAX_PROJECTION_ITERS,
    former_box_box_distance,
    former_closest_point_on_box,
    former_object_in_camera,
    former_world_to_camera,
    reference_box_box_distance,
    reference_box_error,
    reference_box_key,
    reference_closest_point_on_box,
    reference_object_in_camera,
    reference_planar_signed_angle,
    reference_projection_iters,
    reference_quat_to_matrix,
    reference_trajectory_waypoints,
    reference_world_to_camera,
)
from synth import make_scene
from sceneqa import graph
from sceneqa.geometry import (
    OrientedBox3,
    box_box_distance,
    closest_point_on_box,
    planar_signed_angle,
    point_box_distance,
    quat_from_yaw,
    quat_to_matrix,
    world_to_camera,
)
from sceneqa.errors import DegenerateDirection
from sceneqa.graph import build_graph, object_in_camera
from sceneqa.route_plan import Trajectory

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
    assert point_box_distance(p, box).hex() == ref_dist.hex()
    assert point_box_distance([float(x) for x in p], box).hex() == ref_dist.hex()


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


def seeded_poses():
    rng = np.random.default_rng(43)
    for _ in range(50):
        rot, t = quat_to_matrix(unit_quat(rng)), rng.uniform(-5, 5, size=3)
        yield rot, t, rng.uniform(-10, 10, size=(10, 3))


def test_world_to_camera_bits_on_seeded_poses():
    for rot, t, points in seeded_poses():
        want = [hexes(reference_world_to_camera(p, rot, t)) for p in points]
        assert [hexes(world_to_camera(p, rot, t)) for p in points] == want
        assert hexes(world_to_camera(points, rot, t)) == sum(want, [])  # batched: same bits


# --- object_in_camera and the graph's memos ------------------------------------------

@pytest.fixture(scope="module")
def synth_graph():
    scene, frames = make_scene(seed=606, scene_id="bits00")
    return build_graph(scene, frames, sample_frames=32)


def assert_corner_bits(g, monkeypatch):
    assert any(o.box.rotation[3] != 0.0 for o in g.scene.objects)  # some boxes are yawed
    cases = [(fid, iid) for fid in g.frame_ids() for iid in sorted(g.visible_in(fid))]
    assert cases
    want = {case: hexes(reference_object_in_camera(g, *case)) for case in cases}

    products = []
    to_camera = graph.world_to_camera

    def counted(points, rotation, position):
        products.append(points.shape)
        return to_camera(points, rotation, position)

    with monkeypatch.context() as patch:
        patch.setattr(graph, "world_to_camera", counted)
        for fid, iid in cases:
            assert hexes(object_in_camera(g, fid, iid)) == want[fid, iid]
            memo = g._camera_corners[fid]
            assert memo.shape == (len(g.scene.objects), 8, 3)
            assert not memo.flags.writeable
            with pytest.raises(ValueError):
                object_in_camera(g, fid, iid)[0, 0] = 0.0
    # one product per frame, over all K objects, not one per (frame, object) pair
    frames = sorted({fid for fid, _ in cases})
    assert products == [(len(g.scene.objects), 8, 3)] * len(frames)
    assert sorted(g._camera_corners) == frames


def test_object_in_camera_bits(monkeypatch):
    for seed in (606, 607, 608):
        scene, frames = make_scene(seed=seed, scene_id=f"bits{seed}")
        assert_corner_bits(build_graph(scene, frames, sample_frames=32), monkeypatch)


def test_context_box_distance_is_order_free_and_exact(synth_graph):
    objects = synth_graph.scene.objects
    for a, b in combinations(objects, 2):
        want = reference_box_box_distance(a.box, b.box).hex()
        assert synth_graph.box_distance(a, b).hex() == want
        assert synth_graph.box_distance(b, a).hex() == want
        assert box_box_distance(a.box, b.box).hex() == want


# --- the re-pin moved no value beyond rounding -------------------------------------------

def test_fixed_order_agrees_with_the_former_blas_path_to_1e_12_m():
    """The references above restate the fixed-order formulas, so a slip in a
    convention (a transposed matrix, a sign) would move code and reference
    alike; against the former BLAS path, which fixed the conventions, every
    distance, point and camera corner on the seeded sets agrees to 1e-12 m."""
    tol = 1e-12
    pairs = []
    for boxes in (seeded_boxes(17, 40, span=4.0, yaw_only=True), seeded_boxes(17, 40, span=4.0),
                  seeded_boxes(5, 2000)):
        pairs += zip(boxes[0::2], boxes[1::2])
    for a, b in pairs:
        assert abs(box_box_distance(a, b) - former_box_box_distance(a, b)) <= tol

    rng = np.random.default_rng(29)
    boxes = seeded_boxes(31, 10) + seeded_boxes(37, 10, yaw_only=True) + \
        seeded_boxes(41, 5, size_lo=1e-6, size_hi=2e-6)
    for box in boxes:
        for p in rng.uniform(-4, 4, size=(20, 3)):
            point, dist = closest_point_on_box(p, box)
            former_point, former_dist = former_closest_point_on_box(p, box)
            assert np.abs(point - former_point).max() <= tol
            assert abs(dist - former_dist) <= tol

    for rot, t, points in seeded_poses():
        for p in points:
            assert np.abs(world_to_camera(p, rot, t) - former_world_to_camera(p, rot, t)).max() <= tol
    for seed in (606, 607, 608):
        g = build_graph(*make_scene(seed=seed, scene_id=f"bits{seed}"))
        for fid in g.frame_ids():
            for iid in sorted(g.visible_in(fid)):
                got = object_in_camera(g, fid, iid)
                assert np.abs(got - former_object_in_camera(g, fid, iid)).max() <= tol


# --- derived arrays cannot go stale ---------------------------------------------------

def test_box_arrays_are_read_only_copies():
    center = np.array([1.0, 2.0, 3.0])
    box = OrientedBox3(center, [1.0, 2.0, 3.0], quat_from_yaw(0.5))
    for arr in (box.center, box.size, box.rotation, box.matrix, box.half):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    center[0] = 9.0  # the caller's array stays writable and the box keeps its copy
    assert box.center[0] == 1.0
    assert hexes(box.matrix) == hexes(quat_to_matrix(box.rotation))
    assert hexes(box.half) == hexes(box.size / 2.0)
    assert box.center_floats == (1.0, 2.0, 3.0) and box.half_floats == (0.5, 1.0, 1.5)
    assert hexes(box.matrix_floats) == hexes(box.matrix)
    with pytest.raises(AttributeError):
        box.center_floats = (0.0, 0.0, 0.0)


# --- the box and trajectory constructors' checks ----------------------------------------

_EDGE = st.sampled_from([0.0, -0.0, 1e-300, -1e-6, 1e150, -1e150, 1.0000001e150, 2e150,
                         math.nan, math.inf, -math.inf])
_BAD = st.lists(st.floats(-3, 3) | _EDGE, min_size=2, max_size=5)
_UNIT = st.tuples(*[st.floats(-1, 1)] * 4).filter(
    lambda q: math.sqrt(sum(c * c for c in q)) > 0.1).map(
    lambda q: (np.array(q) / np.linalg.norm(q)).tolist())
_RARELY = st.sampled_from([False] * 5 + [True])


@st.composite
def box_args(draw):
    """(center, size, rotation), each valid five times in six, so that every
    check, the later ones too, is reached."""
    center = draw(_BAD if draw(_RARELY) else st.lists(
        st.floats(-3, 3) | st.sampled_from([-0.0, 1e150, -1e150]), min_size=3, max_size=3))
    size = draw(_BAD if draw(_RARELY) else st.lists(
        st.floats(1e-6, 3) | st.sampled_from([1e-300, 1e150]), min_size=3, max_size=3))
    rotation = draw(_BAD if draw(_RARELY) else _UNIT)
    return center, size, rotation


@settings(max_examples=400, deadline=None, database=None)
@given(args=box_args())
def test_box_constructor_matches_the_former_checks(args):
    assert_box_checks(*args)


@pytest.mark.parametrize("center,size,rotation", [
    ([0, 0, 0], [1, 1, 1], IDENTITY),  # integer lists
    ([1e150, -1e150, -0.0], [1e150, 1e-300, 1], IDENTITY),
    ([1.0000001e150, 0, 0], [1, 1, 1], IDENTITY),
    ([0, 0, 0], [1, 2e150, 1], IDENTITY),
    ([0, 0, 0], [1, -0.0, 1], IDENTITY),
    ([0, 0, 0], [1, 1, 1], [1, 0.1, 0, 0]),
    ([0, 0, 0], [1, 1, 1], [1 + 2e-9, 0, 0, 0]),
    ([0, 0, 0], [1, 1, 1], [math.nan, 0, 0, 0]),
    ([math.inf, 0, 0], [-1, 1, 1], [1, 0, 0]),
    ([0, 0], [math.nan, 1, 1], [1, 0, 0]),
], ids=["ints", "at_bounds", "center_beyond", "size_beyond", "negative_zero_size",
        "not_unit", "nearly_unit", "nan_rotation", "inf_center", "short_center"])
def test_box_constructor_matches_the_former_checks_on_edges(center, size, rotation):
    assert_box_checks(center, size, rotation)


def assert_box_checks(center, size, rotation):
    want = reference_box_error(center, size, rotation)
    if want is not None:
        with pytest.raises(ValueError) as exc:
            OrientedBox3(center, size, rotation)
        assert str(exc.value) == want
        return
    box = OrientedBox3(center, size, rotation)
    assert hexes(box.center) == hexes(center) and hexes(box.size) == hexes(size)
    assert hexes(box.rotation) == hexes(rotation)
    assert hexes(box.matrix) == hexes(reference_quat_to_matrix(rotation))
    assert hexes(box.half) == hexes(np.asarray(size) / 2.0)
    assert hexes(box.center_floats) == hexes(center) and hexes(box.half_floats) == hexes(box.half)
    assert hexes(box.matrix_floats) == hexes(box.matrix)
    assert hexes(box._key) == hexes(reference_box_key(box))


_STEP = st.sampled_from([0.0, -0.0, 1e-7, 5.8e-7, 1e-6, -1e-6, 1.0000001e-6, 1e-3, 0.5, -2.0])
_WIDTH = st.sampled_from([1, 2, 3, 3, 4])


@st.composite
def waypoint_lists(draw):
    width = draw(_WIDTH)
    point = np.array(draw(st.lists(st.floats(-5, 5) | _EDGE, min_size=width,
                                   max_size=width)))
    rows = [point.tolist()]
    for _ in range(draw(st.integers(0, 5))):
        point = point + np.array(draw(st.lists(_STEP, min_size=width, max_size=width)))
        rows.append(point.tolist())
    return rows


@settings(max_examples=400, deadline=None, database=None)
@given(waypoints=waypoint_lists())
def test_trajectory_matches_the_former_checks(waypoints):
    with np.errstate(invalid="ignore"):  # inf - inf steps
        want = reference_trajectory_waypoints(waypoints)
        if isinstance(want, str):
            with pytest.raises(ValueError) as exc:
                Trajectory(np.asarray(waypoints))
            assert str(exc.value) == want
            return
        got = Trajectory(np.asarray(waypoints)).waypoints
    assert got.shape == want.shape and hexes(got) == hexes(want)


_PLANAR = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, -1e-9, 1e-9, 3.0])


@settings(max_examples=400, deadline=None, database=None)
@given(u=st.lists(_PLANAR, min_size=3, max_size=3), v=st.lists(_PLANAR, min_size=3, max_size=3))
def test_planar_signed_angle_bits(u, v):
    u, v = np.array(u), np.array(v)
    try:
        want = reference_planar_signed_angle(u, v)
    except DegenerateDirection as exc:
        with pytest.raises(DegenerateDirection, match=str(exc)):
            planar_signed_angle(u, v)
        return
    assert planar_signed_angle(u, v).hex() == want.hex()
