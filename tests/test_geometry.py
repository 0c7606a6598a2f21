import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_box_box_distance,
    oracle_point_box_distance,
    points_inside_box,
    rot_from_quat_wxyz,
)
from sceneqa.errors import DegenerateDirection
from sceneqa.geometry import (
    MAX_COORD,
    OrientedBox3,
    box_box_distance,
    closest_point_on_box,
    ordered_sum,
    planar_signed_angle,
    quat_to_matrix,
    row_norms,
    vector_norm,
    world_to_camera,
)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng):
    """(rotation, position) of a random camera-to-world pose."""
    q = random_unit_quat(rng)
    return quat_to_matrix(q), rng.uniform(-5, 5, size=3)


def random_box(rng, center_span=4.0, size_lo=0.2, size_hi=1.6):
    return OrientedBox3(rng.uniform(-center_span, center_span, size=3),
                        rng.uniform(size_lo, size_hi, size=3),
                        random_unit_quat(rng))


# --- world_to_camera ---------------------------------------------------------

def test_world_to_camera_identity():
    assert np.allclose(world_to_camera([1, 2, 3], np.eye(3), np.zeros(3)), [1, 2, 3])


def test_world_to_camera_translation_cancels():
    t = np.array([0, 0, 5])
    assert np.allclose(world_to_camera(t, np.eye(3), t), [0, 0, 0])


def test_world_to_camera_rotation_matches_matrix_oracle():
    # 90 degrees about world Z; expected value from a direct R^T (p - t) evaluation
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    expected = rot.T @ np.array([1.0, 0.0, 0.0])
    assert np.allclose(world_to_camera([1, 0, 0], rot, np.zeros(3)), expected, atol=1e-12)
    assert np.allclose(expected, [0, -1, 0], atol=1e-12)


def test_transform_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rot, t = random_pose(rng)
        p = rng.uniform(-10, 10, size=3)
        back = rot @ world_to_camera(p, rot, t) + t  # camera-to-world: R q + t
        assert np.max(np.abs(back - p)) < 1e-9


def test_quat_to_matrix_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = random_unit_quat(rng)
        assert np.allclose(quat_to_matrix(q), rot_from_quat_wxyz(q), atol=1e-12)


# --- closest_point_on_box ----------------------------------------------------

def test_closest_point_face_projection():
    box = OrientedBox3([0, 0, 0], [2, 2, 2], [1, 0, 0, 0])
    point, dist = closest_point_on_box([3, 0, 0], box)
    assert np.allclose(point, [1, 0, 0])
    assert dist == pytest.approx(2.0)


def test_closest_point_inside_is_zero():
    box = OrientedBox3([0, 0, 0], [2, 2, 2], [1, 0, 0, 0])
    _, dist = closest_point_on_box([0.3, -0.2, 0.9], box)
    assert dist == 0.0


def test_closest_point_zero_iff_inside_rejection_sampling():
    rng = np.random.default_rng(11)
    box = random_box(rng)
    for _ in range(500):
        p = rng.uniform(-4, 4, size=3)
        _, dist = closest_point_on_box(p, box)
        assert (dist == 0.0) == points_inside_box(p, box, atol=0.0)[0]


def test_closest_point_rotated_matches_sampling_oracle():
    yaw = math.radians(45.0)
    box = OrientedBox3([0, 0, 0], [2, 1, 1],
                       [math.cos(yaw / 2), 0, 0, math.sin(yaw / 2)])
    p = np.array([3.0, 0.0, 0.0])
    _, dist = closest_point_on_box(p, box)
    assert abs(dist - oracle_point_box_distance(p, box)) < 2e-2


# --- box_box_distance ----------------------------------------------------------

def test_box_box_axis_gap():
    a = OrientedBox3([0, 0, 0], [2, 2, 2], [1, 0, 0, 0])
    b = OrientedBox3([5, 0, 0], [2, 2, 2], [1, 0, 0, 0])
    assert box_box_distance(a, b) == pytest.approx(3.0, abs=1e-6)


def test_box_box_overlap_is_zero():
    a = OrientedBox3([0, 0, 0], [2, 2, 2], [1, 0, 0, 0])
    b = OrientedBox3([1, 0.5, 0], [2, 2, 2], [1, 0, 0, 0])
    assert box_box_distance(a, b) == 0.0


def test_box_box_rotated_matches_sampling_oracle():
    yaw = math.radians(30.0)
    a = OrientedBox3([0, 0, 0], [1.5, 1.0, 1.0],
                     [math.cos(yaw / 2), 0, 0, math.sin(yaw / 2)])
    b = OrientedBox3([3.0, 0.5, 0.2], [1.0, 1.2, 0.8], [1, 0, 0, 0])
    got = box_box_distance(a, b)
    want = oracle_box_box_distance(a, b)
    assert abs(got - want) < 2e-2


def test_box_box_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = random_box(rng), random_box(rng)
        d_ab = box_box_distance(a, b)
        d_ba = box_box_distance(b, a)
        assert d_ab == d_ba  # canonical argument ordering makes this exact
        assert d_ab <= np.linalg.norm(a.center - b.center) + 1e-12


def test_box_validation():
    with pytest.raises(ValueError):
        OrientedBox3([0, 0, 0], [1, 0, 1], [1, 0, 0, 0])  # zero extent
    with pytest.raises(ValueError):
        OrientedBox3([0, 0, 0], [1, 1, 1], [1, 0.1, 0, 0])  # non-unit quaternion


def test_box_coordinate_bound():
    OrientedBox3([MAX_COORD, -MAX_COORD, 0], [MAX_COORD, 1, 1], [1, 0, 0, 0])
    beyond = math.nextafter(MAX_COORD, math.inf)
    for center, size in (([0, -beyond, 0], [1, 1, 1]), ([0, 0, 0], [1, beyond, 1])):
        with pytest.raises(ValueError, match="at most"):
            OrientedBox3(center, size, [1, 0, 0, 0])
    # the distance of two boxes at opposite corners of the bound stays finite
    a = OrientedBox3([-MAX_COORD] * 3, [1, 1, 1], [1, 0, 0, 0])
    b = OrientedBox3([MAX_COORD] * 3, [1, 1, 1], [1, 0, 0, 0])
    assert math.isfinite(box_box_distance(a, b))


# --- planar_signed_angle -------------------------------------------------------

X = np.array([1, 0, 0])


def test_planar_angle_quarter_turn():
    assert planar_signed_angle(X, np.array([0, 1, 0])) == pytest.approx(90.0)


def test_planar_angle_identity():
    assert planar_signed_angle(X, X) == 0.0


def test_planar_angle_antipodal_maps_to_minus_180():
    ang = planar_signed_angle(X, np.array([-1, -1e-12, 0]))
    assert -180.0 <= ang < 180.0
    assert ang == pytest.approx(-180.0, abs=1e-6)
    # exactly opposite: atan2(+0, -1) gives +180, which must wrap
    assert planar_signed_angle(X, -X) == -180.0


def test_planar_angle_degenerate():
    with pytest.raises(DegenerateDirection):
        planar_signed_angle(np.array([0, 0, 1]), X)


@settings(max_examples=200, deadline=None)
@given(
    ux=st.floats(-5, 5), uy=st.floats(-5, 5),
    vx=st.floats(-5, 5), vy=st.floats(-5, 5),
)
def test_planar_angle_antisymmetry(ux, uy, vx, vy):
    u = np.array([ux, uy, 0.0])
    v = np.array([vx, vy, 0.0])
    if np.linalg.norm(u[:2]) < 1e-6 or np.linalg.norm(v[:2]) < 1e-6:
        return
    fwd = planar_signed_angle(u, v)
    if abs(abs(fwd) - 180.0) < 1e-9:  # antipodal boundary is one-sided
        return
    assert planar_signed_angle(v, u) == pytest.approx(-fwd, abs=1e-9)


_COORD = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 3.0])


@settings(max_examples=200, deadline=None, database=None)
@given(width=st.sampled_from([2, 3]), data=st.data())
def test_row_norms_are_vector_norms_bit_for_bit(width, data):
    rows = data.draw(st.lists(st.lists(_COORD, min_size=width, max_size=width), max_size=12))
    stack = np.array(rows, dtype=float).reshape(-1, width)
    assert [v.hex() for v in row_norms(stack).tolist()] == \
        [vector_norm(row).hex() for row in rows]


def test_ordered_sum_adds_left_to_right():
    # 1e16 + 1 rounds back to 1e16; an exact or compensated sum would give 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0
    rng = np.random.default_rng(5)
    values = rng.uniform(0.1, 3.0, size=40).tolist()
    walked = 0.0
    for v in values:
        walked += v
    assert ordered_sum(values).hex() == walked.hex()
