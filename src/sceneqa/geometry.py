"""Convention-pinned 3D math shared by every generator.

Conventions (pinned once, here; no record or header repeats them):
    world  -- right-handed, Z-up, meters.
    camera -- +X right, +Y down, +Z forward. "Nearer to camera" means a
              smaller +Z coordinate; "left of camera" a smaller X.
    pose   -- camera-to-world map: p_world = R @ p_cam + t.
    quaternions -- (w, x, y, z), unit norm, box-to-world.

All functions here are pure; there is no shared mutable state.

Validation contract: data is checked once, where it enters the package,
and nowhere after. The frame-metadata loader checks every camera pose
(finite, orthonormal, determinant +1) and hands it on as two read-only
arrays, a 3x3 rotation and a (3,) position; the ``OrientedBox3``
constructor checks every box (finite, centre and size components within
``MAX_COORD``, positive size, unit quaternion). The functions here, and
the generators that call them, take those float arrays as they are and
re-check nothing. A box derives its rotation matrix and half extents once,
at construction, and every array it holds is read-only, so the derived
arrays cannot go stale.

Fixed-order arithmetic: no geometry value here goes through BLAS (no ``@``,
``dot`` or ``linalg`` call), because BLAS kernels may sum a product in any
order and so round differently from one CPU to the next. Each value is
computed by the formulas below, in the order written, on plain Python
floats where one vector is handled and as numpy elementwise ufuncs where a
stack is. Both round once per IEEE-754 double operation, so the scalar and
the batched paths give the same bits, on every host, and another
implementation can reproduce every bit (as ``qa_records`` does for its RNG
streams):

- rotation matrix of a quaternion: as written in ``quat_to_matrix``.
- norm: ``sqrt((x*x + y*y) + z*z)``, summed left to right; a 2-vector, a
  quaternion and each row of a stack (``row_norms``) the same way.
- any other sum: left to right from 0.0 (``ordered_sum``), not numpy's
  ``sum`` (pairwise from 8 terms on) nor Python's (compensated from 3.12).
- world to box-local, and world to camera, with ``d = p - t`` (``t`` the box
  centre or the camera position, ``R`` the box-to-world or camera-to-world
  rotation): ``l_j = (R[0][j]*d0 + R[1][j]*d1) + R[2][j]*d2``.
- box-local to world: ``w_i = ((R[i][0]*l0 + R[i][1]*l1) + R[i][2]*l2) + c_i``;
  a box corner is this map of ``l = sign * half``.
- clamp to the box: ``min(max(l, -h), h)`` per component, ``h`` the half
  extent.
- closest point of a box to ``p``: local, clamp, back to world; its
  distance is the norm of ``p - point``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateDirection
from .frozen import Frozen, set_field

# Centralized tolerances. Positional/orthonormality checks use ORTHO_TOL;
# the iterative box-distance solver stops below STEP_TOL.
ORTHO_TOL = 1e-9
STEP_TOL = 1e-7
MAX_PROJECTION_ITERS = 200
# Largest magnitude, in meters, of a box centre or size component. The
# squared norm of a difference of two centres, up to 3 * (2e150)**2, then
# stays far below the float maximum, so no distance overflows.
MAX_COORD = 1e150


def _vec3(v, name="vector") -> tuple:
    """A float copy of a finite 3-vector, and its components as a list."""
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    values = a.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} has non-finite components")
    return a, values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def ordered_sum(values) -> float:
    """The sum of floats, added left to right from 0.0."""
    total = 0.0
    for x in values:
        total += x
    return total


def vector_norm(v) -> float:
    """Euclidean norm of a vector of floats (a 1-D array or a sequence),
    its squares summed left to right."""
    return math.sqrt(ordered_sum(x * x for x in _components(v)))


def row_norms(d: np.ndarray) -> np.ndarray:
    """The norm of each row of an (N, 2) or (N, 3) stack, as ``vector_norm``."""
    total = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    return np.sqrt(total + d[:, 2] * d[:, 2] if d.shape[1] == 3 else total)


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix for a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()  # plain floats: same bits, less overhead
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_yaw(yaw_rad: float) -> np.ndarray:
    """Unit quaternion (w, x, y, z) for a rotation about world +Z."""
    return np.array([math.cos(yaw_rad / 2.0), 0.0, 0.0, math.sin(yaw_rad / 2.0)])


def world_to_camera(p: np.ndarray, rotation: np.ndarray, position: np.ndarray) -> np.ndarray:
    """World points p, shape (..., 3), in the camera frame of a camera-to-world
    pose (3x3 ``rotation``, camera center ``position``): R^T (p - t) per point,
    summed in the module's fixed order."""
    terms = (p - position)[..., :, None] * rotation  # terms[..., i, j] = d_i R[i][j]
    return (terms[..., 0, :] + terms[..., 1, :]) + terms[..., 2, :]


# Unit-cube corner signs, fixed order (used by corners()).
_CORNER_SIGNS = np.array([
    [-1, -1, -1], [+1, -1, -1], [-1, +1, -1], [+1, +1, -1],
    [-1, -1, +1], [+1, -1, +1], [-1, +1, +1], [+1, +1, +1],
], dtype=float)


class OrientedBox3(Frozen):
    """Oriented 3D box: center, full extents (meters) and box-to-world quaternion.

    The rotation ``matrix`` and the ``half`` extents are derived once at
    construction, and so are plain-float tuples of the centre, the half
    extents and the matrix (row-major), which the scalar kernels read. Every
    array the box holds is a read-only copy. Boxes compare by their centre,
    size and rotation.
    """

    __slots__ = ("center", "size", "rotation", "matrix", "half", "center_floats",
                 "half_floats", "matrix_floats", "_key")
    _fields = ("center", "size", "rotation")

    def __init__(self, center: np.ndarray, size: np.ndarray, rotation: np.ndarray):
        # rotation is the quaternion (w, x, y, z); the checks compare plain
        # floats: the same tests as elementwise on the arrays, without a
        # ufunc call each
        c, cl = _vec3(center, "center")
        s, sl = _vec3(size, "size")
        q = np.array(rotation, dtype=float)
        if min(sl) <= 0:
            raise ValueError("size components must be strictly positive")
        if max(map(abs, cl)) > MAX_COORD or max(sl) > MAX_COORD:
            raise ValueError(f"center and size components must be at most {MAX_COORD:g} m")
        if q.shape != (4,):
            raise ValueError(f"rotation quaternion must have shape (4,), got {q.shape}")
        ql = q.tolist()
        if not all(map(math.isfinite, ql)):
            raise ValueError("rotation quaternion has non-finite components")
        # a component beyond 2 fails the norm check too, and would overflow it
        if max(map(abs, ql)) > 2 or abs(vector_norm(ql) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation quaternion is not unit norm")
        matrix = _read_only(quat_to_matrix(q))
        half = _read_only(s / 2.0)
        set_field(self, "center", _read_only(c))
        set_field(self, "size", _read_only(s))
        set_field(self, "rotation", _read_only(q))
        set_field(self, "matrix", matrix)
        set_field(self, "half", half)
        set_field(self, "center_floats", tuple(cl))
        set_field(self, "half_floats", tuple(half.tolist()))
        set_field(self, "matrix_floats", tuple(matrix.ravel().tolist()))
        # canonical argument order of box_box_distance
        set_field(self, "_key", tuple(cl + sl + ql))

    def corners(self) -> np.ndarray:
        """The 8 corners in world coordinates, shape (8, 3), fixed order."""
        terms = (_CORNER_SIGNS * self.half)[:, None, :] * self.matrix  # [k, i, j] = R[i][j] l_kj
        return ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + self.center


def _components(v):
    """A vector's components: an array's as Python floats, a sequence as it is."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def _distance(p, q) -> float:
    """Euclidean distance of two points given as float triples."""
    d0, d1, d2 = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    return math.sqrt((d0 * d0 + d1 * d1) + d2 * d2)


def _closest_point(p, box: OrientedBox3) -> tuple:
    """Closest point of the solid box to a point, both as float triples: to
    box-local, clamp, back to world, in the module's fixed order."""
    c0, c1, c2 = box.center_floats
    h0, h1, h2 = box.half_floats
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = box.matrix_floats
    d0, d1, d2 = p[0] - c0, p[1] - c1, p[2] - c2
    l0 = (r00 * d0 + r10 * d1) + r20 * d2
    l1 = (r01 * d0 + r11 * d1) + r21 * d2
    l2 = (r02 * d0 + r12 * d1) + r22 * d2
    # min(max(l, -h), h); no operand is NaN and h > 0, so no signed-zero tie
    l0 = -h0 if l0 < -h0 else h0 if l0 > h0 else l0
    l1 = -h1 if l1 < -h1 else h1 if l1 > h1 else l1
    l2 = -h2 if l2 < -h2 else h2 if l2 > h2 else l2
    return (((r00 * l0 + r01 * l1) + r02 * l2) + c0,
            ((r10 * l0 + r11 * l1) + r12 * l2) + c1,
            ((r20 * l0 + r21 * l1) + r22 * l2) + c2)


def closest_point_on_box(p, box: OrientedBox3):
    """Closest point of a solid oriented box to p, with its Euclidean distance.

    Returns (point, distance), the point a (3,) array. Distance is exactly 0
    when p lies inside.
    """
    p = _components(p)
    point = _closest_point(p, box)
    return np.array(point), _distance(p, point)


def point_box_distance(p, box: OrientedBox3) -> float:
    """The distance of ``closest_point_on_box``, without building the point."""
    p = _components(p)
    return _distance(p, _closest_point(p, box))


def box_box_distance(a: OrientedBox3, b: OrientedBox3) -> float:
    """Minimum distance between two solid oriented boxes (0 when they intersect).

    Alternating closest-point projection between the two convex bodies,
    terminating when the step change drops below STEP_TOL or after
    MAX_PROJECTION_ITERS iterations. Arguments are canonically ordered first
    so the result is exactly symmetric.
    """
    if b._key < a._key:
        a, b = b, a
    p = _closest_point(b.center_floats, a)
    for _ in range(MAX_PROJECTION_ITERS):
        p_next = _closest_point(_closest_point(p, b), a)
        if _distance(p_next, p) < STEP_TOL:
            p = p_next
            break
        p = p_next
    return _distance(p, _closest_point(p, b))


def planar_signed_angle(from_dir, to_dir) -> float:
    """CCW angle in degrees, in [-180, 180), between two floor-projected directions.

    Both vectors (arrays or sequences of at least two floats) are projected
    onto the world XY plane (Z-up); raises DegenerateDirection when a
    projection has norm < 1e-9.
    """
    ux, uy = float(from_dir[0]), float(from_dir[1])
    vx, vy = float(to_dir[0]), float(to_dir[1])
    if math.sqrt(ux * ux + uy * uy) < 1e-9:
        raise DegenerateDirection("from_dir has no floor-plane component")
    if math.sqrt(vx * vx + vy * vy) < 1e-9:
        raise DegenerateDirection("to_dir has no floor-plane component")
    ang = math.degrees(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    if ang >= 180.0:
        ang -= 360.0
    return ang
