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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirection

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


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float array with the same bits (numpy computes
    it as sqrt(v . v) over ``v.ravel(order="K")``), without its overhead."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


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
    pose (3x3 ``rotation``, camera center ``position``): R^T (p - t) per point."""
    return (p - position) @ rotation


# Unit-cube corner signs, fixed order (used by corners()).
_CORNER_SIGNS = np.array([
    [-1, -1, -1], [+1, -1, -1], [-1, +1, -1], [+1, +1, -1],
    [-1, -1, +1], [+1, -1, +1], [-1, +1, +1], [+1, +1, +1],
], dtype=float)


@dataclass(frozen=True)
class OrientedBox3:
    """Oriented 3D box: center, full extents (meters) and box-to-world quaternion.

    The rotation ``matrix`` and the ``half`` extents and their negation
    ``neg_half`` are derived once at construction; every array the box holds
    is a read-only copy.
    """

    center: np.ndarray
    size: np.ndarray
    rotation: np.ndarray  # quaternion (w, x, y, z)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    half: np.ndarray = field(init=False, repr=False, compare=False)
    neg_half: np.ndarray = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the checks compare plain floats: the same tests as elementwise on
        # the arrays, without a ufunc call each
        c, cl = _vec3(self.center, "center")
        s, sl = _vec3(self.size, "size")
        q = np.array(self.rotation, dtype=float)
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
        if max(map(abs, ql)) > 2 or abs(vector_norm(q) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation quaternion is not unit norm")
        object.__setattr__(self, "center", _read_only(c))
        object.__setattr__(self, "size", _read_only(s))
        object.__setattr__(self, "rotation", _read_only(q))
        object.__setattr__(self, "matrix", _read_only(quat_to_matrix(q)))
        object.__setattr__(self, "half", _read_only(s / 2.0))
        object.__setattr__(self, "neg_half", _read_only(-self.half))
        # canonical argument order of box_box_distance
        object.__setattr__(self, "_key", tuple(cl + sl + ql))

    def corners(self) -> np.ndarray:
        """The 8 corners in world coordinates, shape (8, 3), fixed order."""
        local = _CORNER_SIGNS * self.half
        return local @ self.matrix.T + self.center


def _closest_point(p: np.ndarray, box: OrientedBox3) -> np.ndarray:
    """Closest point of the solid box to a (3,) point.

    The clamp has np.clip's bits without its Python wrappers: no operand is
    NaN and no half extent is zero, so no tie between signed zeros arises.
    """
    rot = box.matrix
    local = rot.T @ (p - box.center)
    return rot @ np.minimum(np.maximum(local, box.neg_half), box.half) + box.center


def closest_point_on_box(p: np.ndarray, box: OrientedBox3):
    """Closest point of a solid oriented box to p, with its Euclidean distance.

    Returns (point, distance). Distance is exactly 0 when p lies inside.
    """
    point = _closest_point(p, box)
    return point, vector_norm(p - point)


def box_box_distance(a: OrientedBox3, b: OrientedBox3) -> float:
    """Minimum distance between two solid oriented boxes (0 when they intersect).

    Alternating closest-point projection between the two convex bodies,
    terminating when the step change drops below STEP_TOL or after
    MAX_PROJECTION_ITERS iterations. Arguments are canonically ordered first
    so the result is exactly symmetric.
    """
    if b._key < a._key:
        a, b = b, a
    p = _closest_point(b.center, a)
    for _ in range(MAX_PROJECTION_ITERS):
        p_next = _closest_point(_closest_point(p, b), a)
        if vector_norm(p_next - p) < STEP_TOL:
            p = p_next
            break
        p = p_next
    return vector_norm(p - _closest_point(p, b))


def planar_signed_angle(from_dir: np.ndarray, to_dir: np.ndarray) -> float:
    """CCW angle in degrees, in [-180, 180), between two floor-projected directions.

    Both vectors are projected onto the world XY plane (Z-up); raises
    DegenerateDirection when a projection has norm < 1e-9.
    """
    u = from_dir[:2]
    v = to_dir[:2]
    if vector_norm(u) < 1e-9:
        raise DegenerateDirection("from_dir has no floor-plane component")
    if vector_norm(v) < 1e-9:
        raise DegenerateDirection("to_dir has no floor-plane component")
    (ux, uy), (vx, vy) = u.tolist(), v.tolist()  # plain floats: same bits, less overhead
    ang = math.degrees(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    if ang >= 180.0:
        ang -= 360.0
    return ang
