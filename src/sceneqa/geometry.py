"""Convention-pinned 3D math shared by every generator.

Conventions (pinned once, stamped into output metadata by the generators):
    world  -- right-handed, Z-up, meters.
    camera -- +X right, +Y down, +Z forward. "Nearer to camera" means a
              smaller +Z coordinate; "left of camera" a smaller X.
    pose   -- camera-to-world map: p_world = R @ p_cam + t.
    quaternions -- (w, x, y, z), unit norm, box-to-world.

All functions here are pure; there is no shared mutable state.

Validation contract: inputs are validated once, when a Pose or an
OrientedBox3 is constructed and when a point enters a public function
(``world_to_camera``, ``closest_point_on_box``, ``OrientedBox3.to_local``,
...). The private helpers ``_world_to_camera`` and ``_closest_point`` trust
their arguments; the hot loops (``box_box_distance``,
``graph.object_in_camera``) call only them. A box derives its rotation
matrix and half extents once, at construction, and every array it holds is
read-only, so the derived arrays cannot go stale.
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


def _as_vec3(v, name="vector"):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite components")
    return a


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


@dataclass(frozen=True)
class Pose:
    """Camera-to-world rigid transform: p_world = rotation @ p_cam + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = _as_vec3(self.translation, "translation")
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("rotation has non-finite entries")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "Pose":
        """Build from a 4x4 camera-to-world matrix; last row must be (0,0,0,1)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"pose matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > ORTHO_TOL:
            raise ValueError("pose matrix last row must be (0, 0, 0, 1)")
        return cls(m[:3, :3], m[:3, 3])

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.translation

    def apply(self, p) -> np.ndarray:
        """Camera-to-world: R @ p + t."""
        return self.rotation @ _as_vec3(p, "point") + self.translation


def _world_to_camera(p: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """R^T (p - t) on trusted float (3,) inputs."""
    return rotation.T @ (p - translation)


def world_to_camera(p, pose: Pose) -> np.ndarray:
    """Inverse pose map: R^T (p - t)."""
    return _world_to_camera(_as_vec3(p, "point"), pose.rotation, pose.translation)


def camera_to_world(p, pose: Pose) -> np.ndarray:
    return pose.apply(p)


# Unit-cube corner signs, fixed order (used by corners()).
_CORNER_SIGNS = np.array([
    [-1, -1, -1], [+1, -1, -1], [-1, +1, -1], [+1, +1, -1],
    [-1, -1, +1], [+1, -1, +1], [-1, +1, +1], [+1, +1, +1],
], dtype=float)


@dataclass(frozen=True)
class OrientedBox3:
    """Oriented 3D box: center, full extents (meters) and box-to-world quaternion.

    The rotation matrix and half extents are derived once at construction;
    every array the box holds is a read-only copy.
    """

    center: np.ndarray
    size: np.ndarray
    rotation: np.ndarray  # quaternion (w, x, y, z)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _half: np.ndarray = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = _as_vec3(self.center, "center").copy()
        s = _as_vec3(self.size, "size").copy()
        q = np.array(self.rotation, dtype=float)
        if (s <= 0).any():
            raise ValueError("size components must be strictly positive")
        if q.shape != (4,):
            raise ValueError(f"rotation quaternion must have shape (4,), got {q.shape}")
        if not np.isfinite(q).all():
            raise ValueError("rotation quaternion has non-finite components")
        if abs(vector_norm(q) - 1.0) > ORTHO_TOL:
            raise ValueError("rotation quaternion is not unit norm")
        object.__setattr__(self, "center", _read_only(c))
        object.__setattr__(self, "size", _read_only(s))
        object.__setattr__(self, "rotation", _read_only(q))
        object.__setattr__(self, "_matrix", _read_only(quat_to_matrix(q)))
        object.__setattr__(self, "_half", _read_only(s / 2.0))
        # canonical argument order of box_box_distance
        object.__setattr__(self, "_key", tuple(c.tolist() + s.tolist() + q.tolist()))

    def rotation_matrix(self) -> np.ndarray:
        return self._matrix

    def half_size(self) -> np.ndarray:
        return self._half

    def to_local(self, p) -> np.ndarray:
        return self._matrix.T @ (_as_vec3(p, "point") - self.center)

    def to_world(self, p_local) -> np.ndarray:
        return self._matrix @ np.asarray(p_local, dtype=float) + self.center

    def corners(self) -> np.ndarray:
        """The 8 corners in world coordinates, shape (8, 3), fixed order."""
        local = _CORNER_SIGNS * self._half
        return local @ self._matrix.T + self.center

    def contains(self, p, atol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.to_local(p)) <= self._half + atol))


def _closest_point(p: np.ndarray, box: OrientedBox3) -> np.ndarray:
    """Closest point of the solid box to a trusted float (3,) point."""
    rot, half = box._matrix, box._half
    local = rot.T @ (p - box.center)
    return rot @ np.clip(local, -half, half) + box.center


def closest_point_on_box(p, box: OrientedBox3):
    """Closest point of a solid oriented box to p, with its Euclidean distance.

    Returns (point, distance). Distance is exactly 0 when p lies inside.
    """
    p = _as_vec3(p, "point")
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


def planar_signed_angle(from_dir, to_dir) -> float:
    """CCW angle in degrees, in [-180, 180), between two floor-projected directions.

    Both vectors are projected onto the world XY plane (Z-up); raises
    DegenerateDirection when a projection has norm < 1e-9.
    """
    u = _as_vec3(from_dir, "from_dir")[:2]
    v = _as_vec3(to_dir, "to_dir")[:2]
    if vector_norm(u) < 1e-9:
        raise DegenerateDirection("from_dir has no floor-plane component")
    if vector_norm(v) < 1e-9:
        raise DegenerateDirection("to_dir has no floor-plane component")
    ang = math.degrees(math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]))
    if ang >= 180.0:
        ang -= 360.0
    return ang
