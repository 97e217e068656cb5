"""Calibrated pinhole-camera and rigid-body geometry.

Conventions used throughout the package: camera frames are +X right, +Y down,
+Z forward with the pixel origin at the top-left corner; the world frame is
the first view's camera frame with up fixed to +Z and gravity (0, 0, -1);
poses map world-frame points into camera-frame points.  Lengths are meters,
angles radians, all arithmetic float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

WORLD_UP = (0.0, 0.0, 1.0)

_ORTHO_TOL = 1e-9


class GeometryError(ValueError):
    """Base class for geometric contract violations."""


class NonPositiveDepth(GeometryError):
    pass


class OutOfBounds(GeometryError):
    pass


class BehindCamera(GeometryError):
    pass


class DegeneratePivot(GeometryError):
    pass


class TooFewPoints(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, image size (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        # Python's json reads Infinity, and inf passes a sign test
        if not all(math.isfinite(x) for x in (self.fx, self.fy, self.cx, self.cy)):
            raise GeometryError("intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")


class Pose:
    """Rigid camera-from-world transform: p_cam = R @ p_world + t."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        R = np.array(rotation, dtype=float)
        t = np.array(translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise GeometryError("rotation must be 3x3")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise GeometryError("pose entries must be finite")
        rows = R.tolist()
        for i, a in enumerate(rows):
            for j in range(i, 3):  # R @ R.T is symmetric
                if abs(_dot3(a, rows[j]) - (i == j)) > _ORTHO_TOL:
                    raise GeometryError("rotation is not orthonormal")
        if abs(_dot3(rows[0], cross3(rows[1], rows[2])) - 1.0) > _ORTHO_TOL:
            raise GeometryError("rotation determinant must be +1")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def __setattr__(self, name, value):
        raise AttributeError("Pose is immutable")

    @classmethod
    def identity(cls) -> "Pose":
        return _IDENTITY

    @classmethod
    def from_matrix4(cls, m) -> "Pose":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise GeometryError("pose matrix must be 4x4")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise GeometryError("last row of a pose matrix must be (0,0,0,1)")
        return cls(m[:3, :3], m[:3, 3])

    def matrix4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def center(self) -> np.ndarray:
        """Camera center expressed in the world frame: -R^T t."""
        return np.array([-c for c in matvec3(self.rotation.T, *self.translation.tolist())])

    def is_identity(self, tol: float = 1e-12) -> bool:
        return (
            np.max(np.abs(self.rotation - np.eye(3))) <= tol
            and np.max(np.abs(self.translation)) <= tol
        )

    def __eq__(self, other):
        return (
            isinstance(other, Pose)
            and np.array_equal(self.rotation, other.rotation)
            and np.array_equal(self.translation, other.translation)
        )

    def __repr__(self):
        return f"Pose(R={self.rotation.tolist()}, t={self.translation.tolist()})"


def invert(a: Pose) -> Pose:
    return Pose(a.rotation.T, a.center())


# ---------------------------------------------------------------------------
# Fixed-order arithmetic: each sum reaching a dataset byte, a tool result or a
# reward is elementwise products added left to right, which round alike on any
# CPU; a BLAS product (`@`, np.dot, np.linalg) may block or fuse a sum
# differently per batch size or kernel.
# ---------------------------------------------------------------------------


def matvec3(m, x, y, z):
    """m @ (x, y, z): m is a 3x3 array or rows of floats; x, y and z broadcast."""
    rows = m.tolist() if isinstance(m, np.ndarray) else m
    return tuple(row[0] * x + row[1] * y + row[2] * z for row in rows)


def transform(a: Pose, p) -> np.ndarray:
    """Apply the pose to one point (3,) or a stack of points (N, 3)."""
    p = np.asarray(p, dtype=float)
    R = a.rotation
    return p[..., 0:1] * R[:, 0] + p[..., 1:2] * R[:, 1] + p[..., 2:3] * R[:, 2] + a.translation


def yaw_local(x, y, z, yaw: float):
    """World-frame vector (x, y, z) along the axes of a frame yawed by yaw about +Z."""
    c, s = math.cos(yaw), math.sin(yaw)
    return x * c + y * s, y * c - x * s, z


def sum_of_products(a, b) -> float:
    """a[0] * b[0] + a[1] * b[1] + ... in Python floats, added left to right from 0.0."""
    total = 0.0
    for x, y in zip(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()):
        total += x * y
    return total


def length(v) -> float:
    """Euclidean length of a float sequence, its squares added left to right."""
    return math.sqrt(sum_of_products(v, v))


def matmul(a, b) -> np.ndarray:
    """a @ b for a 2-D a and a 1-D or 2-D b, each entry added left to right from 0.0."""
    cols = b if b.ndim == 2 else b[:, None]
    out = np.zeros((a.shape[0], cols.shape[1]))
    for k in range(a.shape[1]):
        out = out + a[:, k : k + 1] * cols[k]
    return out if b.ndim == 2 else out[:, 0]


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b) -> list:
    """np.cross of two 3-vectors: the same rounded products, subtracted alike."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def inv3(m) -> tuple:
    """(determinant, inverse or None if singular) of a 3x3 matrix, by cofactors."""
    r0, r1, r2 = np.asarray(m, dtype=float).tolist()
    cofactors = (cross3(r1, r2), cross3(r2, r0), cross3(r0, r1))
    det = sum_of_products(r0, cofactors[0])
    return det, (np.array(cofactors).T / det if det != 0.0 else None)


_IDENTITY = Pose(np.eye(3), np.zeros(3))  # Pose is immutable, so one instance serves


@dataclass(frozen=True)
class ImagePoint:
    """A projected point carrying both pixel and normalized coordinates."""

    u: float
    v: float
    u_norm: float
    v_norm: float

    def inside(self) -> bool:
        return 0.0 <= self.u_norm <= 1.0 and 0.0 <= self.v_norm <= 1.0


@dataclass(frozen=True)
class Box2:
    """Axis-aligned 2D box in pixel coordinates."""

    umin: float
    vmin: float
    umax: float
    vmax: float

    def __post_init__(self):
        vals = (self.umin, self.vmin, self.umax, self.vmax)
        if not all(math.isfinite(v) for v in vals):
            raise GeometryError("box coordinates must be finite")
        if not (self.umin < self.umax and self.vmin < self.vmax):
            raise GeometryError("box must have positive extent")


def _corner_map(box: OrientedBox3, rotation, translation) -> list:
    """Each axis's 8 corner coordinates under p -> R p + t (R as rows), x slowest, z fastest.

    A coordinate is (R c + t) +- hx R e_x +- hy R e_y +- hz R e_z, added left
    to right in Python floats, with e_* the box's axes.
    """
    hx, hy, hz = box.half_extents
    axes = []
    for row, o, t in zip(rotation, matvec3(rotation, *box.center), translation):
        ex, ey, ez = yaw_local(*row, box.yaw)
        xs = [o + t - hx * ex, o + t + hx * ex]
        xys = [a + d for a in xs for d in (-hy * ey, hy * ey)]
        axes.append([a + d for a in xys for d in (-hz * ez, hz * ez)])
    return axes


@dataclass(frozen=True)
class OrientedBox3:
    """Gravity-aligned 3D box: center, half extents, yaw about world +Z."""

    center: tuple
    half_extents: tuple
    yaw: float

    def __post_init__(self):
        c = tuple(float(x) for x in self.center)
        h = tuple(float(x) for x in self.half_extents)
        if len(c) != 3 or len(h) != 3:
            raise GeometryError("center and half_extents must be 3-vectors")
        if not all(math.isfinite(x) for x in c + h + (self.yaw,)):
            raise GeometryError("box fields must be finite")
        if not all(x > 0 for x in h):
            raise GeometryError("half extents must be positive")
        yaw = float(self.yaw)
        yaw = math.remainder(yaw, 2.0 * math.pi)
        if yaw >= math.pi:  # remainder returns (-pi, pi]; fold pi to -pi
            yaw -= 2.0 * math.pi
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)
        object.__setattr__(self, "yaw", yaw)

    def corners(self) -> np.ndarray:
        return np.array(_corner_map(self, np.eye(3).tolist(), (0.0, 0.0, 0.0))).T

    @property
    def zmin(self) -> float:
        return self.center[2] - self.half_extents[2]

    @property
    def zmax(self) -> float:
        return self.center[2] + self.half_extents[2]

    def contains(self, points, tol: float = 1e-9) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        local = yaw_local(*(pts[:, i] - self.center[i] for i in range(3)), self.yaw)
        return all(bool(np.all(np.abs(x) <= h + tol)) for x, h in zip(local, self.half_extents))

    def canonical(self) -> "OrientedBox3":
        """Equivalent box with yaw folded into [-pi/4, pi/4).

        A gravity-aligned box is invariant under a 90 degree yaw plus a swap
        of the horizontal extents; this picks the unique representative.
        """
        k = math.floor((self.yaw + math.pi / 4) / (math.pi / 2))
        yaw = self.yaw - k * (math.pi / 2)
        hx, hy, hz = self.half_extents
        if k % 2 != 0:
            hx, hy = hy, hx
        return OrientedBox3(self.center, (hx, hy, hz), yaw)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def unproject(u, v, depth, intr: CameraIntrinsics) -> np.ndarray:
    """Lift pixel coordinates plus depth into the camera frame.

    Accepts scalars or equally shaped arrays; returns shape (..., 3).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = np.asarray(depth, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDepth("depth must be positive")
    if np.any((u < 0) | (u > intr.width) | (v < 0) | (v > intr.height)):
        raise OutOfBounds("pixel outside image bounds")
    x = (u - intr.cx) * d / intr.fx
    y = (v - intr.cy) * d / intr.fy
    return np.stack(np.broadcast_arrays(x, y, d), axis=-1)


def project(point_world, intr: CameraIntrinsics, pose: Pose) -> ImagePoint:
    """Project one world-frame point to the image plane of the given view."""
    p = transform(pose, np.asarray(point_world, dtype=float))
    if p[2] <= 0:
        raise BehindCamera(f"camera-frame z = {p[2]} is not positive")
    u = intr.fx * p[0] / p[2] + intr.cx
    v = intr.fy * p[1] / p[2] + intr.cy
    return ImagePoint(u, v, u / intr.width, v / intr.height)


def corner_pixel_bounds(box: OrientedBox3, intr: CameraIntrinsics, pose: Pose):
    """(umin, umax, vmin, vmax) of the projected corners; None if a corner's camera z <= 1e-9."""
    xs, ys, zs = _corner_map(box, pose.rotation.tolist(), pose.translation.tolist())
    if not min(zs) > 1e-9:
        return None
    us = [intr.fx * x / z + intr.cx for x, z in zip(xs, zs)]
    vs = [intr.fy * y / z + intr.cy for y, z in zip(ys, zs)]
    return min(us), max(us), min(vs), max(vs)


# ---------------------------------------------------------------------------
# Camera motion
# ---------------------------------------------------------------------------


class OrbitDirection(str, Enum):
    LEFT = "left"
    RIGHT = "right"


def relative_camera_motion(pose1: Pose, pose2: Pose, pivot):
    """Classify camera motion around a pivot as left or right.

    The orbit angle is measured about the world up axis between the two
    pivot-to-camera directions, counter-clockwise positive when seen from
    above.  Counter-clockwise motion is "right", clockwise is "left"; a zero
    angle ties toward right.  Returns (direction, signed angle in radians).
    """
    pivot = np.asarray(pivot, dtype=float)
    d1 = pose1.center() - pivot
    d2 = pose2.center() - pivot
    for d in (d1, d2):
        if math.hypot(*d.tolist()) < 1e-12:
            raise DegeneratePivot("camera center coincides with pivot")
        if np.hypot(d[0], d[1]) < 1e-12:
            raise DegeneratePivot("camera center directly above pivot")
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    dot = d1[0] * d2[0] + d1[1] * d2[1]
    angle = math.atan2(cross, dot)
    direction = OrbitDirection.RIGHT if angle >= 0 else OrbitDirection.LEFT
    return direction, angle


# ---------------------------------------------------------------------------
# 2D / 3D box math
# ---------------------------------------------------------------------------


def _footprint_distance(a: OrientedBox3, b: OrientedBox3) -> float:
    """Distance between the ground-plane rectangles of two boxes (0 if they overlap)."""
    hax, hay = a.half_extents[0], a.half_extents[1]
    hbx, hby = b.half_extents[0], b.half_extents[1]
    ca, sa = math.cos(a.yaw), math.sin(a.yaw)
    cb, sb = math.cos(b.yaw), math.sin(b.yaw)
    c = ca * cb + sa * sb  # cos and sin of b's yaw relative to a's
    s = ca * sb - sa * cb
    ac, as_ = abs(c), abs(s)
    dx = b.center[0] - a.center[0]
    dy = b.center[1] - a.center[1]
    # b's center in a's frame (t) and a's center in b's frame (u)
    tx, ty = dx * ca + dy * sa, dy * ca - dx * sa
    ux, uy = -dx * cb - dy * sb, dx * sb - dy * cb
    # Separating-axis test on the four edge normals; no separation = overlap.
    if (
        abs(tx) <= hax + hbx * ac + hby * as_
        and abs(ty) <= hay + hbx * as_ + hby * ac
        and abs(ux) <= hbx + hax * ac + hay * as_
        and abs(uy) <= hby + hax * as_ + hay * ac
    ):
        return 0.0
    # Disjoint convex polygons: the nearest pair always includes a vertex.
    best = math.inf
    for sx, sy in ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)):
        bx, by = sx * hbx, sy * hby
        px = tx + c * bx - s * by
        py = ty + s * bx + c * by
        best = min(best, math.hypot(max(abs(px) - hax, 0.0), max(abs(py) - hay, 0.0)))
        ax, ay = sx * hax, sy * hay
        qx = ux + c * ax + s * ay
        qy = uy - s * ax + c * ay
        best = min(best, math.hypot(max(abs(qx) - hbx, 0.0), max(abs(qy) - hby, 0.0)))
    return best


def obb_distance(a: OrientedBox3, b: OrientedBox3) -> float:
    """Minimum Euclidean distance between two solid oriented boxes (0 if they intersect).

    Exact for gravity-aligned boxes, which rotate only by yaw about +Z: each
    is a ground-plane rectangle times a height interval, so the distance is
    the hypotenuse of the footprint distance and the vertical gap.
    """
    # Canonical argument order makes the result exactly symmetric.
    ka = (a.center, a.half_extents, a.yaw)
    kb = (b.center, b.half_extents, b.yaw)
    if kb < ka:
        a, b = b, a
    z_gap = max(a.zmin - b.zmax, b.zmin - a.zmax, 0.0)
    return math.hypot(_footprint_distance(a, b), z_gap)


def point_obb_distance(p, box: OrientedBox3) -> float:
    """Distance from a point to a solid oriented box (0 inside)."""
    local = yaw_local(*(float(x) - c for x, c in zip(p, box.center)), box.yaw)
    return length([max(abs(x) - h, 0.0) for x, h in zip(local, box.half_extents)])


def project_half_extent(box: OrientedBox3, direction) -> float:
    """Half extent of the box projected onto a world-frame unit direction."""
    local = yaw_local(*np.asarray(direction, dtype=float).tolist(), box.yaw)
    return sum_of_products([abs(x) for x in local], box.half_extents)


# ---------------------------------------------------------------------------
# Box fitting
# ---------------------------------------------------------------------------


def fit_obb(points, min_extent: float = 0.01) -> OrientedBox3:
    """Fit a gravity-aligned oriented box around 3D world points.

    The vertical span comes from the min/max height, the yaw from the 2D
    principal axis of the ground-plane projection (folded into [-pi/4, pi/4)),
    and each half extent is clamped to at least min_extent / 2.  Collinear
    ground-plane spreads fall back to yaw 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] < 3:
        raise TooFewPoints("need at least 3 points")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("points must be finite")

    zmin = float(pts[:, 2].min())
    zmax = float(pts[:, 2].max())

    xy = pts[:, :2]
    cx = xy[:, 0] - xy[:, 0].mean()
    cy = xy[:, 1] - xy[:, 1].mean()
    # second moments of the ground-plane spread, as elementwise sums rather
    # than a BLAS product, and the closed-form eigen-decomposition of their
    # symmetric 2x2 matrix
    n = pts.shape[0]
    sxx = float((cx * cx).sum()) / n
    syy = float((cy * cy).sum()) / n
    sxy = float((cx * cy).sum()) / n
    mid = (sxx + syy) / 2.0
    radius = math.hypot((sxx - syy) / 2.0, sxy)
    major, minor = mid + radius, mid - radius
    if major <= 1e-12 or minor <= 1e-9 * major:
        yaw = 0.0  # degenerate ground-plane spread
    else:
        yaw = 0.5 * math.atan2(2.0 * sxy, sxx - syy)  # the major axis
        k = math.floor((yaw + math.pi / 4) / (math.pi / 2))
        yaw -= k * (math.pi / 2)

    xl, yl, _ = yaw_local(xy[:, 0], xy[:, 1], 0.0, yaw)
    mid_x = (xl.min() + xl.max()) / 2.0
    mid_y = (yl.min() + yl.max()) / 2.0
    hx = max((xl.max() - xl.min()) / 2.0, min_extent / 2.0)
    hy = max((yl.max() - yl.min()) / 2.0, min_extent / 2.0)
    hz = max((zmax - zmin) / 2.0, min_extent / 2.0)
    c, s = math.cos(yaw), math.sin(yaw)
    center = (
        mid_x * c - mid_y * s,
        mid_x * s + mid_y * c,
        (zmin + zmax) / 2.0,
    )
    return OrientedBox3(center, (hx, hy, hz), yaw)
