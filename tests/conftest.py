import math

import numpy as np
import pytest

from tiger.geometry import CameraIntrinsics, OrientedBox3, Pose


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(500.0, 480.0, 320.0, 240.0, 640, 480)


def rotation_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def random_pose(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    rotation = rotation_from_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    return Pose(rotation, rng.uniform(-2.0, 2.0, size=3))


def random_box(rng, center_span=2.0, min_half=0.05, max_half=0.6):
    return OrientedBox3(
        tuple(rng.uniform(-center_span, center_span, size=3)),
        tuple(rng.uniform(min_half, max_half, size=3)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def look_at(center, target):
    """Camera-from-world pose at `center` looking at `target`, +Y down."""
    center = np.asarray(center, dtype=float)
    forward = np.asarray(target, dtype=float) - center
    z = forward / np.linalg.norm(forward)
    x = np.cross(z, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(x) < 1e-9:
        x = np.array([1.0, 0.0, 0.0])
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    rotation = np.stack([x, y, z])
    return Pose(rotation, -rotation @ center)


def box_rotation(box: OrientedBox3) -> np.ndarray:
    """World-from-box rotation: the yaw about +Z as a 3x3 matrix."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Box oracles.  Each reads a box's yaw through box_rotation's own cos and
# sin, never through the package's yaw_local, so a fault there cannot cancel
# out of a test that checks the package against them.

_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def box_corners(box: OrientedBox3) -> np.ndarray:
    """The box's 8 world-frame corners, (8, 3): x sign slowest, z sign fastest."""
    return (_CORNER_SIGNS * box.half_extents) @ box_rotation(box).T + np.asarray(box.center)


def box_contains(box: OrientedBox3, points, tol: float = 1e-9) -> bool:
    """Whether every point lies in the solid box, grown by tol on each axis."""
    local = (np.atleast_2d(np.asarray(points, dtype=float)) - box.center) @ box_rotation(box)
    return bool(np.all(np.abs(local) <= np.asarray(box.half_extents) + tol))


def canonical_box(box: OrientedBox3) -> OrientedBox3:
    """The same box with its yaw folded into [-pi/4, pi/4).

    A gravity-aligned box is unchanged by a quarter turn of yaw plus a swap
    of its horizontal extents; this picks the one representative.
    """
    k = math.floor((box.yaw + math.pi / 4) / (math.pi / 2))
    hx, hy, hz = box.half_extents
    if k % 2 != 0:
        hx, hy = hy, hx
    return OrientedBox3(box.center, (hx, hy, hz), box.yaw - k * (math.pi / 2))


def node_count(program) -> int:
    """The number of AST nodes of a parsed minidsl Program: its step bound."""
    # an explicit stack, so a long operator chain costs no Python stack
    stack = [expr for _, expr in program.lets] + [program.result]
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        kind = node[0]
        if kind == "neg":
            stack.append(node[1])
        elif kind == "bin" or kind == "cmp":
            stack.extend(node[2:])
        elif kind == "if":
            stack.extend(node[1:])
        elif kind in ("call", "list"):
            stack.extend(node[-1])
        elif kind not in ("num", "var"):
            raise AssertionError(kind)
    return count


def surface_points(box: OrientedBox3, per_axis: int = 16) -> np.ndarray:
    """Grid samples on all six faces of a box, in world coordinates."""
    h = np.asarray(box.half_extents)
    lin = [np.linspace(-h[i], h[i], per_axis) for i in range(3)]
    faces = []
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        g0, g1 = np.meshgrid(lin[others[0]], lin[others[1]])
        for sign in (-1.0, 1.0):
            pts = np.zeros((g0.size, 3))
            pts[:, axis] = sign * h[axis]
            pts[:, others[0]] = g0.ravel()
            pts[:, others[1]] = g1.ravel()
            faces.append(pts)
    local = np.concatenate(faces)
    return local @ box_rotation(box).T + np.asarray(box.center)


def sampling_resolution(box: OrientedBox3, per_axis: int = 16) -> float:
    return 2.0 * max(box.half_extents) / (per_axis - 1)


def sampled_box_distance(a: OrientedBox3, b: OrientedBox3, per_axis: int = 16) -> float:
    """Surface-sampling estimate of the distance between two solid boxes.

    Zero when any sample of one box lies inside the other (solid overlap),
    else the minimum pairwise distance between the two surface grids.
    """
    from scipy.spatial import cKDTree

    pa = surface_points(a, per_axis)
    pb = surface_points(b, per_axis)
    la = (pa - np.asarray(b.center)) @ box_rotation(b)
    if np.any(np.all(np.abs(la) <= np.asarray(b.half_extents), axis=1)):
        return 0.0
    lb = (pb - np.asarray(a.center)) @ box_rotation(a)
    if np.any(np.all(np.abs(lb) <= np.asarray(a.half_extents), axis=1)):
        return 0.0
    tree = cKDTree(pb)
    dists, _ = tree.query(pa, k=1)
    return float(dists.min())
