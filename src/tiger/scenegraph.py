"""Spatial-relation predicates and region membership over ground-truth boxes.

Camera-centric relations (left/right/front/behind) are judged on camera-frame
center coordinates with a hysteresis margin so near-ties do not hold;
above/below compare world-frame vertical intervals.  All predicates are pure,
so directional duality holds exactly by construction.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .geometry import OrientedBox3, Pose, point_obb_distance, project_half_extent, transform


class Relation(str, Enum):
    LEFT_OF = "left_of"
    RIGHT_OF = "right_of"
    IN_FRONT_OF = "in_front_of"
    BEHIND = "behind"
    ABOVE = "above"
    BELOW = "below"


MIN_MARGIN = 0.02  # meters of hysteresis for camera-centric ties


def _axis_separated(a: OrientedBox3, b: OrientedBox3, pose: Pose, axis: int) -> float:
    """Signed separation of b minus a along a camera axis, less the margin.

    Positive means a sits strictly on the negative side of b along that axis
    (their projected intervals do not overlap, beyond the hysteresis band).
    """
    axis_world = pose.rotation.T[:, axis]
    ca = transform(pose, np.asarray(a.center))[axis]
    cb = transform(pose, np.asarray(b.center))[axis]
    margin = max(
        project_half_extent(a, axis_world) + project_half_extent(b, axis_world),
        MIN_MARGIN,
    )
    return (cb - ca) - margin


def spatial_relation(
    a: OrientedBox3,
    b: OrientedBox3,
    pose: Pose,
    relation: Relation,
) -> bool:
    """Decide whether the relation holds for box a with respect to box b."""
    if relation is Relation.LEFT_OF:
        return _axis_separated(a, b, pose, 0) > 0
    if relation is Relation.RIGHT_OF:
        return spatial_relation(b, a, pose, Relation.LEFT_OF)
    if relation is Relation.IN_FRONT_OF:
        return _axis_separated(a, b, pose, 2) > 0
    if relation is Relation.BEHIND:
        return spatial_relation(b, a, pose, Relation.IN_FRONT_OF)
    if relation is Relation.ABOVE:
        return a.zmin >= b.zmax
    if relation is Relation.BELOW:
        return spatial_relation(b, a, pose, Relation.ABOVE)
    raise ValueError(f"unknown relation {relation!r}")


_POINT_HALF = 1e-6  # point-sized box used to re-verify region predicates


def region_contains(point, anchor, region, pose, clearance, floor_z=-math.inf) -> bool:
    """True when a point sits in the stated region of the anchor box.

    Checks the relation predicate (with the point wrapped in a point-sized
    box), the clearance from the anchor surface, and the floor.
    """
    p = np.asarray(point, dtype=float)
    if p[2] <= floor_z:
        return False
    if point_obb_distance(p, anchor) < clearance - 1e-9:
        return False
    wrap = OrientedBox3(tuple(p), (_POINT_HALF,) * 3, 0.0)
    return spatial_relation(wrap, anchor, pose, region)

