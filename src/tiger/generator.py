"""Synthetic scene and dataset generation with complete tool trajectories.

Scenes are sampled as non-overlapping gravity-aligned boxes hovering above
the floor inside the first camera's frustum, plus orbit views looking at the
cluster.  Templates instantiate questions over those scenes together with the
canonical tool plan for their family; every stored tool result is produced by
the runtime itself, so replaying a sample is byte-identical and rescoring it
against its own ground truth yields a composite reward of exactly 1.

Generation is a pure function of (params, template mix, master seed): sample
seeds derive from the master seed by hashing, so records are independent of
generation order and parallelism.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry, runtime
from .geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Pose,
    obb_distance,
    point_obb_distance,
    project,
    project_half_extent,
)
from .runtime import ExecutionContext, TrajectoryRunError, execute_calls, run_trajectory
from .runtime import execute_tool  # noqa: F401  patched by name in tigerbench/tracing.py
from .scene import ObjectNode, Scene
from .trajectory import (
    Answer,
    Choice,
    Point2,
    Point3,
    Scalar,
    Text,
    Thought,
    ToolCall,
    ToolResult,
    Trajectory,
    Value,
    ValueList,
    format_number,
    parse_trajectory,
    render_trajectory,
    render_value,
    validate_format,
)


class PlacementFailure(RuntimeError):
    pass


class InsufficientScene(RuntimeError):
    pass


class GenerationError(RuntimeError):
    pass


DEFAULT_LABELS = (
    "box",
    "chair",
    "table",
    "lamp",
    "monitor",
    "bottle",
    "book",
    "mug",
    "plant",
    "sofa",
    "cabinet",
    "toy",
    "bag",
    "printer",
    "basket",
    "stool",
)


def _is_sequence(value) -> bool:
    return isinstance(value, (tuple, list))


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _check_range(name: str, value, ok, what: str) -> None:
    if not (
        _is_sequence(value)
        and len(value) == 2
        and all(ok(x) for x in value)
        and value[0] <= value[1]
    ):
        raise ValueError(f"{name} must be a [lo, hi] pair of {what} with lo <= hi")


@dataclass(frozen=True)
class SceneParams:
    """Knobs for synthetic scene sampling."""

    object_count: tuple = (2, 5)
    view_count: tuple = (2, 4)
    labels: tuple = DEFAULT_LABELS
    room_extent: tuple = (2.4, 2.4, 1.2)
    orbit_radius: tuple = (1.6, 2.6)
    orbit_height: tuple = (0.3, 1.2)
    min_half_extent: float = 0.05
    max_half_extent: float = 0.24
    hover_range: tuple = (0.55, 1.1)
    placement_margin: float = 0.04
    max_attempts: int = 300
    intrinsics: tuple = (525.0, 525.0, 319.5, 239.5, 640, 480)

    def __post_init__(self):
        """Reject every field of the wrong shape, naming it; coerce nothing."""
        for name in ("object_count", "view_count"):
            _check_range(name, getattr(self, name), _is_count, "positive integers")
        for name in ("orbit_radius", "orbit_height", "hover_range"):
            value = getattr(self, name)
            _check_range(name, value, _is_number, "numbers")
            if not math.isfinite(value[1] - value[0]):
                raise ValueError(f"{name} must span a finite width")
        if not self.orbit_radius[0] > 0:
            raise ValueError("orbit_radius must be positive")
        if not (
            _is_sequence(self.labels)
            and all(isinstance(x, str) and x for x in self.labels)
            and len(set(self.labels)) == len(self.labels)
        ):
            raise ValueError("labels must be a list of distinct non-empty strings")
        if self.object_count[1] > len(self.labels):
            raise ValueError("labels: not enough labels for the object count")
        if not (
            _is_sequence(self.room_extent)
            and len(self.room_extent) == 3
            and all(_is_number(x) and x > 0 for x in self.room_extent)
        ):
            raise ValueError("room_extent must be 3 positive numbers")
        for name in ("min_half_extent", "max_half_extent"):
            value = getattr(self, name)
            if not (_is_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive number")
        if self.min_half_extent > self.max_half_extent:
            raise ValueError("min_half_extent must not exceed max_half_extent")
        if not (_is_number(self.placement_margin) and self.placement_margin >= 0):
            raise ValueError("placement_margin must be a non-negative number")
        if not _is_count(self.max_attempts):
            raise ValueError("max_attempts must be a positive integer")
        k = self.intrinsics
        if not (
            _is_sequence(k)
            and len(k) == 6
            and all(_is_number(x) for x in k)
            and k[0] > 0
            and k[1] > 0
            and all(x > 0 and x == int(x) for x in k[4:])
        ):
            raise ValueError(
                "intrinsics must be [fx, fy, cx, cy, width, height] with positive "
                "focal lengths and a positive integer width and height"
            )
        self.camera_intrinsics()  # the principal point must lie in the image

    def camera_intrinsics(self) -> CameraIntrinsics:
        fx, fy, cx, cy, width, height = self.intrinsics
        return CameraIntrinsics(fx, fy, cx, cy, int(width), int(height))

    def to_dict(self) -> dict:
        """Every field in declaration order, sequences as lists."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            out[field.name] = list(value) if _is_sequence(value) else value
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "SceneParams":
        if not isinstance(doc, dict):
            raise ValueError("scene parameters must be an object")
        kwargs = {}
        for key, value in doc.items():
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown scene parameter {key!r}")
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


@dataclass(frozen=True)
class Template:
    family: str
    image_config: str = ""
    output_format: str = ""

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown template family {self.family!r}")
        _, formats, configs, _, _ = _FAMILIES[self.family]
        config = self.image_config or configs[0]
        if config not in configs:
            raise ValueError(
                f"{self.family} supports image configs {configs}, not {config!r}"
            )
        fmt = self.output_format or formats[0]
        if fmt not in formats:
            raise ValueError(f"{self.family} supports formats {formats}, not {fmt!r}")
        object.__setattr__(self, "image_config", config)
        object.__setattr__(self, "output_format", fmt)


@dataclass
class Sample:
    """One dataset record: scene, question, ground-truth trajectory, answer."""

    id: int
    scene: Scene
    views: tuple
    question: str
    trajectory_text: str
    answer: Value
    format: str
    family: str
    seed: int

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "scene": self.scene.to_dict(),
            "views": list(self.views),
            "question": self.question,
            "trajectory": self.trajectory_text,
            "answer": render_value(self.answer),
            "format": self.format,
            "family": self.family,
            "seed": self.seed,
        }


def derive_seed(master_seed: int, *path) -> int:
    """Splittable per-sample seed: hash of the master seed and an index path."""
    key = ":".join([str(master_seed)] + [str(p) for p in path])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------------------
# Scene synthesis
# ---------------------------------------------------------------------------


def _look_at(center, target) -> Pose:
    """Camera-from-world pose at `center` looking toward `target` (+Y down)."""
    forward = [float(t) - float(c) for t, c in zip(target, center)]
    norm = geometry.length(forward)
    if norm < 1e-9:
        raise ValueError("camera center coincides with the look-at target")
    z = [f / norm for f in forward]
    lateral = geometry.cross3(z, geometry.WORLD_UP)
    norm = geometry.length(lateral)
    if norm < 1e-9:
        lateral, norm = [1.0, 0.0, 0.0], 1.0
    x = [a / norm for a in lateral]
    rotation = [x, geometry.cross3(z, x), z]
    return Pose(rotation, [-c for c in geometry.matvec3(rotation, *center)])


def _fov_lateral_cap(intr: CameraIntrinsics, z: np.ndarray) -> np.ndarray:
    # keep centers comfortably inside the view-0 frustum
    half_u = z * (intr.width / 2) / intr.fx
    half_v = z * (intr.height / 2) / intr.fy
    return 0.8 * np.minimum(half_u, half_v)


# Placement attempts decided together, with one numpy pass (see _Draws.place).
_BLOCK = 64
# Doubles one placement attempt reads: 3 for the half extents, then zmin and
# the center's x and y, then the yaw.  An attempt whose lateral cap is not
# positive stops after zmin (4 doubles); one that rises too high stops after
# its center (6).
_ATTEMPT = 7


def _pair_verdicts(cx, cy, cz, hx, hy, hz, boxes, margin: float):
    """(cleared, touching): which candidate/placed pairs the shortcuts decide.

    Rows are candidate boxes, columns the placed `boxes`.  A vertical gap
    above the margin clears a pair; so does an xy center distance above both
    circumradii plus the margin, since a footprint lies inside its
    circumcircle.  A hypotenuse of that distance less both inradii (a
    footprint contains its incircle) and the vertical gap below the margin
    makes the pair touch.  Each shortcut keeps 1e-9 of slack against the
    exact distance, so a cleared pair has obb_distance > margin and a
    touching pair does not; the rest are open.
    """
    ox, oy, oz, ohx, ohy, ohz = (
        np.array([b.center + b.half_extents for b in boxes]).reshape(-1, 6).T
    )
    cx, cy, cz, hx, hy, hz = (v[:, None] for v in (cx, cy, cz, hx, hy, hz))
    with np.errstate(over="ignore", invalid="ignore"):
        z_gap = np.maximum(np.maximum(cz - hz - (oz + ohz), oz - ohz - (cz + hz)), 0.0)
        d = np.hypot(cx - ox, cy - oy)
        cleared = (z_gap > margin + 1e-9) | (
            d - np.hypot(hx, hy) - np.hypot(ohx, ohy) > margin + 1e-9
        )
        inner_gap = np.maximum(d - np.minimum(hx, hy) - np.minimum(ohx, ohy), 0.0)
        touching = np.hypot(inner_gap, z_gap) < margin - 1e-9
    return cleared, touching


class _Draws:
    """A scene's doubles after its three prefix draws, in draw order.

    `rng.random(n)` yields the doubles of n scalar draws, and
    `rng.uniform(lo, hi)` is `lo + (hi - lo) * rng.random()` bit for bit, so
    drawing `_ATTEMPT * _BLOCK` doubles at a time and dropping the unread
    tail realises the stream that scalar `rng.uniform` draws would.  A
    placement attempt reads 3 half extents and zmin; then, if its lateral
    cap is positive, the center's x and y; then, if the box is not too
    tall, the yaw.  Its first 4 doubles thus fix how many it reads, so each
    refill works out at once, for every offset, the attempt that would start
    there: how many doubles it reads and the box it draws.
    """

    def __init__(self, rng: np.random.Generator, params: SceneParams, intr: CameraIntrinsics):
        self._rng = rng
        self._params = params
        self._intr = intr
        self._u = np.empty(0)
        self._pos = 0

    def _ahead(self, n: int) -> None:
        """Have the next n doubles, and the attempts starting among them."""
        if self._pos + n <= len(self._u):
            return
        u = np.concatenate((self._u[self._pos :], self._rng.random(_ATTEMPT * _BLOCK)))
        self._u, self._pos = u, 0
        params = self._params
        h_lo, h_hi = params.min_half_extent, params.max_half_extent
        z_lo, z_hi = params.hover_range
        m = len(u) - _ATTEMPT + 1  # offsets with a whole attempt ahead
        with np.errstate(over="ignore", invalid="ignore"):
            half = h_lo + (h_hi - h_lo) * u
            hx, hy, hz = half[:m], half[1 : m + 1], half[2 : m + 2]
            cz = z_lo + (z_hi - z_lo) * u[3 : m + 3] + hz
            cap = np.minimum(
                _fov_lateral_cap(self._intr, np.maximum(cz, 1e-6)) - np.maximum(hx, hy),
                min(params.room_extent[0] / 2, params.room_extent[1] / 2),
            )
            tall = cz + hz > z_hi + params.room_extent[2]
            self._reads = np.where(cap <= 0, 4, np.where(tall, 6, _ATTEMPT)).tolist()
            lo = -cap  # the center's x and y are uniform on [-cap, cap]
            width = cap - lo
            cx = lo + width * u[4 : m + 4]
            cy = lo + width * u[5 : m + 5]
            yaw = -math.pi + (math.pi - -math.pi) * u[6 : m + 6]
        self._attempts = np.stack((cx, cy, cz, hx, hy, hz, yaw))

    def uniform(self, lo: float, hi: float) -> float:
        """The next double as `rng.uniform(lo, hi)` would draw it."""
        self._ahead(1)
        u = float(self._u[self._pos])
        self._pos += 1
        return lo + (hi - lo) * u

    def place(self, boxes) -> OrientedBox3 | None:
        """The first of up to max_attempts attempts clear of `boxes`, or None.

        An attempt is clear when obb_distance to every placed box exceeds the
        margin.  Attempts are decided up to _BLOCK at a time, as many as the
        drawn doubles hold whole ones, so a refill comes only once none is
        left; the stream does not depend on where blocks start.  Those that
        read all 7 doubles go through _pair_verdicts together, a row with a
        touching pair is skipped, obb_distance runs only on the pairs a row
        leaves open, and the first row whose pairs are all clear is taken.
        """
        margin = self._params.placement_margin
        left = self._params.max_attempts
        while left > 0:
            self._ahead(_ATTEMPT)  # refill only when no whole attempt is left
            reads = self._reads
            whole = []
            p = self._pos
            n = 0
            while n < min(_BLOCK, left) and p < len(reads):
                if reads[p] == _ATTEMPT:
                    whole.append(p)
                p += reads[p]
                n += 1
            cx, cy, cz, hx, hy, hz, yaw = self._attempts[:, whole]
            cleared, touching = _pair_verdicts(cx, cy, cz, hx, hy, hz, boxes, margin)
            for i in np.flatnonzero(~touching.any(axis=1)).tolist():
                box = OrientedBox3(
                    (float(cx[i]), float(cy[i]), float(cz[i])),
                    (float(hx[i]), float(hy[i]), float(hz[i])),
                    float(yaw[i]),
                )
                if all(
                    obb_distance(box, boxes[j]) > margin
                    for j in np.flatnonzero(~cleared[i]).tolist()
                ):
                    self._pos = whole[i] + _ATTEMPT
                    return box
            self._pos = p
            left -= n
        return None


def generate_scene(params: SceneParams, seed: int) -> Scene:
    """Sample a non-overlapping, fully visible scene; deterministic per seed.

    After the object count, view count and labels, every draw reads one
    stream of doubles (`_Draws`): the placement attempts, then 3 per extra
    view.
    """
    rng = np.random.default_rng(seed)
    intr = params.camera_intrinsics()

    n_objects = int(rng.integers(params.object_count[0], params.object_count[1] + 1))
    n_views = int(rng.integers(params.view_count[0], params.view_count[1] + 1))
    labels = [str(x) for x in rng.choice(params.labels, size=n_objects, replace=False)]
    draws = _Draws(rng, params, intr)

    for _ in range(params.max_attempts):
        boxes = []
        for _ in range(n_objects):
            box = draws.place(boxes)
            if box is None:
                break
            boxes.append(box)
        if len(boxes) < n_objects:
            continue

        objects = tuple(
            ObjectNode(id=i, label=labels[i], box3=boxes[i]) for i in range(n_objects)
        )
        pivot = np.mean([b.center for b in boxes], axis=0)
        views = [Pose.identity()]
        for _ in range(n_views - 1):
            azimuth = draws.uniform(0.0, 2.0 * math.pi)
            radius = draws.uniform(*params.orbit_radius)
            cam_z = pivot[2] + draws.uniform(*params.orbit_height)
            center = np.array(
                [
                    pivot[0] + radius * math.cos(azimuth),
                    pivot[1] + radius * math.sin(azimuth),
                    cam_z,
                ]
            )
            views.append(_look_at(center, pivot))

        scene = Scene(intr, views, objects, floor_z=0.0)
        if all(
            any(scene.project_box(obj, v) is not None for v in range(n_views))
            for obj in objects
        ):
            return scene
    raise PlacementFailure(f"could not place {n_objects} objects after retries")


# ---------------------------------------------------------------------------
# Question and thought phrase banks
# ---------------------------------------------------------------------------

QUESTION_BANK = {
    ("object_size", "scalar"): (
        "What is the {dim} of the {label} in view {view}, in meters?",
        "Measure the {dim} of the {label} shown in view {view}.",
        "In view {view}, how large is the {label}? Report its {dim} in meters.",
    ),
    ("inter_object_distance", "scalar"): (
        "What is the minimum distance between the {a} and the {b}?",
        "How far apart are the {a} and the {b} at their closest points, in meters?",
        "Compute the minimum separation between the {a} and the {b}.",
    ),
    ("spatial_layout_mcq", "choice"): (
        "In view {view}, is the {a} to the left or to the right of the {b}? (A) left (B) right",
        "Looking at view {view}: does the {a} sit left or right of the {b}? (A) left (B) right",
        "From the camera of view {view}, is the {a} on the left side or the right side of the {b}? (A) left (B) right",
    ),
    ("object_depth", "scalar"): (
        "How far from the camera is the visible surface of the {label} at its image center in view {view}, in meters?",
        "In view {view}, what is the sensor depth at the center pixel of the {label}?",
        "Query the depth of the {label} at its projected center in view {view}, in meters.",
    ),
    ("relative_camera_pose", "choice"): (
        "A static scene was captured from view {i} first and view {j} second. Did the camera move left or right around the objects? (A) left (B) right",
        "Between view {i} and view {j}, does the camera travel left or right about the scene? (A) left (B) right",
        "The camera moved from the pose of view {i} to the pose of view {j}. Choose its orbit direction: (A) left (B) right",
    ),
    ("relative_camera_pose", "pose"): (
        "Give the 4x4 rigid transform mapping points from the camera frame of view {i} to the camera frame of view {j}.",
        "What is the relative pose of view {j} with respect to view {i}, as a 4x4 matrix?",
    ),
    ("point_3d_target", "point3"): (
        "Pick a point in the empty space {region} the {label} in view {view}. Answer with world-frame 3D coordinates in meters.",
        "Choose a free-space 3D point {region} the {label} (view {view}); give (x, y, z) in the world frame.",
        "Select a collision-free point {region} the {label} in view {view} and report it as world coordinates.",
    ),
    ("pixel_2d_target", "point2"): (
        "Pinpoint a point in the vacant space below the {label} in view {view}. Answer as a list of normalized image coordinates [(x, y)] with x and y between 0 and 1.",
        "Mark one point under the {label} in view {view}; reply with normalized pixel coordinates in [(x, y)] form.",
    ),
    ("metric_offset_placement", "point3"): (
        "Where should an object be placed so that it ends up {offset} m {dir} the {label} in view {view}? Give the world-frame 3D target point.",
        "Give the 3D world coordinates of the spot {offset} m {dir} the {label}, judged in view {view}.",
    ),
}

THOUGHT_BANK = {
    "object_size": (
        "I need the 3D box of the {label} before I can measure it.",
        "First retrieve the oriented box of the {label}, then read off the requested extent.",
    ),
    "inter_object_distance": (
        "I need both 3D boxes before I can measure the gap.",
        "Fetch the oriented boxes of the {a} and the {b}, then compute their minimum separation.",
    ),
    "spatial_layout_mcq": (
        "Get both 3D boxes and the camera pose, then compare horizontal camera-frame coordinates.",
        "With the two boxes and the extrinsics of view {view} I can compare their positions along the camera x axis.",
    ),
    "object_depth": (
        "Locate the {label} in view {view} and query the depth sensor at its center pixel.",
        "The depth sensor can answer this directly at the projected center of the {label}.",
    ),
    "relative_camera_pose": (
        "Retrieve the extrinsics of both views, then test the sideways displacement of the second camera in the first camera's frame.",
        "Compare the two camera poses: the sign of the lateral motion decides left versus right.",
    ),
    "point_3d_target": (
        "Get the 3D box of the {label}; then I can offset from it into free space.",
        "With the oriented box of the {label} I can construct a point {region} it.",
    ),
    "pixel_2d_target": (
        "Find the 3D box of the {label} and the camera pose, pick a point under the box, then project it back to the image.",
        "First the box and extrinsics; afterwards pick a point below the {label} and convert it to normalized pixels.",
    ),
    "metric_offset_placement": (
        "Get the box of the {label} and the extrinsics of view {view}; the target is a fixed metric offset along a camera axis.",
        "With the {label}'s box and the view pose I can place the target exactly {offset} m away.",
    ),
}

_SIZE_DIMS = (
    ("height", "2 * vec_get(obb_half(r1), 2)"),
    ("longest horizontal extent", "2 * max(vec_get(obb_half(r1), 0), vec_get(obb_half(r1), 1))"),
    ("shortest horizontal extent", "2 * min(vec_get(obb_half(r1), 0), vec_get(obb_half(r1), 1))"),
    (
        "longest dimension",
        "2 * max(max(vec_get(obb_half(r1), 0), vec_get(obb_half(r1), 1)), vec_get(obb_half(r1), 2))",
    ),
)

_REGION_PHRASES = {
    "below": "directly below",
    "above": "directly above",
    "left_of": "to the left of",
    "right_of": "to the right of",
}

_OFFSET_DIRS = {
    "right": "to the right of",
    "left": "to the left of",
    "behind": "behind",
    "front": "in front of",
    "above": "above",
}


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


# ---------------------------------------------------------------------------
# Spatial relations and regions
# ---------------------------------------------------------------------------

_MIN_MARGIN = 0.02  # meters of hysteresis for camera-centric ties
_POINT_HALF = 1e-6  # point-sized box used to re-verify region predicates


def _lateral(box: OrientedBox3, pose: Pose) -> tuple:
    """A box's camera-frame center x, and its half extent along the camera x axis."""
    axis = pose.rotation[0].tolist()  # the camera x axis in world coordinates
    x = geometry.matvec3([axis], *box.center)[0] + float(pose.translation[0])
    return x, project_half_extent(box, axis)


def _left_of(a: tuple, b: tuple) -> bool:
    """Whether the box of _lateral values a lies left of the box of b.

    b's center lies beyond a's by more than the two half extents, and by at
    least _MIN_MARGIN, so near-ties hold neither way.
    """
    (xa, ha), (xb, hb) = a, b
    return (xb - xa) - max(ha + hb, _MIN_MARGIN) > 0


def _relation(a: OrientedBox3, b: OrientedBox3, pose: Pose, relation: str) -> bool:
    """Whether box a is "left_of", "right_of", "above" or "below" box b.

    Left and right compare the boxes' _lateral values by _left_of.  Above
    and below compare world-frame vertical intervals.  Each relation is its
    dual with the boxes swapped, so duality holds exactly.
    """
    if relation == "right_of":
        return _relation(b, a, pose, "left_of")
    if relation == "below":
        return _relation(b, a, pose, "above")
    if relation == "above":
        return a.zmin >= b.zmax
    if relation != "left_of":
        raise ValueError(f"unknown relation {relation!r}")
    return _left_of(_lateral(a, pose), _lateral(b, pose))


# The builders call spatial_relation and region_contains by these names, where
# tigerbench/tracing.py patches them; calls inside the two go to _relation, so
# one question-level test is one traced call.


def spatial_relation(a: OrientedBox3, b: OrientedBox3, pose: Pose, relation: str) -> bool:
    """Decide whether the relation holds for box a with respect to box b."""
    return _relation(a, b, pose, relation)


def region_contains(point, anchor, region, pose, clearance, floor_z=-math.inf) -> bool:
    """True when a point sits in the stated region of the anchor box.

    Checks the floor, the clearance from the anchor surface, and the region's
    relation with the point wrapped in a point-sized box.
    """
    p = np.asarray(point, dtype=float)
    if p[2] <= floor_z:
        return False
    if point_obb_distance(p, anchor) < clearance - 1e-9:
        return False
    wrap = OrientedBox3(tuple(p), (_POINT_HALF,) * 3, 0.0)
    return _relation(wrap, anchor, pose, region)


# ---------------------------------------------------------------------------
# Template instantiation
# ---------------------------------------------------------------------------


def _int_scalar(x: int) -> Scalar:
    return Scalar(float(x))


def _call(name, **kwargs) -> ToolCall:
    return ToolCall(name, tuple(kwargs.items()))


def _code(program: str, *uses) -> ToolCall:
    """A code_executor call of `program` over the named result bindings."""
    return _call(
        "code_executor",
        program=Text(program),
        uses=ValueList(tuple(Text(n) for n in uses)),
    )


def _visible_objects(scene: Scene, view: int):
    return [o for o in scene.objects if scene.project_box(o, view) is not None]


def _run_plan(ctx: ExecutionContext, calls):
    """Results of a plan's calls; the first failure is raised.

    The plan binds its own r1..rN but shares ctx's scene, mode and tool
    cache, so a lookup repeated across one record's plans runs once.
    """
    plan_ctx = ExecutionContext(ctx.scene, ctx.mode, cache=ctx.cache)
    results = []
    for value, error in execute_calls(plan_ctx, calls):
        if error is not None:
            raise error
        results.append(value)
    return results


def _shuffled(rng, items):
    items = list(items)
    order = rng.permutation(len(items))
    return [items[int(i)] for i in order]


def _box_call_checked(ctx: ExecutionContext, view: int, obj: ObjectNode) -> ToolCall | None:
    """Label-addressed box lookup, or None when it resolves to another object."""
    call = _call("box_2d_to_box_3d", view=_int_scalar(view), label=Text(obj.label))
    (value,) = _run_plan(ctx, [call])
    return call if value.box == obj.box3 else None


# Each builder draws from the record's rng and returns (calls, results,
# answer, views, fields): the plan, its results, the answer value, the views
# the record names, and one dict of fields that fills both the question and
# the thought.  instantiate draws the question and then the thought once the
# builder returns, so they are a record's last two draws; the dataset bytes
# depend on that order.  A builder that finds nothing to ask raises
# InsufficientScene.


def _build_object_size(ctx, rng, template):
    scene = ctx.scene
    for view in _shuffled(rng, range(len(scene.views))):
        visible = _visible_objects(scene, view)
        if not visible:
            continue
        obj = _pick(rng, visible)
        box_call = _box_call_checked(ctx, view, obj)
        if box_call is None:
            continue
        dim, program = _pick(rng, _SIZE_DIMS)
        calls = [box_call, _code(program, "r1")]
        results = _run_plan(ctx, calls)
        answer = Scalar(results[-1].value, "m")
        return calls, results, answer, (view,), {"dim": dim, "label": obj.label, "view": view}
    raise InsufficientScene("no visible object for a size question")


def _build_inter_object_distance(ctx, rng, template):
    scene = ctx.scene
    if len(scene.objects) < 2:
        raise InsufficientScene("need two objects for a distance question")
    multi = template.image_config == "multi_view" and len(scene.views) >= 2
    for view_a in _shuffled(rng, range(len(scene.views))):
        view_b = view_a
        if multi:
            others = [v for v in range(len(scene.views)) if v != view_a]
            if not others:
                continue
            view_b = _pick(rng, others)
        pairs = [
            (a, b)
            for a in _visible_objects(scene, view_a)
            for b in _visible_objects(scene, view_b)
            if a.id != b.id
        ]
        if not pairs:
            continue
        a, b = _pick(rng, pairs)
        call_a = _box_call_checked(ctx, view_a, a)
        call_b = call_a and _box_call_checked(ctx, view_b, b)
        if call_b is None:
            continue
        calls = [call_a, call_b, _code("obb_dist(r1, r2)", "r1", "r2")]
        results = _run_plan(ctx, calls)
        answer = Scalar(results[-1].value, "m")
        views = tuple(sorted({view_a, view_b}))
        return calls, results, answer, views, {"a": a.label, "b": b.label}
    raise InsufficientScene("no visible object pair for a distance question")


_LAYOUT_PROGRAM = (
    "let pa = obb_center(r1); let pb = obb_center(r2); "
    "let qa = matmul(r3, vec(vec_get(pa, 0), vec_get(pa, 1), vec_get(pa, 2), 1)); "
    "let qb = matmul(r3, vec(vec_get(pb, 0), vec_get(pb, 1), vec_get(pb, 2), 1)); "
    "sign(vec_get(qb, 0) - vec_get(qa, 0))"
)


def _lateral_pairs(objects, pose: Pose):
    """The ordered pairs (a, b) of objects where a is left or right of b.

    Each object's _lateral values are computed once per view, and each pair
    is decided by _left_of, so it holds exactly when
    spatial_relation(a, b, pose, "left_of") or "right_of" does.
    """
    table = [(o, _lateral(o.box3, pose)) for o in objects]
    return [
        (a, b)
        for a, la in table
        for b, lb in table
        if a.id != b.id and (_left_of(la, lb) or _left_of(lb, la))
    ]


def _build_spatial_layout_mcq(ctx, rng, template):
    scene = ctx.scene
    if len(scene.objects) < 2:
        raise InsufficientScene("need two objects for a layout question")
    for view in _shuffled(rng, range(len(scene.views))):
        pose = scene.views[view]
        pairs = _lateral_pairs(_visible_objects(scene, view), pose)
        if not pairs:
            continue
        a, b = _pick(rng, pairs)
        call_a = _box_call_checked(ctx, view, a)
        call_b = call_a and _box_call_checked(ctx, view, b)
        if call_b is None:
            continue
        calls = [
            call_a,
            call_b,
            _call("camera_extrinsics", view=_int_scalar(view)),
            _code(_LAYOUT_PROGRAM, "r1", "r2", "r3"),
        ]
        results = _run_plan(ctx, calls)
        sign = results[-1].value
        if sign == 0.0:
            continue
        left_holds = spatial_relation(a.box3, b.box3, pose, "left_of")
        if (sign > 0) != left_holds:
            raise AssertionError("layout sign disagrees with the relation predicate")
        answer = Choice("A" if sign > 0 else "B")
        return calls, results, answer, (view,), {"a": a.label, "b": b.label, "view": view}
    raise InsufficientScene("no laterally separated pair in any view")


def _build_object_depth(ctx, rng, template):
    scene = ctx.scene
    for view in _shuffled(rng, range(len(scene.views))):
        for obj in _shuffled(rng, _visible_objects(scene, view)):
            try:
                ip = project(obj.box3.center, scene.intrinsics, scene.views[view])
            except geometry.BehindCamera:
                continue
            if not ip.inside():
                continue
            _, owners = runtime.cast_rays(scene, view, [ip.u], [ip.v])
            if owners[0] < 0 or scene.objects[owners[0]].id != obj.id:
                continue  # the center pixel sees the floor, nothing or another object
            point = Point2(ip.u_norm, ip.v_norm, pixel=False)
            calls = [_call("depth_sensor", view=_int_scalar(view), point=point)]
            results = _run_plan(ctx, calls)
            answer = Scalar(results[-1].value, "m")
            return calls, results, answer, (view,), {"label": obj.label, "view": view}
    raise InsufficientScene("no object with an unoccluded center pixel")


_CAMERA_CENTER_PROGRAM = (
    "let w1 = inv_pose(r1); let w2 = inv_pose(r2); "
    "let c1 = vec(mat_get(w1, 0, 3), mat_get(w1, 1, 3), mat_get(w1, 2, 3)); "
    "let c2 = vec(mat_get(w2, 0, 3), mat_get(w2, 1, 3), mat_get(w2, 2, 3)); "
    "let xaxis = vec(mat_get(r1, 0, 0), mat_get(r1, 0, 1), mat_get(r1, 0, 2)); "
    "sign(dot(xaxis, c2 - c1))"
)

_RELATIVE_POSE_PROGRAM = "matmul(r2, inv_pose(r1))"


def _build_relative_camera_pose(ctx, rng, template):
    scene = ctx.scene
    if len(scene.views) < 2:
        raise InsufficientScene("need two views for a camera-motion question")
    pivot = np.mean([o.box3.center for o in scene.objects], axis=0)
    pairs = [
        (i, j)
        for i in range(len(scene.views))
        for j in range(len(scene.views))
        if i != j
    ]
    choice = template.output_format == "choice"
    program = _CAMERA_CENTER_PROGRAM if choice else _RELATIVE_POSE_PROGRAM
    for i, j in _shuffled(rng, pairs):
        try:
            direction, angle = geometry.relative_camera_motion(
                scene.views[i], scene.views[j], pivot
            )
        except geometry.DegeneratePivot:
            continue
        if not (0.05 <= abs(angle) <= math.pi - 0.05):
            continue
        calls = [
            _call("camera_extrinsics", view=_int_scalar(i)),
            _call("camera_extrinsics", view=_int_scalar(j)),
            _code(program, "r1", "r2"),
        ]
        results = _run_plan(ctx, calls)
        answer = results[-1]
        if choice:
            sign = answer.value
            # 0-to-orbit pairs can put the pivot off the first camera's axis;
            # only emit pairs where the trace's lateral test and the orbit
            # ground truth agree.
            if sign == 0.0 or (sign > 0) != (direction is geometry.OrbitDirection.RIGHT):
                continue
            answer = Choice("B" if sign > 0 else "A")
        return calls, results, answer, (i, j), {"i": i, "j": j}
    raise InsufficientScene("no view pair with a clean orbit angle")


def _axis_row_expr(binding: str, row: int) -> str:
    return (
        f"vec(mat_get({binding}, {row}, 0), "
        f"mat_get({binding}, {row}, 1), mat_get({binding}, {row}, 2))"
    )


def _sample_world_offset(rng, scene, obj, region, clearance):
    """Literal world-frame offset from the box center into the "below" or
    "above" region, or None when there is no room below the box."""
    box = obj.box3
    hx, hy, hz = box.half_extents
    reach = 0.3
    if region == "below":
        slack = box.zmin - scene.floor_z - clearance - 0.02
        if slack <= 0:
            return None
        reach = min(slack, reach)
    dz = hz + clearance + rng.uniform(0.0, reach)
    return (
        float(rng.uniform(-0.4, 0.4) * hx),
        float(rng.uniform(-0.4, 0.4) * hy),
        float(-dz if region == "below" else dz),
    )


def _offset_program(offset) -> str:
    ox, oy, oz = (format_number(x) for x in offset)
    return f"obb_center(r1) + vec({ox}, {oy}, {oz})"


def _axis_offset_program(sign: float, magnitude: float, e_binding: str, row: int) -> str:
    lead = format_number(sign * magnitude)
    return f"obb_center(r1) + {lead} * {_axis_row_expr(e_binding, row)}"


def _region_ok(scene, view, obj, region, point, clearance) -> bool:
    return region_contains(
        np.asarray(point), obj.box3, region, scene.views[view], clearance, scene.floor_z
    )


def _build_point_3d_target(ctx, rng, template):
    scene = ctx.scene
    clearance = 0.05
    regions = ("below", "above", "left_of", "right_of")
    for view in _shuffled(rng, range(len(scene.views))):
        for obj in _shuffled(rng, _visible_objects(scene, view)):
            box_call = _box_call_checked(ctx, view, obj)
            if box_call is None:
                continue
            for region in _shuffled(rng, regions):
                for _ in range(8):
                    if region in ("below", "above"):
                        offset = _sample_world_offset(rng, scene, obj, region, clearance)
                        if offset is None:
                            break
                        calls = [box_call, _code(_offset_program(offset), "r1")]
                    else:
                        axis_world = scene.views[view].rotation.T[:, 0]
                        half_proj = project_half_extent(obj.box3, axis_world)
                        magnitude = half_proj + clearance + 0.02 + rng.uniform(0.02, 0.25)
                        sign = -1.0 if region == "left_of" else 1.0
                        program = _axis_offset_program(sign, magnitude, "r2", 0)
                        calls = [
                            box_call,
                            _call("camera_extrinsics", view=_int_scalar(view)),
                            _code(program, "r1", "r2"),
                        ]
                    results = _run_plan(ctx, calls)
                    point = results[-1]
                    if not isinstance(point, Point3):
                        raise AssertionError("point program must yield a 3D point")
                    if not _region_ok(
                        scene, view, obj, region, (point.x, point.y, point.z), clearance
                    ):
                        continue
                    fields = {"region": _REGION_PHRASES[region], "label": obj.label, "view": view}
                    return calls, results, point, (view,), fields
    raise InsufficientScene("no feasible free-space region")


def _build_pixel_2d_target(ctx, rng, template):
    scene = ctx.scene
    clearance = 0.05
    for view in _shuffled(rng, range(len(scene.views))):
        for obj in _shuffled(rng, _visible_objects(scene, view)):
            box_call = _box_call_checked(ctx, view, obj)
            if box_call is None:
                continue
            for _ in range(12):
                offset = _sample_world_offset(rng, scene, obj, "below", clearance)
                if offset is None:
                    break
                head = [
                    box_call,
                    _call("camera_extrinsics", view=_int_scalar(view)),
                    _code(_offset_program(offset), "r1"),
                ]
                point = _run_plan(ctx, head)[-1]
                if not _region_ok(
                    scene, view, obj, "below", (point.x, point.y, point.z), clearance
                ):
                    continue
                try:
                    ip = project(
                        (point.x, point.y, point.z), scene.intrinsics, scene.views[view]
                    )
                except geometry.BehindCamera:
                    continue
                if not ip.inside():
                    continue
                calls = head + [
                    _call("point_3d_to_point_2d", view=_int_scalar(view), point=point)
                ]
                results = _run_plan(ctx, calls)
                answer = ValueList((results[-1],))
                return calls, results, answer, (view,), {"label": obj.label, "view": view}
    raise InsufficientScene("no below-region point projects into the image")


def _build_metric_offset_placement(ctx, rng, template):
    scene = ctx.scene
    offsets = (0.1, 0.15, 0.2)
    for view in _shuffled(rng, range(len(scene.views))):
        for obj in _shuffled(rng, _visible_objects(scene, view)):
            box_call = _box_call_checked(ctx, view, obj)
            if box_call is None:
                continue
            direction = _pick(rng, tuple(_OFFSET_DIRS))
            offset = float(_pick(rng, offsets))
            if direction == "above":
                program = _offset_program((0.0, 0.0, offset))
            else:
                row = 0 if direction in ("right", "left") else 2
                sign = -1.0 if direction in ("left", "front") else 1.0
                program = _axis_offset_program(sign, offset, "r2", row)
            calls = [
                box_call,
                _call("camera_extrinsics", view=_int_scalar(view)),
                _code(program, "r1", "r2"),
            ]
            results = _run_plan(ctx, calls)
            point = results[-1]
            if point.z <= scene.floor_z:
                continue
            fields = {
                "offset": format_number(offset),
                "dir": _OFFSET_DIRS[direction],
                "label": obj.label,
                "view": view,
            }
            return calls, results, point, (view,), fields
    raise InsufficientScene("no visible object for a placement question")


# family -> (builder, answer formats, image configs, min views, min objects),
# the default format and config first.  The order of the families fixes the
# order of a dataset's records, so the dataset bytes depend on it.
_FAMILIES = {
    "object_size": (_build_object_size, ("scalar",), ("single_view",), 1, 1),
    "inter_object_distance": (
        _build_inter_object_distance, ("scalar",), ("single_view", "multi_view"), 1, 2
    ),
    "spatial_layout_mcq": (_build_spatial_layout_mcq, ("choice",), ("single_view",), 1, 2),
    "object_depth": (_build_object_depth, ("scalar",), ("single_view",), 1, 1),
    "relative_camera_pose": (
        _build_relative_camera_pose, ("choice", "pose"), ("multi_view",), 2, 1
    ),
    "point_3d_target": (_build_point_3d_target, ("point3",), ("single_view",), 1, 1),
    "pixel_2d_target": (_build_pixel_2d_target, ("point2",), ("single_view",), 1, 1),
    "metric_offset_placement": (
        _build_metric_offset_placement, ("point3",), ("single_view",), 1, 1
    ),
}
FAMILIES = tuple(_FAMILIES)


def instantiate(template: Template, scene: Scene, seed: int, sample_id: int = 0) -> Sample:
    """Build one sample with a fully filled ground-truth trajectory."""
    rng = np.random.default_rng(seed)
    # one context per record: every plan and check shares its tool cache
    ctx = ExecutionContext(scene, "oracle")
    family, fmt = template.family, template.output_format
    calls, results, answer, views, fields = _FAMILIES[family][0](ctx, rng, template)
    question = _pick(rng, QUESTION_BANK[family, fmt]).format(**fields)
    steps = [Thought(_pick(rng, THOUGHT_BANK[family]).format(**fields))]
    for call, result in zip(calls, results):
        steps += (call, ToolResult(result))
    steps.append(Answer(answer, fmt))
    sample = Sample(
        id=sample_id,
        scene=scene,
        views=tuple(views),
        question=question,
        trajectory_text=render_trajectory(Trajectory(tuple(steps))),
        answer=answer,
        format=fmt,
        family=family,
        seed=seed,
    )
    if not self_check(sample, ctx):
        raise GenerationError(f"generated sample failed self-check (seed {seed})")
    return sample


def self_check(sample: Sample, ctx: ExecutionContext) -> bool:
    """Replay-and-consistency audit: format, byte-identical replay, answer match.

    The trace is parsed back from its text and replayed with run_trajectory
    on ctx's tool cache (ctx must be over the sample's scene), binding its
    own r1..rN.  Given the context the record was built in, a call whose
    arguments survived the render is a hit on the result its plan computed,
    one rendered lossily misses and is recomputed from the text, and every
    code_executor program re-runs against the trace's own bindings; so a
    lossy argument or a wrong binding changes a result and fails the byte
    comparison.  That a hit equals a fresh result is a tier-1 property of
    the tools (tests/test_acceptance.py, TestToolPurity).
    """
    try:
        trajectory = parse_trajectory(sample.trajectory_text)
    except ValueError:
        return False
    if not validate_format(trajectory):
        return False
    try:
        replayed = run_trajectory(
            ExecutionContext(sample.scene, "oracle", cache=ctx.cache), trajectory
        )
    except TrajectoryRunError:
        return False
    if render_trajectory(replayed) != sample.trajectory_text:
        return False
    answer = trajectory.answer
    if answer is None or answer.format != sample.format:
        return False
    return answer.value == sample.answer


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


def allocate_counts(mix: dict, count: int) -> dict:
    """Largest-remainder allocation of sample counts to families."""
    for family in mix:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r} in mix")
    for family, ratio in mix.items():
        if not (_is_number(ratio) and ratio >= 0):
            raise ValueError(f"mix ratio of {family} must be a non-negative number, not {ratio!r}")
    if abs(math.fsum(mix.values()) - 1.0) > 1e-9:
        raise ValueError("mix ratios must sum to 1")
    families = [f for f in FAMILIES if mix.get(f, 0) > 0]
    exact = {f: mix[f] * count for f in families}
    counts = {f: int(math.floor(exact[f])) for f in families}
    leftover = count - sum(counts.values())
    by_remainder = sorted(
        families, key=lambda f: (-(exact[f] - counts[f]), FAMILIES.index(f))
    )
    for f in by_remainder[:leftover]:
        counts[f] += 1
    return counts


DEFAULT_MIX = {f: 1.0 / len(FAMILIES) for f in FAMILIES}


def check_mix_feasible(params: SceneParams, mix: dict) -> None:
    """Reject mixes whose families can never be satisfied by the params.

    The families must be known ones; `allocate_counts` checks that first.
    """
    for family, ratio in mix.items():
        if ratio <= 0:
            continue
        _, _, _, need_views, need_objects = _FAMILIES[family]
        if params.view_count[1] < need_views:
            raise ValueError(
                f"{family} needs at least {need_views} views; params allow "
                f"at most {params.view_count[1]}"
            )
        if params.object_count[1] < need_objects:
            raise ValueError(
                f"{family} needs at least {need_objects} objects; params allow "
                f"at most {params.object_count[1]}"
            )


_RETRY_BUDGET = 40


def _template_for(family: str, rng) -> Template:
    """The family's default template; a second image config is drawn with
    probability 0.3, then a second format with probability 0.25."""
    _, formats, configs, _, _ = _FAMILIES[family]
    config = configs[1] if len(configs) > 1 and rng.random() < 0.3 else configs[0]
    fmt = formats[1] if len(formats) > 1 and rng.random() < 0.25 else formats[0]
    return Template(family, config, fmt)


def build_record(params: SceneParams, family: str, index: int, master_seed: int) -> str:
    """Generate the JSON line for one sample index; retries with fresh seeds."""
    last_error = None
    for attempt in range(_RETRY_BUDGET):
        seed = derive_seed(master_seed, index, attempt)
        try:
            scene = generate_scene(params, seed)
            template = _template_for(family, np.random.default_rng(seed))
            sample = instantiate(template, scene, seed, sample_id=index)
        except (PlacementFailure, InsufficientScene) as exc:
            last_error = exc
            continue
        return json.dumps(sample.to_record())
    raise GenerationError(
        f"sample {index} ({family}) failed after {_RETRY_BUDGET} attempts: {last_error}"
    )


def _build_record_star(args) -> str:
    return build_record(*args)


def generate_records(
    params: SceneParams,
    mix: dict,
    count: int,
    master_seed: int,
    jobs: int = 1,
):
    """All dataset lines in index order; independent of the parallelism degree.

    `jobs` caps the worker processes; the pool never outnumbers the samples
    or the CPUs.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, not {jobs!r}")
    counts = allocate_counts(mix, count)
    check_mix_feasible(params, mix)
    assignments = []
    for family in FAMILIES:
        assignments.extend([family] * counts.get(family, 0))
    tasks = [
        (params, family, index, master_seed)
        for index, family in enumerate(assignments)
    ]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_build_record_star, tasks, chunksize=8)), counts
    return [_build_record_star(t) for t in tasks], counts


def generate_dataset(
    params: SceneParams,
    mix: dict,
    count: int,
    master_seed: int,
    out_path,
    jobs: int = 1,
) -> dict:
    """Write the dataset file plus its manifest; returns the manifest.

    The dataset goes to a sibling file, created before any record is made and
    renamed to out_path once complete: an unwritable path fails at once, and
    a failed run leaves an existing file as it was.
    """
    partial = f"{os.fspath(out_path)}.tmp"
    f = open(partial, "wb")
    try:
        with f:
            lines, counts = generate_records(params, mix, count, master_seed, jobs=jobs)
            data = "".join(line + "\n" for line in lines).encode("utf-8")
            f.write(data)
        os.replace(partial, out_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise
    manifest = {
        "params": params.to_dict(),
        "mix": {k: mix[k] for k in sorted(mix)},
        "count": count,
        "master_seed": master_seed,
        "family_counts": {k: counts[k] for k in sorted(counts)},
        "digest": "sha256:" + hashlib.sha256(data).hexdigest(),
    }
    manifest_path = str(out_path) + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return manifest


def regenerate_from_manifest(manifest: dict, jobs: int = 1) -> bytes:
    """Rebuild the exact dataset bytes a manifest describes."""
    params = SceneParams.from_dict(manifest["params"])
    lines, _ = generate_records(
        params, manifest["mix"], manifest["count"], manifest["master_seed"], jobs=jobs
    )
    return "".join(line + "\n" for line in lines).encode("utf-8")
