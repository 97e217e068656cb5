"""Registry and ground-truth-backed executor for the geometric tool suite.

Tools run against a Scene in simulated-sensor mode: depth comes from analytic
nearest-hit ray casting over all oriented boxes plus the floor plane, masks
from per-pixel hit ownership, and 3D boxes either straight from ground truth
(oracle mode) or fitted to unprojected masked depth points (fitted mode).
Execution is deterministic given (scene, mode, trajectory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, minidsl
from .geometry import OrientedBox3, fit_obb, invert, project, transform, yaw_local
from .scene import Scene, UnknownView
from .trajectory import (
    KINDS,
    Matrix,
    ObbValue,
    Point2,
    Point3,
    Scalar,
    ToolCall,
    ToolResult,
    Trajectory,
    Value,
    ValueList,
    payload,
)


class ToolError(ValueError):
    pass


class UnknownTool(ToolError):
    pass


class SchemaError(ToolError):
    pass


class EmptyRegion(ToolError):
    pass


class TrajectoryRunError(ToolError):
    """A tool failure during replay, reported with its step index."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"step {step_index}: {cause}")
        self.step_index = step_index
        self.cause = cause


@dataclass
class ExecutionContext:
    """One run's state: the immutable scene, result bindings and a tool cache.

    The cache maps (mode, call) to the result of every successful call of a
    scene-pure tool (all but code_executor), so a repeated lookup runs once
    for as long as the context lives.  It also maps ("program", source,
    known names) to each code_executor program parsed without error, so a
    program is parsed once; its result is never cached, since it depends
    on the bindings.

    Finally it maps ("hits", view) to that view's hit buffer: the read-only
    depth and owner arrays of the first full-frame window (a depth or
    segmentation box covering the whole image) cast in that view.  Every
    later window of the view, dense or subsampled, is read from it as
    read-only views, with no cast; before it exists, each window is cast
    afresh and not kept.  Since cast_rays computes each ray from its own
    pixel alone, a read equals a fresh cast bit for bit.  A buffer costs
    about 3.7 MB at 640x480 (8 + 4 bytes a pixel: float64 depths, int32
    owners) for each view with a full-frame window, for as long as the
    cache lives.  Hits do not depend on the mode, so contexts of either
    mode may share a cache, but only contexts over the same scene may.
    """

    scene: Scene
    mode: str = "oracle"
    bindings: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in ("oracle", "fitted"):
            raise ValueError("mode must be 'oracle' or 'fitted'")


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToolSpec:
    """One tool's whole contract: its implementation and its argument schema."""

    impl: object  # (ctx, call) -> Value
    params: dict  # argument name -> kind, in signature order
    optional: tuple = ()  # the arguments a call may leave out
    one_of: tuple = ()  # groups of arguments of which exactly one must be given


# An argument of one of these kinds is continuous: the parameter reward
# scores it by distance.  Every other argument is discrete (exact match).
CONTINUOUS_KINDS = frozenset({"point2", "point3", "box2"})


def check_call(call: ToolCall):
    """Validate tool name and argument structure; scene-independent.

    Returns None when the call is schema-valid, else the UnknownTool or
    SchemaError that execute_tool raises for it.
    """
    spec = REGISTRY.get(call.name)
    if spec is None:
        return UnknownTool(f"unknown tool {call.name!r}")
    seen = set()
    for key, value in call.args:
        if key in seen:
            return SchemaError(f"duplicate argument {key!r}")
        seen.add(key)
        kind = spec.params.get(key)
        if kind is None:
            return SchemaError(f"unexpected argument {key!r}")
        if not KINDS[kind](value):
            return SchemaError(f"argument {key!r} has the wrong type")
    for name in spec.params:
        if name not in seen and name not in spec.optional:
            return SchemaError(f"missing required argument {name!r}")
    for group in spec.one_of:
        if sum(name in seen for name in group) != 1:
            return SchemaError(f"exactly one of {group} must be given")
    return None


# ---------------------------------------------------------------------------
# Analytic depth: nearest-hit ray casting
# ---------------------------------------------------------------------------

_EPS = 1e-9
# rays cast together: a block's temporaries stay small enough for the
# allocator to reuse, where a frame's would be fresh pages on every cast
_BLOCK_RAYS = 1 << 15
# below this bound on |a| + |b| + 1, a direction (a sum of three terms, each
# at most its factor) and a slab local (a sum of two directions) are finite
_FINITE_FACTORS = np.finfo(float).max / 4


def _ray_box_params(origin, dx, dy, dz, box: OrientedBox3, finite: bool):
    """Slab-method entry parameter for rays against one oriented box.

    Rays are origin + t * (dx, dy, dz) with t equal to camera z-depth;
    returns inf where the ray misses.  The box only yaws about +Z, so the
    origin and the directions reach its axes through geometry.yaw_local.
    finite promises that every direction is finite.  The caller runs
    it under np.errstate(divide="ignore", invalid="ignore").
    """
    o_locals = yaw_local(*(o - m for o, m in zip(origin, box.center)), box.yaw)
    d_locals = yaw_local(dx, dy, dz, box.yaw)
    low = high = None
    for o_local, d_local, h in zip(o_locals, d_locals, box.half_extents):
        inv = 1.0 / d_local
        t1 = (-h - o_local) * inv
        t2 = (h - o_local) * inv
        # 0 * inf produces NaN exactly when the origin sits on a slab
        # boundary of an axis-parallel ray; treat that as inside the slab.
        # With finite directions only a zero numerator makes one.
        if -h - o_local == 0 or not finite:
            t1[np.isnan(t1)] = -np.inf
        if h - o_local == 0 or not finite:
            t2[np.isnan(t2)] = np.inf
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        low = near if low is None else np.maximum(low, near)
        high = far if high is None else np.minimum(high, far)
    # t > _EPS follows: t is low where low > _EPS, and high otherwise
    t = np.where(low > _EPS, low, high)
    return np.where((high >= low) & (high > _EPS), t, np.inf)


# one error state per cast: a zero direction divides by zero, and 0 * inf is NaN
@np.errstate(divide="ignore", invalid="ignore")
def cast_rays(scene: Scene, view: int, u, v):
    """Cast pixel rays; returns (depths, owners) arrays of u and v's broadcast shape.

    u and v broadcast against each other, so a pixel window can be given as
    a (1, W) row of column centres and an (H, 1) column of row centres; a
    scalar pair gives shape (1,).  depths hold camera z-depth of the nearest
    hit (inf where nothing is hit); owners, an np.int32 array, hold the
    object index into scene.objects, -2 for the floor, and -1 for no hit.

    Every number a ray's result is computed from is one of geometry's
    fixed-order elementwise sums, with no BLAS product: the direction
    matvec3(R^T, a, b, 1) with a = (u - cx) / fx and b = (v - cy) / fy, the
    centre pose.center() and the slab locals yaw_local.  A ray's bits
    therefore depend only on its own pixel, never on the batch it is cast in
    or on the CPU, and any window of a cast equals a fresh cast of that
    window; so the rays can be cast in blocks of about _BLOCK_RAYS along the
    first axis, which keeps every temporary small.

    Each block first gets the floor's depth and owner, from dz = R^T[2]·(a,
    b, 1) alone, computed on the factors it depends on and broadcast into
    the block: a term whose coefficient is exactly 0 is ±0 for a finite
    factor, so dropping it can change only the sign of a zero dz, which is
    no floor hit.  A generated view (R^T[2][0] == 0: its camera x axis is
    horizontal) thus computes its floor once per row, and view 0 once per
    block; a rolled camera computes it over the whole block.

    Then each object is tested only inside a rectangle of the block: along
    each axis, the index range of the u and v factors within 1 px of its
    corners' pixel bounds (geometry.corner_pixel_bounds).  An object
    projects inside the hull of its projected corners, and 1 px is far above
    rounding error.  Its rays' directions come from the sliced factors, and
    its results land in basic-slice views, with no gather or scatter.  An
    object with a corner not in front of the camera is tested against the
    whole block.  Either way the result is that of testing every ray
    against every object and then the floor: a ray keeps the first object
    with the least depth, and an object wins a tie with the floor, so an
    object takes a ray where its depth is less than the best, or equal to
    it while the floor owns the ray.

    The slab test reads the NaN of 0 * inf as inside the slab.  With finite
    directions only a numerator ±h - o of exactly 0 makes that NaN, so each
    fix-up runs only for a zero numerator, unless the factors (checked once
    per cast) are too large, inf or NaN to promise finite directions; such
    factors turn off the floor's shortcut too.  So for any finite u and v,
    depths and owners equal those of the plain tests over every ray, bit
    for bit.

    The corner bounds are constants of the immutable scene, so the Scene
    keeps them per view (Scene.pixel_bounds), not the context cache: then
    a fresh context over the scene, which recomputes every tool result,
    does not recompute these scene constants too.
    """
    pose = scene.pose(view)
    k = scene.intrinsics
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    shape = np.broadcast_shapes(u.shape, v.shape)
    u = u.reshape((1,) * (len(shape) - u.ndim) + u.shape)
    v = v.reshape((1,) * (len(shape) - v.ndim) + v.shape)
    a, b = (u - k.cx) / k.fx, (v - k.cy) / k.fy
    rot_t = pose.rotation.T.tolist()
    origin = pose.center().tolist()
    rects = []  # each object's [start, stop) index range along each axis, or None
    for box in scene.pixel_bounds(view):
        rect = [[0, n] for n in shape]
        if box is not None:
            u_lo, u_hi, v_lo, v_hi = box
            for f, lo, hi in ((u, u_lo, u_hi), (v, v_lo, v_hi)):
                hits = ((f >= lo - 1.0) & (f <= hi + 1.0)).nonzero()
                for span, at, n in zip(rect, hits, f.shape):
                    if at.size == 0:
                        span[1] = 0
                    elif n > 1:
                        span[:] = max(span[0], int(at.min())), min(span[1], int(at.max()) + 1)
        rects.append(rect if all(lo < hi for lo, hi in rect) else None)
    # factors this small keep every direction and slab local finite
    finite = bool(np.abs(a).max() + np.abs(b).max() + 1.0 < _FINITE_FACTORS)
    depths = np.empty(shape)
    owners = np.empty(shape, dtype=np.int32)
    step = max(1, _BLOCK_RAYS // max(1, math.prod(shape[1:])))
    for start in range(0, shape[0], step):
        stop = min(start + step, shape[0])
        # the floor on the factors it depends on (see above)
        factors = _factors(a, b, (slice(start, stop),))
        kept = (f if c or not finite else 0.0 for c, f in zip(rot_t[2], factors))
        (dz,) = geometry.matvec3(rot_t[2:], *kept, 1.0)
        t = np.divide(scene.floor_z - origin[2], dz)
        # a depth that overflows to inf is no floor hit
        floor = (t > _EPS) & (t < np.inf) & (np.abs(dz) > _EPS)
        np.copyto(depths[start:stop], np.where(floor, t, np.inf))
        np.subtract(-1, floor, out=owners[start:stop], dtype=np.int32)  # -2 on the floor, else -1
        for idx, (obj, rect) in enumerate(zip(scene.objects, rects)):
            if rect is None:
                continue
            (lo, hi), *rest = rect
            lo, hi = max(lo, start), min(hi, stop)
            if lo >= hi:
                continue
            window = (slice(lo, hi), *(slice(*span) for span in rest))
            dirs = geometry.matvec3(rot_t, *_factors(a, b, window), 1.0)
            t = _ray_box_params(origin, *dirs, obj.box3, finite)
            best, owner = depths[window], owners[window]
            closer = (t < best) | ((t == best) & (owner == -2))
            np.copyto(best, t, where=closer)
            np.copyto(owner, idx, where=closer)
    return depths, owners


def _factors(a, b, window):
    """a and b sliced to a window of their broadcast shape; an axis of size 1 broadcasts as is."""
    return tuple(f[tuple(s if n > 1 else slice(None) for s, n in zip(window, f.shape))] for f in (a, b))


def _pixel_grid(box: geometry.Box2, width: int, height: int, max_per_axis=None):
    """The pixel window a 2D box covers, clipped to the image.

    Returns (rows, cols), two basic slices into an image-shaped array, or
    None when the box covers no pixel centre.  With max_per_axis set, rows
    and columns are subsampled by a deterministic integer stride so neither
    axis exceeds that many samples.
    """
    i0 = max(int(math.ceil(box.umin - 0.5)), 0)
    i1 = min(int(math.floor(box.umax - 0.5)), width - 1)
    j0 = max(int(math.ceil(box.vmin - 0.5)), 0)
    j1 = min(int(math.floor(box.vmax - 0.5)), height - 1)
    if i0 > i1 or j0 > j1:
        return None
    step_i = step_j = 1
    if max_per_axis is not None:
        step_i = max(1, -(-(i1 - i0 + 1) // max_per_axis))
        step_j = max(1, -(-(j1 - j0 + 1) // max_per_axis))
    return slice(j0, j1 + 1, step_j), slice(i0, i1 + 1, step_i)


# ---------------------------------------------------------------------------
# Tool implementations
# ---------------------------------------------------------------------------


def _require_view(ctx: ExecutionContext, call: ToolCall) -> int:
    view = int(call.arg("view").value)
    ctx.scene.pose(view)  # raises UnknownView
    return view


def _resolve_box2(ctx: ExecutionContext, call: ToolCall, view: int) -> geometry.Box2:
    box_arg = call.arg("box")
    if box_arg is not None:
        return box_arg.box
    label = call.arg("label").text
    matches = ctx.scene.objects_by_label(label)
    if len(matches) != 1:
        raise SchemaError(f"label {label!r} matches {len(matches)} objects")
    box2 = ctx.scene.project_box(matches[0], view)
    if box2 is None:
        raise EmptyRegion(f"object {label!r} is not visible in view {view}")
    return box2


def _grid_hits(ctx, view, box2, max_per_axis=None):
    """Hits of the pixel window box2 covers: (i0, j0, ii, jj, depths, owners).

    ii and jj are the window's pixel columns and rows; all four arrays have
    the window's shape.  Once a full-frame window of the view has been cast,
    every window, dense or subsampled, is read from that cast in ctx.cache
    (see ExecutionContext); until then each window is cast afresh.
    """
    k = ctx.scene.intrinsics
    window = _pixel_grid(box2, k.width, k.height, max_per_axis=max_per_axis)
    if window is None:
        raise EmptyRegion("2D box covers no pixels")
    rows, cols = window
    jj, ii = np.ogrid[window]
    key = ("hits", view)
    frame = ctx.cache.get(key)
    if frame is not None:
        depths, owners = frame[0][window], frame[1][window]
    else:
        depths, owners = cast_rays(ctx.scene, view, ii + 0.5, jj + 0.5)
        if depths.shape == (k.height, k.width):
            depths.flags.writeable = owners.flags.writeable = False
            ctx.cache[key] = (depths, owners)
    ii, jj = np.broadcast_arrays(ii, jj)
    return cols.start, rows.start, ii, jj, depths, owners


def _majority_object(ctx, owners) -> int:
    """Index of the object owning the most hit pixels; ties to smaller id."""
    obj_hits = owners[owners >= 0]
    if obj_hits.size == 0:
        raise EmptyRegion("no object pixels inside the 2D box")
    counts = np.bincount(obj_hits, minlength=len(ctx.scene.objects))
    order = sorted(
        (i for i in range(len(ctx.scene.objects)) if counts[i] > 0),
        key=lambda i: (-counts[i], ctx.scene.objects[i].id),
    )
    return order[0]


def _tool_camera_intrinsics(ctx, call):
    _require_view(ctx, call)
    k = ctx.scene.intrinsics
    return ValueList(
        tuple(
            Scalar(float(x))
            for x in (k.fx, k.fy, k.cx, k.cy, k.width, k.height)
        )
    )


def _tool_camera_extrinsics(ctx, call):
    view = _require_view(ctx, call)
    m = ctx.scene.pose(view).matrix4()
    return Matrix(tuple(tuple(row) for row in m.tolist()))


def _tool_depth_sensor(ctx, call):
    view = _require_view(ctx, call)
    point = call.arg("point")
    if point is not None:
        k = ctx.scene.intrinsics
        depths, _ = cast_rays(
            ctx.scene, view, [point.x * k.width], [point.y * k.height]
        )
        if not math.isfinite(depths[0]):
            raise EmptyRegion("no surface along this ray")
        return Scalar(float(depths[0]))
    *_, depths, _owners = _grid_hits(ctx, view, call.arg("box").box)
    valid = depths[np.isfinite(depths)]
    if valid.size == 0:
        raise EmptyRegion("no valid depth inside the 2D box")
    # the mean first: the median then partitions valid, a fresh copy, in place
    mean = float(valid.mean())
    return ValueList(
        (
            Scalar(float(np.median(valid, overwrite_input=True))),
            Scalar(mean),
            Scalar(float(valid.size) / float(depths.size)),
        )
    )


def _rle_encode(mask_flat: np.ndarray):
    """Run lengths alternating zero-runs and one-runs, starting with zeros."""
    m = np.asarray(mask_flat, dtype=bool)
    if m.size == 0:
        return [0]
    edges = np.flatnonzero(m[1:] != m[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [m.size])))
    if m[0]:
        runs = np.concatenate(([0], runs))
    return runs.tolist()


def _tool_object_segmentation(ctx, call):
    view = _require_view(ctx, call)
    box2 = _resolve_box2(ctx, call, view)
    i0, j0, _ii, _jj, _depths, owners = _grid_hits(ctx, view, box2)
    major = _majority_object(ctx, owners)
    mask = owners == major
    h, w = mask.shape
    header = [i0, j0, w, h]
    return ValueList(
        tuple(Scalar(float(x)) for x in header + _rle_encode(mask.reshape(-1)))
    )


def _tool_box_2d_to_box_3d(ctx, call):
    view = _require_view(ctx, call)
    box2 = _resolve_box2(ctx, call, view)
    # subsampled vote/point grid; full resolution adds nothing at box scale
    _i0, _j0, ii, jj, depths, owners = _grid_hits(ctx, view, box2, max_per_axis=64)
    major = _majority_object(ctx, owners)
    if ctx.mode == "oracle":
        return ObbValue(ctx.scene.objects[major].box3)
    mask = owners == major
    cam_pts = geometry.unproject(ii[mask] + 0.5, jj[mask] + 0.5, depths[mask], ctx.scene.intrinsics)
    world_pts = transform(invert(ctx.scene.pose(view)), cam_pts)
    return ObbValue(fit_obb(world_pts, min_extent=0.01))


def _tool_point_3d_to_point_2d(ctx, call):
    view = _require_view(ctx, call)
    p = call.arg("point")
    ip = project(
        (p.x, p.y, p.z), ctx.scene.intrinsics, ctx.scene.pose(view)
    )
    return Point2(ip.u_norm, ip.v_norm, pixel=False)


def _to_dsl(value: Value):
    """A value as a program sees it: a float for a scalar, the box of an obb,
    a tuple for a list that is not all scalars, and else the numbers of its
    payload as a vector, or as a matrix for a matrix."""
    if isinstance(value, Scalar):
        return value.value
    if isinstance(value, ObbValue):
        return value.box
    if isinstance(value, ValueList) and not (
        value.items and all(isinstance(x, Scalar) for x in value.items)
    ):
        return tuple(_to_dsl(x) for x in value.items)
    _, numbers = payload(value)
    if numbers is None:
        raise SchemaError(f"cannot bind a {type(value).__name__} into a program")
    array = np.array(numbers, dtype=float)
    return array.reshape(value.shape) if isinstance(value, Matrix) else array


def _from_dsl(result) -> Value:
    try:
        if isinstance(result, bool):
            return Scalar(1.0 if result else 0.0)
        if isinstance(result, float):
            return Scalar(result)
        if isinstance(result, OrientedBox3):
            return ObbValue(result)
        if isinstance(result, np.ndarray):
            if result.ndim == 1:
                if result.shape[0] == 2:
                    return Point2(float(result[0]), float(result[1]), pixel=False)
                if result.shape[0] == 3:
                    return Point3(float(result[0]), float(result[1]), float(result[2]))
                return ValueList(tuple(Scalar(float(x)) for x in result))
            if result.ndim == 2:
                return Matrix(tuple(tuple(float(x) for x in row) for row in result))
        if isinstance(result, tuple):
            return ValueList(tuple(_from_dsl(x) for x in result))
    except ValueError as exc:  # non-finite payloads from overflowing programs
        raise ToolError(f"program result is not representable: {exc}") from exc
    raise ToolError(f"cannot represent program result {type(result).__name__}")


def _tool_code_executor(ctx, call):
    source = call.arg("program").text
    uses = call.arg("uses")
    if uses is None:
        names = list(ctx.bindings)
    else:
        names = [t.text for t in uses.items]
        for name in names:
            if name not in ctx.bindings:
                raise SchemaError(f"unknown result binding {name!r}")
    bindings = {name: _to_dsl(ctx.bindings[name]) for name in names}
    known = tuple(bindings)
    # a Program is a pure function of (source, known); parse errors raise
    # before anything is stored, so they are never cached
    key = ("program", source, known)
    program = ctx.cache.get(key)
    if program is None:
        program = ctx.cache[key] = minidsl.parse_program(source, known=known)
    return _from_dsl(minidsl.evaluate(program, bindings))


REGISTRY = {
    "camera_intrinsics": ToolSpec(_tool_camera_intrinsics, {"view": "int"}),
    "camera_extrinsics": ToolSpec(_tool_camera_extrinsics, {"view": "int"}),
    "depth_sensor": ToolSpec(
        _tool_depth_sensor,
        {"view": "int", "point": "point2", "box": "box2"},
        optional=("point", "box"),
        one_of=(("point", "box"),),
    ),
    "object_segmentation": ToolSpec(
        _tool_object_segmentation,
        {"view": "int", "box": "box2", "label": "text"},
        optional=("box", "label"),
        one_of=(("box", "label"),),
    ),
    "box_2d_to_box_3d": ToolSpec(
        _tool_box_2d_to_box_3d,
        {"view": "int", "box": "box2", "label": "text"},
        optional=("box", "label"),
        one_of=(("box", "label"),),
    ),
    "point_3d_to_point_2d": ToolSpec(
        _tool_point_3d_to_point_2d, {"view": "int", "point": "point3"}
    ),
    "code_executor": ToolSpec(
        _tool_code_executor,
        {"program": "text", "uses": "text_list"},
        optional=("uses",),
    ),
}


def execute_tool(ctx: ExecutionContext, call: ToolCall) -> Value:
    """Execute one tool call against the context's ground-truth scene."""
    error = check_call(call)
    if error is not None:
        raise error
    return REGISTRY[call.name].impl(ctx, call)


# The failures a tool call reports as a result rather than a crash.
_CALL_FAILURES = (ToolError, UnknownView, geometry.GeometryError, minidsl.DslError)


def _execute_cached(ctx: ExecutionContext, call: ToolCall) -> Value:
    if call.name == "code_executor":  # reads the bindings, so never pure
        return execute_tool(ctx, call)
    key = (ctx.mode, call)
    value = ctx.cache.get(key)
    if value is None:
        value = ctx.cache[key] = execute_tool(ctx, call)
    return value


def execute_calls(ctx: ExecutionContext, calls):
    """Execute calls in order, yielding (value, None) or (None, error) per call.

    A success binds its value as r{k}, k being the call's 1-based position; a
    failure leaves no binding, so later calls that use it fail too.  The
    caller decides whether to go on after a failure: a call runs only when
    the next pair is requested.
    """
    for k, call in enumerate(calls, start=1):
        try:
            value = _execute_cached(ctx, call)
        except _CALL_FAILURES as exc:
            yield None, exc
            continue
        ctx.bindings[f"r{k}"] = value
        yield value, None


def run_trajectory(ctx: ExecutionContext, t: Trajectory) -> Trajectory:
    """Replay a trajectory, recomputing its tool results from the scene.

    Each tool call executes in order (a call already made in ctx is read from
    its cache); its result replaces the stored one (or is inserted when the
    trace carried none).  Results are bound as r1, r2,
    ... for later code_executor steps.  The first tool failure aborts with a
    TrajectoryRunError carrying the step index; no later call runs.
    """
    steps = t.steps
    call_steps = [i for i, step in enumerate(steps) if isinstance(step, ToolCall)]
    results = {}
    for index, (value, error) in zip(call_steps, execute_calls(ctx, t.calls)):
        if error is not None:
            raise TrajectoryRunError(index, error) from error
        results[index] = value
    out = []
    for index, step in enumerate(steps):
        if isinstance(step, ToolResult) and index - 1 in results:
            continue  # the stored result of the call just before
        out.append(step)
        if index in results:
            out.append(ToolResult(results[index]))
    return Trajectory(tuple(out))
