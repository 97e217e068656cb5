import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiger.minidsl
import tiger.runtime
from tiger.generator import SceneParams, generate_scene
from tiger.geometry import (
    BehindCamera,
    Box2,
    CameraIntrinsics,
    OrientedBox3,
    Pose,
    corner_pixel_bounds,
    invert,
    transform,
    unproject,
)
from tiger.runtime import (
    REGISTRY,
    EmptyRegion,
    ExecutionContext,
    SchemaError,
    TrajectoryRunError,
    UnknownTool,
    _grid_hits,
    _pixel_grid,
    _rle_encode,
    cast_rays,
    check_call,
    execute_calls,
    execute_tool,
    run_trajectory,
)
from tiger.minidsl import DslSyntaxError, UnboundIdentifier
from tiger.rewards import _is_discrete_param
from tiger.scene import ObjectNode, Scene, UnknownView
from tiger.trajectory import (
    Box2Value,
    Matrix,
    ObbValue,
    Point2,
    Point3,
    Scalar,
    Text,
    ToolCall,
    ValueList,
    parse_trajectory,
    render_trajectory,
)

from conftest import box_rotation, look_at

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def call(name, **kwargs):
    return ToolCall(name, tuple(kwargs.items()))


@pytest.fixture
def scene():
    objects = [
        ObjectNode(0, "crate", OrientedBox3((0.0, 0.0, 2.5), (0.4, 0.4, 0.5), 0.0)),
        ObjectNode(1, "mug", OrientedBox3((1.2, 0.1, 2.0), (0.1, 0.1, 0.15), 0.3)),
    ]
    views = [Pose.identity(), look_at([2.5, 0.5, 2.2], [0.0, 0.0, 2.2])]
    return Scene(K, views, objects, floor_z=-3.0)


@pytest.fixture
def ctx(scene):
    return ExecutionContext(scene, "oracle")


class TestRegistry:
    def test_seven_tools(self):
        assert set(REGISTRY) == {
            "camera_intrinsics",
            "camera_extrinsics",
            "depth_sensor",
            "object_segmentation",
            "box_2d_to_box_3d",
            "point_3d_to_point_2d",
            "code_executor",
        }

    def test_check_call_cases(self):
        assert check_call(call("camera_intrinsics", view=Scalar(0.0))) is None
        assert check_call(call("warp_drive")) is not None
        assert check_call(call("camera_intrinsics")) is not None  # missing view
        assert check_call(call("camera_intrinsics", view=Scalar(0.5))) is not None
        assert check_call(call("depth_sensor", view=Scalar(0.0))) is not None  # needs point|box
        both = call(
            "depth_sensor",
            view=Scalar(0.0),
            point=Point2(0.5, 0.5),
            box=Box2Value(Box2(0, 0, 1, 1)),
        )
        assert check_call(both) is not None
        dup = ToolCall("camera_intrinsics", (("view", Scalar(0.0)), ("view", Scalar(1.0))))
        assert check_call(dup) is not None


SCHEMA_VIOLATIONS = [
    (call("warp_drive"), UnknownTool, "unknown tool 'warp_drive'"),
    (
        ToolCall("camera_intrinsics", (("view", Scalar(0.0)), ("view", Scalar(1.0)))),
        SchemaError,
        "duplicate argument 'view'",
    ),
    (
        call("camera_extrinsics", view=Scalar(0.0), zoom=Scalar(2.0)),
        SchemaError,
        "unexpected argument 'zoom'",
    ),
    (call("camera_intrinsics", view=Scalar(0.5)), SchemaError, "argument 'view' has the wrong type"),
    (
        call("camera_intrinsics", view=Scalar(0.0, "m")),
        SchemaError,
        "argument 'view' has the wrong type",
    ),
    (
        call("depth_sensor", view=Scalar(0.0), point=Point2(320.0, 240.0, pixel=True)),
        SchemaError,
        "argument 'point' has the wrong type",
    ),
    (
        call("code_executor", program=Text("1"), uses=ValueList((Scalar(1.0),))),
        SchemaError,
        "argument 'uses' has the wrong type",
    ),
    (call("code_executor", program=Scalar(1.0)), SchemaError, "argument 'program' has the wrong type"),
    (call("camera_intrinsics"), SchemaError, "missing required argument 'view'"),
    (
        call("point_3d_to_point_2d", point=Point3(0.0, 0.0, 1.0)),
        SchemaError,
        "missing required argument 'view'",
    ),
    (
        call("depth_sensor", view=Scalar(0.0)),
        SchemaError,
        "exactly one of ('point', 'box') must be given",
    ),
    (
        call("box_2d_to_box_3d", view=Scalar(0.0), box=Box2Value(Box2(0, 0, 1, 1)), label=Text("mug")),
        SchemaError,
        "exactly one of ('box', 'label') must be given",
    ),
]


class TestSchemaMessages:
    """Each schema rule's exception class and message, as execute_tool raises them."""

    @pytest.mark.parametrize("bad, error, message", SCHEMA_VIOLATIONS)
    def test_violation_raises_its_error(self, ctx, bad, error, message):
        assert check_call(bad) is not None
        with pytest.raises(error) as info:
            execute_tool(ctx, bad)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_continuous_arguments(self):
        names = ("view", "point", "box", "label", "program", "uses")
        continuous = {
            (tool, name) for tool in REGISTRY for name in names if not _is_discrete_param(tool, name)
        }
        assert continuous == {
            ("depth_sensor", "point"),
            ("depth_sensor", "box"),
            ("object_segmentation", "box"),
            ("box_2d_to_box_3d", "box"),
            ("point_3d_to_point_2d", "point"),
        }


class TestCameraTools:
    def test_extrinsics_view0_identity(self, ctx):
        value = execute_tool(ctx, call("camera_extrinsics", view=Scalar(0.0)))
        assert value == Matrix(
            ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
        )

    def test_extrinsics_other_view_matches_pose(self, ctx, scene):
        value = execute_tool(ctx, call("camera_extrinsics", view=Scalar(1.0)))
        assert np.array_equal(np.array(value.rows), scene.views[1].matrix4())

    def test_intrinsics_record(self, ctx):
        value = execute_tool(ctx, call("camera_intrinsics", view=Scalar(0.0)))
        assert value == ValueList(
            tuple(Scalar(x) for x in (500.0, 500.0, 320.0, 240.0, 640.0, 480.0))
        )

    def test_unknown_view(self, ctx):
        with pytest.raises(UnknownView):
            execute_tool(ctx, call("camera_extrinsics", view=Scalar(9.0)))


class TestDepthSensor:
    def test_depth_at_front_face(self, ctx):
        # crate front face sits 2.0 m ahead of the view-0 camera
        value = execute_tool(
            ctx, call("depth_sensor", view=Scalar(0.0), point=Point2(0.5, 0.5))
        )
        assert value.value == pytest.approx(2.0, abs=1e-9)

    def test_ray_miss_is_empty(self, scene):
        ctx = ExecutionContext(scene, "oracle")
        with pytest.raises(EmptyRegion):
            execute_tool(ctx, call("depth_sensor", view=Scalar(0.0), point=Point2(0.0, 0.0)))

    def test_region_stats(self, ctx, scene):
        box2 = scene.project_box(scene.objects[0], 0)
        value = execute_tool(
            ctx, call("depth_sensor", view=Scalar(0.0), box=Box2Value(box2))
        )
        median, mean, fraction = (item.value for item in value.items)
        assert 2.0 - 1e-9 <= median <= 3.0
        assert 2.0 - 1e-9 <= mean <= 3.0
        assert 0.9 <= fraction <= 1.0

    def test_floor_hit(self, scene):
        # view 1 looks sideways; aim a ray well below the boxes at the floor
        depths, owners = cast_rays(scene, 1, [320.0], [479.5])
        assert np.isfinite(depths[0]) and owners[0] == -2

    def test_caster_agrees_with_ray_marching(self):
        # independent oracle: march along random rays and find the first
        # parameter where the point enters any box or crosses the floor
        rng = np.random.default_rng(77)
        from conftest import random_box
        from tiger.geometry import point_obb_distance
        from tiger.runtime import cast_rays

        def box_clear_of_camera():
            while True:
                box = random_box(rng, center_span=1.0, max_half=0.5)
                if point_obb_distance((0.0, 0.0, 0.0), box) > 0.05:
                    return box

        for trial in range(12):
            objects = [
                ObjectNode(i, f"o{i}", box_clear_of_camera())
                for i in range(int(rng.integers(1, 4)))
            ]
            floor_z = -4.0
            scn = Scene(K, [Pose.identity()], objects, floor_z=floor_z)
            for _ in range(25):
                u = float(rng.uniform(0, 640))
                v = float(rng.uniform(0, 480))
                depths, owners = cast_rays(scn, 0, [u], [v])
                direction = np.array([(u - K.cx) / K.fx, (v - K.cy) / K.fy, 1.0])
                ts = np.linspace(1e-3, 12.0, 24001)
                points = ts[:, None] * direction
                inside_t = np.inf
                for obj in objects:
                    local = (points - np.asarray(obj.box3.center)) @ box_rotation(obj.box3)
                    hit = np.all(
                        np.abs(local) <= np.asarray(obj.box3.half_extents), axis=1
                    )
                    if hit.any():
                        inside_t = min(inside_t, float(ts[np.argmax(hit)]))
                floor_t = floor_z / direction[2] if direction[2] < 0 else np.inf
                if 0 < floor_t < inside_t:
                    inside_t = floor_t
                step = ts[1] - ts[0]
                if math.isfinite(depths[0]):
                    assert depths[0] <= inside_t + 1e-9
                    assert inside_t - depths[0] <= 2 * step
                else:
                    assert inside_t == np.inf or inside_t > 11.9

    def test_depth_map_matches_point_queries(self, scene):
        depths, owners = cast_rays(scene, 0, *full_frame(scene.intrinsics))
        assert depths.shape == (480, 640)
        rng = np.random.default_rng(66)
        for _ in range(50):
            i = int(rng.integers(0, 640))
            j = int(rng.integers(0, 480))
            depth, owner = cast_rays(scene, 0, [i + 0.5], [j + 0.5])
            assert (depths[j, i], owners[j, i]) == (depth[0], owner[0])
        assert np.isfinite(depths).any()


def reference_cast_rays(scene, view, u, v):
    """Every ray against every object, reducing the slabs over the last axis.

    Directions, camera centre and slab locals are written out as the same
    left-to-right elementwise sums the caster makes, so no BLAS kernel
    enters either side.
    """
    pose = scene.pose(view)
    k = scene.intrinsics
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a = (u - k.cx) / k.fx
    b = (v - k.cy) / k.fy
    R, t = pose.rotation, pose.translation
    dirs = np.stack([a * R[0, j] + b * R[1, j] + R[2, j] for j in range(3)], axis=-1)
    origin = [-(R[0, j] * t[0] + R[1, j] * t[1] + R[2, j] * t[2]) for j in range(3)]
    best = np.full(u.shape, np.inf)
    owner = np.full(u.shape, -1, dtype=np.int32)
    for idx, obj in enumerate(scene.objects):
        c, s = math.cos(obj.box3.yaw), math.sin(obj.box3.yaw)
        ox, oy, oz = (o - m for o, m in zip(origin, obj.box3.center))
        o_local = np.array([ox * c + oy * s, oy * c - ox * s, oz])
        dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]
        d_local = np.stack([dx * c + dy * s, dy * c - dx * s, dz], axis=-1)
        h = np.asarray(obj.box3.half_extents)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d_local
            t1 = (-h - o_local) * inv
            t2 = (h - o_local) * inv
        t1 = np.where(np.isnan(t1), -np.inf, t1)
        t2 = np.where(np.isnan(t2), np.inf, t2)
        low = np.minimum(t1, t2).max(axis=-1)
        high = np.maximum(t1, t2).min(axis=-1)
        t = np.where(low > 1e-9, low, high)
        t = np.where((high >= low) & (high > 1e-9) & (t > 1e-9), t, np.inf)
        owner = np.where(t < best, idx, owner)
        best = np.minimum(t, best)
    dz = dirs[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_floor = (scene.floor_z - origin[2]) / dz
    t_floor = np.where((np.abs(dz) > 1e-9) & (t_floor > 1e-9), t_floor, np.inf)
    owner = np.where(t_floor < best, -2, owner)
    return np.minimum(t_floor, best), owner


def assert_casts_equal(scene, view, u, v):
    depths, owners = cast_rays(scene, view, u, v)
    ref_depths, ref_owners = reference_cast_rays(scene, view, u, v)
    assert depths.shape == ref_depths.shape and owners.dtype == ref_owners.dtype
    assert np.array_equal(depths, ref_depths)
    assert np.array_equal(owners, ref_owners)
    return owners


def full_frame(k):
    ii, jj = np.meshgrid(np.arange(k.width), np.arange(k.height))
    return ii + 0.5, jj + 0.5


def scene_with(*boxes):
    objects = [ObjectNode(i, f"o{i}", box) for i, box in enumerate(boxes)]
    views = [Pose.identity(), look_at([3.0, 1.0, 1.5], [0.0, 0.0, 2.0])]
    return Scene(K, views, objects, floor_z=-5.0)


class TestCasterExactness:
    """The culled caster returns exactly what testing every ray returns."""

    NEAR = OrientedBox3((0.2, 0.1, 2.5), (0.4, 0.3, 0.5), 0.4)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_scenes_full_frame(self, seed):
        scn = generate_scene(SceneParams(object_count=(4, 5)), seed)
        u, v = full_frame(scn.intrinsics)
        for view in range(len(scn.views)):
            owners = assert_casts_equal(scn, view, u, v)
            assert (owners >= 0).any()

    def test_off_image_rays(self):
        rng = np.random.default_rng(5)
        scn = generate_scene(SceneParams(object_count=(4, 5)), 3)
        for view in range(len(scn.views)):
            u = rng.uniform(-200.0, 900.0, 5000)
            v = rng.uniform(-200.0, 700.0, 5000)
            assert_casts_equal(scn, view, u, v)

    def test_object_entirely_off_screen(self):
        far_right = OrientedBox3((6.0, 0.0, 3.0), (0.3, 0.3, 0.3), 0.2)
        scn = scene_with(self.NEAR, far_right)
        owners = assert_casts_equal(scn, 0, *full_frame(K))
        assert not (owners == 1).any()
        # the same box is hit by rays aimed past the image edge
        u, v = np.meshgrid(np.linspace(-100.0, 1600.0, 200), np.linspace(-100.0, 600.0, 90))
        assert (assert_casts_equal(scn, 0, u, v) == 1).any()

    def test_box_straddling_the_camera_plane(self):
        scn = scene_with(self.NEAR, OrientedBox3((0.8, 0.0, 0.2), (0.5, 0.1, 0.5), 0.3))
        assert (assert_casts_equal(scn, 0, *full_frame(K)) == 1).any()
        assert_casts_equal(scn, 1, *full_frame(K))

    def test_box_behind_the_camera(self):
        scn = scene_with(self.NEAR, OrientedBox3((0.0, 0.0, -3.0), (0.5, 0.5, 0.5), 0.0))
        assert not (assert_casts_equal(scn, 0, *full_frame(K)) == 1).any()
        assert_casts_equal(scn, 1, *full_frame(K))

    def test_camera_inside_box(self):
        room = OrientedBox3((0.0, 0.0, 0.5), (4.0, 4.0, 4.0), 0.1)
        scn = scene_with(self.NEAR, room)
        owners = assert_casts_equal(scn, 0, *full_frame(K))
        assert set(np.unique(owners)) == {0, 1}

    @pytest.mark.parametrize("block_rays", [1, 700, 5000])
    def test_blocks_do_not_change_the_result(self, monkeypatch, block_rays):
        monkeypatch.setattr(tiger.runtime, "_BLOCK_RAYS", block_rays)
        rng = np.random.default_rng(8)
        scn = generate_scene(SceneParams(object_count=(4, 5)), 3)
        for view in range(len(scn.views)):
            u = rng.uniform(-200.0, 900.0, 2000)
            v = rng.uniform(-200.0, 700.0, 2000)
            assert_casts_equal(scn, view, u, v)
            assert_window_cast_equal(scn, view, Box2(100.3, 50.0, 420.0, 310.8))

    def test_coincident_copy_never_owns_a_pixel(self):
        # the copy ties the original on every ray it hits: the first object keeps it
        scn = scene_with(self.NEAR, self.NEAR)
        for view in range(len(scn.views)):
            owners = assert_casts_equal(scn, view, *full_frame(K))
            assert (owners == 0).any() and not (owners == 1).any()

    def test_box_resting_on_the_floor(self):
        # zmin = 4.5 - 0.5 is floor_z exactly.  View 0 looks up (+Z) at the
        # box's bottom face, which every ray meets at the floor's own depth;
        # the side view sees the floor meet the box along the contact line.
        box = OrientedBox3((0.2, 0.1, 4.5), (0.4, 0.3, 0.5), 0.4)
        views = [Pose.identity(), look_at([3.0, 1.0, 6.0], [0.2, 0.1, 4.0])]
        scn = Scene(K, views, [ObjectNode(0, "o0", box)], floor_z=4.0)
        for view in range(len(views)):
            assert set(np.unique(assert_casts_equal(scn, view, *full_frame(K)))) == {-2, 0}
        # every ray of view 0 meets the floor at depth 4, so each box pixel is a tie the box won
        depths, owners = cast_rays(scn, 0, *full_frame(K))
        assert np.all(depths == 4.0) and (owners == 0).any()

    def test_object_rectangles_straddle_blocks(self, monkeypatch):
        # blocks of 7 rows: every object's pixel rectangle spans several
        monkeypatch.setattr(tiger.runtime, "_BLOCK_RAYS", 7 * 640 + 3)
        scn = generate_scene(SceneParams(object_count=(4, 5)), 1)
        for view in range(len(scn.views)):
            assert (assert_casts_equal(scn, view, *full_frame(scn.intrinsics)) >= 0).any()
            assert_window_cast_equal(scn, view, FRAME)

    def test_input_shapes(self):
        scn = scene_with(self.NEAR)
        u, v = full_frame(K)
        assert_casts_equal(scn, 0, u[::7, ::5], v[::7, ::5])
        assert_casts_equal(scn, 0, u[240], v[240])
        assert_casts_equal(scn, 0, [320.0], [240.0])
        depths, owners = cast_rays(scn, 0, 320.0, 240.0)
        assert depths.shape == owners.shape == (1,)


def assert_window_cast_equal(scene, view, box2, max_per_axis=None):
    """A pixel window cast as a row × column grid equals the reference on its meshgrid."""
    k = scene.intrinsics
    rows, cols = _pixel_grid(box2, k.width, k.height, max_per_axis)
    col_centres = np.arange(k.width)[cols] + 0.5
    row_centres = np.arange(k.height)[rows] + 0.5
    u, v = np.meshgrid(col_centres, row_centres)
    depths, owners = cast_rays(scene, view, col_centres[None, :], row_centres[:, None])
    ref_depths, ref_owners = reference_cast_rays(scene, view, u, v)
    assert depths.shape == owners.shape == u.shape
    assert np.array_equal(depths, ref_depths)
    assert np.array_equal(owners, ref_owners)
    return owners


FRAME = Box2(0.0, 0.0, 640.0, 480.0)


class TestWindowCast:
    """cast_rays broadcasts a (1, W) row of columns against an (H, 1) column of rows."""

    def test_full_frame_of_every_view(self):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 4)
        for view in range(len(scn.views)):
            assert (assert_window_cast_equal(scn, view, FRAME) >= 0).any()

    def test_window_partly_off_image(self):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 5)
        window = Box2(-120.0, 300.3, 200.7, 700.0)
        for view in range(len(scn.views)):
            owners = assert_window_cast_equal(scn, view, window)
            assert owners.shape == (180, 201)

    def test_subsampled_windows(self):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 6)
        for view in range(len(scn.views)):
            assert assert_window_cast_equal(scn, view, FRAME, 64).shape == (60, 64)
            for obj in scn.objects:
                box2 = scn.project_box(obj, view)
                if box2 is not None:
                    assert_window_cast_equal(scn, view, box2, 64)

    def test_box_straddling_the_camera_plane(self):
        scn = scene_with(TestCasterExactness.NEAR, OrientedBox3((0.8, 0.0, 0.2), (0.5, 0.1, 0.5), 0.3))
        assert (assert_window_cast_equal(scn, 0, FRAME) == 1).any()
        assert (assert_window_cast_equal(scn, 0, FRAME, 64) == 1).any()

    def test_floor_only_view(self):
        down = look_at([10.0, 10.0, 1.0], [12.0, 12.0, -5.0])
        scn = Scene(K, [Pose.identity(), down], [ObjectNode(0, "o0", TestCasterExactness.NEAR)], floor_z=-5.0)
        assert set(np.unique(assert_window_cast_equal(scn, 1, FRAME))) == {-2}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 7),
        view=st.integers(0, 3),
        corner=st.tuples(st.floats(-200.0, 700.0), st.floats(-200.0, 550.0)),
        size=st.tuples(st.floats(0.5, 400.0), st.floats(0.5, 400.0)),
        max_per_axis=st.sampled_from([None, 64, 7, 1]),
    )
    def test_any_window(self, seed, view, corner, size, max_per_axis):
        scn = generate_scene(SceneParams(object_count=(2, 5)), seed)
        box2 = Box2(corner[0], corner[1], corner[0] + size[0], corner[1] + size[1])
        k = scn.intrinsics
        if _pixel_grid(box2, k.width, k.height) is not None:
            assert_window_cast_equal(scn, view % len(scn.views), box2, max_per_axis)

    def test_grid_hits_returns_the_meshgrid_of_the_window(self, ctx):
        for box2, max_per_axis in ((Box2(-3.2, 10.0, 200.0, 95.6), None), (FRAME, 64)):
            i0, j0, ii, jj, depths, _owners = _grid_hits(ctx, 0, box2, max_per_axis)
            rows, cols = _pixel_grid(box2, 640, 480, max_per_axis)
            want_ii, want_jj = np.meshgrid(np.arange(640)[cols], np.arange(480)[rows])
            assert (i0, j0) == (cols.start, rows.start) == (want_ii[0, 0], want_jj[0, 0])
            assert np.array_equal(ii, want_ii) and np.array_equal(jj, want_jj)
            assert ii.shape == jj.shape == depths.shape

    def test_shapes(self):
        scn = scene_with(TestCasterExactness.NEAR)
        for u, v, shape in (
            (320.0, 240.0, (1,)),
            ([320.0], [240.0], (1,)),
            (np.full(7, 320.0), np.linspace(0.0, 480.0, 7), (7,)),
            (np.full((3, 4), 320.0), np.full((3, 4), 240.0), (3, 4)),
            (np.arange(5.0)[None, :], np.arange(3.0)[:, None], (3, 5)),
            (np.arange(5.0), 240.0, (5,)),
        ):
            depths, owners = cast_rays(scn, 0, u, v)
            assert depths.shape == owners.shape == shape
            assert depths.dtype == float and owners.dtype == np.int32


# the generator's intrinsics: the pixel centres of row 239 lie on cy
K_GEN = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)


class TestFloorOnFactors:
    """Row × column casts whose floor and slab fix-ups take each shortcut, and each it must not take."""

    @staticmethod
    def assert_frame_and_grid_equal(scn, view):
        owners = assert_window_cast_equal(scn, view, FRAME)
        assert_window_cast_equal(scn, view, FRAME, 64)
        return owners

    def test_rolled_camera(self):
        # rolled about its optical axis, the camera's x axis leaves the
        # horizontal: the floor depends on both factors
        level = look_at([3.0, 1.0, 1.5], [0.0, 0.0, 0.5])
        c, s = math.cos(0.3), math.sin(0.3)
        roll = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rolled = Pose(roll @ level.rotation, roll @ level.translation)
        assert rolled.rotation.T[2][0] != 0.0 and rolled.rotation.T[2][1] != 0.0
        scn = Scene(K_GEN, [Pose.identity(), rolled], [ObjectNode(0, "o0", TestCasterExactness.NEAR)], floor_z=-0.5)
        owners = self.assert_frame_and_grid_equal(scn, 1)
        assert {-2, -1} <= set(np.unique(owners))

    def test_level_camera_grazing_a_top_face(self):
        # looking along +x from height 1.5: row 239's rays are horizontal
        # (dz = ±0), and the box's top face is at the eye height, so its z
        # slab numerator is 0 and its z fix-ups must run
        level = Pose([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]], [0.0, 1.5, 0.0])
        assert list(level.rotation.T[2]) == [0.0, -1.0, 0.0] and level.center()[2] == 1.5
        box = OrientedBox3((3.0, 0.2, 1.0), (0.4, 0.3, 0.5), 0.3)
        scn = Scene(K_GEN, [Pose.identity(), level], [ObjectNode(0, "o0", box)], floor_z=0.0)
        owners = self.assert_frame_and_grid_equal(scn, 1)
        assert (owners[239] == 0).any() and not (owners[240:] == -1).any()
        # a 64-grid whose rows include row 239
        grid = assert_window_cast_equal(scn, 1, Box2(0.0, 7.0, 640.0, 480.0), 64)
        assert (grid[(239 - 7) // 8] == 0).any()

    def test_identity_view_facing_the_floor(self):
        # R^T[2] = (0, 0, 1): one floor depth, 4, for every ray; the box rests
        # on the floor, so each of its pixels is a tie the box wins
        box = OrientedBox3((0.2, 0.1, 4.5), (0.4, 0.3, 0.5), 0.4)
        scn = Scene(K_GEN, [Pose.identity()], [ObjectNode(0, "o0", box)], floor_z=4.0)
        assert set(np.unique(self.assert_frame_and_grid_equal(scn, 0))) == {-2, 0}

    @pytest.mark.parametrize("u, v", [(1e300, 240.0), (320.0, -1e300), (1.7e308, 1.7e308), (math.inf, 240.0)])
    def test_single_ray_far_off_image(self, u, v):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 7)
        for view in range(len(scn.views)):
            with np.errstate(invalid="ignore"):
                assert_casts_equal(scn, view, [u], [v])


class TestPixelBounds:
    """The per-view corner bounds a Scene keeps cannot be seen from outside it."""

    @staticmethod
    def cast_every_view(scn):
        for view in range(len(scn.views)):
            cast_rays(scn, view, np.arange(640.0)[None, :] + 0.5, np.arange(480.0)[:, None] + 0.5)

    def test_scene_stays_immutable_and_serializes_alike(self):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 2)
        before = scn.to_json()
        self.cast_every_view(scn)
        assert scn.to_json() == before
        for name in ("views", "objects", "_pixel_bounds"):
            with pytest.raises(AttributeError):
                setattr(scn, name, None)
        with pytest.raises(UnknownView):
            scn.pixel_bounds(len(scn.views))

    def test_a_scene_that_has_cast_equals_a_fresh_one(self):
        scn = generate_scene(SceneParams(object_count=(4, 5)), 2)
        self.cast_every_view(scn)
        k = scn.intrinsics
        for view in range(len(scn.views)):
            pose = scn.pose(view)
            assert scn.pixel_bounds(view) == tuple(corner_pixel_bounds(o.box3, k, pose) for o in scn.objects)
            fresh = Scene.from_dict(scn.to_dict())
            boxes = [fresh.project_box(o, view) for o in fresh.objects]
            assert [scn.project_box(o, view) for o in scn.objects] == boxes
            for u, v in (
                ([321.3], [200.7]),
                (np.linspace(0.5, 639.5, 64)[None, :], np.linspace(0.5, 479.5, 64)[:, None]),
                (np.arange(640.0)[None, :] + 0.5, np.arange(480.0)[:, None] + 0.5),
            ):
                depths, owners = cast_rays(scn, view, u, v)
                want_depths, want_owners = cast_rays(Scene.from_dict(scn.to_dict()), view, u, v)
                assert depths.tobytes() == want_depths.tobytes()
                assert np.array_equal(owners, want_owners)


def reference_rle(bits):
    runs, current, count = [], False, 0
    for bit in bits:
        if bit == current:
            count += 1
        else:
            runs.append(count)
            current, count = bit, 1
    runs.append(count)
    return runs


@given(st.lists(st.booleans(), max_size=300))
@example([])
@example([False] * 9)
@example([True] * 9)
@example([True, True, False, True])
@example([True])
@example([False])
def test_rle_matches_reference(bits):
    runs = _rle_encode(np.array(bits, dtype=bool))
    assert runs == reference_rle(bits)
    assert all(type(n) is int for n in runs)


class TestSegmentationAndBoxes:
    def test_oracle_passthrough_bit_equal(self, ctx, scene):
        box2 = scene.project_box(scene.objects[1], 0)
        value = execute_tool(
            ctx, call("box_2d_to_box_3d", view=Scalar(0.0), box=Box2Value(box2))
        )
        assert isinstance(value, ObbValue)
        assert value.box == scene.objects[1].box3  # exact float equality

    def test_label_sugar(self, ctx, scene):
        value = execute_tool(ctx, call("box_2d_to_box_3d", view=Scalar(0.0), label=Text("mug")))
        assert value.box == scene.objects[1].box3

    def test_unknown_label(self, ctx):
        with pytest.raises(SchemaError):
            execute_tool(ctx, call("box_2d_to_box_3d", view=Scalar(0.0), label=Text("ghost")))

    def test_mask_consistent_with_depth_ownership(self, ctx, scene):
        box2 = scene.project_box(scene.objects[0], 0)
        value = execute_tool(
            ctx, call("object_segmentation", view=Scalar(0.0), box=Box2Value(box2))
        )
        numbers = [item.value for item in value.items]
        x0, y0, w, h = (int(v) for v in numbers[:4])
        runs = [int(v) for v in numbers[4:]]
        assert sum(runs) == w * h
        flat = np.zeros(w * h, dtype=bool)
        pos = 0
        bit = False
        for run in runs:
            flat[pos : pos + run] = bit
            pos += run
            bit = not bit
        mask = flat.reshape(h, w)
        ii, jj = np.meshgrid(np.arange(x0, x0 + w), np.arange(y0, y0 + h))
        from tiger.runtime import cast_rays

        _, owners = cast_rays(scene, 0, ii + 0.5, jj + 0.5)
        assert np.array_equal(mask, owners == 0)
        assert mask.any()

    def test_fitted_mode_contains_unprojected_points(self, scene):
        ctx = ExecutionContext(scene, "fitted")
        box2 = scene.project_box(scene.objects[0], 0)
        value = execute_tool(
            ctx, call("box_2d_to_box_3d", view=Scalar(0.0), box=Box2Value(box2))
        )
        from tiger.runtime import _majority_object

        oracle_ctx = ExecutionContext(scene, "oracle")
        _i0, _j0, ii, jj, depths, owners = _grid_hits(oracle_ctx, 0, box2, max_per_axis=64)
        mask = owners == _majority_object(oracle_ctx, owners)
        cam = unproject(ii[mask] + 0.5, jj[mask] + 0.5, depths[mask], scene.intrinsics)
        world = transform(invert(scene.views[0]), cam)
        assert value.box.contains(world, tol=1e-9)

    def test_empty_region(self, ctx):
        with pytest.raises(EmptyRegion):
            execute_tool(
                ctx,
                call(
                    "object_segmentation",
                    view=Scalar(0.0),
                    box=Box2Value(Box2(0.0, 0.0, 3.0, 3.0)),
                ),
            )


class TestProjectionTool:
    def test_projects_normalized(self, ctx):
        value = execute_tool(
            ctx,
            call("point_3d_to_point_2d", view=Scalar(0.0), point=Point3(0.0, 0.0, 2.0)),
        )
        assert value == Point2(0.5, 0.5, pixel=False)

    def test_behind_camera(self, ctx):
        with pytest.raises(BehindCamera):
            execute_tool(
                ctx,
                call("point_3d_to_point_2d", view=Scalar(0.0), point=Point3(0.0, 0.0, -1.0)),
            )

    def test_surface_point_round_trip(self, ctx, scene):
        # depth + unproject + reproject recovers the observed surface point
        probe = call("depth_sensor", view=Scalar(0.0), point=Point2(0.52, 0.48))
        depth = execute_tool(ctx, probe).value
        cam = unproject(0.52 * 640, 0.48 * 480, depth, scene.intrinsics)
        world = transform(invert(scene.views[0]), cam)
        back = execute_tool(
            ctx,
            call("point_3d_to_point_2d", view=Scalar(0.0), point=Point3(*world)),
        )
        assert abs(back.x - 0.52) < 1e-6 / 640
        assert abs(back.y - 0.48) < 1e-6 / 480

    def test_unoccluded_surface_points_recovered_in_3d(self, ctx, scene):
        # known points on the crate's front face (z = 2.0 in the view-0 frame)
        rng = np.random.default_rng(55)
        from tiger.geometry import project

        for _ in range(50):
            surface = np.array(
                [rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35), 2.0]
            )
            ip = project(surface, scene.intrinsics, scene.views[0])
            depth = execute_tool(
                ctx,
                call("depth_sensor", view=Scalar(0.0), point=Point2(ip.u_norm, ip.v_norm)),
            ).value
            recovered = unproject(ip.u, ip.v, depth, scene.intrinsics)
            world = transform(invert(scene.views[0]), recovered)
            assert np.linalg.norm(world - surface) < 1e-6


def count_parses(monkeypatch):
    """Patch minidsl.parse_program to record the sources it parses."""
    parses = []
    real = tiger.minidsl.parse_program

    def counting(source, known=()):
        parses.append(source)
        return real(source, known)

    monkeypatch.setattr(tiger.minidsl, "parse_program", counting)
    return parses


class TestCodeExecutor:
    def test_uses_bindings(self, ctx):
        ctx.bindings["r1"] = ObbValue(OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), 0.0))
        ctx.bindings["r2"] = ObbValue(OrientedBox3((3, 0, 0), (0.5, 0.5, 0.5), 0.0))
        value = execute_tool(
            ctx,
            call(
                "code_executor",
                program=Text("obb_dist(r1, r2)"),
                uses=ValueList((Text("r1"), Text("r2"))),
            ),
        )
        assert value == Scalar(2.0)

    def test_unknown_binding(self, ctx):
        with pytest.raises(SchemaError):
            execute_tool(
                ctx,
                call(
                    "code_executor",
                    program=Text("r9"),
                    uses=ValueList((Text("r9"),)),
                ),
            )

    def test_dsl_error_propagates(self, ctx):
        from tiger.minidsl import DivisionByZero

        with pytest.raises(DivisionByZero):
            execute_tool(ctx, call("code_executor", program=Text("1/0")))

    def test_program_is_parsed_once_per_cache(self, ctx, monkeypatch):
        parses = count_parses(monkeypatch)
        double = call("code_executor", program=Text("2 * r1"), uses=ValueList((Text("r1"),)))
        for x in (1.5, 4.0):  # the result follows the bindings
            ctx.bindings["r1"] = Scalar(x)
            assert execute_tool(ctx, double) == Scalar(2 * x)
        assert parses == ["2 * r1"]
        execute_tool(ExecutionContext(ctx.scene, "oracle", dict(ctx.bindings)), double)
        assert parses == ["2 * r1"] * 2

    def test_known_names_are_part_of_the_key(self, ctx, monkeypatch):
        parses = count_parses(monkeypatch)
        ctx.bindings.update(r1=Scalar(1.0), r2=Scalar(2.0))
        both = ValueList((Text("r1"), Text("r2")))
        assert execute_tool(ctx, call("code_executor", program=Text("r2"), uses=both)) == Scalar(2.0)
        narrow = call("code_executor", program=Text("r2"), uses=ValueList((Text("r1"),)))
        with pytest.raises(UnboundIdentifier):
            execute_tool(ctx, narrow)
        assert len(parses) == 2

    def test_parse_errors_are_not_cached(self, ctx, monkeypatch):
        parses = count_parses(monkeypatch)
        broken = call("code_executor", program=Text("1 +"))
        for _ in range(2):
            with pytest.raises(DslSyntaxError):
                execute_tool(ctx, broken)
        assert parses == ["1 +"] * 2 and ctx.cache == {}

    def test_overflowing_result_is_a_tool_error(self, ctx):
        from tiger.runtime import ToolError

        with pytest.raises(ToolError):
            execute_tool(ctx, call("code_executor", program=Text("1e308 * 1e308")))


class TestRunTrajectory:
    def test_single_extrinsics_call(self, scene):
        text = (
            "<think>pose of the first view</think>"
            "<tool_call>camera_extrinsics(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        filled = run_trajectory(ExecutionContext(scene, "oracle"), parse_trajectory(text))
        result = filled.steps[2]
        assert result.value == Matrix(
            ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
        )

    def test_replaces_stored_results(self, scene):
        text = (
            "<think>x</think>"
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<tool_response>[9, 9, 9, 9, 9, 9]</tool_response>"
            "<answer format=scalar>0</answer>"
        )
        filled = run_trajectory(ExecutionContext(scene, "oracle"), parse_trajectory(text))
        assert filled.steps[2].value.items[0] == Scalar(500.0)

    def test_unknown_tool_aborts_with_index(self, scene):
        text = (
            "<think>x</think>"
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<tool_call>warp_drive(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        with pytest.raises(TrajectoryRunError) as info:
            run_trajectory(ExecutionContext(scene, "oracle"), parse_trajectory(text))
        assert info.value.step_index == 2
        assert isinstance(info.value.cause, UnknownTool)

    def test_deterministic_bytes(self, scene):
        text = (
            "<think>measure the crate</think>"
            '<tool_call>box_2d_to_box_3d(view=0, label="crate")</tool_call>'
            "<tool_call>code_executor(program=\"2 * vec_get(obb_half(r1), 2)\", uses=[\"r1\"])</tool_call>"
            "<answer format=scalar>1m</answer>"
        )
        runs = {
            render_trajectory(
                run_trajectory(ExecutionContext(scene, "oracle"), parse_trajectory(text))
            )
            for _ in range(3)
        }
        assert len(runs) == 1

    def test_bindings_accumulate_in_call_order(self, scene):
        text = (
            "<think>x</think>"
            "<tool_call>camera_extrinsics(view=0)</tool_call>"
            "<tool_call>camera_extrinsics(view=1)</tool_call>"
            "<tool_call>code_executor(program=\"matmul(r2, inv_pose(r1))\", uses=[\"r1\", \"r2\"])</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        ctx = ExecutionContext(scene, "oracle")
        filled = run_trajectory(ctx, parse_trajectory(text))
        assert set(ctx.bindings) == {"r1", "r2", "r3"}
        relative = np.array(filled.steps[-2].value.rows)
        expected = scene.views[1].matrix4() @ np.linalg.inv(scene.views[0].matrix4())
        assert np.allclose(relative, expected, atol=1e-12)

    def test_failing_call_stops_the_replay(self, scene, monkeypatch):
        executed = []

        def recording(ctx, tool_call):
            executed.append(tool_call.name)
            return execute_tool(ctx, tool_call)

        monkeypatch.setattr(tiger.runtime, "execute_tool", recording)
        text = (
            "<think>x</think>"
            "<tool_call>warp_drive(view=0)</tool_call>"
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        with pytest.raises(TrajectoryRunError) as info:
            run_trajectory(ExecutionContext(scene, "oracle"), parse_trajectory(text))
        assert info.value.step_index == 1
        assert executed == ["warp_drive"]


def count_casts(monkeypatch):
    """Patch runtime.cast_rays to count its calls; returns the growing list."""
    casts = []
    real = tiger.runtime.cast_rays

    def counting(*args, **kwargs):
        casts.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(tiger.runtime, "cast_rays", counting)
    return casts


class TestExecuteCalls:
    LOOKUP = call("box_2d_to_box_3d", view=Scalar(0.0), label=Text("crate"))

    def test_failed_call_leaves_no_binding(self, ctx):
        outcomes = list(
            execute_calls(
                ctx,
                [
                    call("warp_drive", view=Scalar(0.0)),
                    call("camera_extrinsics", view=Scalar(0.0)),
                    call("code_executor", program=Text("r1"), uses=ValueList((Text("r1"),))),
                ],
            )
        )
        assert [error is None for _, error in outcomes] == [False, True, False]
        assert isinstance(outcomes[0][1], UnknownTool)
        assert isinstance(outcomes[2][1], SchemaError)  # r1 was never bound
        assert set(ctx.bindings) == {"r2"}

    def test_repeated_pure_call_casts_once(self, ctx, monkeypatch):
        casts = count_casts(monkeypatch)
        first, second = execute_calls(ctx, [self.LOOKUP, self.LOOKUP])
        assert len(casts) == 1
        assert first == second and first[1] is None
        assert ctx.bindings == {"r1": first[0], "r2": first[0]}
        (again,) = execute_calls(ctx, [self.LOOKUP])  # later, same context
        assert again == first and len(casts) == 1
        (fresh,) = execute_calls(ExecutionContext(ctx.scene, "oracle"), [self.LOOKUP])
        assert fresh == first and len(casts) == 2

    def test_mode_is_part_of_the_key(self, scene):
        shared = {}
        oracle = ExecutionContext(scene, "oracle", cache=shared)
        fitted = ExecutionContext(scene, "fitted", cache=shared)
        ((oracle_box, _),) = execute_calls(oracle, [self.LOOKUP])
        ((fitted_box, _),) = execute_calls(fitted, [self.LOOKUP])
        assert oracle_box.box == scene.objects[0].box3
        assert fitted_box == execute_tool(ExecutionContext(scene, "fitted"), self.LOOKUP)
        assert fitted_box != oracle_box
        assert len(shared) == 2

    def test_code_executor_is_never_cached(self, ctx):
        echo = call("code_executor", program=Text("r1"), uses=ValueList((Text("r1"),)))
        for view in (0.0, 1.0):
            (pose, _), (echoed, error) = execute_calls(
                ctx, [call("camera_extrinsics", view=Scalar(view)), echo]
            )
            assert error is None and echoed == pose

    def test_failure_is_not_cached(self, ctx, monkeypatch):
        executed = []

        def recording(ctx, tool_call):
            executed.append(tool_call)
            return execute_tool(ctx, tool_call)

        monkeypatch.setattr(tiger.runtime, "execute_tool", recording)
        casts = count_casts(monkeypatch)
        corner = call(
            "object_segmentation",
            view=Scalar(0.0),
            box=Box2Value(Box2(0.0, 0.0, 3.0, 3.0)),
        )
        (first,), (second,) = execute_calls(ctx, [corner]), execute_calls(ctx, [corner])
        assert isinstance(first[1], EmptyRegion) and isinstance(second[1], EmptyRegion)
        assert executed == [corner, corner]  # the failure was not stored: it ran again
        assert (ctx.mode, corner) not in ctx.cache and ctx.bindings == {}
        assert len(casts) == 2  # a window short of the full frame is not buffered
        assert ctx.cache == {}


FRAME_CALL = call("depth_sensor", view=Scalar(1.0), box=Box2Value(FRAME))


@functools.cache
def pool_scene(seed):
    return generate_scene(SceneParams(object_count=(2, 5)), seed)


class TestHitBuffer:
    """A view's dense windows are cast once per cache and read from its buffer."""

    @pytest.mark.parametrize("mode", ["oracle", "fitted"])
    def test_depth_segmentation_and_lookup_cast_once(self, scene, monkeypatch, mode):
        box2 = scene.project_box(scene.objects[0], 1)
        calls = [
            FRAME_CALL,
            call("object_segmentation", view=Scalar(1.0), box=Box2Value(box2)),
            call("box_2d_to_box_3d", view=Scalar(1.0), label=Text("crate")),
        ]
        fresh = [execute_tool(ExecutionContext(scene, mode), c) for c in calls]
        casts = count_casts(monkeypatch)
        outcomes = list(execute_calls(ExecutionContext(scene, mode), calls))
        assert casts == [1]
        assert [value for value, _ in outcomes] == fresh

    def test_subsampled_lookups_leave_no_buffer(self, ctx, scene, monkeypatch):
        casts = count_casts(monkeypatch)
        for view in (0, 1):
            for label in ("crate", "mug"):
                execute_tool(ctx, call("box_2d_to_box_3d", view=Scalar(view), label=Text(label)))
        execute_tool(ctx, call("box_2d_to_box_3d", view=Scalar(0.0), box=Box2Value(FRAME)))
        assert len(casts) == 5
        assert not any(key[0] == "hits" for key in ctx.cache)

    def test_only_a_full_frame_makes_a_buffer(self, ctx, monkeypatch):
        casts = count_casts(monkeypatch)
        inner = Box2Value(Box2(10.0, 20.0, 300.0, 200.0))
        execute_tool(ctx, call("depth_sensor", view=Scalar(1.0), box=inner))
        assert ("hits", 1) not in ctx.cache
        execute_tool(ctx, FRAME_CALL)
        assert ctx.cache[("hits", 1)][0].shape == (480, 640)
        execute_tool(ctx, call("object_segmentation", view=Scalar(1.0), box=inner))
        assert casts == [1, 1]

    def test_buffered_reads_are_read_only(self, ctx):
        execute_tool(ctx, FRAME_CALL)
        *_, depths, owners = _grid_hits(ctx, 1, Box2(10.0, 20.0, 300.0, 200.0))
        assert not depths.flags.writeable and not owners.flags.writeable
        assert np.shares_memory(depths, ctx.cache[("hits", 1)][0])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        windows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(
                    st.just((0.0, 0.0, 640.0, 480.0)),
                    st.tuples(
                        st.floats(-100.0, 600.0),
                        st.floats(-100.0, 450.0),
                        st.floats(0.5, 500.0),
                        st.floats(0.5, 400.0),
                    ).map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3])),
                ),
                st.sampled_from([None, None, 64, 7]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(
        seed=1,
        windows=[
            (1, (0.0, 0.0, 640.0, 480.0), None),
            (1, (100.2, 50.0, 400.0, 300.9), None),
            (1, (-20.0, 60.0, 700.0, 200.0), 64),
            (2, (100.2, 50.0, 400.0, 300.9), 7),
        ],
    )
    def test_buffered_windows_equal_fresh_casts(self, seed, windows):
        scn = pool_scene(seed)
        ctx = ExecutionContext(scn, "oracle")
        for view, corners, max_per_axis in windows:
            view %= len(scn.views)
            try:
                *_, ii, jj, depths, owners = _grid_hits(ctx, view, Box2(*corners), max_per_axis)
            except EmptyRegion:
                continue
            want_depths, want_owners = cast_rays(scn, view, ii + 0.5, jj + 0.5)
            assert depths.tobytes() == want_depths.tobytes()
            assert np.array_equal(owners, want_owners)
