import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiger.geometry import (
    BehindCamera,
    Box2,
    CameraIntrinsics,
    DegeneratePivot,
    GeometryError,
    NonPositiveDepth,
    OrbitDirection,
    OrientedBox3,
    OutOfBounds,
    Pose,
    TooFewPoints,
    corner_pixel_bounds,
    fit_obb,
    invert,
    obb_distance,
    point_obb_distance,
    project,
    relative_camera_motion,
    transform,
    unproject,
)

from conftest import (
    box_rotation,
    look_at,
    random_box,
    random_pose,
    rotation_from_axis_angle,
    sampled_box_distance,
    sampling_resolution,
)


class TestIntrinsics:
    def test_validation(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(-1.0, 1.0, 0.0, 0.0, 10, 10)
        with pytest.raises(GeometryError):
            CameraIntrinsics(1.0, 1.0, 11.0, 0.0, 10, 10)


class TestUnprojectProject:
    def test_principal_axis(self, intrinsics):
        p = unproject(intrinsics.cx, intrinsics.cy, 2.0, intrinsics)
        assert np.allclose(p, [0.0, 0.0, 2.0], atol=0)

    def test_unit_offset(self):
        k = CameraIntrinsics(300.0, 300.0, 320.0, 240.0, 1024, 768)
        p = unproject(k.cx + k.fx, k.cy, 1.0, k)
        assert np.allclose(p, [1.0, 0.0, 1.0], atol=0)

    def test_errors(self, intrinsics):
        with pytest.raises(NonPositiveDepth):
            unproject(1.0, 1.0, 0.0, intrinsics)
        with pytest.raises(OutOfBounds):
            unproject(-1.0, 1.0, 1.0, intrinsics)

    def test_project_principal(self, intrinsics):
        ip = project((0.0, 0.0, 2.0), intrinsics, Pose.identity())
        assert ip.u == intrinsics.cx and ip.v == intrinsics.cy
        assert ip.u_norm == 0.5 and ip.inside()

    def test_project_behind(self, intrinsics):
        with pytest.raises(BehindCamera):
            project((0.0, 0.0, -1.0), intrinsics, Pose.identity())

    def test_round_trip_random(self, intrinsics):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, intrinsics.width, size=2000)
        v = rng.uniform(0.0, intrinsics.height, size=2000)
        d = rng.uniform(0.05, 20.0, size=2000)
        cam = unproject(u, v, d, intrinsics)
        identity = Pose.identity()
        for p, ui, vi in zip(cam, u, v):
            ip = project(p, intrinsics, identity)
            assert abs(ip.u - ui) < 1e-9 and abs(ip.v - vi) < 1e-9


class TestPoseAlgebra:
    def test_identity_laws(self):
        identity = Pose.identity()
        assert invert(identity) == identity
        p = np.array([0.3, -0.7, 2.0])
        assert np.array_equal(transform(identity, p), p)

    def test_invert_composes_to_identity(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(-3, 3, size=(100, 3))
        for _ in range(20):
            a = random_pose(rng)
            round_tripped = transform(a, transform(invert(a), points))
            assert np.max(np.abs(round_tripped - points)) < 1e-12

    def test_invert_is_an_involution(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = random_pose(rng)
            twice = invert(invert(a))
            assert np.max(np.abs(twice.rotation - a.rotation)) < 1e-12
            assert np.max(np.abs(twice.translation - a.translation)) < 1e-12

    def test_transform_sums_each_point_left_to_right(self):
        # a point's bits depend on that point alone, never on the batch
        rng = np.random.default_rng(15)
        points = rng.uniform(-3, 3, size=(50, 3))
        for _ in range(10):
            a = random_pose(rng)
            R, t = a.rotation.tolist(), a.translation.tolist()
            expected = [
                [r[0] * p[0] + r[1] * p[1] + r[2] * p[2] + ti for r, ti in zip(R, t)]
                for p in points.tolist()
            ]
            assert transform(a, points).tolist() == expected
            assert [transform(a, p).tolist() for p in points] == expected
            center = [-(R[0][j] * t[0] + R[1][j] * t[1] + R[2][j] * t[2]) for j in range(3)]
            assert a.center().tolist() == invert(a).translation.tolist() == center

    def test_rejects_non_orthonormal(self):
        with pytest.raises(GeometryError):
            Pose(np.eye(3) * 1.01, np.zeros(3))
        with pytest.raises(GeometryError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_matrix4_round_trip(self):
        rng = np.random.default_rng(13)
        a = random_pose(rng)
        b = Pose.from_matrix4(a.matrix4())
        assert a == b


class TestCameraMotion:
    def test_zero_orbit_ties_right(self):
        pose = look_at([2.0, 0.0, 1.0], [0.0, 0.0, 0.5])
        direction, angle = relative_camera_motion(pose, pose, [0.0, 0.0, 0.5])
        assert angle == 0.0 and direction is OrbitDirection.RIGHT

    def test_plus_ten_degrees_is_right(self):
        pivot = np.array([0.2, -0.1, 0.8])
        delta = math.radians(10.0)
        p1 = look_at(pivot + [2.0, 0.0, 0.7], pivot)
        p2 = look_at(
            pivot + [2.0 * math.cos(delta), 2.0 * math.sin(delta), 0.7], pivot
        )
        direction, angle = relative_camera_motion(p1, p2, pivot)
        assert direction is OrbitDirection.RIGHT
        assert abs(angle - delta) < 1e-9

    def test_constructed_orbits_agree_with_sign(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pivot = rng.uniform(-1, 1, size=3)
            radius = rng.uniform(0.5, 3.0)
            phi = rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(0.01, math.pi - 0.01) * rng.choice([-1.0, 1.0])
            height = rng.uniform(-0.5, 1.5)
            c1 = pivot + [radius * math.cos(phi), radius * math.sin(phi), height]
            c2 = pivot + [
                radius * math.cos(phi + delta),
                radius * math.sin(phi + delta),
                height,
            ]
            direction, angle = relative_camera_motion(
                look_at(c1, pivot), look_at(c2, pivot), pivot
            )
            expected = OrbitDirection.RIGHT if delta > 0 else OrbitDirection.LEFT
            assert direction is expected
            assert abs(angle - delta) < 1e-9

    def test_degenerate_pivot(self):
        pose = look_at([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegeneratePivot):
            relative_camera_motion(pose, pose, pose.center())
        # directly above the pivot: ground direction vanishes
        above = look_at([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        side = look_at([1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(DegeneratePivot):
            relative_camera_motion(above, side, [0.0, 0.0, 0.0])


class TestObbDistance:
    def test_identical_boxes_zero(self):
        box = OrientedBox3((0.4, -0.2, 1.0), (0.3, 0.2, 0.1), 0.7)
        assert obb_distance(box, box) == 0.0

    def test_axis_aligned_gap(self):
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), 0.0)
        b = OrientedBox3((3, 0, 0), (0.5, 0.5, 0.5), 0.0)
        assert obb_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng)
            assert obb_distance(a, b) == obb_distance(b, a)

    def test_against_sampling_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            a = random_box(rng)
            b = random_box(rng)
            analytic = obb_distance(a, b)
            sampled = sampled_box_distance(a, b)
            res = max(sampling_resolution(a), sampling_resolution(b))
            assert analytic <= sampled + 1e-9
            assert sampled - analytic <= 2.0 * res

    def test_point_distance(self):
        box = OrientedBox3((0, 0, 0), (1.0, 1.0, 1.0), 0.0)
        assert point_obb_distance((0.2, 0.1, -0.5), box) == 0.0
        assert point_obb_distance((3.0, 0.0, 0.0), box) == pytest.approx(2.0)

    def test_extreme_aspect_ratios_against_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            a = OrientedBox3(
                tuple(rng.uniform(-1, 1, size=3)),
                (rng.uniform(0.002, 0.01), rng.uniform(0.5, 2.0), rng.uniform(0.002, 0.01)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            b = random_box(rng)
            analytic = obb_distance(a, b)
            sampled = sampled_box_distance(a, b, per_axis=24)
            res = 2.0 * max(max(a.half_extents), max(b.half_extents)) / 23
            assert analytic <= sampled + 1e-9
            assert sampled - analytic <= 2.0 * res

    def test_touching_faces_is_zero(self):
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), 0.0)
        b = OrientedBox3((1.0, 0.0, 0.0), (0.5, 0.5, 0.5), 0.0)
        assert obb_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_contained_box_is_zero(self):
        outer = OrientedBox3((0, 0, 0), (1.0, 1.0, 1.0), 0.3)
        inner = OrientedBox3((0.1, -0.1, 0.2), (0.2, 0.2, 0.2), -0.9)
        assert obb_distance(outer, inner) == 0.0

    def test_known_rotated_gap(self):
        # 45-degree square: nearest corner reaches sqrt(2)/2 toward the cube
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), math.pi / 4)
        b = OrientedBox3((3.0, 0.0, 0.0), (0.5, 0.5, 0.5), 0.0)
        expected = 3.0 - 0.5 - math.sqrt(2.0) / 2.0
        assert obb_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_plus_crossing_is_zero(self):
        # No corner of either box lies inside the other, yet the solids overlap.
        a = OrientedBox3((0, 0, 0), (2.0, 0.1, 0.5), 0.0)
        b = OrientedBox3((0.3, -0.2, 0.4), (2.0, 0.1, 0.5), math.pi / 2)
        assert not a.contains(b.corners()) and not b.contains(a.corners())
        assert obb_distance(a, b) == 0.0

    def test_stacked_boxes_return_z_gap(self):
        a = OrientedBox3((0.0, 0.0, 0.5), (0.5, 0.4, 0.5), 0.3)
        b = OrientedBox3((0.1, -0.05, 1.75), (0.3, 0.3, 0.25), -0.7)
        assert obb_distance(a, b) == 0.5
        crossing = OrientedBox3((0.0, 0.0, 1.75), (2.0, 0.1, 0.25), math.pi / 2)
        assert obb_distance(a, crossing) == 0.5

    def test_parallel_facing_edges_at_offset(self):
        # Facing faces 0.5 apart, footprints sliding past each other sideways.
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), 0.0)
        b = OrientedBox3((1.5, 0.7, 0.0), (0.5, 0.5, 0.5), 0.0)
        assert obb_distance(a, b) == pytest.approx(0.5, abs=1e-12)
        yaw = 0.6
        c, s = math.cos(yaw), math.sin(yaw)
        a = OrientedBox3((0, 0, 0), (0.5, 0.5, 0.5), yaw)
        b = OrientedBox3((1.5 * c - 0.7 * s, 1.5 * s + 0.7 * c, 1.3), (0.5, 0.5, 0.5), yaw)
        assert obb_distance(a, b) == pytest.approx(math.hypot(0.5, 0.3), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=6, max_size=6),
        st.lists(st.floats(0.05, 0.8, allow_nan=False), min_size=6, max_size=6),
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    def test_random_yaw_boxes_property(self, centers, halves, yaw_a, yaw_b):
        a = OrientedBox3(tuple(centers[:3]), tuple(halves[:3]), yaw_a)
        b = OrientedBox3(tuple(centers[3:]), tuple(halves[3:]), yaw_b)
        analytic = obb_distance(a, b)
        assert analytic == obb_distance(b, a)
        sampled = sampled_box_distance(a, b)
        res = max(sampling_resolution(a), sampling_resolution(b))
        assert analytic <= sampled + 1e-9
        assert sampled - analytic <= 2.0 * res


class TestFitObb:
    def test_axis_aligned_corners_recovered(self):
        box = OrientedBox3((1.0, 2.0, 3.0), (0.5, 0.25, 0.75), 0.0)
        fitted = fit_obb(box.corners())
        assert fitted.yaw == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(fitted.center, box.center, atol=1e-12)
        assert np.allclose(fitted.half_extents, box.half_extents, atol=1e-12)

    def test_rotated_corners_recovered(self):
        box = OrientedBox3((0.3, -0.8, 1.1), (0.4, 0.2, 0.3), math.radians(30.0))
        fitted = fit_obb(box.corners())
        assert fitted.yaw == pytest.approx(math.radians(30.0), abs=1e-6)
        assert np.allclose(fitted.half_extents, box.half_extents, atol=1e-9)

    def test_construct_then_fit_random(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            h = rng.uniform(0.1, 0.5, size=3)
            h[1] = h[0] * rng.uniform(1.3, 2.5)  # avoid the square-footprint ambiguity
            box = OrientedBox3(
                tuple(rng.uniform(-2, 2, size=3)),
                tuple(h),
                float(rng.uniform(-math.pi, math.pi)),
            )
            fitted = fit_obb(box.corners())
            canon = box.canonical()
            assert fitted.yaw == pytest.approx(canon.yaw, abs=1e-6)
            assert np.allclose(fitted.half_extents, canon.half_extents, atol=1e-9)
            assert fitted.contains(box.corners(), tol=1e-9)

    def test_collinear_fallback(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.1], [2.0, 2.0, 0.2]])
        fitted = fit_obb(points)
        assert fitted.yaw == 0.0
        assert fitted.contains(points, tol=1e-9)

    def test_min_extent_clamp(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.0, 0.0]])
        fitted = fit_obb(points, min_extent=0.01)
        assert min(fitted.half_extents) >= 0.005

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_obb(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


class TestCorners:
    def test_corners_are_the_rotated_signed_extents(self):
        rng = np.random.default_rng(17)
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        for _ in range(50):
            box = random_box(rng)
            expected = (signs * box.half_extents) @ box_rotation(box).T + box.center
            assert np.max(np.abs(box.corners() - expected)) < 1e-12

    def test_pixel_bounds_are_those_of_the_projected_corners(self, intrinsics):
        rng = np.random.default_rng(19)
        for _ in range(50):
            box, pose = random_box(rng), random_pose(rng)
            cam = transform(pose, box.corners())
            bounds = corner_pixel_bounds(box, intrinsics, pose)
            if np.any(cam[:, 2] <= 1e-9):
                assert bounds is None
                continue
            u = intrinsics.fx * cam[:, 0] / cam[:, 2] + intrinsics.cx
            v = intrinsics.fy * cam[:, 1] / cam[:, 2] + intrinsics.cy
            expected = (u.min(), u.max(), v.min(), v.max())
            assert np.max(np.abs(np.subtract(bounds, expected))) < 1e-6


class TestTypes:
    def test_box2_invariants(self):
        with pytest.raises(GeometryError):
            Box2(1.0, 0.0, 0.0, 1.0)

    def test_obb_yaw_normalized(self):
        box = OrientedBox3((0, 0, 0), (1, 1, 1), 3 * math.pi)
        assert -math.pi <= box.yaw < math.pi
        assert box.yaw == pytest.approx(math.pi, abs=1e-12) or box.yaw == pytest.approx(
            -math.pi, abs=1e-12
        )

    def test_obb_rejects_bad_extents(self):
        with pytest.raises(GeometryError):
            OrientedBox3((0, 0, 0), (1.0, 0.0, 1.0), 0.0)

    def test_canonical_folds_quarter_turns(self):
        box = OrientedBox3((0, 0, 0), (0.4, 0.2, 0.1), math.radians(100.0))
        canon = box.canonical()
        assert -math.pi / 4 <= canon.yaw < math.pi / 4
        assert canon.yaw == pytest.approx(math.radians(10.0), abs=1e-12)
        assert canon.half_extents == (0.2, 0.4, 0.1)
        # same point set
        assert canon.contains(box.corners(), tol=1e-9)
        assert box.contains(canon.corners(), tol=1e-9)
