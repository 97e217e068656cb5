import collections
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tiger.generator
import tiger.runtime
from tiger.generator import (
    DEFAULT_MIX,
    FAMILIES,
    QUESTION_BANK,
    THOUGHT_BANK,
    GenerationError,
    InsufficientScene,
    PlacementFailure,
    SceneParams,
    Template,
    allocate_counts,
    build_record,
    derive_seed,
    generate_dataset,
    generate_records,
    generate_scene,
    instantiate,
    regenerate_from_manifest,
    region_contains,
    spatial_relation,
    _Draws,
    _FAMILIES,
    _pair_verdicts,
    self_check,
)
from tiger.geometry import (
    WORLD_UP,
    CameraIntrinsics,
    OrientedBox3,
    Pose,
    obb_distance,
    relative_camera_motion,
    OrbitDirection,
)
from tiger.rewards import check_interval, score_trajectory
from tiger.runtime import ExecutionContext, run_trajectory
from tiger.scene import ObjectNode, Scene
from tiger.minidsl import DslError
from tiger.trajectory import (
    Choice,
    Point3,
    Scalar,
    Text,
    ToolCall,
    Trajectory,
    ValueList,
    parse_trajectory,
    render_trajectory,
)

from conftest import random_box, random_pose

PARAMS = SceneParams()


class TestSceneGeneration:
    def test_minimal_scene(self):
        params = SceneParams(object_count=(1, 1), view_count=(1, 1))
        scene = generate_scene(params, 7)
        assert len(scene.objects) == 1 and len(scene.views) == 1
        assert scene.views[0].is_identity()

    def test_deterministic_documents(self):
        a = json.dumps(generate_scene(PARAMS, 123).to_dict())
        b = json.dumps(generate_scene(PARAMS, 123).to_dict())
        assert a == b

    def test_different_seeds_differ(self):
        one, two = (json.dumps(generate_scene(PARAMS, seed).to_dict()) for seed in (1, 2))
        assert one != two

    def test_nonoverlap_audit(self):
        for seed in range(60):
            scene = generate_scene(PARAMS, seed)
            boxes = [o.box3 for o in scene.objects]
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    assert obb_distance(a, b) > 0.0

    def test_objects_above_floor_and_visible(self):
        for seed in range(20):
            scene = generate_scene(PARAMS, seed)
            for obj in scene.objects:
                assert obj.box3.zmin >= scene.floor_z
                assert any(
                    scene.project_box(obj, v) is not None
                    for v in range(len(scene.views))
                )


_BOX_FIELDS = st.tuples(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.3, 1.5)),
    st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5), st.floats(0.02, 0.5)),
    st.floats(-math.pi, math.pi),
)


@st.composite
def placement_cases(draw):
    """A candidate box's fields, the boxes placed before it, and a margin."""
    (cx, cy, cz), half, yaw = draw(_BOX_FIELDS)
    placed = [OrientedBox3(*draw(_BOX_FIELDS)) for _ in range(draw(st.integers(0, 4)))]
    shape = draw(st.sampled_from(("free", "stacked", "crossing")))
    if placed and shape == "stacked":
        # straight above the first placed box; a zero gap makes them touch
        below = placed[0]
        gap = draw(st.sampled_from((0.0, 0.04)) | st.floats(0.0, 0.1))
        cx, cy = below.center[:2]
        cz = below.zmax + gap + half[2]
    elif placed and shape == "crossing":
        # same center, turned a quarter: a "plus" through the first box
        cx, cy, cz = placed[0].center
        yaw = placed[0].yaw + math.pi / 2
    center = (cx, cy, cz)
    margin = draw(st.sampled_from((0.0, 0.04)) | st.floats(0.0, 0.2))
    if placed and draw(st.booleans()):
        # within 1e-8 of one pair's exact distance
        d = obb_distance(OrientedBox3(center, half, yaw), draw(st.sampled_from(placed)))
        margin = max(d + draw(st.floats(-1e-8, 1e-8)), 0.0)
    return center, half, yaw, placed, margin


_BELOW = OrientedBox3((0.1, -0.2, 0.8), (0.2, 0.15, 0.1), 0.3)
_STACKED = ((0.1, -0.2, 0.8 + 0.1 + 0.04 + 0.12), (0.1, 0.3, 0.12), -1.1)
_STACKED_GAP = obb_distance(OrientedBox3(*_STACKED), _BELOW)

# two square footprints turned 45 degrees, corner to corner: the
# circumcircle bound on their distance is tight
_CORNER = OrientedBox3((0.0, 0.0, 0.8), (0.1, 0.1, 0.1), math.pi / 4)
_FACING = ((0.5, 0.0, 0.8), (0.1, 0.1, 0.1), math.pi / 4)
_FACING_GAP = obb_distance(OrientedBox3(*_FACING), _CORNER)


@given(placement_cases(), st.lists(_BOX_FIELDS, max_size=4))
@example((*_STACKED, [_BELOW], _STACKED_GAP), [])
@example((*_STACKED, [_BELOW], _STACKED_GAP - 5e-10), [])
@example((*_STACKED, [_BELOW], _STACKED_GAP + 5e-10), [])
@example(((0.1, -0.2, 0.8), (0.02, 0.4, 0.1), 0.3, [_BELOW], 0.0), [])
@example((*_FACING, [_CORNER], _FACING_GAP + 5e-4), [_FACING])
@example((*_FACING, [_CORNER], _FACING_GAP - 5e-4), [_FACING])
def test_pair_verdicts_agree_with_obb_distance(case, more):
    """A cleared pair is farther apart than the margin; a touching pair is not."""
    center, half, yaw, placed, margin = case
    rows = [(center, half, yaw), *more]
    columns = [np.array([row[0][k] for row in rows]) for k in range(3)]
    columns += [np.array([row[1][k] for row in rows]) for k in range(3)]
    cleared, touching = _pair_verdicts(*columns, placed, margin)
    assert cleared.shape == touching.shape == (len(rows), len(placed))
    for (c, h, y), row_cleared, row_touching in zip(rows, cleared, touching):
        box = OrientedBox3(c, h, y)
        for other, pair_cleared, pair_touching in zip(placed, row_cleared, row_touching):
            clear = obb_distance(box, other) > margin
            if pair_cleared:
                assert clear
            if pair_touching:
                assert not clear


def test_draws_read_the_stream_of_scalar_uniform_draws():
    # more doubles than one refill holds, so reads cross refills
    intr = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
    draws = _Draws(np.random.default_rng(17), PARAMS, intr)
    rng = np.random.default_rng(17)
    bounds = [(0.0, 2.0 * math.pi), (1.6, 2.6), (-0.7, 0.3)] * 400
    assert [draws.uniform(lo, hi) for lo, hi in bounds] == [
        rng.uniform(lo, hi) for lo, hi in bounds
    ]


# ---------------------------------------------------------------------------
# The scalar scene sampler the block sampler replaced, kept as its reference.
# It draws every field with its own rng.uniform call and accepts an attempt
# by the exact definition, obb_distance above the margin to every placed box;
# `paths` counts the early rejections and the objects that ran out of
# attempts.
# ---------------------------------------------------------------------------


def _reference_look_at(center, target) -> Pose:
    """The look-at pose, its norms and -R c written out as left-to-right sums.

    No BLAS product enters, so the reference and the sampler agree under
    every OpenBLAS kernel.
    """
    c = [float(x) for x in center]
    forward = [float(t) - x for t, x in zip(target, c)]
    norm = math.sqrt(0.0 + forward[0] * forward[0] + forward[1] * forward[1] + forward[2] * forward[2])
    if norm < 1e-9:
        raise ValueError("camera center coincides with the look-at target")
    z = [f / norm for f in forward]
    lateral = np.cross(z, WORLD_UP).tolist()
    norm = math.sqrt(0.0 + lateral[0] * lateral[0] + lateral[1] * lateral[1] + lateral[2] * lateral[2])
    if norm < 1e-9:
        lateral, norm = [1.0, 0.0, 0.0], 1.0
    x = [a / norm for a in lateral]
    rotation = [x, np.cross(z, x).tolist(), z]
    return Pose(rotation, [-(r[0] * c[0] + r[1] * c[1] + r[2] * c[2]) for r in rotation])


def _reference_fov_lateral_cap(intr: CameraIntrinsics, z: float) -> float:
    half_u = z * (intr.width / 2) / intr.fx
    half_v = z * (intr.height / 2) / intr.fy
    return 0.8 * min(half_u, half_v)


def _reference_generate_scene(params: SceneParams, seed: int, paths) -> Scene:
    rng = np.random.default_rng(seed)
    fx, fy, cx, cy, width, height = params.intrinsics
    intr = CameraIntrinsics(fx, fy, cx, cy, int(width), int(height))

    n_objects = int(rng.integers(params.object_count[0], params.object_count[1] + 1))
    n_views = int(rng.integers(params.view_count[0], params.view_count[1] + 1))
    labels = [str(x) for x in rng.choice(params.labels, size=n_objects, replace=False)]

    for _ in range(params.max_attempts):
        boxes = []
        ok = True
        for _ in range(n_objects):
            placed = False
            for _ in range(params.max_attempts):
                half = tuple(
                    rng.uniform(
                        params.min_half_extent, params.max_half_extent, size=3
                    ).tolist()
                )
                zmin = rng.uniform(params.hover_range[0], params.hover_range[1])
                cz = zmin + half[2]
                cap = min(
                    _reference_fov_lateral_cap(intr, max(cz, 1e-6)) - max(half[0], half[1]),
                    params.room_extent[0] / 2,
                    params.room_extent[1] / 2,
                )
                if cap <= 0:
                    paths["cap"] += 1
                    continue
                cx_w = rng.uniform(-cap, cap)
                cy_w = rng.uniform(-cap, cap)
                if cz + half[2] > params.hover_range[1] + params.room_extent[2]:
                    paths["tall"] += 1
                    continue
                yaw = rng.uniform(-math.pi, math.pi)
                box = OrientedBox3((cx_w, cy_w, cz), half, yaw)
                if all(obb_distance(box, o) > params.placement_margin for o in boxes):
                    boxes.append(box)
                    placed = True
                    break
            if not placed:
                paths["exhausted"] += 1
                ok = False
                break
        if not ok:
            continue

        objects = tuple(
            ObjectNode(id=i, label=labels[i], box3=boxes[i]) for i in range(n_objects)
        )
        pivot = np.mean([b.center for b in boxes], axis=0)
        views = [Pose.identity()]
        for _ in range(n_views - 1):
            azimuth = rng.uniform(0.0, 2.0 * math.pi)
            radius = rng.uniform(*params.orbit_radius)
            cam_z = pivot[2] + rng.uniform(*params.orbit_height)
            center = np.array(
                [
                    pivot[0] + radius * math.cos(azimuth),
                    pivot[1] + radius * math.sin(azimuth),
                    cam_z,
                ]
            )
            views.append(_reference_look_at(center, pivot))

        scene = Scene(intr, views, objects, floor_z=0.0)
        if all(
            any(scene.project_box(obj, v) is not None for v in range(n_views))
            for obj in objects
        ):
            return scene
    raise PlacementFailure(f"could not place {n_objects} objects after retries")


def _scene_or_failure(sample, *args):
    try:
        return json.dumps(sample(*args).to_dict())
    except PlacementFailure as exc:
        return f"PlacementFailure: {exc}"


@pytest.mark.parametrize(
    "fields, path",
    [
        ({}, None),
        # half extents past the lateral cap: attempts that read 4 doubles
        ({"object_count": (1, 3), "view_count": (1, 2), "max_half_extent": 0.6}, "cap"),
        # a 0.1 m tall room: attempts that read 6 doubles
        ({"object_count": (2, 3), "view_count": (1, 2), "room_extent": (2.4, 2.4, 0.1)}, "tall"),
        # objects that run out of attempts, and scenes that fail on both sides
        ({"view_count": (1, 2), "max_attempts": 8}, "exhausted"),
    ],
    ids=["defaults", "wide", "flat", "few_attempts"],
)
def test_block_sampler_draws_the_scalar_scenes(fields, path):
    params = SceneParams(**fields)
    paths = collections.Counter()
    failures = 0
    for seed in range(2000):
        expected = _scene_or_failure(_reference_generate_scene, params, seed, paths)
        assert _scene_or_failure(generate_scene, params, seed) == expected, seed
        failures += expected.startswith("PlacementFailure")
    if path is not None:
        assert paths[path] > 0
    if path == "exhausted":
        assert failures > 0


class TestTemplates:
    def test_family_format_compat(self):
        with pytest.raises(ValueError):
            Template("object_size", output_format="choice")
        with pytest.raises(ValueError):
            Template("object_size", image_config="multi_view")
        with pytest.raises(ValueError):
            Template("relative_camera_pose", image_config="single_view")
        assert Template("relative_camera_pose").output_format == "choice"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Template("sudoku")

    def test_family_table_is_consistent(self):
        # the record order, the allocation and so the dataset bytes follow
        # this order
        assert FAMILIES == (
            "object_size",
            "inter_object_distance",
            "spatial_layout_mcq",
            "object_depth",
            "relative_camera_pose",
            "point_3d_target",
            "pixel_2d_target",
            "metric_offset_placement",
        )
        assert set(QUESTION_BANK) == {
            (family, fmt) for family, entry in _FAMILIES.items() for fmt in entry[1]
        }
        assert set(THOUGHT_BANK) == set(FAMILIES)


def _box(center, half=(0.2, 0.2, 0.2), yaw=0.0):
    return OrientedBox3(tuple(center), tuple(half), yaw)


_DUALS = {"left_of": "right_of", "right_of": "left_of", "above": "below", "below": "above"}


class TestSpatialRelations:
    def test_directly_above(self):
        below = _box((0.0, 0.0, 1.0))
        above = _box((0.0, 0.0, 1.6))  # bottom 1.4 >= top 1.2
        pose = Pose.identity()
        assert spatial_relation(above, below, pose, "above")
        assert spatial_relation(below, above, pose, "below")
        assert not spatial_relation(above, below, pose, "left_of")

    def test_touching_counts_as_above(self):
        below = _box((0.0, 0.0, 1.0))
        stacked = _box((0.0, 0.0, 1.4))
        assert spatial_relation(stacked, below, Pose.identity(), "above")

    def test_irreflexive(self):
        box = _box((0.3, 0.1, 1.1), yaw=0.3)
        pose = Pose.identity()
        for relation in _DUALS:
            assert not spatial_relation(box, box, pose, relation)

    def test_left_right_in_camera_frame(self):
        # camera at origin looking +Z; smaller camera x is left
        left = _box((-0.6, 0.0, 2.0))
        right = _box((0.6, 0.0, 2.0))
        pose = Pose.identity()
        assert spatial_relation(left, right, pose, "left_of")
        assert spatial_relation(right, left, pose, "right_of")
        assert not spatial_relation(left, right, pose, "right_of")

    def test_margin_suppresses_near_ties(self):
        a = _box((0.0, 0.0, 2.0))
        pose = Pose.identity()
        # within the projected half sum (0.4): neither relation holds
        b = _box((0.39, 0.0, 2.0))
        assert not spatial_relation(a, b, pose, "left_of")
        assert not spatial_relation(b, a, pose, "right_of")
        c = _box((0.45, 0.0, 2.0))
        assert spatial_relation(a, c, pose, "left_of")
        # the 2 cm hysteresis floor applies to thin boxes
        thin_a = _box((0.0, 0.0, 2.0), half=(0.001, 0.001, 0.001))
        thin_b = _box((0.015, 0.0, 2.0), half=(0.001, 0.001, 0.001))
        assert not spatial_relation(thin_a, thin_b, pose, "left_of")

    def test_duality_randomized(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            a = random_box(rng, center_span=1.5)
            b = random_box(rng, center_span=1.5)
            pose = random_pose(rng)
            for relation, dual in _DUALS.items():
                assert spatial_relation(a, b, pose, relation) == spatial_relation(
                    b, a, pose, dual
                )


def test_lateral_pairs_match_the_relation_predicate():
    """The per-view table decides each pair as spatial_relation does."""
    rng = np.random.default_rng(62)
    cases = [
        (
            random_pose(rng),
            [ObjectNode(i, str(i), random_box(rng, center_span=1.5, max_half=0.3)) for i in range(6)],
        )
        for _ in range(20)
    ]
    # ties at the margin: neighbours along the camera x axis by exactly the half sum
    ties = [ObjectNode(i, str(i), _box((0.4 * i, 0.0, 2.0))) for i in range(4)]
    cases.append((Pose.identity(), ties + [ObjectNode(4, "4", _box((0.41, 0.0, 2.0)))]))
    for pose, objects in cases:
        expected = [
            (a, b)
            for a in objects
            for b in objects
            if a.id != b.id
            and (
                spatial_relation(a.box3, b.box3, pose, "left_of")
                or spatial_relation(a.box3, b.box3, pose, "right_of")
            )
        ]
        assert tiger.generator._lateral_pairs(objects, pose) == expected
    assert tiger.generator._lateral_pairs([], Pose.identity()) == []


class TestRegionContains:
    def test_floor_clearance_and_relation(self):
        anchor = _box((0.0, 0.0, 1.0), half=(0.3, 0.3, 0.2))  # bottom at 0.8
        pose = Pose.identity()
        assert region_contains((0.0, 0.0, 0.5), anchor, "below", pose, 0.05, 0.3)
        # on the floor
        assert not region_contains((0.0, 0.0, 0.3), anchor, "below", pose, 0.05, 0.3)
        # nearer the anchor than the clearance
        assert not region_contains((0.0, 0.0, 0.77), anchor, "below", pose, 0.05)
        # clear of the anchor, but in another region
        assert not region_contains((0.0, 0.0, 1.5), anchor, "below", pose, 0.05)
        assert region_contains((0.0, 0.0, 1.5), anchor, "above", pose, 0.05)
        assert region_contains((-1.0, 0.0, 1.0), anchor, "left_of", pose, 0.05)


class TestInstantiate:
    def test_inter_object_distance_two_cubes(self):
        # hand-built scene: unit cubes 3 m apart -> answer exactly 2 m
        from tiger.geometry import CameraIntrinsics, OrientedBox3, Pose
        from tiger.scene import ObjectNode

        k = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, 640, 480)
        scene = Scene(
            k,
            [Pose.identity()],
            [
                ObjectNode(0, "box", OrientedBox3((-1.5, 0.0, 4.0), (0.5, 0.5, 0.5), 0.0)),
                ObjectNode(1, "chair", OrientedBox3((1.5, 0.0, 4.0), (0.5, 0.5, 0.5), 0.0)),
            ],
            floor_z=0.0,
        )
        sample = instantiate(Template("inter_object_distance"), scene, 5)
        assert sample.answer == Scalar(2.0, "m")

    def test_distance_answer_matches_obb_distance(self):
        produced = 0
        for seed in range(12):
            scene = generate_scene(PARAMS, seed)
            try:
                sample = instantiate(Template("inter_object_distance"), scene, seed)
            except InsufficientScene:
                continue
            trajectory = parse_trajectory(sample.trajectory_text)
            labels = [c.arg("label").text for c in trajectory.calls[:2]]
            boxes = [
                next(o for o in scene.objects if o.label == label).box3
                for label in labels
            ]
            assert abs(sample.answer.value - obb_distance(*boxes)) < 1e-9
            produced += 1
        assert produced >= 8

    def test_relative_camera_pose_choice_matches_orbit(self):
        for seed in range(25):
            scene = generate_scene(SceneParams(view_count=(3, 4)), seed)
            try:
                sample = instantiate(Template("relative_camera_pose"), scene, seed)
            except InsufficientScene:
                continue
            i, j = sample.views
            pivot = np.mean([o.box3.center for o in scene.objects], axis=0)
            direction, _ = relative_camera_motion(scene.views[i], scene.views[j], pivot)
            expected = Choice("B" if direction is OrbitDirection.RIGHT else "A")
            assert sample.answer == expected

    def test_point_target_satisfies_region(self):
        produced = 0
        for seed in range(15):
            scene = generate_scene(PARAMS, seed)
            try:
                sample = instantiate(Template("point_3d_target"), scene, seed)
            except InsufficientScene:
                continue
            assert isinstance(sample.answer, Point3)
            produced += 1
        assert produced >= 10

    def test_pixel_target_reprojects_below_anchor(self):
        produced = 0
        for seed in range(15):
            scene = generate_scene(PARAMS, seed)
            try:
                sample = instantiate(Template("pixel_2d_target"), scene, seed)
            except InsufficientScene:
                continue
            assert isinstance(sample.answer, ValueList)
            trajectory = parse_trajectory(sample.trajectory_text)
            view = sample.views[0]
            # the projected 3D point is the final point_3d_to_point_2d argument
            point_arg = trajectory.calls[-1].arg("point")
            label = trajectory.calls[0].arg("label").text
            anchor = next(o for o in scene.objects if o.label == label).box3
            assert region_contains(
                (point_arg.x, point_arg.y, point_arg.z),
                anchor,
                "below",
                scene.views[view],
                0.05,
                scene.floor_z,
            )
            produced += 1
        assert produced >= 10

    def test_metric_offset_distance_in_interval(self):
        produced = 0
        for seed in range(15):
            scene = generate_scene(PARAMS, seed)
            try:
                sample = instantiate(Template("metric_offset_placement"), scene, seed)
            except InsufficientScene:
                continue
            trajectory = parse_trajectory(sample.trajectory_text)
            label = trajectory.calls[0].arg("label").text
            anchor = next(o for o in scene.objects if o.label == label).box3
            answer = sample.answer
            dist = float(
                np.linalg.norm(np.array([answer.x, answer.y, answer.z]) - anchor.center)
            )
            offset = float(sample.question.split(" m ")[0].split()[-1])
            assert check_interval(dist, offset - 0.05, offset + 0.05)
            produced += 1
        assert produced >= 10

    def test_every_family_self_scores_one(self):
        for family in FAMILIES:
            done = 0
            for seed in range(12):
                try:
                    scene = generate_scene(PARAMS, derive_seed(99, family, seed))
                    sample = instantiate(Template(family), scene, seed)
                except InsufficientScene:
                    continue
                gt = parse_trajectory(sample.trajectory_text)
                breakdown = score_trajectory(gt, gt, sample.scene)
                assert breakdown.composite == 1.0, family
                done += 1
                if done >= 3:
                    break
            assert done >= 1, f"no {family} samples produced"


def test_each_plan_binds_only_its_own_results():
    scene = generate_scene(PARAMS, 3)
    ctx = ExecutionContext(scene, "oracle")
    extrinsics = ToolCall("camera_extrinsics", (("view", Scalar(0.0)),))
    echo_r2 = ToolCall("code_executor", (("program", Text("r2")),))
    (pose, _, echoed) = tiger.generator._run_plan(ctx, [extrinsics, extrinsics, echo_r2])
    assert echoed == pose
    with pytest.raises(DslError):
        tiger.generator._run_plan(ctx, [echo_r2])  # r2 is not bound in this plan


def test_instantiate_casts_each_lookup_once(monkeypatch):
    """The checked lookup, every plan of the retry loop and the replay audit
    share one cast."""
    executed, casts = [], []
    real_execute, real_cast = tiger.runtime.execute_tool, tiger.runtime.cast_rays

    def execute(ctx, call):
        executed.append(call)
        return real_execute(ctx, call)

    def cast(*args, **kwargs):
        casts.append(args[1])
        return real_cast(*args, **kwargs)

    monkeypatch.setattr(tiger.runtime, "execute_tool", execute)
    monkeypatch.setattr(tiger.runtime, "cast_rays", cast)
    produced = 0
    for seed in range(15):
        executed.clear()
        casts.clear()
        scene = generate_scene(PARAMS, seed)
        try:
            sample = instantiate(Template("point_3d_target"), scene, seed)
        except InsufficientScene:
            continue
        lookups = [c for c in executed if c.name == "box_2d_to_box_3d"]
        assert len(lookups) == len(set(lookups)) == len(casts)
        assert parse_trajectory(sample.trajectory_text).calls[0] in lookups
        produced += 1
    assert produced >= 10


def _audit(sample):
    """self_check in a fresh context, which recomputes every result."""
    return self_check(sample, ExecutionContext(sample.scene, "oracle"))


class TestSelfCheck:
    def _sample(self, seed=3):
        scene = generate_scene(PARAMS, seed)
        return instantiate(Template("object_size"), scene, seed)

    def test_fresh_sample_passes(self):
        assert _audit(self._sample()) is True

    def test_perturbed_result_fails(self):
        sample = self._sample()
        trajectory = parse_trajectory(sample.trajectory_text)
        # perturb the first stored tool result
        from tiger.trajectory import ObbValue, ToolResult, Trajectory
        from tiger.geometry import OrientedBox3

        steps = list(trajectory.steps)
        for i, step in enumerate(steps):
            if isinstance(step, ToolResult) and isinstance(step.value, ObbValue):
                box = step.value.box
                bad = OrientedBox3(
                    (box.center[0] + 0.01, box.center[1], box.center[2]),
                    box.half_extents,
                    box.yaw,
                )
                steps[i] = ToolResult(ObbValue(bad))
                break
        sample.trajectory_text = render_trajectory(Trajectory(tuple(steps)))
        assert _audit(sample) is False

    def test_flipped_format_tag_fails(self):
        sample = self._sample()
        sample.format = "choice"
        sample.trajectory_text = sample.trajectory_text.replace(
            "<answer format=scalar>", "<answer format=choice>"
        )
        assert _audit(sample) is False

    @pytest.mark.parametrize("edit", ["argument", "binding"])
    def test_warm_cache_still_catches_an_edited_call(self, edit):
        """On a cache holding every result of the trace, an edited call
        argument or program binding still changes a result and fails."""
        seed = 1
        scene = generate_scene(PARAMS, seed)
        sample = instantiate(Template("inter_object_distance"), scene, seed)
        ctx = ExecutionContext(scene, "oracle")
        assert self_check(sample, ctx)  # fills ctx's cache
        calls = parse_trajectory(sample.trajectory_text).calls
        if edit == "argument":  # the first lookup names the second object
            first, second = (render_trajectory(Trajectory((c,))) for c in calls[:2])
            assert first != second
            sample.trajectory_text = sample.trajectory_text.replace(first, second, 1)
        else:
            assert "obb_dist(r1, r2)" in sample.trajectory_text
            sample.trajectory_text = sample.trajectory_text.replace(
                "obb_dist(r1, r2)", "obb_dist(r1, r1)"
            )
        assert self_check(sample, ctx) is False


class TestAllocation:
    def test_largest_remainder(self):
        mix = {"object_size": 0.5, "inter_object_distance": 0.5}
        assert allocate_counts(mix, 1000) == {
            "object_size": 500,
            "inter_object_distance": 500,
        }
        mix = {"object_size": 1 / 3, "inter_object_distance": 1 / 3, "object_depth": 1 / 3}
        counts = allocate_counts(mix, 10)
        assert sum(counts.values()) == 10
        assert sorted(counts.values()) == [3, 3, 4]

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            allocate_counts({"object_size": 0.7}, 10)
        with pytest.raises(ValueError):
            allocate_counts({"sudoku": 1.0}, 10)
        with pytest.raises(ValueError):
            allocate_counts({"object_size": 1.5, "object_depth": -0.5}, 10)
        # NaN passes both a sign test and a sum test; true is not a number
        for ratio in (math.nan, True):
            with pytest.raises(ValueError, match="^mix ratio of object_size must be a non-negative number"):
                allocate_counts({"object_size": ratio}, 10)
        with pytest.raises(ValueError, match="^mix ratio of object_depth must be"):
            allocate_counts({"object_size": 1.0, "object_depth": math.nan}, 10)

    def test_infeasible_mix_fails_fast(self):
        one_view = SceneParams(view_count=(1, 1))
        with pytest.raises(ValueError):
            generate_records(one_view, {"relative_camera_pose": 1.0}, 2, 1)
        one_object = SceneParams(object_count=(1, 1))
        with pytest.raises(ValueError):
            generate_records(one_object, {"inter_object_distance": 1.0}, 2, 1)


class TestDataset:
    def test_determinism_and_manifest(self, tmp_path):
        mix = {"object_size": 0.5, "inter_object_distance": 0.5}
        out = tmp_path / "data.jsonl"
        manifest = generate_dataset(PARAMS, mix, 10, 77, out)
        content = out.read_bytes()
        assert len(content.splitlines()) == 10
        assert manifest["family_counts"] == {"inter_object_distance": 5, "object_size": 5}

        out2 = tmp_path / "again.jsonl"
        manifest2 = generate_dataset(PARAMS, mix, 10, 77, out2)
        assert out2.read_bytes() == content
        assert manifest2["digest"] == manifest["digest"]

        assert regenerate_from_manifest(manifest) == content

    @pytest.mark.byte_pin
    def test_golden_digest(self, tmp_path):
        # Pins the bytes across versions, not just run against run.  A
        # deliberate numeric change updates this value and says why in
        # CHANGES.md.
        manifest = generate_dataset(SceneParams(), DEFAULT_MIX, 64, 7, tmp_path / "g.jsonl")
        assert manifest["digest"] == (
            "sha256:45131fb8be8e65288a7157de28b233666f5b7033e4fc580d8cbdaca93188a9d8"
        )

    def test_records_have_ids_in_order(self, tmp_path):
        lines, _ = generate_records(PARAMS, {"object_depth": 1.0}, 5, 31)
        ids = [json.loads(line)["id"] for line in lines]
        assert ids == list(range(5))

    def test_parallel_jobs_identical(self):
        mix = {"object_size": 0.5, "spatial_layout_mcq": 0.5}
        seq, _ = generate_records(PARAMS, mix, 8, 11, jobs=1)
        par, _ = generate_records(PARAMS, mix, 8, 11, jobs=3)
        assert seq == par

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.0])
    def test_jobs_below_one_or_not_an_integer_refused(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, not {jobs!r}"):
            generate_records(PARAMS, {"object_size": 1.0}, 2, 11, jobs=jobs)

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [(5000, 3, 64, 3), (5000, 16, 2, 2), (2, 16, 64, 2), (4, 16, None, None), (3, 1, 64, None)],
    )
    def test_pool_never_outnumbers_samples_or_cpus(self, monkeypatch, jobs, count, cpus, workers):
        started = []

        class RecordingPool:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(tiger.generator, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        mix = {"object_size": 1.0}
        lines, _ = generate_records(PARAMS, mix, count, 11, jobs=jobs)
        assert started == ([workers] if workers else [])
        assert lines == generate_records(PARAMS, mix, count, 11, jobs=1)[0]

    def test_replay_matches_stored_bytes(self):
        lines, _ = generate_records(PARAMS, DEFAULT_MIX, 16, 5)
        for line in lines:
            record = json.loads(line)
            scene = Scene.from_dict(record["scene"])
            trajectory = parse_trajectory(record["trajectory"])
            filled = run_trajectory(ExecutionContext(scene, "oracle"), trajectory)
            assert render_trajectory(filled) == record["trajectory"]

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
