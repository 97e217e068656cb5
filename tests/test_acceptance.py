"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tiger.generator import (
    DEFAULT_MIX,
    FAMILIES,
    SceneParams,
    generate_dataset,
    regenerate_from_manifest,
)
from tiger.geometry import (
    CameraIntrinsics,
    OrbitDirection,
    OrientedBox3,
    Pose,
    obb_distance,
    project,
    relative_camera_motion,
    unproject,
)
from tiger.minidsl import BUILTINS, EvalLimits, evaluate, parse_program, run
from tiger.rewards import (
    GrpoBatch,
    RewardConfig,
    check_interval,
    evaluate_delta2,
    grpo_advantages,
    grpo_objective,
    score_answer,
    score_param,
    score_trajectory,
)
from tiger.runtime import ExecutionContext, execute_tool, run_trajectory
from tiger.scene import ObjectNode, Scene
from tiger.trajectory import (
    Box2Value,
    Scalar,
    ToolCall,
    TrajectoryError,
    parse_trajectory,
    render_trajectory,
)

from conftest import look_at, random_box, sampled_box_distance, sampling_resolution

DATASET_SIZE = 1000


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """1000 generated samples plus the wall-clock cost of each pipeline stage."""
    out = tmp_path_factory.mktemp("acceptance") / "data.jsonl"
    timings = {}

    started = time.monotonic()
    manifest = generate_dataset(SceneParams(), DEFAULT_MIX, DATASET_SIZE, 20240817, out)
    timings["generate"] = time.monotonic() - started

    records = [json.loads(line) for line in out.read_text().splitlines()]

    started = time.monotonic()
    replays = []
    for record in records:
        scene = Scene.from_dict(record["scene"])
        trajectory = parse_trajectory(record["trajectory"])
        filled = run_trajectory(ExecutionContext(scene, "oracle"), trajectory)
        replays.append(render_trajectory(filled) == record["trajectory"])
    timings["replay"] = time.monotonic() - started

    started = time.monotonic()
    composites = []
    for record in records:
        scene = Scene.from_dict(record["scene"])
        gt = parse_trajectory(record["trajectory"])
        composites.append(score_trajectory(gt, gt, scene).composite)
    timings["score"] = time.monotonic() - started

    return {
        "path": out,
        "manifest": manifest,
        "records": records,
        "replays": replays,
        "composites": composites,
        "timings": timings,
    }


def test_projection_round_trip():
    with criterion("projection round trip: 1e5 draws, max error < 1e-9 px, < 5 s"):
        intr = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
        rng = np.random.default_rng(1)
        n = 100_000
        started = time.monotonic()
        u = rng.uniform(0.0, intr.width, size=n)
        v = rng.uniform(0.0, intr.height, size=n)
        d = rng.uniform(0.01, 50.0, size=n)
        identity = Pose.identity()
        err = 0.0
        for p, ui, vi in zip(unproject(u, v, d, intr), u, v):
            ip = project(p, intr, identity)
            err = max(err, abs(ip.u - ui), abs(ip.v - vi))
        elapsed = time.monotonic() - started
        print(f"  max round-trip error {err:.2e} px in {elapsed:.2f}s")
        assert err < 1e-9
        assert elapsed < 5.0


def test_obb_distance_oracle():
    with criterion("obb distance: 1000 pairs vs dense surface sampling"):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            a = random_box(rng)
            if trial % 10 == 0:
                assert obb_distance(a, a) == 0.0  # identical boxes, exactly
            b = random_box(rng)
            analytic = obb_distance(a, b)
            sampled = sampled_box_distance(a, b)
            res = max(sampling_resolution(a), sampling_resolution(b))
            assert analytic <= sampled + 1e-9
            assert sampled - analytic <= 2.0 * res


def test_camera_motion_classification():
    with criterion("camera motion: 500 constructed orbits, 100% correct labels"):
        rng = np.random.default_rng(3)
        correct = 0
        for _ in range(500):
            pivot = rng.uniform(-1.0, 1.0, size=3)
            radius = rng.uniform(0.4, 3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            delta = float(rng.uniform(0.005, math.pi - 0.005) * rng.choice([-1.0, 1.0]))
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
            # counter-clockwise from above is "right", clockwise is "left"
            expected = OrbitDirection.RIGHT if delta > 0 else OrbitDirection.LEFT
            if direction is expected and abs(angle - delta) < 1e-9:
                correct += 1
        print(f"  {correct}/500 orbit pairs classified correctly")
        assert correct == 500


def test_reward_formula_anchors(dataset):
    with criterion("reward anchors: exp kernels at ln2/scale, self-score exactly 1.0"):
        cfg = RewardConfig()
        stem = "<think>x</think>"

        def trace(body, answer="<answer format=scalar>1m</answer>"):
            return parse_trajectory(stem + body + answer)

        # r_param: two-parameter call (discrete view + continuous point);
        # zero error -> 1, point off by ln2/alpha -> (1 + 0.5) / 2
        gt = trace("<tool_call>point_3d_to_point_2d(view=0, point=(0, 0, 2))</tool_call>")
        assert score_param(gt, gt, cfg) == 1.0
        delta = math.log(2.0) / cfg.alpha
        pred = trace(
            f"<tool_call>point_3d_to_point_2d(view=0, point=({delta!r}, 0, 2))</tool_call>"
        )
        contribution = 2.0 * score_param(pred, gt, cfg) - 1.0
        assert abs(contribution - 0.5) < 1e-12

        # r_answer: scalar off by ln2/gamma -> 0.5; identical -> 1
        gt_ans = trace("", "<answer format=scalar>1m</answer>")
        assert score_answer(gt_ans, gt_ans, cfg) == 1.0
        shift = 1.0 + math.log(2.0) / cfg.gamma
        pred_ans = trace("", f"<answer format=scalar>{shift!r}m</answer>")
        assert abs(score_answer(pred_ans, gt_ans, cfg) - 0.5) < 1e-12

        # composite of every generated ground truth against itself == 1.0
        composites = dataset["composites"]
        assert len(composites) == DATASET_SIZE
        perfect = sum(1 for c in composites if c == 1.0)
        print(f"  {perfect}/{DATASET_SIZE} self-scored composites equal 1.0 exactly")
        assert perfect == DATASET_SIZE


def test_grpo_math():
    with criterion("grpo: advantage normalization and clip arithmetic"):
        rng = np.random.default_rng(4)
        for _ in range(200):
            rewards = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 128)))
            if np.all(rewards == rewards[0]):
                continue
            adv = grpo_advantages(rewards)
            assert abs(float(adv.mean())) < 1e-12
            assert abs(float(adv.std()) - 1.0) < 1e-9

        batch = GrpoBatch(rewards=(0.0,), ratios=(2.0,), kls=(0.0,), clip_eps=0.2)
        assert abs(grpo_objective(batch, [1.0]) - (-1.2)) < 1e-12
        assert abs(grpo_objective(batch, [-1.0]) - 2.0) < 1e-12

        rewards = rng.uniform(0.0, 1.0, size=32)
        unit = GrpoBatch(
            rewards=tuple(rewards), ratios=(1.0,) * 32, kls=(0.0,) * 32, kl_coef=0.0
        )
        assert abs(grpo_objective(unit, grpo_advantages(rewards))) < 1e-12


def test_delta2_and_interval_metrics():
    with criterion("delta2 / interval: boundary-inclusive checks"):
        for gt in (0.2, 1.0, 7.5):
            assert evaluate_delta2(0.5 * gt, gt)
            assert evaluate_delta2(2.0 * gt, gt)
            assert evaluate_delta2(gt, gt)
            assert not evaluate_delta2(0.49 * gt, gt)
            assert not evaluate_delta2(2.01 * gt, gt)
        assert check_interval(0.05, 0.05, 0.15)
        assert check_interval(0.15, 0.05, 0.15)
        assert check_interval(0.10, 0.05, 0.15)
        assert not check_interval(0.049, 0.05, 0.15)
        assert not check_interval(0.151, 0.05, 0.15)


def test_dataset_self_consistency(dataset):
    with criterion(
        "dataset loop: 1000 samples replay byte-identically, score 1.0, < 60 s"
    ):
        timings = dataset["timings"]
        total = timings["generate"] + timings["replay"] + timings["score"]
        replay_ok = sum(dataset["replays"])
        perfect = sum(1 for c in dataset["composites"] if c == 1.0)
        print(
            f"  generate {timings['generate']:.1f}s, replay {timings['replay']:.1f}s,"
            f" score {timings['score']:.1f}s (total {total:.1f}s)"
        )
        print(f"  byte-identical replays: {replay_ok}/{DATASET_SIZE}")
        print(f"  composite == 1.0: {perfect}/{DATASET_SIZE}")
        assert replay_ok == DATASET_SIZE
        assert perfect == DATASET_SIZE
        assert total < 60.0

        regenerated = regenerate_from_manifest(dataset["manifest"])
        assert regenerated == dataset["path"].read_bytes()


class _NoCache(dict):
    """A tool cache that keeps nothing, so every call is computed afresh."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.byte_pin
class TestToolPurity:
    """Every tool is a pure function of (scene, mode, call).

    Generation audits each record by replaying it on the cache its plans
    filled, so a cache that returned a wrong value for an equal key, or
    mistook one call for another, would pass that audit; it fails here.
    """

    @staticmethod
    def _replay(scene, trajectory, mode, cache):
        ctx = ExecutionContext(scene, mode, cache=cache)
        return render_trajectory(run_trajectory(ctx, trajectory))

    def test_a_cache_changes_no_byte(self, dataset):
        with criterion("tool purity: uncached and cached replays alike in both modes"):
            started = time.monotonic()
            families = set()
            for record in dataset["records"]:
                scene = Scene.from_dict(record["scene"])
                trajectory = parse_trajectory(record["trajectory"])
                uncached = {
                    mode: self._replay(scene, trajectory, mode, _NoCache())
                    for mode in ("oracle", "fitted")
                }
                assert uncached["oracle"] == record["trajectory"]
                # one cache over both modes: empty for the oracle run, holding
                # the oracle results for the fitted run, then both modes' results
                shared = {}
                for mode in ("oracle", "fitted", "oracle", "fitted"):
                    assert self._replay(scene, trajectory, mode, shared) == uncached[mode]
                families.add(record["family"])
            print(f"  {DATASET_SIZE} records, {len(families)} families, "
                  f"{time.monotonic() - started:.1f}s")
            assert families == set(FAMILIES)


def test_parser_totality(dataset):
    with criterion("parser totality: 1e5 fuzz cases, round trip on all samples"):
        rng = np.random.default_rng(5)
        fragments = (
            b"<think>", b"</think>", b"<tool_call>", b"</tool_call>",
            b"<tool_response>", b"</tool_response>", b"<answer format=", b"</answer>",
            b"(", b")", b"[", b"]", b"=", b",", b'"', b"1.5", b"B", b"px(", b"obb(",
        )
        for case in range(100_000):
            if case % 2 == 0:
                blob = rng.integers(0, 256, size=int(rng.integers(0, 48))).astype(
                    np.uint8
                ).tobytes()
            else:
                parts = [
                    fragments[int(rng.integers(len(fragments)))]
                    for _ in range(int(rng.integers(0, 6)))
                ]
                filler = rng.integers(32, 127, size=int(rng.integers(0, 8))).astype(
                    np.uint8
                ).tobytes()
                blob = filler.join(parts)
            text = blob.decode("latin-1")
            try:
                parse_trajectory(text)
            except TrajectoryError as exc:
                assert 0 <= exc.offset <= len(text)

        for record in dataset["records"]:
            t = parse_trajectory(record["trajectory"])
            assert parse_trajectory(render_trajectory(t)) == t


def test_minidsl_sandbox(dataset):
    with criterion("minidsl: audited builtins, AST-bounded halting, norm anchor"):
        audited = {
            "norm", "dot", "cross", "matmul", "transpose", "inv3", "inv_pose",
            "rotz", "abs", "min", "max", "clamp", "sqrt", "sign", "atan2",
            "obb_dist", "obb_center", "obb_half", "obb_yaw",
            "project_point", "unproject_point", "vec", "vec_get", "mat_get",
            "argmin",
        }
        assert set(BUILTINS) == audited
        for name in BUILTINS:
            for fragment in ("open", "read", "write", "import", "exec", "time",
                             "clock", "rand", "input", "socket", "env"):
                assert fragment not in name.lower()

        assert run("norm(vec(3, 4, 0))") == 5.0

        # every generator-emitted program parses and halts within its AST size
        box = OrientedBox3((0.0, 0.0, 1.0), (0.2, 0.3, 0.4), 0.3)
        pose = Pose.identity().matrix4()
        bindings = {"r1": box, "r2": pose, "r3": pose}
        programs = set()
        for record in dataset["records"]:
            t = parse_trajectory(record["trajectory"])
            for call in t.calls:
                if call.name == "code_executor":
                    programs.add(call.arg("program").text)
        assert programs
        checked = 0
        for source in programs:
            program = parse_program(source, known=("r1", "r2", "r3"))
            budget = EvalLimits(max_steps=program.node_count())
            try:
                evaluate(program, bindings, budget)
            except Exception as exc:  # must halt, not hang; value errors are fine
                assert not isinstance(exc, RecursionError)
            checked += 1
        print(f"  {checked} distinct generated programs parse and halt in budget")


def test_fitted_box_lifting():
    with criterion("fitted lifting: 200 boxes, yaw < 5 deg (mod 90), extents < 15%"):
        intr = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
        rng = np.random.default_rng(6)
        worst_yaw = 0.0
        worst_extent = 0.0
        for _ in range(200):
            hx = rng.uniform(0.12, 0.3)
            hy = hx * rng.uniform(1.35, 2.2)
            if rng.random() < 0.5:
                hx, hy = hy, hx
            box = OrientedBox3(
                (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.2)),
                (hx, hy, rng.uniform(0.1, 0.3)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            # fronto-parallel: the camera faces one box side squarely, elevated
            azimuth = box.yaw + int(rng.integers(4)) * math.pi / 2
            elevation = rng.uniform(math.radians(50), math.radians(70))
            distance = rng.uniform(1.8, 2.6)
            cam = np.asarray(box.center) + distance * np.array(
                [
                    math.cos(azimuth) * math.cos(elevation),
                    math.sin(azimuth) * math.cos(elevation),
                    math.sin(elevation),
                ]
            )
            scene = Scene(
                intr,
                [Pose.identity(), look_at(cam, box.center)],
                [ObjectNode(0, "box", box)],
                floor_z=0.0,
            )
            box2 = scene.project_box(scene.objects[0], 1)
            assert box2 is not None
            call = ToolCall("box_2d_to_box_3d", (("view", Scalar(1.0)), ("box", Box2Value(box2))))

            oracle = execute_tool(ExecutionContext(scene, "oracle"), call)
            assert oracle.box == box  # bit-equal ground truth

            fitted = execute_tool(ExecutionContext(scene, "fitted"), call).box
            yaw_err = abs(fitted.canonical().yaw - box.canonical().yaw) % (math.pi / 2)
            yaw_err = min(yaw_err, math.pi / 2 - yaw_err)
            worst_yaw = max(worst_yaw, math.degrees(yaw_err))
            for gt_h, fit_h in zip(
                sorted(box.half_extents[:2]), sorted(fitted.half_extents[:2])
            ):
                worst_extent = max(worst_extent, abs(fit_h - gt_h) / gt_h)
        print(f"  worst yaw error {worst_yaw:.3f} deg, worst extent error {worst_extent:.3%}")
        assert worst_yaw < 5.0
        assert worst_extent < 0.15
