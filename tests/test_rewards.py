import json
import math

import numpy as np
import pytest

from tiger.geometry import CameraIntrinsics, OrientedBox3, Pose
from tiger.rewards import (
    GrpoBatch,
    NonPositiveGroundTruth,
    RewardConfig,
    check_interval,
    composite_reward,
    evaluate_delta2,
    grpo_advantages,
    grpo_objective,
    score_answer,
    score_format,
    score_param,
    score_tool,
    score_trajectory,
    sft_loss,
)
from tiger.scene import ObjectNode, Scene
from tiger.trajectory import parse_trajectory

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


@pytest.fixture
def scene():
    objects = [
        ObjectNode(0, "crate", OrientedBox3((0.0, 0.0, 2.5), (0.4, 0.4, 0.5), 0.0)),
        ObjectNode(1, "mug", OrientedBox3((1.2, 0.1, 2.0), (0.1, 0.1, 0.15), 0.3)),
    ]
    return Scene(K, [Pose.identity()], objects, floor_z=-3.0)


def trace(body, answer="<answer format=scalar>1m</answer>"):
    return parse_trajectory("<think>x</think>" + body + answer)


GT_BODY = (
    '<tool_call>box_2d_to_box_3d(view=0, label="crate")</tool_call>'
    "<tool_response>obb(center=(0, 0, 2.5), half=(0.4, 0.4, 0.5), yaw=0)</tool_response>"
    '<tool_call>code_executor(program="2 * vec_get(obb_half(r1), 2)", uses=["r1"])</tool_call>'
    "<tool_response>1</tool_response>"
)


class TestScoreFormat:
    def test_wellformed(self):
        assert score_format(trace(GT_BODY)) == 1.0

    def test_mismatched_answer_tag(self):
        assert score_format(trace(GT_BODY, "<answer format=scalar>B</answer>")) == 0.0

    def test_out_of_range_point(self):
        body = "<tool_call>depth_sensor(view=0, point=(1.2, 0.5))</tool_call>"
        assert score_format(trace(body)) == 0.0


class TestScoreTool:
    def test_all_valid(self):
        assert score_tool(trace(GT_BODY)) == 1.0

    def test_half_bad(self):
        body = (
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<tool_call>warp_drive(view=0)</tool_call>"
        )
        assert score_tool(trace(body)) == 0.5

    def test_missing_required_argument(self):
        body = "<tool_call>camera_intrinsics()</tool_call>"
        assert score_tool(trace(body)) == 0.0

    def test_product_mode(self):
        cfg = RewardConfig(tool_mode="product")
        body = (
            "<tool_call>camera_intrinsics(view=0)</tool_call>"
            "<tool_call>warp_drive(view=0)</tool_call>"
        )
        assert score_tool(trace(body), cfg=cfg) == 0.0

    def test_zero_call_cases(self):
        empty = trace("")
        assert score_tool(empty, gt=empty) == 1.0
        assert score_tool(empty, gt=trace(GT_BODY)) == 0.0


class TestScoreParam:
    def test_identical_is_one(self):
        gt = trace(GT_BODY)
        assert score_param(gt, gt) == 1.0

    def test_continuous_half_at_ln2_over_alpha(self):
        cfg = RewardConfig(alpha=1.0)
        delta = math.log(2.0)
        gt = trace(
            "<tool_call>point_3d_to_point_2d(view=0, point=(0, 0, 2))</tool_call>"
        )
        pred = trace(
            f"<tool_call>point_3d_to_point_2d(view=0, point=({format(delta, '.17g')}, 0, 2))</tool_call>"
        )
        # two params: view matches (1.0), point scores exp(-ln 2) = 0.5
        assert score_param(pred, gt, cfg) == pytest.approx(0.75, abs=1e-12)

    def test_discrete_mismatch(self):
        gt = trace("<tool_call>camera_extrinsics(view=1)</tool_call>")
        pred = trace("<tool_call>camera_extrinsics(view=2)</tool_call>")
        assert score_param(pred, gt) == 0.0

    def test_missing_call_contributes_zero(self):
        gt = trace(
            "<tool_call>camera_extrinsics(view=1)</tool_call>"
            "<tool_call>camera_extrinsics(view=1)</tool_call>"
        )
        pred = trace("<tool_call>camera_extrinsics(view=1)</tool_call>")
        assert score_param(pred, gt) == 0.5

    def test_no_gt_parameters(self):
        gt = trace("")
        assert score_param(trace(""), gt) == 1.0

    def test_monotone_in_parameter_error(self):
        cfg = RewardConfig()
        gt = trace("<tool_call>point_3d_to_point_2d(view=0, point=(0, 0, 2))</tool_call>")
        previous = 1.0
        for err in np.linspace(0.0, 2.0, 17):
            pred = trace(
                f"<tool_call>point_3d_to_point_2d(view=0, point=({format(err, '.17g')}, 0, 2))</tool_call>"
            )
            score = score_param(pred, gt, cfg)
            assert score <= previous + 1e-15
            previous = score
        assert previous < 1.0


class TestScoreCode(object):
    def test_matching_program(self, scene):
        gt = trace(GT_BODY)
        assert score_trajectory(gt, gt, scene).r_code == 1.0

    def test_division_by_zero_scores_zero(self, scene):
        gt = trace(GT_BODY)
        pred_body = GT_BODY.replace(
            '"2 * vec_get(obb_half(r1), 2)"', '"1/0"'
        )
        pred = trace(pred_body)
        assert score_trajectory(pred, gt, scene).r_code == 0.0

    def test_wrong_output_gets_lambda_exec(self, scene):
        gt = trace(GT_BODY)
        pred_body = GT_BODY.replace(
            '"2 * vec_get(obb_half(r1), 2)"', '"3 * vec_get(obb_half(r1), 2)"'
        )
        pred = trace(pred_body)
        assert score_trajectory(pred, gt, scene).r_code == pytest.approx(0.3, abs=1e-12)

    def test_no_code_calls(self, scene):
        empty = trace("<tool_call>camera_intrinsics(view=0)</tool_call>")
        assert score_trajectory(empty, empty, scene).r_code == 1.0
        assert score_trajectory(empty, trace(GT_BODY), scene).r_code == 0.0


class TestScoreAnswer:
    def test_identical_choice(self):
        gt = trace("", "<answer format=choice>B</answer>")
        assert score_answer(gt, gt) == 1.0

    def test_choice_mismatch(self):
        a = trace("", "<answer format=choice>A</answer>")
        b = trace("", "<answer format=choice>B</answer>")
        assert score_answer(a, b) == 0.0

    def test_scalar_half_at_ln2_over_gamma(self):
        cfg = RewardConfig(gamma=2.0)
        delta = math.log(2.0) / 2.0
        gt = trace("", "<answer format=scalar>1m</answer>")
        pred = trace("", f"<answer format=scalar>{format(1.0 + delta, '.17g')}m</answer>")
        assert score_answer(pred, gt, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_format_tags(self):
        a = trace("", "<answer format=scalar>1</answer>")
        b = trace("", "<answer format=choice>A</answer>")
        assert score_answer(a, b) == 0.0

    def test_unit_mismatch_is_zero(self):
        a = trace("", "<answer format=scalar>1</answer>")
        b = trace("", "<answer format=scalar>1m</answer>")
        assert score_answer(a, b) == 0.0

    def test_monotone_in_error(self):
        cfg = RewardConfig()
        gt = trace("", "<answer format=point3>(0, 0, 0)</answer>")
        previous = 1.0
        for err in np.linspace(0.0, 1.0, 11):
            pred = trace("", f"<answer format=point3>({format(err, '.17g')}, 0, 0)</answer>")
            score = score_answer(pred, gt, cfg)
            assert score <= previous + 1e-15
            previous = score


class TestComposite:
    def test_all_ones(self):
        parts = {k: 1.0 for k in ("format", "tool", "param", "code", "answer")}
        assert composite_reward(parts) == 1.0

    def test_all_zeros(self):
        parts = {k: 0.0 for k in ("format", "tool", "param", "code", "answer")}
        assert composite_reward(parts) == 0.0

    def test_equal_weights_arithmetic(self):
        cfg = RewardConfig(weights={k: 0.2 for k in ("format", "tool", "param", "code", "answer")})
        parts = {"format": 1.0, "tool": 1.0, "param": 1.0, "code": 1.0, "answer": 0.0}
        assert composite_reward(parts, cfg) == pytest.approx(0.8, abs=1e-12)

    def test_self_score_is_exactly_one(self, scene):
        gt = trace(GT_BODY)
        breakdown = score_trajectory(gt, gt, scene)
        assert breakdown.composite == 1.0
        assert breakdown.to_dict()["r_answer"] == 1.0

    def test_surplus_valid_call_keeps_param_reward(self, scene):
        # alignment averages over ground-truth parameters, so an extra
        # schema-valid call neither helps nor hurts the process rewards
        gt = trace(GT_BODY)
        pred = trace(
            GT_BODY + "<tool_call>camera_intrinsics(view=0)</tool_call>"
        )
        breakdown = score_trajectory(pred, gt, scene)
        assert breakdown.r_tool == 1.0
        assert breakdown.r_param == 1.0
        assert breakdown.r_code == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(weights={"format": 1.0})
        with pytest.raises(ValueError):
            RewardConfig(weights={"format": 0.5, "tool": 0.2, "param": 0.2, "code": 0.2, "answer": 0.3})
        with pytest.raises(ValueError):
            RewardConfig(lambda_exec=0.5, lambda_out=0.6)
        with pytest.raises(ValueError):
            RewardConfig(alpha=0.0)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "reward.json"
        cfg = RewardConfig(alpha=2.0, gamma=3.0)
        import json

        path.write_text(json.dumps(cfg.to_dict()))
        loaded = RewardConfig.from_file(path)
        assert loaded == cfg


def call(text, response=None):
    """One tool call step, followed by its stored result when given."""
    step = f"<tool_call>{text}</tool_call>"
    return step if response is None else step + f"<tool_response>{response}</tool_response>"


def row(tool, step, schema_ok=True, matched=None, distance=None, error=None):
    return {
        "tool": tool,
        "step_index": step,
        "schema_ok": schema_ok,
        "matched_gt_call": matched,
        "param_distance": distance,
        "error": error,
    }


BOX_GT = "box_2d_to_box_3d(view=0, box=box(200, 200, 440, 300))"

# (ground-truth body, candidate body, diagnostics as the report writes them,
#  r_tool, r_param, r_code); the k-th call of a name pairs with the k-th
# ground-truth call of that name
DIAGNOSTIC_CASES = {
    "matched_surplus_and_missing": (
        call("camera_extrinsics(view=0)")
        + call("point_3d_to_point_2d(view=0, point=(0, 0, 2))")
        + call("point_3d_to_point_2d(view=0, point=(1, 0, 2))"),
        call("point_3d_to_point_2d(view=0, point=(0.5, 0, 2))")
        + call("camera_intrinsics(view=0)")
        + call("camera_extrinsics(view=0)")
        + call("camera_extrinsics(view=0)"),
        [
            row("point_3d_to_point_2d", 1, matched=["point_3d_to_point_2d", 0], distance=0.5),
            row("camera_intrinsics", 2),
            row("camera_extrinsics", 3, matched=["camera_extrinsics", 0]),
            row("camera_extrinsics", 4),
        ],
        1.0,
        (1.0 + 1.0 + math.exp(-2.5)) / 5,
        1.0,
    ),
    "unknown_tool": (
        call("camera_intrinsics(view=0)"),
        call("warp_drive(view=0)") + call("camera_intrinsics(view=0)"),
        [
            row("warp_drive", 1, schema_ok=False, error="unknown tool 'warp_drive'"),
            row("camera_intrinsics", 2, matched=["camera_intrinsics", 0]),
        ],
        0.5,
        1.0,
        1.0,
    ),
    "interleaved_names": (
        call("camera_extrinsics(view=0)") + call(BOX_GT) + call("camera_extrinsics(view=1)"),
        call("box_2d_to_box_3d(view=0, box=box(200, 200, 440, 299.625))")
        + call("camera_extrinsics(view=0)")
        + call("camera_extrinsics(view=1)")
        + call(BOX_GT),
        [
            row("box_2d_to_box_3d", 1, matched=["box_2d_to_box_3d", 0], distance=0.375),
            row("camera_extrinsics", 2, matched=["camera_extrinsics", 0]),
            row("camera_extrinsics", 3, matched=["camera_extrinsics", 1]),
            row("box_2d_to_box_3d", 4),
        ],
        1.0,
        # summed in the ground truth's name order; the candidate's order
        # (1 + e + 1 + 1) rounds to a different last bit
        (1.0 + 1.0 + 1.0 + math.exp(-1.875)) / 4,
        1.0,
    ),
    "discrete_arguments_only": (
        call('code_executor(program="1 + 1")', "2"),
        call('code_executor(program="1 + 2")'),
        [row("code_executor", 1, matched=["code_executor", 0])],
        1.0,
        0.0,
        0.3,
    ),
    "continuous_shape_differs": (
        call("depth_sensor(view=0, point=(0.5, 0.5))"),
        call("depth_sensor(view=0, point=(0.5, 0.5, 2))"),
        [
            row(
                "depth_sensor",
                1,
                schema_ok=False,
                matched=["depth_sensor", 0],
                error="argument 'point' has the wrong type",
            )
        ],
        0.0,
        0.5,
        1.0,
    ),
    "failed_call": (
        call('box_2d_to_box_3d(view=0, label="crate")', "obb(center=(0, 0, 2.5), half=(0.4, 0.4, 0.5), yaw=0)")
        + call('code_executor(program="vec_get(obb_half(r1), 2)", uses=["r1"])', "0.5")
        + call('code_executor(program="2")', "2"),
        call('box_2d_to_box_3d(view=0, label="unicorn")')
        + call('code_executor(program="vec_get(obb_half(r1), 2)", uses=["r1"])')
        + call('code_executor(program="2")'),
        [
            row(
                "box_2d_to_box_3d",
                1,
                matched=["box_2d_to_box_3d", 0],
                error="label 'unicorn' matches 0 objects",
            ),
            row("code_executor", 2, matched=["code_executor", 0], error="unknown result binding 'r1'"),
            row("code_executor", 3, matched=["code_executor", 1]),
        ],
        1.0,
        0.8,
        0.5,
    ),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_CASES))
def test_diagnostics_rows(case):
    gt_body, pred_body, rows, r_tool, r_param, r_code = DIAGNOSTIC_CASES[case]
    objects = [ObjectNode(0, "crate", OrientedBox3((0.0, 0.0, 2.5), (0.4, 0.4, 0.5), 0.0))]
    scene = Scene(K, [Pose.identity(), Pose.identity()], objects, floor_z=-3.0)
    breakdown = score_trajectory(trace(pred_body), trace(gt_body), scene)
    report = json.loads(json.dumps(breakdown.to_dict()))
    assert report["diagnostics"] == rows
    assert (breakdown.r_tool, breakdown.r_param, breakdown.r_code) == (r_tool, r_param, r_code)


class TestGrpo:
    def test_two_sample_batch(self):
        adv = grpo_advantages([1.0, 0.0])
        assert np.array_equal(adv, [1.0, -1.0])

    def test_constant_batch_is_zero(self):
        assert np.array_equal(grpo_advantages([0.7, 0.7, 0.7]), [0.0, 0.0, 0.0])

    def test_random_batches_match_two_pass_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            rewards = rng.uniform(0, 1, size=64)
            adv = grpo_advantages(rewards)
            mean = sum(rewards) / len(rewards)
            var = sum((r - mean) ** 2 for r in rewards) / len(rewards)
            expected = [(r - mean) / math.sqrt(var) for r in rewards]
            assert np.allclose(adv, expected, atol=1e-9)
            assert abs(adv.mean()) < 1e-12
            assert abs(adv.std() - 1.0) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(92)
        rewards = rng.uniform(0, 1, size=32)
        base = grpo_advantages(rewards)
        shifted = grpo_advantages(3.5 * rewards + 0.25)
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_clip_cases(self):
        batch = GrpoBatch(rewards=(0.0,), ratios=(2.0,), kls=(0.0,), clip_eps=0.2)
        assert grpo_objective(batch, [1.0]) == pytest.approx(-1.2, abs=1e-12)
        assert grpo_objective(batch, [-1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_unit_ratios_zero_beta(self):
        rng = np.random.default_rng(93)
        rewards = rng.uniform(0, 1, size=16)
        adv = grpo_advantages(rewards)
        batch = GrpoBatch(
            rewards=tuple(rewards), ratios=(1.0,) * 16, kls=(0.0,) * 16, kl_coef=0.0
        )
        loss = grpo_objective(batch, adv)
        assert loss == -float(np.mean(adv))  # exact: the clip is a no-op at rho=1
        assert abs(loss) < 1e-12

    def test_kl_term(self):
        batch = GrpoBatch(rewards=(0.0,), ratios=(1.0,), kls=(0.5,), kl_coef=0.2)
        assert grpo_objective(batch, [0.0]) == pytest.approx(0.1, abs=1e-15)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            GrpoBatch(rewards=(), ratios=(), kls=())
        with pytest.raises(ValueError):
            GrpoBatch(rewards=(1.0,), ratios=(0.0,), kls=(0.0,))
        with pytest.raises(ValueError):
            GrpoBatch(rewards=(1.0,), ratios=(1.0,), kls=(0.0,), clip_eps=1.5)


class TestSftLoss:
    def test_zeros(self):
        assert sft_loss([0.0, 0.0]) == 0.0

    def test_uniform_half(self):
        t = 17
        assert sft_loss([math.log(0.5)] * t) == pytest.approx(t * math.log(2.0), abs=1e-12)

    def test_matches_reordered_sum(self):
        rng = np.random.default_rng(94)
        logs = list(-rng.exponential(size=200))
        forward = sft_loss(logs)
        backward = sft_loss(list(reversed(logs)))
        assert abs(forward - backward) < 1e-12
        assert abs(forward - (-np.sum(logs))) < 1e-9

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            sft_loss([0.1])


class TestMetrics:
    def test_delta2_boundaries_inclusive(self):
        assert evaluate_delta2(1.0, 1.0)
        assert evaluate_delta2(0.5, 1.0)
        assert evaluate_delta2(2.0, 1.0)
        assert not evaluate_delta2(0.49, 1.0)
        assert not evaluate_delta2(2.01, 1.0)

    def test_delta2_requires_positive_gt(self):
        with pytest.raises(NonPositiveGroundTruth):
            evaluate_delta2(1.0, 0.0)

    def test_interval(self):
        assert check_interval(0.10, 0.05, 0.15)
        assert check_interval(0.05, 0.05, 0.15)
        assert check_interval(0.15, 0.05, 0.15)
        assert not check_interval(0.16, 0.05, 0.15)
        with pytest.raises(ValueError):
            check_interval(0.1, 0.2, 0.1)
