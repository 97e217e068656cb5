"""Hierarchical trajectory rewards, batch-relative advantages, and metrics.

The composite score is a weighted sum of five sub-rewards in [0, 1]:
format (structural validity), tool (registered name + schema-valid args),
parameter (exp(-alpha * L2) for continuous parameters, exact match for
discrete ones), code (execution and output-correctness indicators split by
lambda weights), and answer (exp(-gamma * L2) continuous, exact discrete).
Predicted calls align to ground-truth calls k-th to k-th within each tool
name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import geometry, runtime
from .runtime import ExecutionContext, check_call, execute_calls
from .runtime import execute_tool  # noqa: F401  patched by name in tigerbench/tracing.py
from .trajectory import ToolCall, ToolResult, Trajectory, Value, payload, validate_format

REWARD_KEYS = ("format", "tool", "param", "code", "answer")
DEFAULT_WEIGHTS = {"format": 0.1, "tool": 0.2, "param": 0.2, "code": 0.2, "answer": 0.3}


class NonPositiveGroundTruth(ValueError):
    pass


def _require_finite(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number other than a bool."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number; an int beyond float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, not {value!r}")


@dataclass
class RewardConfig:
    """Weights and scales for the composite reward; loadable from JSON."""

    weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    alpha: float = 5.0
    gamma: float = 5.0
    lambda_exec: float = 0.3
    lambda_out: float = 0.7
    code_output_tol: float = 1e-6
    tool_mode: str = "average"  # or "product": one bad call zeroes the reward

    def __post_init__(self):
        if set(self.weights) != set(REWARD_KEYS):
            raise ValueError(f"weights must have exactly the keys {REWARD_KEYS}")
        numbers = [(f"weights[{k!r}]", w) for k, w in self.weights.items()] + [
            (name, getattr(self, name))
            for name in ("alpha", "gamma", "lambda_exec", "lambda_out", "code_output_tol")
        ]
        for name, value in numbers:
            _require_finite(name, value)
        if self.code_output_tol < 0:
            raise ValueError("code_output_tol must be non-negative")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be non-negative")
        if abs(math.fsum(self.weights.values()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if not (self.alpha > 0 and self.gamma > 0):
            raise ValueError("alpha and gamma must be positive")
        if self.lambda_exec < 0 or self.lambda_out < 0:
            raise ValueError("lambda weights must be non-negative")
        if abs((self.lambda_exec + self.lambda_out) - 1.0) > 1e-9:
            raise ValueError("lambda_exec + lambda_out must equal 1")
        if self.tool_mode not in ("average", "product"):
            raise ValueError("tool_mode must be 'average' or 'product'")

    @classmethod
    def from_dict(cls, doc: dict) -> "RewardConfig":
        if not isinstance(doc, dict):
            raise ValueError("reward config must be a JSON object")
        kwargs = dict(doc)
        if "weights" in kwargs:
            if not isinstance(kwargs["weights"], dict):
                raise ValueError("weights must be an object mapping sub-rewards to weights")
            kwargs["weights"] = dict(kwargs["weights"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "RewardConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return {
            "weights": dict(self.weights),
            "alpha": self.alpha,
            "gamma": self.gamma,
            "lambda_exec": self.lambda_exec,
            "lambda_out": self.lambda_out,
            "code_output_tol": self.code_output_tol,
            "tool_mode": self.tool_mode,
        }


@dataclass
class RewardBreakdown:
    r_format: float
    r_tool: float
    r_param: float
    r_code: float
    r_answer: float
    composite: float
    diagnostics: tuple = ()

    def to_dict(self) -> dict:
        return {
            "r_format": self.r_format,
            "r_tool": self.r_tool,
            "r_param": self.r_param,
            "r_code": self.r_code,
            "r_answer": self.r_answer,
            "composite": self.composite,
            "diagnostics": [dict(d) for d in self.diagnostics],
        }


# ---------------------------------------------------------------------------
# Value comparison helpers
# ---------------------------------------------------------------------------


def _continuous_score(pred: Value, gt: Value, scale: float):
    """(score, distance) of a continuous value against the ground truth.

    The distance is the L2 between numeric payloads of one size, else None.
    The score is 0 across signatures, exact match for non-numeric payloads,
    and exp(-scale * distance) otherwise.
    """
    sig_pred, a = payload(pred)
    sig_gt, b = payload(gt)
    distance = None
    if a is not None and b is not None and len(a) == len(b):
        distance = geometry.length([x - y for x, y in zip(a, b)])
    if sig_pred != sig_gt:
        return 0.0, distance
    if distance is None:
        return (1.0 if pred == gt else 0.0), None
    return math.exp(-scale * distance), distance


def _values_close(pred: Value, gt: Value, tol: float) -> bool:
    sig_pred, a = payload(pred)
    sig_gt, b = payload(gt)
    if sig_pred != sig_gt:
        return False
    if a is None or b is None:
        return pred == gt
    return all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Sub-rewards
# ---------------------------------------------------------------------------


def score_format(t: Trajectory) -> float:
    return 1.0 if validate_format(t) else 0.0


def _tool_score(schema_ok: list, gt_has_calls: bool, cfg: RewardConfig) -> float:
    if not schema_ok:
        return 0.0 if gt_has_calls else 1.0
    per_call = [1.0 if ok else 0.0 for ok in schema_ok]
    if cfg.tool_mode == "product":
        return math.prod(per_call)
    return math.fsum(per_call) / len(per_call)


def score_tool(t: Trajectory, gt: Trajectory | None = None, cfg: RewardConfig | None = None) -> float:
    """Per-call product of name-registered and schema-valid indicators.

    Averaged over calls by default; 'product' mode zeroes the reward on any
    bad call.  A call-free trajectory scores 1 only when the ground truth is
    also call-free.
    """
    schema_ok = [check_call(c) is None for c in t.calls]
    return _tool_score(schema_ok, gt is not None and bool(gt.calls), cfg or RewardConfig())


def _align(pred_calls, gt_calls) -> list:
    """Pair the k-th call of each tool name with the k-th ground-truth call of that name.

    Returns (name, k, pred index or None, gt index or None) for every k of
    every name either side calls: the ground truth's names in order of first
    appearance, then the candidate's other names, k ascending within a name.
    """
    indices = {}
    for side, calls in ((1, gt_calls), (0, pred_calls)):
        for i, call in enumerate(calls):
            indices.setdefault(call.name, ([], []))[side].append(i)
    return [
        (name, k, p, g)
        for name, (pred_indices, gt_indices) in indices.items()
        for k, (p, g) in enumerate(zip_longest(pred_indices, gt_indices))
    ]


def _is_discrete_param(tool: str, name: str) -> bool:
    spec = runtime.REGISTRY.get(tool)
    return spec is None or spec.params.get(name) not in runtime.CONTINUOUS_KINDS


def _param_scores(pred_calls, gt_calls, pairs, alpha: float):
    """The parameter reward, and the param_distance of each matched candidate call.

    Every argument of a ground-truth call counts once: a discrete one scores
    exact match, a continuous one exp(-alpha * L2), a missing one 0.  A
    call's distance, keyed by its index, sums the L2 of its continuous
    arguments whose payloads agree in size; a call with none has no entry.
    """
    total = 0.0
    count = 0
    distances = {}
    for name, _k, p, g in pairs:
        if g is None:
            continue
        deltas = []
        for key, gval in gt_calls[g].args:
            count += 1
            pval = None if p is None else pred_calls[p].arg(key)
            if pval is None:
                continue
            if _is_discrete_param(name, key):
                total += 1.0 if pval == gval else 0.0
                continue
            score, distance = _continuous_score(pval, gval, alpha)
            if distance is not None:
                deltas.append(distance)
            total += score
        if deltas:
            distances[p] = math.fsum(deltas)
    return (total / count if count else 1.0), distances


def score_param(t: Trajectory, gt: Trajectory, cfg: RewardConfig | None = None) -> float:
    """Mean per-parameter accuracy against order-aligned ground-truth calls."""
    cfg = cfg or RewardConfig()
    pred_calls, gt_calls = t.calls, gt.calls
    return _param_scores(pred_calls, gt_calls, _align(pred_calls, gt_calls), cfg.alpha)[0]


def _call_steps(t: Trajectory) -> list:
    """The step index of each of t's calls."""
    return [i for i, step in enumerate(t.steps) if isinstance(step, ToolCall)]


def _code_score(pairs, values, gt: Trajectory, gt_steps, cfg: RewardConfig) -> float:
    """Execution and output-correctness score for code_executor calls.

    `values` holds the executed result of each candidate call (None where it
    failed); each code call is compared, within the configured tolerance, to
    the result stored after its paired ground-truth call (gt_steps holds the
    step index of each ground-truth call).
    """
    code = [(p, g) for name, _k, p, g in pairs if name == "code_executor"]
    if not code:
        return 1.0
    total = 0.0
    for p, g in code:
        if p is None or g is None:
            continue
        value = values[p]
        executed = value is not None
        after = gt_steps[g] + 1
        stored = gt.steps[after] if after < len(gt.steps) else None
        correct = (
            executed
            and isinstance(stored, ToolResult)
            and _values_close(value, stored.value, cfg.code_output_tol)
        )
        total += cfg.lambda_exec * (1.0 if executed else 0.0)
        total += cfg.lambda_out * (1.0 if correct else 0.0)
    return total / len(code)


def score_answer(t: Trajectory, gt: Trajectory, cfg: RewardConfig | None = None) -> float:
    """exp(-gamma * L2) between the answers' payloads under one tag; a choice
    or a text, which has no numbers, scores by exact match."""
    cfg = cfg or RewardConfig()
    pa = t.answer
    ga = gt.answer
    if pa is None or ga is None or pa.format != ga.format:
        return 0.0
    return _continuous_score(pa.value, ga.value, cfg.gamma)[0]


def composite_reward(parts: dict, cfg: RewardConfig | None = None) -> float:
    """Weighted sum of the five sub-rewards (exact 1.0 at all-ones defaults)."""
    cfg = cfg or RewardConfig()
    for key in REWARD_KEYS:
        if key not in parts:
            raise ValueError(f"missing sub-reward {key!r}")
    return math.fsum(cfg.weights[k] * parts[k] for k in REWARD_KEYS)


def score_trajectory(
    pred: Trajectory,
    gt: Trajectory,
    scene,
    mode: str = "oracle",
    cfg: RewardConfig | None = None,
    cache: dict | None = None,
) -> RewardBreakdown:
    """All five sub-rewards plus per-call diagnostics for one trajectory.

    cache, when given, is the execution context's tool cache (see
    runtime.ExecutionContext), shared with other scorings on the same scene:
    a scene-pure call one of them already made is read from it.  The
    trajectory always binds its own r1..rN, and the scores do not depend on
    what the cache held.  Without it the context gets a fresh cache.
    """
    cfg = cfg or RewardConfig()
    ctx = ExecutionContext(scene, mode, cache={} if cache is None else cache)
    pred_calls, gt_calls = pred.calls, gt.calls
    pairs = _align(pred_calls, gt_calls)
    schema_ok = [check_call(call) is None for call in pred_calls]
    r_param, distances = _param_scores(pred_calls, gt_calls, pairs, cfg.alpha)
    # every call runs; a failure cascades through the binding it leaves out
    outcomes = list(execute_calls(ctx, pred_calls))
    parts = {
        "format": score_format(pred),
        "tool": _tool_score(schema_ok, bool(gt_calls), cfg),
        "param": r_param,
        "code": _code_score(pairs, [value for value, _ in outcomes], gt, _call_steps(gt), cfg),
        "answer": score_answer(pred, gt, cfg),
    }
    matched = {p: (name, k) for name, k, p, g in pairs if p is not None and g is not None}
    pred_steps = _call_steps(pred)
    diagnostics = [
        {
            "tool": call.name,
            "step_index": pred_steps[i],
            "schema_ok": schema_ok[i],
            "matched_gt_call": matched.get(i),
            "param_distance": distances.get(i),
            "error": None if error is None else str(error),
        }
        for i, (call, (_, error)) in enumerate(zip(pred_calls, outcomes))
    ]
    return RewardBreakdown(
        r_format=parts["format"],
        r_tool=parts["tool"],
        r_param=parts["param"],
        r_code=parts["code"],
        r_answer=parts["answer"],
        composite=composite_reward(parts, cfg),
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Policy-optimization math
# ---------------------------------------------------------------------------


@dataclass
class GrpoBatch:
    """Inputs for one batch of the clipped surrogate objective."""

    rewards: tuple
    ratios: tuple
    kls: tuple
    clip_eps: float = 0.2
    kl_coef: float = 0.0

    def __post_init__(self):
        self.rewards = tuple(float(r) for r in self.rewards)
        self.ratios = tuple(float(r) for r in self.ratios)
        self.kls = tuple(float(k) for k in self.kls)
        n = len(self.rewards)
        if n < 1:
            raise ValueError("batch must contain at least one sample")
        if len(self.ratios) != n or len(self.kls) != n:
            raise ValueError("rewards, ratios, and kls must have equal length")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("importance ratios must be positive")
        if not (0 < self.clip_eps < 1):
            raise ValueError("clip range must be in (0, 1)")


def grpo_advantages(rewards) -> np.ndarray:
    """Batch-normalized advantages (r - mean) / population std; zeros when flat."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rewards must be a non-empty 1-D sequence")
    # all-equal batches are the sigma_r = 0 case regardless of rounding
    if np.all(r == r[0]):
        return np.zeros_like(r)
    return (r - r.mean()) / r.std()


def grpo_objective(batch: GrpoBatch, advantages) -> float:
    """Clipped surrogate loss plus KL penalty.

    -(1/N) sum_i min(rho_i * A_i, clip(rho_i, 1-eps, 1+eps) * A_i)
    + beta * mean(KL_i)
    """
    adv = np.asarray(advantages, dtype=float)
    rho = np.asarray(batch.ratios, dtype=float)
    if adv.shape != rho.shape:
        raise ValueError("advantages must match the batch size")
    clipped = np.clip(rho, 1.0 - batch.clip_eps, 1.0 + batch.clip_eps)
    surrogate = np.minimum(rho * adv, clipped * adv)
    return float(-surrogate.mean() + batch.kl_coef * np.mean(batch.kls))


def sft_loss(token_logprobs) -> float:
    """Negative sum of next-token log probabilities."""
    logs = [float(x) for x in token_logprobs]
    if any(x > 0 for x in logs):
        raise ValueError("log probabilities cannot be positive")
    return -math.fsum(logs)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def evaluate_delta2(pred: float, gt: float) -> bool:
    """Scalar answer correctness within the closed interval [0.5x, 2x] of gt."""
    if not gt > 0:
        raise NonPositiveGroundTruth("ground truth must be positive")
    return 0.5 * gt <= pred <= 2.0 * gt


def check_interval(actual: float, lo: float, hi: float) -> bool:
    """Inclusive interval test used for metric-offset placement success."""
    if lo > hi:
        raise ValueError("interval bounds are inverted")
    return lo <= actual <= hi
