"""Seeded inputs for the workloads: prompts, GRPO candidate groups, replay traces.

Everything here is a pure function of its seeds.  Inputs are built
with tiger's own data model and renderer, so every candidate and trace is
grammar-valid text; the program under test only ever sees the files written
from them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from tiger.geometry import Box2
from tiger.generator import DEFAULT_MIX, SceneParams, generate_dataset
from tiger.scene import Scene
from tiger.trajectory import (
    Answer,
    Box2Value,
    Choice,
    Matrix,
    Point2,
    Point3,
    Scalar,
    Text,
    Thought,
    ToolCall,
    ToolResult,
    Trajectory,
    ValueList,
    parse_trajectory,
    render_trajectory,
)

# A label that DEFAULT_LABELS never produces, so a lookup of it must fail.
UNKNOWN_LABEL = "unicorn"

# Candidate kinds of one GRPO group, in the order they appear in the
# candidates file.  Every kind renders to grammar-valid text: `tiger score`
# aborts the whole invocation on a single unparsable candidate, so malformed
# candidates cannot be mixed in until that is fixed.
CANDIDATE_KINDS = (
    "exact",
    "jitter",
    "unknown_label",
    "bad_view",
    "wrong_choice",
    "box_form",
    "drop_code",
    "tag_mismatch",
)

_ANSWER_TAGS = ("choice", "scalar", "point2", "point3", "pose", "text")

# positions, modulo 8, of the replay traces that segment the full frame
_FULL_FRAME_SLOTS = (0, 5)


def sub_seed(seed: int, *path) -> int:
    """Independent 63-bit seed for one part of a workload."""
    key = ":".join(["tigerbench", str(seed)] + [str(p) for p in path])
    return int.from_bytes(hashlib.sha256(key.encode("ascii")).digest()[:8], "big") >> 1


def shuffled(rows, seed: int, *path) -> list:
    """`rows` in an order drawn from the seed."""
    order = np.random.default_rng(sub_seed(seed, *path)).permutation(len(rows))
    return [rows[int(k)] for k in order]


def generate_records(count: int, master_seed: int, path, params=SceneParams(), mix=DEFAULT_MIX):
    """Dataset records from `generate_dataset` (jobs=1), parsed from its file."""
    generate_dataset(params, mix, count, master_seed, path, jobs=1)
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# GRPO candidate groups
# ---------------------------------------------------------------------------


def _replace_arg(call: ToolCall, key: str, value) -> ToolCall:
    return ToolCall(call.name, tuple((k, value if k == key else v) for k, v in call.args))


def _first_index(steps, predicate):
    for i, step in enumerate(steps):
        if isinstance(step, ToolCall) and predicate(step):
            return i
    return None


def _without_call(steps, index):
    """Steps with the call at `index` and its stored result removed."""
    end = index + 1
    if end < len(steps) and isinstance(steps[end], ToolResult):
        end += 1
    return steps[:index] + steps[end:]


def _jitter_value(rng, value):
    if isinstance(value, Scalar):
        return Scalar(value.value * (1.0 + rng.normal(0.0, 0.02)), value.unit)
    if isinstance(value, Point2):
        x, y = np.clip([value.x, value.y] + rng.normal(0.0, 0.002, 2), 0.0, 1.0)
        return Point2(float(x), float(y), value.pixel)
    if isinstance(value, Point3):
        x, y, z = np.array([value.x, value.y, value.z]) + rng.normal(0.0, 0.01, 3)
        return Point3(float(x), float(y), float(z))
    if isinstance(value, Matrix):
        rows = np.array(value.rows)
        rows[:-1] += rng.normal(0.0, 0.01, rows[:-1].shape)
        return Matrix(tuple(tuple(r) for r in rows.tolist()))
    if isinstance(value, ValueList):
        return ValueList(tuple(_jitter_value(rng, x) for x in value.items))
    return value  # choices and text have no continuous payload


def _jittered(rng, steps):
    out = []
    for step in steps:
        if isinstance(step, ToolCall):
            args = tuple(
                (k, _jitter_value(rng, v) if isinstance(v, (Point2, Point3)) else v)
                for k, v in step.args
            )
            step = ToolCall(step.name, args)
        elif isinstance(step, Answer):
            step = Answer(_jitter_value(rng, step.value), step.format)
        out.append(step)
    return out


def _object_box2(scene: Scene, view: int, label: str) -> Box2:
    """Projected 2D box of a labelled object the generator saw in this view."""
    return scene.project_box(scene.objects_by_label(label)[0], view)


def _candidate_steps(kind: str, steps: list, scene: Scene, rng) -> list:
    n_views = len(scene.views)
    label_at = _first_index(steps, lambda c: c.arg("label") is not None)
    view_at = _first_index(steps, lambda c: c.arg("view") is not None)
    if kind == "exact":
        return steps
    if kind == "jitter":
        return _jittered(rng, steps)
    if kind == "unknown_label":
        if label_at is not None:
            steps[label_at] = _replace_arg(steps[label_at], "label", Text(UNKNOWN_LABEL))
            return steps
        # no label lookup in this family: lead with one; the shifted r1..rN
        # bindings make the later code call fail too
        lookup = ToolCall(
            "box_2d_to_box_3d", (("view", Scalar(0.0)), ("label", Text(UNKNOWN_LABEL)))
        )
        return steps[:1] + [lookup] + steps[1:]
    if kind == "bad_view":
        steps[view_at] = _replace_arg(steps[view_at], "view", Scalar(float(n_views + 3)))
        return steps
    if kind == "wrong_choice":
        answer = steps[-1]
        if isinstance(answer.value, Choice):
            flipped = "B" if answer.value.letter == "A" else "A"
            steps[-1] = Answer(Choice(flipped), answer.format)
        elif label_at is not None:
            # pick the wrong object: another label present in the scene
            current = steps[label_at].arg("label").text
            others = sorted(o.label for o in scene.objects if o.label != current)
            wrong = others[int(rng.integers(len(others)))]
            steps[label_at] = _replace_arg(steps[label_at], "label", Text(wrong))
        else:
            # pick the wrong view
            view = int(steps[view_at].arg("view").value)
            steps[view_at] = _replace_arg(
                steps[view_at], "view", Scalar(float((view + 1) % n_views))
            )
        return steps
    if kind == "box_form":
        lookup_at = _first_index(
            steps, lambda c: c.name == "box_2d_to_box_3d" and c.arg("label") is not None
        )
        if lookup_at is None:
            return steps  # families without a box lookup send the exact copy
        call = steps[lookup_at]
        view = int(call.arg("view").value)
        box = Box2Value(_object_box2(scene, view, call.arg("label").text))
        steps[lookup_at] = ToolCall(call.name, (("view", call.arg("view")), ("box", box)))
        return steps
    if kind == "drop_code":
        code_at = [
            i for i, s in enumerate(steps)
            if isinstance(s, ToolCall) and s.name == "code_executor"
        ]
        call_at = [i for i, s in enumerate(steps) if isinstance(s, ToolCall)]
        return _without_call(steps, (code_at or call_at)[-1])
    if kind == "tag_mismatch":
        answer = steps[-1]
        tag = _ANSWER_TAGS[(_ANSWER_TAGS.index(answer.format) + 1) % len(_ANSWER_TAGS)]
        steps[-1] = Answer(answer.value, tag)
        return steps
    raise ValueError(f"unknown candidate kind {kind!r}")


def build_group(record: dict, seed: int) -> list:
    """The G=8 candidate rows for one prompt, in CANDIDATE_KINDS order."""
    gt = parse_trajectory(record["trajectory"])
    scene = Scene.from_dict(record["scene"])
    rows = []
    for kind in CANDIDATE_KINDS:
        rng = np.random.default_rng(sub_seed(seed, "candidate", record["id"], kind))
        steps = _candidate_steps(kind, list(gt.steps), scene, rng)
        text = render_trajectory(Trajectory(tuple(steps)))
        parse_trajectory(text)  # every candidate must stay grammar-valid
        rows.append({"id": record["id"], "kind": kind, "trajectory": text})
    return rows


# ---------------------------------------------------------------------------
# Full-resolution replay traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayTrace:
    """One `tiger run` request: its scene, trace text and expected shapes."""

    scene: dict
    text: str
    mode: str
    label: str
    window: tuple  # (umin, vmin, umax, vmax) of the segmentation call


def _verified_lookup(record: dict):
    """(view, label) of the record's first label lookup.

    The generator only emits a lookup after checking that it resolves to the
    labelled object, so the oracle must answer with that object's box.
    """
    for call in parse_trajectory(record["trajectory"]).calls:
        if call.name == "box_2d_to_box_3d" and call.arg("label") is not None:
            return int(call.arg("view").value), call.arg("label").text
    raise ValueError(f"record {record['id']} has no label lookup")


def build_replay_traces(records) -> list:
    """One full-resolution trace per record, from its verified label lookup.

    Every trace carries a full-frame depth call, a segmentation call over a
    window, and the label lookup itself.  Odd traces run in fitted mode.  Two
    traces in every eight segment the full frame and the rest the object's 2D
    box, so the median stays inside the box-window cluster and p90 inside the
    full-frame one.  Scenes differ from trace to trace, so no call repeats.
    """
    traces = []
    for n, record in enumerate(records):
        view, label = _verified_lookup(record)
        scene = Scene.from_dict(record["scene"])
        k = scene.intrinsics
        full = (0.0, 0.0, float(k.width), float(k.height))
        window = full
        if n % 8 not in _FULL_FRAME_SLOTS:
            box = _object_box2(scene, view, label)
            window = (box.umin, box.vmin, box.umax, box.vmax)
        v = ("view", Scalar(float(view)))
        steps = (
            Thought(f"Measure the {label} in view {view} at full resolution."),
            ToolCall("depth_sensor", (v, ("box", _box2_value(full)))),
            ToolCall("object_segmentation", (v, ("box", _box2_value(window)))),
            ToolCall("box_2d_to_box_3d", (v, ("label", Text(label)))),
            Answer(Text("done"), "text"),
        )
        traces.append(
            ReplayTrace(
                scene=record["scene"],
                text=render_trajectory(Trajectory(steps)),
                mode="fitted" if n % 2 else "oracle",
                label=label,
                window=window,
            )
        )
    return traces


def _box2_value(window) -> Box2Value:
    return Box2Value(Box2(*window))


def pixel_window(window, width: int, height: int):
    """(i0, j0, w, h) of the integer pixel centers a 2D box covers."""
    umin, vmin, umax, vmax = window
    i0 = max(math.ceil(umin - 0.5), 0)
    i1 = min(math.floor(umax - 0.5), width - 1)
    j0 = max(math.ceil(vmin - 0.5), 0)
    j1 = min(math.floor(vmax - 0.5), height - 1)
    return i0, j0, i1 - i0 + 1, j1 - j0 + 1
