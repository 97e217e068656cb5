"""Output checks whose reference is not the code under test.

Each check returns a list of problems (empty when the output is correct).
Replay output is read with a small literal reader here instead of tiger's
parser, and expectations come from the scene JSON, the request itself, or a
property the file formats guarantee.
"""

from __future__ import annotations

import hashlib
import json
import re

from inputs import CANDIDATE_KINDS, pixel_window
from tiger import ExecutionContext, Scene, parse_trajectory, render_trajectory
from tiger import run_trajectory, score_trajectory

_RESPONSE_RE = re.compile(r"<tool_response>(.*?)</tool_response>", re.S)
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


def tool_responses(text: str) -> list:
    return _RESPONSE_RE.findall(text)


def numbers(literal: str) -> list:
    return [float(x) for x in _NUMBER_RE.findall(literal)]


def check_replay(output: str, trace, width: int, height: int) -> list:
    """Full-frame depth, segmentation RLE and label lookup of one replay."""
    problems = []
    responses = tool_responses(output)
    if len(responses) != 3:
        return [f"expected 3 tool responses, found {len(responses)}"]
    depth, segmentation, box = (numbers(r) for r in responses)

    if len(depth) != 3:
        problems.append(f"depth statistics have {len(depth)} values, not 3")
    elif not (0.0 < depth[2] <= 1.0):
        problems.append(f"depth valid fraction {depth[2]} outside (0, 1]")
    elif not (depth[0] > 0.0 and depth[1] > 0.0):
        problems.append("depth statistics are not positive")

    header, runs = segmentation[:4], segmentation[4:]
    expected = pixel_window(trace.window, width, height)
    if tuple(int(x) for x in header) != expected:
        problems.append(f"segmentation window {header} != {expected}")
    elif sum(runs) != expected[2] * expected[3] or any(r < 0 for r in runs):
        problems.append("segmentation run lengths do not cover the window")

    if not responses[2].startswith("obb(") or len(box) != 7:
        problems.append(f"box lookup returned {responses[2][:40]!r}")
    elif trace.mode == "oracle":
        truth = [o for o in trace.scene["objects"] if o["label"] == trace.label][0]
        if box != truth["center"] + truth["half_extents"] + [truth["yaw"]]:
            problems.append(f"oracle box for {trace.label!r} differs from the scene")
    elif not all(h > 0.0 for h in box[3:6]):
        problems.append("fitted box has a non-positive half extent")
    return problems


def check_group(rows: list) -> list:
    """Report rows of one `tiger score` group against what each kind implies."""
    if len(rows) != len(CANDIDATE_KINDS):
        return [f"expected {len(CANDIDATE_KINDS)} report rows, found {len(rows)}"]
    by_kind = dict(zip(CANDIDATE_KINDS, rows))
    problems = []
    if by_kind["exact"]["composite"] != 1.0:
        problems.append(f"exact copy scored {by_kind['exact']['composite']}")
    if not any(d["error"] for d in by_kind["unknown_label"]["diagnostics"]):
        problems.append("unknown-label candidate reported no tool error")
    if by_kind["tag_mismatch"]["r_format"] != 0.0:
        problems.append("answer-tag mismatch kept a format reward")
    return problems


def check_dataset_file(path, count: int) -> list:
    """Line count and manifest digest of one generated dataset."""
    with open(path, "rb") as f:
        data = f.read()
    with open(f"{path}.manifest.json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    problems = []
    lines = data.count(b"\n")
    if lines != count:
        problems.append(f"{path}: {lines} lines, expected {count}")
    if manifest["digest"] != "sha256:" + hashlib.sha256(data).hexdigest():
        problems.append(f"{path}: manifest digest does not match the file")
    return problems


def check_record(line: str) -> list:
    """A generated line re-parses, replays byte-identically and self-scores 1.0."""
    record = json.loads(line)
    try:
        gt = parse_trajectory(record["trajectory"])
        scene = Scene.from_dict(record["scene"])
        replayed = run_trajectory(ExecutionContext(scene, "oracle"), gt)
        composite = score_trajectory(gt, gt, scene).composite
    except ValueError as exc:  # parse, scene and tool errors all derive from it
        return [f"record {record['id']}: {exc}"]
    problems = []
    if render_trajectory(replayed) != record["trajectory"]:
        problems.append(f"record {record['id']}: replay is not byte-identical")
    if composite != 1.0:
        problems.append(f"record {record['id']}: self-score {composite}")
    return problems
