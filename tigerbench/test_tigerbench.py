"""Tests of the benchmark itself.

    python -m pytest tigerbench -q

They check that inputs are a pure function of the seed, that the process
pool reproduces jobs=1 bytes, that the output checks catch what they claim
to, and that a short run of every workload prints exactly the metrics
BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import LINE_PATTERN  # noqa: E402
from tiger.generator import DEFAULT_MIX, SceneParams, build_record, generate_records  # noqa: E402
from workloads import REPLAY_SCENE, WORKLOADS, replay_records, score_prompts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "tigerbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _inputs(seed, tmp_path):
    records = score_prompts(4, seed, tmp_path / "p.jsonl")
    groups = [inputs.build_group(r, seed) for r in records]
    scenes = replay_records(4, seed, tmp_path / "s.jsonl")
    return groups, inputs.build_replay_traces(scenes)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _inputs(5, tmp_path / "a")
    assert first == _inputs(5, tmp_path / "b")
    other = _inputs(6, tmp_path / "c")
    assert first != other
    # the prompt pool, and so the work of set-up, is the same for every seed
    assert sorted(g[0]["id"] for g in first[0]) == sorted(g[0]["id"] for g in other[0])
    groups, traces = first
    assert all(len(g) == len(inputs.CANDIDATE_KINDS) for g in groups)
    assert {t.mode for t in traces} == {"oracle", "fitted"}


def test_pool_prefix_equals_jobs1_records():
    params, seed = SceneParams(), 11
    lines, counts = generate_records(params, DEFAULT_MIX, 16, seed, jobs=2)
    families = [f for f, n in counts.items() for _ in range(n)]
    for index in range(4):
        assert lines[index] == build_record(params, families[index], index, seed)


def test_group_check_flags_each_expectation():
    ok = [{"composite": 1.0, "r_format": 1.0, "diagnostics": [{"error": None}]}
          for _ in inputs.CANDIDATE_KINDS]
    ok[2]["diagnostics"] = [{"error": "label 'unicorn' matches 0 objects"}]
    ok[7]["r_format"] = 0.0
    assert checks.check_group(ok) == []
    for index, key, value in ((0, "composite", 0.9), (7, "r_format", 1.0)):
        bad = [dict(row) for row in ok]
        bad[index][key] = value
        assert len(checks.check_group(bad)) == 1
    bad = [dict(row) for row in ok]
    bad[2]["diagnostics"] = [{"error": None}]
    assert len(checks.check_group(bad)) == 1
    assert len(checks.check_group(ok[:-1])) == 1


def test_replay_check_flags_wrong_outputs(tmp_path):
    scenes = inputs.generate_records(
        1, 3, tmp_path / "s.jsonl", params=REPLAY_SCENE, mix={"object_size": 1.0}
    )
    trace = inputs.build_replay_traces(scenes)[0]
    assert trace.mode == "oracle" and trace.window == (0.0, 0.0, 640.0, 480.0)
    obj = [o for o in trace.scene["objects"] if o["label"] == trace.label][0]

    def obb(yaw):
        return "obb(center=({}, {}, {}), half=({}, {}, {}), yaw={})".format(
            *obj["center"], *obj["half_extents"], yaw
        )

    box = obb(obj["yaw"])

    def output(depth, seg, obb):
        return "".join(f"<tool_response>{x}</tool_response>" for x in (depth, seg, obb))

    good = output("[1.5, 1.6, 0.75]", "[0, 0, 640, 480, 307000, 200]", box)
    assert checks.check_replay(good, trace, 640, 480) == []
    for depth, seg, obb in (
        ("[1.5, 1.6, 0]", "[0, 0, 640, 480, 307000, 200]", box),
        ("[1.5, 1.6, 0.75]", "[0, 0, 640, 480, 307000, 199]", box),
        ("[1.5, 1.6, 0.75]", "[0, 0, 640, 480, 307000, 200]", obb(obj["yaw"] + 0.5)),
    ):
        assert len(checks.check_replay(output(depth, seg, obb), trace, 640, 480)) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_named_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed = [m.group(1) for m in map(LINE_PATTERN.match, lines) if m]
    assert printed and set(printed) <= named


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "tigerbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
