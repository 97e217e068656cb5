import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiger
import tiger.generator
from tiger.cli import main
from tiger.generator import DEFAULT_MIX, SceneParams, generate_scene
from tiger.trajectory import (
    Answer,
    Choice,
    Matrix,
    Point2,
    Point3,
    Scalar,
    Text,
    ToolCall,
    Trajectory,
    ValueList,
    parse_trajectory,
    render_trajectory,
)

CONFIG = {
    "count": 6,
    "seed": 13,
    "mix": {"object_size": 0.5, "inter_object_distance": 0.5},
    "scene": {"object_count": [2, 4], "view_count": [1, 3]},
}


def assert_one_error(capsys, prefix):
    """The command wrote exactly one line to stderr, an error starting with prefix."""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert err.count("\n") == 1


def run_tiger(*args) -> int:
    """`tiger ARGS` in a fresh interpreter, writing to this process's stdout and stderr.

    In-process runs go through pytest's warning capture; a child process
    shows what a user's terminal would, RuntimeWarnings included.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiger.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    program = "import sys; from tiger.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", program, *args], env=env).returncode


@pytest.fixture
def dataset(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "data.jsonl"
    assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_manifest(self, dataset):
        lines = dataset.read_text().splitlines()
        assert len(lines) == 6
        manifest = json.loads((dataset.parent / "data.jsonl.manifest.json").read_text())
        assert manifest["count"] == 6
        assert manifest["digest"].startswith("sha256:")

    def test_deterministic_digest(self, tmp_path, dataset):
        config_path = tmp_path / "config.json"
        out2 = tmp_path / "data2.jsonl"
        assert main(["generate", "--config", str(config_path), "--out", str(out2)]) == 0
        assert out2.read_bytes() == dataset.read_bytes()

    def test_invalid_mix_exits_one(self, tmp_path, capsys):
        config = dict(CONFIG, mix={"object_size": 0.5, "object_depth": 0.2})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path):
        code = main(
            ["generate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "x")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "config",
        [[CONFIG], dict(CONFIG, scene=[]), dict(CONFIG, mix=[])],
        ids=["array", "scene_array", "mix_array"],
    )
    def test_config_of_wrong_shape_exits_one(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad config: ")

    @pytest.mark.parametrize(
        "scene",
        [
            {"object_count": 3},
            {"view_count": [2, 1]},
            {"labels": ["box", 7]},
            {"room_extent": [2.4, 2.4]},
            {"orbit_radius": [1.6, "far"]},
            {"orbit_height": [1.2, 0.3]},
            {"min_half_extent": 0.3},
            {"max_half_extent": -0.1},
            {"hover_range": [1.0]},
            {"placement_margin": -0.01},
            {"max_attempts": "x"},
            {"intrinsics": [1, 2]},
        ],
        ids=lambda scene: next(iter(scene)),
    )
    def test_scene_field_of_wrong_shape_names_it(self, tmp_path, capsys, scene):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(CONFIG, scene=scene)))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: bad config: {next(iter(scene))} ")

    def test_principal_point_outside_the_image_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        scene = {"intrinsics": [525, 525, 900, 239.5, 640, 480]}
        path.write_text(json.dumps(dict(CONFIG, scene=scene)))
        out = tmp_path / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert_one_error(capsys, "bad config: principal point must lie inside the image")
        assert not out.exists()

    def test_infeasible_mix_exits_one(self, tmp_path, capsys):
        config = {
            "count": 2,
            "mix": {"relative_camera_pose": 1.0},
            "scene": {"view_count": [1, 1]},
        }
        path = tmp_path / "one_view.json"
        path.write_text(json.dumps(config))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "views" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mix", [{"object_size": math.nan}, {"object_size": 1.0, "object_depth": math.nan}]
    )
    def test_nan_mix_ratio_exits_one(self, tmp_path, capsys, mix):
        # Python's json reads NaN, which passes both the sign and the sum test
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"count": 5, "mix": mix}))
        out = tmp_path / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        assert code == 1
        family = list(mix)[-1]
        assert_one_error(
            capsys, f"bad config: mix ratio of {family} must be a non-negative number, not nan"
        )
        assert not out.exists()

    def test_jobs_do_not_change_the_bytes(self, tmp_path):
        # 16 samples fill two of the pool's chunks of 8, so both workers build records
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"count": 16, "seed": 5, "scene": {"object_count": [2, 4]}}))
        outs = {jobs: tmp_path / f"jobs{jobs}.jsonl" for jobs in (1, 2)}
        for jobs, out in outs.items():
            args = ["--config", str(config), "--out", str(out), "--jobs", str(jobs)]
            assert main(["generate", *args]) == 0
        assert outs[2].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("count", [0, -1, 2.7])
    def test_count_not_a_positive_integer_exits_one(self, tmp_path, capsys, count):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(CONFIG, count=count)))
        out = tmp_path / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert_one_error(capsys, f"bad config: count must be an integer >= 1, not {count!r}")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["hover_range", "orbit_height"])
    def test_range_too_wide_to_draw_from_exits_one(self, tmp_path, capsys, name):
        # numpy's uniform draw refuses a range whose width overflows
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(CONFIG, scene={name: [-1e308, 1e308]})))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert_one_error(capsys, f"bad config: {name} must span a finite width")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG))
        out = tmp_path / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out), "--jobs", str(jobs)])
        assert code == 1
        assert_one_error(capsys, f"bad config: jobs must be an integer >= 1, not {jobs!r}")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2.7, True, "3"])
    def test_seed_not_an_integer_exits_one(self, tmp_path, capsys, seed):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(CONFIG, seed=seed)))
        out = tmp_path / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert_one_error(capsys, f"bad config: seed must be an integer, not {seed!r}")
        assert not out.exists()

    def test_negative_seed_is_valid(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, count=2, seed=-5)))
        out = tmp_path / "x.jsonl"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((tmp_path / "x.jsonl.manifest.json").read_text())["master_seed"] == -5

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"count": 2, "seed": "\xe9"}')
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert_one_error(capsys, "cannot read config: ")

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, count=2)))
        out = tmp_path / "nodir" / "x.jsonl"
        code = main(["generate", "--config", str(path), "--out", str(out)])
        assert code == 1
        assert_one_error(capsys, f"cannot write {out}: ")

    def test_unwritable_out_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(tiger.generator, "build_record", lambda *a: built.append(a))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG))
        out = tmp_path / "nodir" / "x.jsonl"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 1
        assert built == []
        assert_one_error(capsys, f"cannot write {out}: ")

    def test_failed_run_keeps_existing_out(self, tmp_path, monkeypatch):
        def fail(*args):
            raise tiger.generator.GenerationError("no luck")

        monkeypatch.setattr(tiger.generator, "build_record", fail)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG))
        out = tmp_path / "x.jsonl"
        out.write_text("keep me\n")
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert out.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "x.jsonl"]


class TestScore:
    def test_self_scoring_is_perfect(self, tmp_path, dataset, capsys):
        candidates = tmp_path / "cands.jsonl"
        with open(candidates, "w") as f:
            for line in dataset.read_text().splitlines():
                record = json.loads(line)
                f.write(
                    json.dumps({"id": record["id"], "trajectory": record["trajectory"]}) + "\n"
                )
        report = tmp_path / "report.jsonl"
        code = main(
            [
                "score",
                "--dataset",
                str(dataset),
                "--candidates",
                str(candidates),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(rows) == 6
        assert all(row["composite"] == 1.0 for row in rows)
        assert "  mean composite: 1.000000" in capsys.readouterr().err.splitlines()

    def test_bool_id_matches_only_a_bool(self, tmp_path, dataset, capsys):
        # Python has True == 1, so a bare id would match JSON true to record 1
        records = [json.loads(line) for line in dataset.read_text().splitlines()[:2]]
        assert [r["id"] for r in records] == [0, 1]
        cands = tmp_path / "cands.jsonl"
        cands.write_text("".join(
            json.dumps({"id": i, "trajectory": records[int(i)]["trajectory"]}) + "\n"
            for i in (True, 1.0, 0.0, False)
        ))
        report = tmp_path / "report.jsonl"
        args = ["--dataset", str(dataset), "--candidates", str(cands), "--out", str(report)]
        assert main(["score", *args]) == 0
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert [(row["id"], row["composite"]) for row in rows] == [(1.0, 1.0), (0.0, 1.0)]
        assert "  unmatched candidate ids: [True, False]" in capsys.readouterr().err.splitlines()

    def test_empty_candidates(self, tmp_path, dataset):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(empty)])
        assert code == 0

    def test_malformed_trajectory_names_line(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": record["id"], "trajectory": "<think>no"}) + "\n")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(bad)])
        assert code == 1
        assert ":1:" in capsys.readouterr().err

    def test_dataset_record_without_id_names_line(self, tmp_path, dataset, capsys):
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        del record["id"]
        broken = tmp_path / "no_id.jsonl"
        broken.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"id": 0, "trajectory": "x"}) + "\n")
        code = main(["score", "--dataset", str(broken), "--candidates", str(cands)])
        assert code == 1
        assert f"error: {broken}:2:" in capsys.readouterr().err

    def test_duplicate_dataset_id_names_line(self, tmp_path, dataset, capsys):
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        record["id"] = json.loads(lines[0])["id"]
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text("")
        code = main(["score", "--dataset", str(dup), "--candidates", str(cands)])
        assert code == 1
        assert f"error: {dup}:2: duplicate id" in capsys.readouterr().err

    def test_non_string_trajectory_names_line(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"id": record["id"], "trajectory": 42}) + "\n")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(cands)])
        assert code == 1
        assert f"error: {cands}:1:" in capsys.readouterr().err

    def test_non_object_candidate_names_line(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        cands = tmp_path / "cands.jsonl"
        cands.write_text(
            json.dumps({"id": record["id"], "trajectory": record["trajectory"]})
            + "\n"
            + json.dumps([record["id"], record["trajectory"]])
            + "\n"
        )
        code = main(["score", "--dataset", str(dataset), "--candidates", str(cands)])
        assert code == 1
        assert f"error: {cands}:2:" in capsys.readouterr().err

    def test_non_utf8_candidates_name_their_file(self, tmp_path, dataset, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_bytes(b"\xff\n")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(cands)])
        assert code == 1
        assert_one_error(capsys, f"{cands}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pose", "abc"),
            ("pose", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("fx", "x"),
            ("fx", math.inf),  # Python's json writes and reads Infinity
            ("half_extents", [-0.1, 0.1, 0.1]),
            ("center", [0.0, 0.0]),
            ("scene", []),
            ("trajectory", 42),
        ],
    )
    def test_malformed_dataset_record_names_dataset_line(
        self, tmp_path, dataset, capsys, field, value
    ):
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        cand = {"id": record["id"], "trajectory": record["trajectory"]}
        if field == "pose":
            record["scene"]["views"][0]["pose"] = value
        elif field == "fx":
            record["scene"]["intrinsics"]["fx"] = value
        elif field in ("half_extents", "center"):
            record["scene"]["objects"][0][field] = value
        else:
            record[field] = value
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps(cand) + "\n")
        code = main(["score", "--dataset", str(broken), "--candidates", str(cands)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {broken}:2: ")

    def test_dataset_record_parsed_once_per_id(self, tmp_path, dataset, monkeypatch):
        import tiger.cli

        calls = []
        from_dict = tiger.cli.Scene.from_dict
        monkeypatch.setattr(
            tiger.cli.Scene, "from_dict", lambda doc: calls.append(1) or from_dict(doc)
        )
        records = [json.loads(line) for line in dataset.read_text().splitlines()[:2]]
        cands = tmp_path / "cands.jsonl"
        cands.write_text(
            "".join(
                json.dumps({"id": r["id"], "trajectory": r["trajectory"]}) + "\n"
                for r in records * 4
            )
        )
        report = tmp_path / "report.jsonl"
        args = ["score", "--dataset", str(dataset), "--candidates", str(cands)]
        assert main(args + ["--out", str(report)]) == 0
        assert len(calls) == 2
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(rows) == 8 and all(row["composite"] == 1.0 for row in rows)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"weights": [0.1, 0.2, 0.2, 0.2, 0.3]},
            {"code_output_tol": "x"},
            {"code_output_tol": -1e-6},
            {"code_output_tol": math.inf},
            {"alpha": math.inf},
            {"gamma": math.inf},
            {"lambda_exec": math.nan},
            {"alpha": True},
            {"weights": {"format": math.nan, "tool": 0.2, "param": 0.2, "code": 0.2, "answer": 0.3}},
        ],
        ids=[
            "array", "weights_array", "tol_string", "tol_negative", "tol_infinity", "alpha_infinity",
            "gamma_infinity", "lambda_exec_nan", "alpha_bool", "weight_nan",
        ],
    )
    def test_reward_config_of_wrong_shape_exits_one(self, tmp_path, dataset, capsys, doc):
        record = json.loads(dataset.read_text().splitlines()[0])
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"id": record["id"], "trajectory": record["trajectory"]}) + "\n")
        reward_config = tmp_path / "reward.json"
        reward_config.write_text(json.dumps(doc))
        code = main(
            ["score", "--dataset", str(dataset), "--candidates", str(cands),
             "--reward-config", str(reward_config)]
        )
        assert code == 1
        assert_one_error(capsys, "bad reward config: ")

    def test_unmatched_ids_reported(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"id": 999, "trajectory": record["trajectory"]}) + "\n")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(cands)])
        assert code == 0
        assert "unmatched" in capsys.readouterr().err

    def test_candidate_without_trajectory_names_it(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"id": record["id"]}) + "\n")
        code = main(["score", "--dataset", str(dataset), "--candidates", str(cands)])
        assert code == 1
        assert capsys.readouterr().err == f'error: {cands}:1: missing "trajectory"\n'

    @pytest.mark.parametrize("field", ["scene", "trajectory"])
    def test_dataset_record_without_field_names_it(self, tmp_path, dataset, capsys, field):
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        cand = {"id": record["id"], "trajectory": record["trajectory"]}
        del record[field]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps(cand) + "\n")
        code = main(["score", "--dataset", str(broken), "--candidates", str(cands)])
        assert code == 1
        assert capsys.readouterr().err == f'error: {broken}:2: missing "{field}"\n'

    def test_unwritable_out_exits_one(self, tmp_path, dataset, capsys):
        out = tmp_path / "nodir" / "report.jsonl"
        args = ["--dataset", str(dataset), "--candidates", str(dataset), "--out", str(out)]
        code = main(["score", *args])
        assert code == 1
        assert_one_error(capsys, f"cannot write {out}: ")


def _record_tool_calls(monkeypatch):
    """A list that records the call of every later tool execution, in order."""
    import tiger.runtime

    calls = []
    execute_tool = tiger.runtime.execute_tool
    monkeypatch.setattr(
        tiger.runtime, "execute_tool", lambda ctx, call: calls.append(call) or execute_tool(ctx, call)
    )
    return calls


def _score_lines(path, dataset, cands):
    """The report lines of one `tiger score` call on (id, trajectory) pairs."""
    path.write_text(
        "".join(json.dumps({"id": i, "trajectory": t}) + "\n" for i, t in cands)
    )
    report = path.with_suffix(".report")
    args = ["score", "--dataset", str(dataset), "--candidates", str(path)]
    assert main(args + ["--out", str(report)]) == 0
    return report.read_text().splitlines()


# a code call without `uses`, which sees every result its own trace bound
LEAKY_CODE = (
    '<think>x</think><tool_call>code_executor(program="2 * vec_get(obb_half(r1), 2)")'
    "</tool_call><answer format=scalar>0m</answer>"
)


# a program whose index overflows to infinity
OVERFLOWING_CODE = (
    '<think>x</think><tool_call>code_executor(program="vec_get(vec(1, 2), 1e308 * 10)")'
    "</tool_call><answer format=scalar>0m</answer>"
)


def test_score_reports_a_non_finite_program_as_a_call_error(tmp_path, dataset, capsys):
    record = json.loads(dataset.read_text().splitlines()[0])
    group = [(record["id"], OVERFLOWING_CODE), (record["id"], record["trajectory"])]
    failed, perfect = map(json.loads, _score_lines(tmp_path / "c.jsonl", dataset, group))
    assert [d["error"] for d in failed["diagnostics"]] == ["index must be integral"]
    assert perfect["composite"] == 1.0
    assert "failed at step 1: index must be integral" in capsys.readouterr().err


def test_score_of_an_overflowing_program_prints_no_warning(tmp_path, dataset, capfd):
    record = json.loads(dataset.read_text().splitlines()[0])
    program = "dot(vec(1e308, 1e308), vec(1e308, 1))"
    trace = (
        f'<think>x</think><tool_call>code_executor(program="{program}")</tool_call>'
        "<answer format=scalar>0m</answer>"
    )
    candidates = tmp_path / "c.jsonl"
    candidates.write_text(json.dumps({"id": record["id"], "trajectory": trace}) + "\n")
    assert run_tiger("score", "--dataset", str(dataset), "--candidates", str(candidates)) == 0
    err = capfd.readouterr().err
    assert "RuntimeWarning" not in err
    assert "failed at step 1: " in err


def test_run_of_a_non_finite_program_exits_three(tmp_path, dataset, capsys):
    record = json.loads(dataset.read_text().splitlines()[0])
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(record["scene"]))
    traj_path = tmp_path / "traj.txt"
    traj_path.write_text(OVERFLOWING_CODE)
    code = main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)])
    assert code == 3
    assert_one_error(capsys, "step 1: ")


def _code_trace(program):
    return (
        f'<think>x</think><tool_call>code_executor(program="{program}")</tool_call>'
        "<answer format=scalar>0m</answer>"
    )


# 3,000 additions nest far deeper than Python's recursion limit, within the
# step budget; 6,000 exceed it
LONG_SUM = "1" + " + 1" * 3000
OVER_BUDGET_SUM = "1" + " + 1" * 6000


def test_score_of_a_long_operator_chain_runs_it(tmp_path, dataset):
    record = json.loads(dataset.read_text().splitlines()[0])
    group = [(record["id"], _code_trace(LONG_SUM)), (record["id"], _code_trace(OVER_BUDGET_SUM))]
    rows = map(json.loads, _score_lines(tmp_path / "c.jsonl", dataset, group))
    errors = [[d["error"] for d in row["diagnostics"]] for row in rows]
    assert errors == [[None], ["step limit exceeded"]]


def test_run_and_dsl_of_a_long_operator_chain(tmp_path, dataset, capsys):
    record = json.loads(dataset.read_text().splitlines()[0])
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(record["scene"]))
    traj_path = tmp_path / "traj.txt"
    traj_path.write_text(_code_trace(LONG_SUM))
    assert main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)]) == 0
    assert "<tool_response>3001</tool_response>" in capsys.readouterr().out
    assert main(["dsl", "--program", LONG_SUM]) == 0
    assert capsys.readouterr().out == "3001\n"
    assert main(["dsl", "--program", OVER_BUDGET_SUM]) == 1
    assert_one_error(capsys, "step limit exceeded")


# 800 KB: far past the token bound, so it fails as it is read
OVERLONG_SUM = "1" + " + 1" * 200_000


def test_score_and_dsl_of_an_overlong_program(tmp_path, dataset, capsys):
    record = json.loads(dataset.read_text().splitlines()[0])
    group = [(record["id"], _code_trace(OVERLONG_SUM))]
    (row,) = map(json.loads, _score_lines(tmp_path / "c.jsonl", dataset, group))
    assert [d["error"] for d in row["diagnostics"]] == ["program has more than 20000 tokens"]
    capsys.readouterr()
    program = tmp_path / "long.dsl"
    program.write_text(OVERLONG_SUM)
    assert main(["dsl", "--file", str(program)]) == 1
    assert_one_error(capsys, "program has more than 20000 tokens")


class TestScoreGroupCache:
    """Consecutive candidates for one id share one tool cache."""

    def test_group_runs_each_scene_pure_call_once(self, tmp_path, dataset, monkeypatch):
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        record = max(records, key=lambda r: len(parse_trajectory(r["trajectory"]).calls))
        gt_calls = parse_trajectory(record["trajectory"]).calls
        pure = [c for c in gt_calls if c.name != "code_executor"]
        code = len(gt_calls) - len(pure)
        assert len(set(pure)) == len(pure) > 1 and code == 1
        calls = _record_tool_calls(monkeypatch)
        lines = _score_lines(tmp_path / "c.jsonl", dataset, [(record["id"], record["trajectory"])] * 8)
        assert [c for c in calls if c.name != "code_executor"] == pure
        assert sum(c.name == "code_executor" for c in calls) == 8 * code
        assert all(json.loads(line)["composite"] == 1.0 for line in lines)

    def test_group_parses_each_program_once(self, tmp_path, dataset, monkeypatch):
        import tiger.minidsl

        record = next(
            r for r in map(json.loads, dataset.read_text().splitlines())
            if "code_executor" in r["trajectory"]
        )
        parses = []
        parse_program = tiger.minidsl.parse_program
        monkeypatch.setattr(
            tiger.minidsl, "parse_program",
            lambda source, known=(): parses.append(source) or parse_program(source, known),
        )
        lines = _score_lines(tmp_path / "c.jsonl", dataset, [(record["id"], record["trajectory"])] * 8)
        programs = [c.arg("program").text for c in parse_trajectory(record["trajectory"]).calls
                    if c.name == "code_executor"]
        assert parses == programs
        assert all(json.loads(line)["composite"] == 1.0 for line in lines)

    def test_each_candidate_binds_its_own_results(self, tmp_path, dataset):
        record = json.loads(dataset.read_text().splitlines()[0])
        group = [(record["id"], record["trajectory"]), (record["id"], LEAKY_CODE)]
        first, second = _score_lines(tmp_path / "group.jsonl", dataset, group)
        assert json.loads(first)["composite"] == 1.0
        assert json.loads(second)["diagnostics"][0]["error"] is not None
        assert _score_lines(tmp_path / "alone.jsonl", dataset, group[1:]) == [second]

    def test_failed_call_fails_again(self, tmp_path, dataset, monkeypatch):
        record = json.loads(dataset.read_text().splitlines()[0])
        bad = re.sub(r'label="[^"]*"', 'label="unicorn"', record["trajectory"])
        calls = _record_tool_calls(monkeypatch)
        lines = _score_lines(tmp_path / "c.jsonl", dataset, [(record["id"], bad)] * 2)
        assert sum(c.arg("label") == Text("unicorn") for c in calls) == 2
        errors = [json.loads(line)["diagnostics"][0]["error"] for line in lines]
        assert errors[0] is not None and errors[0] == errors[1]
        assert lines[0] == lines[1]

    def test_rows_do_not_depend_on_order(self, tmp_path, dataset):
        records = [json.loads(line) for line in dataset.read_text().splitlines()[:4]]
        traces = [r["trajectory"] for r in records]
        variants = [
            *traces,  # every id runs every record's calls on its own scene
            *(re.sub(r'label="[^"]*"', 'label="unicorn"', t) for t in traces),
            *(re.sub(r"view=\d+", "view=9", t, count=1) for t in traces),
            LEAKY_CODE,
        ]
        # interleaved: consecutive candidates never share an id
        cands = [(r["id"], v) for v in variants for r in records]
        interleaved = _score_lines(tmp_path / "interleaved.jsonl", dataset, cands)
        order = sorted(range(len(cands)), key=lambda n: cands[n][0])
        grouped = _score_lines(tmp_path / "grouped.jsonl", dataset, [cands[n] for n in order])
        assert [interleaved[n] for n in order] == grouped
        alone = [
            _score_lines(tmp_path / f"alone{n}.jsonl", dataset, [cand])[0]
            for n, cand in enumerate(cands)
        ]
        assert interleaved == alone


class TestScoreGroupSummary:
    """The stderr lines that say what GRPO sees of each run of candidates for one id."""

    @staticmethod
    def summary(tmp_path, dataset, capsys, cands) -> list:
        """The stderr lines of one `tiger score` call after its timed first line."""
        capsys.readouterr()
        rows = _score_lines(tmp_path / "c.jsonl", dataset, cands)
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"scored {len(rows)} candidates in ")
        return err[1:]

    @staticmethod
    def group_lines(lines) -> dict:
        """The summary's group lines, as a map from label to printed value."""
        labels = ("  groups", "  zero-variance group fraction", "  mean group std ")
        return dict(line.split(": ", 1) for line in lines if line.startswith(labels))

    @staticmethod
    def stds(value: str, **others) -> dict:
        """The std lines when every sub-reward reads value but those named in others."""
        return {
            f"  mean group std r_{key}": others.get(key, value)
            for key in ("format", "tool", "param", "code", "answer")
        }

    def test_equal_composites_are_one_flat_group(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        lines = self.summary(tmp_path, dataset, capsys, [(record["id"], record["trajectory"])] * 4)
        assert self.group_lines(lines) == {
            "  groups": "1, sizes 4 to 4",
            "  zero-variance group fraction": "1.000000",
            **self.stds("0.000000"),
        }

    def test_mixed_group_by_hand(self, tmp_path, dataset, capsys):
        first, second = (json.loads(line) for line in dataset.read_text().splitlines()[:2])
        wrong_tag = _mutated("format", first["trajectory"], first["scene"])
        cands = [
            (first["id"], first["trajectory"]),
            (first["id"], first["trajectory"]),
            (first["id"], wrong_tag),
            (second["id"], second["trajectory"]),
        ]
        lines = self.summary(tmp_path, dataset, capsys, cands)
        rows = [json.loads(line) for line in (tmp_path / "c.report").read_text().splitlines()]
        # the answer under another tag fails the format check and the answer match
        format_and_answer = [(r["r_format"], r["r_answer"]) for r in rows]
        assert format_and_answer == [(1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
        assert all(r[k] == 1.0 for r in rows for k in ("r_tool", "r_param", "r_code"))
        # (1, 1, 0) has mean 2/3 and std sqrt(2)/3; the second group's std is 0
        spread = f"{(math.sqrt(2.0) / 3.0 + 0.0) / 2.0:.6f}"
        assert spread == "0.235702"
        assert self.group_lines(lines) == {
            "  groups": "2, sizes 1 to 3",
            "  zero-variance group fraction": "0.500000",
            **self.stds("0.000000", format=spread, answer=spread),
        }

    def test_separated_runs_of_one_id_are_two_groups(self, tmp_path, dataset, capsys):
        first, second = (json.loads(line) for line in dataset.read_text().splitlines()[:2])
        a, b = (first["id"], first["trajectory"]), (second["id"], second["trajectory"])
        lines = self.summary(tmp_path, dataset, capsys, [a, a, b, a])
        assert self.group_lines(lines)["  groups"] == "3, sizes 1 to 2"

    def test_unmatched_ids_are_not_counted(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        a, stray = (record["id"], record["trajectory"]), (999, record["trajectory"])
        # a stray id between two candidates of one id does not split their group,
        # as it does not reset their tool cache
        lines = self.summary(tmp_path, dataset, capsys, [stray, a, stray, a, stray])
        assert self.group_lines(lines)["  groups"] == "1, sizes 2 to 2"
        assert lines[-1] == "  unmatched candidate ids: [999, 999, 999]"
        lines = self.summary(tmp_path, dataset, capsys, [stray])
        assert self.group_lines(lines) == {
            "  groups": "0, sizes 0 to 0",
            "  zero-variance group fraction": "0.000000",
            **self.stds("0.000000"),
        }

    def test_two_runs_print_the_same_bytes(self, tmp_path, dataset, capsys):
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        cands = [
            (r["id"], _mutated(kind, r["trajectory"], r["scene"]))
            for r in records
            for kind in ("exact", "param", "answer", "code", "bad_view")
        ]
        once = self.summary(tmp_path, dataset, capsys, cands)
        assert once == self.summary(tmp_path, dataset, capsys, cands)
        assert self.group_lines(once)["  groups"] == "6, sizes 5 to 5"


def _mutated(kind: str, trajectory: str, scene: dict) -> str:
    """One candidate for a record: its trajectory with one kind of mistake."""
    steps = list(parse_trajectory(trajectory).steps)
    calls = [i for i, s in enumerate(steps) if isinstance(s, ToolCall)]

    def first_with(key):
        return next((i for i in calls if steps[i].arg(key) is not None), None)

    def replace(i, key, value):
        args = tuple((k, value if k == key else v) for k, v in steps[i].args)
        steps[i] = ToolCall(steps[i].name, args)

    answer = steps[-1]
    point_at, label_at, view_at = first_with("point"), first_with("label"), first_with("view")
    if kind == "param":  # a nudged point, else another object's label, else another view
        if point_at is not None:
            point = steps[point_at].arg("point")
            nudged = {f: getattr(point, f) + 0.01 for f in ("x", "y", "z") if hasattr(point, f)}
            replace(point_at, "point", dataclasses.replace(point, **nudged))
        elif label_at is not None:
            labels = sorted(o["label"] for o in scene["objects"])
            k = labels.index(steps[label_at].arg("label").text)
            replace(label_at, "label", Text(labels[(k + 1) % len(labels)]))
        else:
            view = steps[view_at].arg("view").value
            replace(view_at, "view", Scalar((view + 1) % len(scene["views"])))
    elif kind == "answer":
        value = answer.value
        if isinstance(value, Choice):
            value = Choice("B" if value.letter == "A" else "A")
        elif isinstance(value, Scalar):
            value = Scalar(value.value * 1.1, value.unit)
        elif isinstance(value, Point3):
            value = Point3(value.x + 0.05, value.y, value.z)
        elif isinstance(value, ValueList):
            value = ValueList(tuple(Point2(p.x + 0.05, p.y, p.pixel) for p in value.items))
        elif isinstance(value, Matrix):
            value = Matrix(((*value.rows[0][:-1], value.rows[0][-1] + 0.05), *value.rows[1:]))
        steps[-1] = Answer(value, answer.format)
    elif kind == "format":  # a value under another answer tag
        tag = "text" if answer.format != "text" else "scalar"
        steps[-1] = Answer(answer.value, tag)
    elif kind == "code":
        code = [i for i in calls if steps[i].name == "code_executor"]
        if code:
            program = steps[code[-1]].arg("program").text
            replace(code[-1], "program", Text(f"{program} * 2"))
    elif kind == "unknown_label":
        if label_at is None:  # lead with a lookup, shifting every later r1..rN binding
            lookup = (("view", Scalar(0.0)), ("label", Text("unicorn")))
            steps.insert(calls[0], ToolCall("box_2d_to_box_3d", lookup))
        else:
            replace(label_at, "label", Text("unicorn"))
    elif kind == "bad_view":
        replace(view_at, "view", Scalar(float(len(scene["views"]) + 3)))
    text = render_trajectory(Trajectory(tuple(steps)))
    parse_trajectory(text)  # one unparsable candidate would abort the whole call
    return text


@pytest.mark.byte_pin
class TestScoreReportPin:
    """The reward contract: a `tiger score` report over fixed candidates, byte for byte.

    Eight generated records, one of each family, each scored as an exact
    copy and with one param, answer, format, code, unknown-label or bad-view
    mistake.
    A change to any tool, reward or diagnostic moves one of these digests;
    a deliberate change updates it and says why in CHANGES.md.
    """

    KINDS = ("exact", "param", "answer", "format", "code", "unknown_label", "bad_view")
    REPORT_DIGESTS = {
        "fitted": "54222ad85dcd57594edd1642c30a5e4b1d6697329b88f31b4939482cc3bd4e0b",
        "oracle": "368d3b1c8070a70710c59536e937e8c5063a112a6de4f4e73e3616ee596d8678",
    }

    @pytest.mark.parametrize("mode", sorted(REPORT_DIGESTS))
    def test_report_is_pinned(self, tmp_path, mode):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"count": 8, "seed": 29}))
        dataset = tmp_path / "data.jsonl"
        assert main(["generate", "--config", str(config), "--out", str(dataset)]) == 0
        records = [json.loads(line) for line in dataset.read_text().splitlines()]
        assert sorted(r["family"] for r in records) == sorted(DEFAULT_MIX)
        candidates = tmp_path / "candidates.jsonl"
        candidates.write_text("".join(
            json.dumps({"id": r["id"], "trajectory": _mutated(kind, r["trajectory"], r["scene"])}) + "\n"
            for r in records
            for kind in self.KINDS
        ))
        report = tmp_path / "report.jsonl"
        args = ["--dataset", str(dataset), "--candidates", str(candidates), "--mode", mode]
        assert main(["score", *args, "--out", str(report)]) == 0
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert digest == self.REPORT_DIGESTS[mode]


class TestRun:
    def test_replay_is_byte_identical(self, tmp_path, dataset):
        record = json.loads(dataset.read_text().splitlines()[0])
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(record["scene"]))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(record["trajectory"])
        out = tmp_path / "filled.txt"
        code = main(
            [
                "run",
                "--scene",
                str(scene_path),
                "--trajectory",
                str(traj_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == record["trajectory"] + "\n"

    def test_identity_extrinsics(self, tmp_path, capsys):
        scene = generate_scene(SceneParams(object_count=(1, 1), view_count=(1, 1)), 3)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene.to_dict()))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(
            "<think>pose</think>"
            "<tool_call>camera_extrinsics(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        code = main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)])
        assert code == 0
        assert "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]" in capsys.readouterr().out

    def test_thought_holding_a_block_tag_survives(self, tmp_path, capsys):
        scene = generate_scene(SceneParams(object_count=(1, 1), view_count=(1, 1)), 3)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene.to_dict()))
        thought = "<think>first <tool_call> then <answer format=x></think>"
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(
            thought + "<tool_call>camera_extrinsics(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        code = main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith(thought + "\n<tool_call>")

    def test_unknown_tool_exits_three(self, tmp_path, capsys):
        scene = generate_scene(SceneParams(object_count=(1, 1), view_count=(1, 1)), 3)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene.to_dict()))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(
            "<think>x</think>"
            "<tool_call>warp_drive(view=0)</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        code = main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)])
        assert code == 3
        assert "step 1" in capsys.readouterr().err

    def test_fitted_full_frame_segmentation_covers_the_frame(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(record["scene"]))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(
            "<think>x</think>"
            "<tool_call>depth_sensor(view=0, box=box(0, 0, 640, 480))</tool_call>"
            "<tool_call>object_segmentation(view=0, box=box(0, 0, 640, 480))</tool_call>"
            "<answer format=scalar>0</answer>"
        )
        args = ["--scene", str(scene_path), "--trajectory", str(traj_path), "--mode", "fitted"]
        assert main(["run", *args]) == 0
        _depth, mask = re.findall(r"<tool_response>\[(.*?)\]</tool_response>", capsys.readouterr().out)
        box_and_runs = [float(x) for x in mask.split(",")]
        assert box_and_runs[:4] == [0, 0, 640, 480]
        assert sum(box_and_runs[4:]) == 640 * 480

    # sha256 of the stdout of `tiger run` over a full-frame depth, a full-frame
    # segmentation and a label lookup in view 1 of one fixed scene; a change
    # to any cast, mask, RLE or fitted box moves one of them
    FULL_FRAME_DIGESTS = {
        "oracle": "95e46714def92a0207ea95465f17af3d5127f8cc2486857a8f01e0dd9c3ecb36",
        "fitted": "a96e8366341c6e0fee2e879de6bb4b4b3263bc918217187706b60696fea527af",
    }
    # generate_scene(SceneParams(object_count=(4, 4)), 3), stored
    FULL_FRAME_SCENE = os.path.join(os.path.dirname(__file__), "fixtures", "full_frame_scene.json")

    def full_frame_digest(self, tmp_path, capsys, scene_path, mode):
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(
            "<think>measure</think>"
            "<tool_call>depth_sensor(view=1, box=box(0, 0, 640, 480))</tool_call>"
            "<tool_call>object_segmentation(view=1, box=box(0, 0, 640, 480))</tool_call>"
            '<tool_call>box_2d_to_box_3d(view=1, label="table")</tool_call>'
            "<answer format=scalar>0</answer>"
        )
        args = ["--scene", str(scene_path), "--trajectory", str(traj_path), "--mode", mode]
        assert main(["run", *args]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("mode", sorted(FULL_FRAME_DIGESTS))
    def test_full_frame_outputs_are_pinned(self, tmp_path, capsys, mode):
        scene = generate_scene(SceneParams(object_count=(4, 4)), 3)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene.to_dict()))
        digest = self.full_frame_digest(tmp_path, capsys, scene_path, mode)
        assert digest == self.FULL_FRAME_DIGESTS[mode]

    @pytest.mark.byte_pin
    @pytest.mark.parametrize("mode", sorted(FULL_FRAME_DIGESTS))
    def test_stored_scene_full_frame_outputs_are_pinned(self, tmp_path, capsys, mode):
        # A stored scene leaves only the casts, masks and fits, so a change
        # to scene sampling alone does not move this pin.
        digest = self.full_frame_digest(tmp_path, capsys, self.FULL_FRAME_SCENE, mode)
        assert digest == self.FULL_FRAME_DIGESTS[mode]

    def test_unwritable_out_exits_one(self, tmp_path, dataset, capsys):
        record = json.loads(dataset.read_text().splitlines()[0])
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(record["scene"]))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(record["trajectory"])
        out = tmp_path / "nodir" / "filled.txt"
        args = ["--scene", str(scene_path), "--trajectory", str(traj_path), "--out", str(out)]
        code = main(["run", *args])
        assert code == 1
        assert_one_error(capsys, f"cannot write {out}: ")

    def test_infinite_focal_length_exits_one(self, tmp_path, dataset, capsys):
        # Python's json reads Infinity, which passes a sign test
        record = json.loads(dataset.read_text().splitlines()[0])
        record["scene"]["intrinsics"]["fx"] = math.inf
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(record["scene"]))
        assert '"fx": Infinity' in scene_path.read_text()
        traj_path = tmp_path / "traj.txt"
        traj_path.write_text(record["trajectory"])
        assert main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)]) == 1
        assert_one_error(capsys, f"{scene_path}: ")

    @pytest.mark.parametrize(
        "trace, reason",
        [
            (b"<think>x</think><tool_call>oops(</tool_call><answer format=scalar>0</answer>", "expected identifier"),
            (b"<think>\xff</think>", "'utf-8' codec can't decode byte 0xff"),
        ],
    )
    def test_bad_trace_names_its_file(self, tmp_path, dataset, capsys, trace, reason):
        record = json.loads(dataset.read_text().splitlines()[0])
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(record["scene"]))
        traj_path = tmp_path / "traj.txt"
        traj_path.write_bytes(trace)
        assert main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path)]) == 1
        assert_one_error(capsys, f"{traj_path}: {reason}")


@pytest.fixture(scope="module")
def fuzz_records(tmp_path_factory):
    """(scene path, trace text) of one generated record per family."""
    root = tmp_path_factory.mktemp("fuzz")
    records, _counts = tiger.generator.generate_records(SceneParams(object_count=(2, 4)), DEFAULT_MIX, 8, 31)
    pairs = []
    for n, line in enumerate(records):
        record = json.loads(line)
        scene_path = root / f"scene{n}.json"
        scene_path.write_text(json.dumps(record["scene"]))
        pairs.append((scene_path, record["trajectory"]))
    return root, pairs


# pieces of the trace grammar, so that insertions reach past the tokenizer
_FRAGMENTS = (
    "<think>", "</think>", "<tool_call>", "</tool_call>", "<tool_response>", "</tool_response>",
    "<answer format=scalar>", "</answer>", "view=", "box=box(", "point=", "label=", "(", ")",
    ",", '"', "=", "r1", "0", "-1", "640", "1e308", "nan", "inf", " ", "\n",
)
_EDIT = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(_FRAGMENTS) | st.text(max_size=6)),
    st.tuples(st.just("splice"), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 80)),
)


def _edited(text, edits):
    """text after each deletion, insertion, or splice of one of its own fragments."""
    for op, at, *rest in edits:
        at %= len(text) + 1
        if op == "delete":
            text = text[:at] + text[at + rest[0]:]
        elif op == "insert":
            text = text[:at] + rest[0] + text[at:]
        else:
            source = rest[0] % (len(text) + 1)
            text = text[:at] + text[source:source + rest[1]] + text[at:]
    return text


@settings(max_examples=80, deadline=None)
@given(
    index=st.integers(0, 7),
    edits=st.lists(_EDIT, min_size=1, max_size=4),
    mode=st.sampled_from(["oracle", "fitted"]),
)
def test_run_of_a_mutated_trace_never_raises(fuzz_records, index, edits, mode):
    root, pairs = fuzz_records
    scene_path, text = pairs[index]
    traj_path = root / "trace.txt"
    traj_path.write_text(_edited(text, edits), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--scene", str(scene_path), "--trajectory", str(traj_path), "--mode", mode])
    assert code in (0, 1, 3)
    assert (code == 0) == (err.getvalue() == "")
    assert code == 0 or err.getvalue().startswith("error: ")


class TestEval:
    def _write(self, path, rows):
        with open(path, "w") as f:
            for row in rows:
                f.write(json.dumps(row) + "\n")

    def test_delta2_perfect(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        rows = [{"id": i, "value": 1.0 + i} for i in range(5)]
        self._write(preds, rows)
        self._write(refs, rows)
        code = main(
            ["eval", "--predictions", str(preds), "--references", str(refs), "--metric", "delta2"]
        )
        assert code == 0
        assert "accuracy: 5/5" in capsys.readouterr().err

    def test_delta2_all_outside(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        self._write(preds, [{"id": i, "value": 0.49 * (1.0 + i)} for i in range(4)])
        self._write(refs, [{"id": i, "value": 1.0 + i} for i in range(4)])
        code = main(
            ["eval", "--predictions", str(preds), "--references", str(refs), "--metric", "delta2"]
        )
        assert code == 0
        assert "accuracy: 0/4" in capsys.readouterr().err

    def test_delta2_spotcheck_against_function(self, tmp_path, capsys):
        from tiger.rewards import evaluate_delta2

        import numpy as np

        rng = np.random.default_rng(17)
        refs = [{"id": i, "value": float(rng.uniform(0.5, 4.0))} for i in range(20)]
        preds = [
            {"id": i, "value": float(r["value"] * rng.uniform(0.3, 2.5))}
            for i, r in enumerate(refs)
        ]
        p, r = tmp_path / "p.jsonl", tmp_path / "r.jsonl"
        self._write(p, preds)
        self._write(r, refs)
        code = main(["eval", "--predictions", str(p), "--references", str(r)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        for line in out:
            row = json.loads(line)
            expected = evaluate_delta2(preds[row["id"]]["value"], refs[row["id"]]["value"])
            assert row["correct"] == expected

    def test_interval_metric(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        self._write(preds, [{"id": 0, "value": 0.1}, {"id": 1, "value": 0.3}])
        self._write(refs, [{"id": 0, "lo": 0.05, "hi": 0.15}, {"id": 1, "lo": 0.05, "hi": 0.15}])
        code = main(
            ["eval", "--predictions", str(preds), "--references", str(refs), "--metric", "interval"]
        )
        assert code == 0
        assert "accuracy: 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_file, row",
        [
            ("references", {"value": 1.0}),
            ("references", {"id": [0], "value": 1.0}),
            ("predictions", [0, 1.0]),
            ("predictions", {"id": 0, "value": None}),
        ],
        ids=["ref_without_id", "ref_list_id", "pred_array", "pred_null_value"],
    )
    def test_malformed_line_names_it(self, tmp_path, capsys, bad_file, row):
        paths = {"predictions": tmp_path / "p.jsonl", "references": tmp_path / "r.jsonl"}
        good = {"id": 0, "value": 1.0}
        self._write(paths["predictions"], [good])
        self._write(paths["references"], [good])
        self._write(paths[bad_file], [good, row] if bad_file == "references" else [row])
        line = 2 if bad_file == "references" else 1
        code = main(
            ["eval", "--predictions", str(paths["predictions"]),
             "--references", str(paths["references"])]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {paths[bad_file]}:{line}: ")

    def test_misaligned_ids_exit_one(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        self._write(preds, [{"id": 7, "value": 1.0}])
        self._write(refs, [{"id": 0, "value": 1.0}])
        code = main(["eval", "--predictions", str(preds), "--references", str(refs)])
        assert code == 1

    def test_bool_id_matches_only_a_bool(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        self._write(refs, [{"id": 0, "value": 1.0}, {"id": 1, "value": 2.0}, {"id": False, "value": 3.0}])
        self._write(preds, [{"id": 1.0, "value": 2.0}, {"id": False, "value": 3.0}])
        assert main(["eval", "--predictions", str(preds), "--references", str(refs)]) == 0
        assert "accuracy: 2/2" in capsys.readouterr().err
        self._write(preds, [{"id": 1.0, "value": 2.0}, {"id": True, "value": 2.0}])
        assert main(["eval", "--predictions", str(preds), "--references", str(refs)]) == 1
        assert_one_error(capsys, f"{preds}:2: no reference with id True")

    def test_non_utf8_predictions_name_their_file(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        refs = tmp_path / "r.jsonl"
        preds.write_bytes(b"\xff\n")
        self._write(refs, [{"id": 0, "value": 1.0}])
        code = main(["eval", "--predictions", str(preds), "--references", str(refs)])
        assert code == 1
        assert_one_error(capsys, f"{preds}: 'utf-8' codec can't decode byte 0xff")


class TestDsl:
    def test_program_argument(self, capsys):
        assert main(["dsl", "--program", "norm(vec(3, 4, 0))"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_bindings_file(self, tmp_path, capsys):
        bindings = tmp_path / "b.json"
        bindings.write_text(
            json.dumps(
                {
                    "a": "obb(center=(0, 0, 0), half=(0.5, 0.5, 0.5), yaw=0)",
                    "b": "obb(center=(3, 0, 0), half=(0.5, 0.5, 0.5), yaw=0)",
                }
            )
        )
        code = main(["dsl", "--program", "obb_dist(a, b)", "--bindings", str(bindings)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_error_exits_one(self, capsys):
        assert main(["dsl", "--program", "1/0"]) == 1

    def test_unrepresentable_result_exits_one(self, capsys):
        assert main(["dsl", "--program", "norm(vec(1e308, 1e308))"]) == 1
        assert_one_error(capsys, "program result is not representable: ")

    def test_overflow_writes_one_error_line_and_no_warning(self, capfd):
        assert run_tiger("dsl", "--program", "norm(vec(1e308, 1e308))") == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc", [["a"], {"a": 5}], ids=["array", "number_value"])
    def test_bindings_of_wrong_shape_exit_one(self, tmp_path, capsys, doc):
        bindings = tmp_path / "b.json"
        bindings.write_text(json.dumps(doc))
        code = main(["dsl", "--program", "a", "--bindings", str(bindings)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad bindings: ")

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "program.txt"
        path.write_bytes(b"\xff\xfe1")
        assert main(["dsl", "--file", str(path)]) == 1
        assert_one_error(capsys, f"cannot read {path}: ")
