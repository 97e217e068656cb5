"""The three workloads: closed loop, one client, inputs made in set-up.

Each workload has a `setup(seed, workdir)` that builds its inputs, a
`request(state, i)` that makes one call into tiger's public entry points and
returns the number of items it handled, and a `check(state, i)` that reads
what the request wrote and returns its problems.  Only `request` is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import tiger.cli
from tiger.generator import DEFAULT_MIX, SceneParams, generate_dataset

import checks
import inputs

# generate: one request is one dataset of one sample per family.
GENERATE_COUNT = len(DEFAULT_MIX)
# set-up: a fixed warm-up of four requests' worth of samples
WARMUP_COUNT = 4 * GENERATE_COUNT
WARMUP_SEED = 0
# score_groups and replay_fullres draw their prompts from a pool that set-up
# generates from this fixed seed, so that set-up does the same work for every
# workload seed; the workload seed picks the order of the pool, the candidate
# mutations and which trace runs in which mode.
POOL_SEED = 0
# score_groups: prompts made in set-up, eight per family; requests cycle
# through them.
SCORE_PROMPTS = 64
# replay_fullres: object-size prompts made in set-up, one trace each, over
# scenes of a fixed object count so that every full-frame cast costs the same.
# A 30 s run at the baseline rate uses about 80 of them; only a run that needs
# more cycles back and repeats a trace.
REPLAY_PROMPTS = 96
REPLAY_SCENE = SceneParams(object_count=(4, 4))


def score_prompts(count, seed, path):
    """The score_groups prompts, from the fixed pool in the seed's order."""
    return inputs.shuffled(
        inputs.generate_records(count, inputs.sub_seed(POOL_SEED, "prompts"), path),
        seed, "prompt order",
    )


def replay_records(count, seed, path):
    """The replay_fullres scenes, from the fixed pool in the seed's order."""
    records = inputs.generate_records(
        count, inputs.sub_seed(POOL_SEED, "scenes"), path,
        params=REPLAY_SCENE, mix={"object_size": 1.0},
    )
    return inputs.shuffled(records, seed, "scene order")


def _silent_main(argv) -> int:
    """`tiger.cli.main` in-process, with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return tiger.cli.main(argv)


class Generate:
    """Dataset production: `generate_dataset` over the uniform 8-family mix."""

    name = "generate"

    def setup(self, seed, workdir):
        # the same warm-up for every seed, so that setup_s measures the
        # program rather than the luck of one seed's scenes
        path = os.path.join(workdir, "warmup.jsonl")
        generate_dataset(SceneParams(), DEFAULT_MIX, WARMUP_COUNT, WARMUP_SEED, path, jobs=1)
        return {"seed": seed, "workdir": workdir}

    def _path(self, state, i):
        return os.path.join(state["workdir"], f"data{i}.jsonl")

    def request(self, state, i):
        generate_dataset(SceneParams(), DEFAULT_MIX, GENERATE_COUNT,
                         inputs.sub_seed(state["seed"], "request", i), self._path(state, i),
                         jobs=1)
        return GENERATE_COUNT

    def check(self, state, i):
        path = self._path(state, i)
        problems = checks.check_dataset_file(path, GENERATE_COUNT)
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                problems += checks.check_record(line)
        os.remove(path)
        return problems


class ScoreGroups:
    """Reward-server path: one `tiger score` call per GRPO group of 8."""

    name = "score_groups"

    def setup(self, seed, workdir):
        records = score_prompts(SCORE_PROMPTS, seed, os.path.join(workdir, "prompts.jsonl"))
        groups = []
        for n, record in enumerate(records):
            dataset = os.path.join(workdir, f"prompt{n}.jsonl")
            candidates = os.path.join(workdir, f"group{n}.jsonl")
            inputs.write_jsonl(dataset, [record])
            inputs.write_jsonl(candidates, inputs.build_group(record, seed))
            groups.append((dataset, candidates))
        return {"groups": groups, "report": os.path.join(workdir, "report.jsonl")}

    def request(self, state, i):
        dataset, candidates = state["groups"][i % len(state["groups"])]
        state["code"] = _silent_main(
            ["score", "--dataset", dataset, "--candidates", candidates, "--out", state["report"]]
        )
        return len(inputs.CANDIDATE_KINDS)

    def check(self, state, i):
        if state["code"] != 0:
            return [f"tiger score exited {state['code']}"]
        with open(state["report"], "r", encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        return checks.check_group(rows)


class ReplayFullres:
    """`tiger run` of full-frame sensor traces; half of them in fitted mode."""

    name = "replay_fullres"

    def setup(self, seed, workdir):
        records = replay_records(REPLAY_PROMPTS, seed, os.path.join(workdir, "scenes.jsonl"))
        requests = []
        for n, trace in enumerate(inputs.build_replay_traces(records)):
            scene_path = os.path.join(workdir, f"scene{n}.json")
            trace_path = os.path.join(workdir, f"trace{n}.txt")
            with open(scene_path, "w", encoding="utf-8") as f:
                json.dump(trace.scene, f)
            with open(trace_path, "w", encoding="utf-8") as f:
                f.write(trace.text)
            requests.append((trace, scene_path, trace_path))
        return {"requests": requests, "out": os.path.join(workdir, "replayed.txt")}

    def request(self, state, i):
        trace, scene_path, trace_path = state["requests"][i % len(state["requests"])]
        state["code"] = _silent_main(
            ["run", "--scene", scene_path, "--trajectory", trace_path,
             "--mode", trace.mode, "--out", state["out"]]
        )
        return 1

    def check(self, state, i):
        if state["code"] != 0:
            return [f"tiger run exited {state['code']}"]
        trace = state["requests"][i % len(state["requests"])][0]
        k = trace.scene["intrinsics"]
        with open(state["out"], "r", encoding="utf-8") as f:
            output = f.read()
        return checks.check_replay(output, trace, k["width"], k["height"])


WORKLOADS = {w.name: w for w in (Generate(), ScoreGroups(), ReplayFullres())}
