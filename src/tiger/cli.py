"""Command-line entry point: generate, score, run, eval, dsl.

Every command is deterministic given its inputs and flags and never mutates
its inputs.  Exit codes: 0 success, 1 config/parse error, 2 generation
failure, 3 tool error during replay.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections.abc import Hashable

from . import generator, minidsl
from .generator import GenerationError, PlacementFailure, SceneParams, generate_dataset
from .rewards import RewardConfig, evaluate_delta2, check_interval, score_trajectory
from .runtime import ExecutionContext, ToolError, TrajectoryRunError, run_trajectory
from .scene import Scene
from .trajectory import (
    parse_trajectory,
    parse_value,
    render_trajectory,
    render_value,
)


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_jsonl(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            for number, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append((number, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded a buffer at a time: no line number
            raise ValueError(f"{path}: {exc}") from exc
    return records


def _field(record: dict, name: str):
    """record[name]; a missing field is a ValueError that names it."""
    if name not in record:
        raise ValueError(f'missing "{name}"')
    return record[name]


def _id_key(sample_id):
    """The key under which an id matches a record; None for an unhashable id.

    Python has True == 1 with equal hashes, so a bare id would match JSON
    `true` to record 1. A bool matches only a bool; numbers still match by
    value, so 1.0 matches 1.
    """
    if not isinstance(sample_id, Hashable):
        return None
    return (isinstance(sample_id, bool), sample_id)


def _index_by_id(path, records) -> dict:
    """Map each record's id key (see _id_key) to (line number, record).

    Raises ValueError naming the line of a record that is not an object with
    a hashable "id", or whose id repeats an earlier one.
    """
    by_id = {}
    for number, record in records:
        key = _id_key(record["id"]) if isinstance(record, dict) and "id" in record else None
        if key is None:
            raise ValueError(f'{path}:{number}: expected an object with an "id"')
        if key in by_id:
            raise ValueError(f"{path}:{number}: duplicate id {record['id']!r}")
        by_id[key] = (number, record)
    return by_id


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            config = json.load(f)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read config: {exc}")
    if not isinstance(config, dict):
        return _fail("bad config: expected a JSON object")
    try:
        params = SceneParams.from_dict(config.get("scene", {}))
        mix = config.get("mix", generator.DEFAULT_MIX)
        if not isinstance(mix, dict):
            raise ValueError("mix must be an object mapping families to ratios")
        count = config.get("count", 10)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"count must be an integer >= 1, not {count!r}")
        seed = config.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, not {seed!r}")
        if args.seed is not None:
            seed = args.seed
        if args.jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, not {args.jobs!r}")
        generator.allocate_counts(mix, count)
        generator.check_mix_feasible(params, mix)
    except (ValueError, TypeError) as exc:
        return _fail(f"bad config: {exc}")
    try:
        manifest = generate_dataset(params, mix, count, seed, args.out, jobs=args.jobs)
    except (GenerationError, PlacementFailure) as exc:
        return _fail(str(exc), code=2)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    print(f"wrote {count} samples to {args.out}")
    print(f"manifest: {args.out}.manifest.json ({manifest['digest']})")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def cmd_score(args) -> int:
    started = time.monotonic()
    try:
        dataset = _read_jsonl(args.dataset)
        candidates = _read_jsonl(args.candidates)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    cfg = RewardConfig()
    if args.reward_config:
        try:
            cfg = RewardConfig.from_file(args.reward_config)
        except (OSError, ValueError, TypeError) as exc:
            return _fail(f"bad reward config: {exc}")
    try:
        by_id = _index_by_id(args.dataset, dataset)
    except ValueError as exc:
        return _fail(str(exc))
    # ground truth and scene, parsed once per id on its first candidate
    parsed = {}
    # the tool cache of the current run of consecutive candidates for one id
    cache, cache_id = {}, None
    rows = []
    unmatched = []
    for number, cand in candidates:
        if not isinstance(cand, dict):
            return _fail(f"{args.candidates}:{number}: expected a JSON object")
        sample_id = cand.get("id")
        key = _id_key(sample_id)
        entry = by_id.get(key)
        if entry is None:
            unmatched.append(sample_id)
            continue
        try:
            pred = parse_trajectory(_field(cand, "trajectory"))
        except (ValueError, TypeError) as exc:
            return _fail(f"{args.candidates}:{number}: {exc}")
        if key not in parsed:
            line, record = entry
            try:
                parsed[key] = (
                    parse_trajectory(_field(record, "trajectory")),
                    Scene.from_dict(_field(record, "scene")),
                )
            except (ValueError, TypeError) as exc:
                return _fail(f"{args.dataset}:{line}: {exc}")
        gt, scene = parsed[key]
        if key != cache_id:
            cache, cache_id = {}, key
        breakdown = score_trajectory(pred, gt, scene, mode=args.mode, cfg=cfg, cache=cache)
        rows.append({"id": sample_id, **breakdown.to_dict()})
    seconds = time.monotonic() - started
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    try:
        for row in rows:
            line = json.dumps(row)
            if out:
                out.write(line + "\n")
            else:
                print(line)
    finally:
        if out:
            out.close()
    print(f"scored {len(rows)} candidates in {seconds:.2f}s", file=sys.stderr)
    for key in ("r_format", "r_tool", "r_param", "r_code", "r_answer", "composite"):
        mean = math.fsum(row[key] for row in rows) / len(rows) if rows else 0.0
        print(f"  mean {key}: {mean:.6f}", file=sys.stderr)
    for row in rows:
        for diag in row["diagnostics"]:
            if diag["error"] is not None:
                print(
                    f"  id {row['id']} failed at step {diag['step_index']}: {diag['error']}",
                    file=sys.stderr,
                )
    if unmatched:
        print(f"  unmatched candidate ids: {unmatched}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    try:
        scene = Scene.load(args.scene)
    except ValueError as exc:  # a malformed JSON or scene document
        return _fail(f"{args.scene}: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    try:
        with open(args.trajectory, "r", encoding="utf-8") as f:
            text = f.read()
        trajectory = parse_trajectory(text)
    except ValueError as exc:  # a trace that is not UTF-8 or does not parse
        return _fail(f"{args.trajectory}: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    ctx = ExecutionContext(scene, args.mode)
    try:
        filled = run_trajectory(ctx, trajectory)
    except TrajectoryRunError as exc:
        return _fail(str(exc), code=3)
    rendered = render_trajectory(filled)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(rendered + "\n")
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc}")
    else:
        print(rendered)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_record(metric: str, pred: dict, ref: dict) -> bool:
    if metric == "delta2":
        return evaluate_delta2(float(pred["value"]), float(ref["value"]))
    if metric == "exact":
        return pred["value"] == ref["value"]
    if metric == "interval":
        return check_interval(float(pred["value"]), float(ref["lo"]), float(ref["hi"]))
    raise ValueError(metric)


def cmd_eval(args) -> int:
    try:
        predictions = _read_jsonl(args.predictions)
        references = _read_jsonl(args.references)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        refs = _index_by_id(args.references, references)
    except ValueError as exc:
        return _fail(str(exc))
    verdicts = []
    for number, pred in predictions:
        if not isinstance(pred, dict):
            return _fail(f"{args.predictions}:{number}: expected a JSON object")
        pred_id = pred.get("id")
        entry = refs.get(_id_key(pred_id))
        if entry is None:
            return _fail(f"{args.predictions}:{number}: no reference with id {pred_id!r}")
        _, ref = entry
        try:
            ok = _eval_record(args.metric, pred, ref)
        except (ValueError, TypeError, OverflowError, KeyError) as exc:
            return _fail(f"{args.predictions}:{number}: {exc}")
        verdicts.append({"id": pred["id"], "correct": ok})
    for verdict in verdicts:
        print(json.dumps(verdict))
    correct = sum(1 for v in verdicts if v["correct"])
    total = len(verdicts)
    accuracy = correct / total if total else 0.0
    print(f"accuracy: {correct}/{total} = {accuracy:.4f}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# dsl
# ---------------------------------------------------------------------------


def cmd_dsl(args) -> int:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as f:
                source = f.read()
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read {args.file}: {exc}")
    else:
        source = args.program
    bindings = {}
    if args.bindings:
        try:
            with open(args.bindings, "r", encoding="utf-8") as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object of name -> value literal")
            from .runtime import _to_dsl

            for name, text in doc.items():
                if not isinstance(text, str):
                    raise ValueError(f"binding {name!r} is not a value literal string")
                bindings[name] = _to_dsl(parse_value(text))
        except (OSError, ValueError) as exc:
            return _fail(f"bad bindings: {exc}")
    from .runtime import _from_dsl

    try:
        value = _from_dsl(minidsl.run(source, bindings))
    except (minidsl.DslError, ToolError) as exc:
        return _fail(str(exc))
    print(render_value(value))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiger",
        description="Geometric tool runtime, dataset generation, and trajectory scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("score", help="score candidate trajectories against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--reward-config", default=None)
    p.add_argument("--mode", choices=("oracle", "fitted"), default="oracle")
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="replay a trajectory against a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--mode", choices=("oracle", "fitted"), default="oracle")
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="grade scalar predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--metric", choices=("delta2", "exact", "interval"), default="delta2")

    p = sub.add_parser("dsl", help="evaluate a program for debugging")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--program")
    group.add_argument("--file")
    p.add_argument("--bindings", default=None, help="JSON map of name -> value literal")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name at call time, so a replaced cmd_* function is the one run
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
