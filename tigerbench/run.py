"""tiger benchmark: one workload, one seed, one timed closed loop.

    python3 tigerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With --trace 0 the last line of stdout is a JSON object
whose metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
the same run is made with layer spans on and the metrics are the per-layer
ones.  Lines before it print every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".tigerbench_work"

# set-up runs this many times per run; setup_s is the median
SETUP_REPEATS = 3

# one report line per metric: "  name = value unit (n=samples)"
LINE_PATTERN = re.compile(r"^  (\S+) = (\S+) (\S+) \(n=(\d+)\)")

# The workload-specific names of the end-to-end metrics, for the report lines.
ALIASES = {
    "generate": {"throughput_per_s": "gen_samples_per_s"},
    "score_groups": {
        "throughput_per_s": "score_candidates_per_s",
        "latency_ms_p50": "score_group_ms_p50",
        "latency_ms_p90": "score_group_ms_p90",
    },
    "replay_fullres": {
        "throughput_per_s": "replay_traces_per_s",
        "latency_ms_p50": "replay_ms_p50",
        "latency_ms_p90": "replay_ms_p90",
    },
}


def import_tiger():
    """Put the checkout's src/ first on the path; refuse any other tiger."""
    if not (SRC / "tiger" / "__init__.py").is_file():
        sys.exit(f"error: no tiger sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tiger

    if Path(tiger.__file__).resolve().parent != SRC / "tiger":
        sys.exit(f"error: imported tiger from {tiger.__file__}, not from {SRC}")


def end_to_end_metrics(durations, items, setup_times) -> dict:
    from tracing import percentile

    latencies = [d * 1e3 for d in durations]
    n = len(latencies)
    return {
        "throughput_per_s": (items / sum(durations), "1/s", items),
        "latency_ms_p50": (percentile(latencies, 50), "ms", n),
        "latency_ms_p90": (percentile(latencies, 90), "ms", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def run(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    from tracing import Tracer, per_layer_metrics

    setup_times = []
    state = None
    for k in range(SETUP_REPEATS):
        attempt_dir = os.path.join(workdir, f"setup{k}")
        os.mkdir(attempt_dir)
        start = perf_counter()
        state = workload.setup(seed, attempt_dir)
        setup_times.append(perf_counter() - start)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    durations, items, failed, problems = [], 0, 0, []
    try:
        while sum(durations) < seconds:
            i = len(durations)
            if tracer:
                tracer.request, tracer.enabled = i, True
            start = perf_counter()
            items += workload.request(state, i)
            durations.append(perf_counter() - start)
            if tracer:
                tracer.enabled = False
                tracer.count_repeats()
            found = workload.check(state, i)
            if found:
                failed += 1
                problems += [f"request {i}: {p}" for p in found]
    finally:
        if tracer:
            tracer.restore()

    e2e = end_to_end_metrics(durations, items, setup_times)
    result = {"attempted": len(durations), "failed": failed, "problems": problems, "e2e": e2e}
    if tracer:
        result["layers"] = per_layer_metrics(tracer, items)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_tiger()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_ROOT.rmdir()

    aliases = ALIASES[workload.name]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} requests, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4f})")
    for problem in result["problems"][:20]:
        print(f"  check failed: {problem}")
    for name, (value, unit, n) in result["e2e"].items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name} = {value!r} {unit} (n={n}){alias}")
    metrics = result["e2e"]
    if args.trace:
        for name, (value, unit, n) in result["layers"].items():
            print(f"  {name} = {value!r} {unit} (n={n})")
        metrics = result["layers"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
