"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 tigerbench/repeat.py --workload NAME --seeds 1-10 [--seconds 20] [--overhead]

For every end-to-end metric this prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With --overhead each seed
also runs traced, and the traced-minus-untraced difference of the medians is
printed as the tracing overhead.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import LINE_PATTERN

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Every `name = value unit (n=..)` line of one run, plus its result line."""
    cmd = [sys.executable, "tigerbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    values = {m.group(1): float(m.group(2)) for m in map(LINE_PATTERN.match, lines) if m}
    return {"result": result, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    runs = {0: [], 1: []}
    for seed in seeds:
        for trace in (0, 1) if args.overhead else (0,):
            run = run_once(args.workload, seed, seconds, trace)
            runs[trace].append(run)
            r = run["result"]
            print(f"seed {seed} trace {trace}: attempted {r['attempted']} failed {r['failed']} "
                  + " ".join(f"{m['name']}={run['values'][m['name']]:.6g}" for m in spec["end_to_end"]),
                  flush=True)

    print(f"\n{args.workload}, {len(seeds)} seeds, {seconds} s per run")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["values"][name] for run in runs[0]]
        median = statistics.median(values)
        line = f"  {name}: median {median:.6g} {metric['unit']}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / median:.4f}"
        line += f"  (bound {metric['bound']})"
        if args.overhead:
            traced = statistics.median(run["values"][name] for run in runs[1])
            line += f"  traced {traced:.6g}  overhead {traced - median:+.6g} ({(traced - median) / median:+.2%})"
        print(line)
    failed = sum(run["result"]["failed"] for trace in runs for run in runs[trace])
    print(f"  failed requests over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
