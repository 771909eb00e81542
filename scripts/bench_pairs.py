#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record both.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload capture-comacc-permissive --seeds 0 1 2 --out BENCH_x.json

For each seed, ``perfbench/run.py --workload W --seed N --seconds S --trace T``
runs once in each checkout, one process at a time; pair k runs the parent
first when k is even and the change first when it is odd, so that a drift of
the machine's speed does not favour one side. The last line of each run's
output (its JSON result) is appended to ``--out``, which is created if it
does not exist, and the per-workload summary in that file is recomputed:
for every metric, the median and quartiles of each side, the ratio of the
medians, and for the end-to-end metrics in how many pairs the change was
better and whether the medians differ by more than the parent's quartile
spread.

A run that prints no JSON result (it crashed, or was killed) is recorded
with its exit code and the tail of its stderr. A pair with such a run is
left out of the medians and counted in the summary's ``failed_pairs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

LOWER_IS_BETTER = {"setup_s", "run_s", "peak_rss_mb"}
HIGHER_IS_BETTER = {"env_steps_per_s"}
STDERR_TAIL_LINES = 20


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"failed_run": True,
                  "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL_LINES:]}
    result["exit_code"] = proc.returncode
    result["report"] = [line for line in lines if line.startswith("# cross")]
    return result


def pair_failed(pair: dict) -> bool:
    return any(pair[side].get("failed_run") for side in ("parent", "change"))


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict]) -> dict:
    out: dict = {}
    for trace in (0, 1):
        for workload in sorted({r["workload"] for r in runs if r["trace"] == trace}):
            tried = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            pairs = [p for p in tried if not pair_failed(p)]
            table = {}
            names = pairs[0]["parent"]["metrics"] if pairs else []
            for name in names:
                before = [p["parent"]["metrics"][name]["value"] for p in pairs]
                after = [p["change"]["metrics"][name]["value"] for p in pairs]
                b1, b2, b3 = quartiles(before)
                a1, a2, a3 = quartiles(after)
                entry = {"parent_median": b2, "parent_q1": b1, "parent_q3": b3,
                         "change_median": a2, "change_q1": a1, "change_q3": a3,
                         "ratio": a2 / b2 if b2 else None}
                if name in LOWER_IS_BETTER | HIGHER_IS_BETTER:
                    sign = 1.0 if name in HIGHER_IS_BETTER else -1.0
                    entry["change_better_pairs"] = sum(
                        sign * (a - b) > 0 for a, b in zip(after, before))
                    entry["median_gap_exceeds_parent_iqr"] = abs(a2 - b2) > b3 - b1
                table[name] = entry
            out[f"{workload} trace{trace}"] = {
                "pairs": len(pairs), "seeds": [p["seed"] for p in pairs],
                "failed_pairs": len(tried) - len(pairs), "metrics": table}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    data = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "parent_commit": commit(args.parent), "runs": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "trace": args.trace,
                "seconds": args.seconds, "order": list(order)}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed, args.seconds, args.trace)
        data["runs"].append(pair)
        data["summary"] = summarise(data["runs"])
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} " + (f"failed (exit {pair[side]['exit_code']})"
                          if pair[side].get("failed_run") else
                          str(pair[side]["metrics"].get("env_steps_per_s", {}).get("value", "-")))
            for side in ("parent", "change")), flush=True)


if __name__ == "__main__":
    main()
