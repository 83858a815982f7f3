#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --seeds 1-10                 # every workload
    python3 perfbench/repeat.py --workloads dict-batch --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --json runs.json
    python3 perfbench/repeat.py --seeds 1-10 --baseline      # record in spec.json
    python3 perfbench/repeat.py --seeds 1 --trace 1 --baseline

For every workload and metric it prints the quartiles of the values over
the seeds (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, flagged when it exceeds a third of the metric's
bound in ``BENCHMARK.json``.  Every run must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from measure import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Row figures whose median the baseline records beside the metrics.
ROW_FIGURES = ("slo_rate_qps", "class_error", "loop_ms_per_query", "failed_frac")


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: Dict[str, Any], workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["row"] = json.loads(lines[-2]) if len(lines) > 1 else None
    result["wall_s"] = wall
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers: {lines[-1]}")
    return result


def main(argv: List[str] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write every run here")
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="record the quartiles (--trace 0) or the first run's per-layer "
        "figures (--trace 1) in spec.json",
    )
    args = parser.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    runs: Dict[str, List[Dict[str, Any]]] = {}
    steady = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            result = run_once(spec, workload, seed, args.seconds, args.trace)
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)
        print(f"\n{workload} ({len(runs[workload])} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            if len(values) < 2:
                continue
            q1, q2, q3, spread = quartile_spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  > bound/3 ({bound / 3:.3f})"
                steady = False
            print(
                f"  {name:28s} q1 {q1:12.4f}  median {q2:12.4f}  "
                f"q3 {q3:12.4f}  spread {spread:.3f}{flag}"
            )
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    if args.baseline:
        _record_baseline(runs, bounds, args)
    return 0 if steady else 3


def _record_baseline(
    runs: Dict[str, List[Dict[str, Any]]], bounds: Dict[str, Any], args: argparse.Namespace
) -> None:
    path = HERE / "spec.json"
    doc = json.loads(path.read_text())
    for workload, results in runs.items():
        first = results[0]["row"]
        if args.trace:
            doc["traced_breakdown"][workload] = {
                "seed": results[0]["seed"],
                "run_seconds": args.seconds,
                "tags": first["tags"],
                "metrics": {k: v["value"] for k, v in results[0]["metrics"].items()},
                "layers": first["layers"],
            }
            continue
        entry: Dict[str, Any] = {
            "seeds": [r["seed"] for r in results],
            "run_seconds": args.seconds,
            "tags": first["tags"],
            "metrics": {},
            "row_medians": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, spread = quartile_spread(values)
            entry["metrics"][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread,
            }
        for figure in ROW_FIGURES:
            values = [r["row"][figure] for r in results if r["row"].get(figure) is not None]
            if values:
                entry["row_medians"][figure] = statistics.median(values)
        doc["baseline"][workload] = entry
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
