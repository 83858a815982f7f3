#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dict-shard2 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and reports its end-to-end
metrics; ``--trace 1`` runs an untraced and then a traced pass of half
the time each and reports the per-layer metrics (see ``tracing.py``),
including the tracing overhead between the two passes.  Every answer of
every pass is verified outside the timed region (see ``workloads.py``).

A fixed probe sampled between timed operations (``measure.SpeedMeter``)
reports how much slower than usual the machine ran during each pass;
the figures themselves are as measured.

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it holds the full
row (sizes, tags, percentiles, per-step figures).  The command exits 1
when any answer is wrong, and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit (every workload reports all of them).
#: The latency median and tail are in the row instead: on the machine the
#: benchmark was built on they moved by a third between runs.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "q/s",
    "dist_per_query": "count",
    "peak_rss_mb": "MiB",
}


@dataclass
class Measured:
    """Everything one run collected."""

    setups: List[float]
    passes: List[Any]
    #: the machine's slowdown during each pass (``SpeedMeter.factor``)
    slowdowns: List[float]
    ref: Any
    rss: float
    recorder: Any = None
    layer_state: Any = None


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _ambient_tags(mode: str) -> Dict[str, Any]:
    """The repo's mandatory row tags (``benchmarks/bench_tags.py``)
    plus the core count."""
    from repro.batch import jit, persistent_pool_enabled
    from repro.tools import knobs

    return {
        "kernel_backend": jit.backend_name(),
        "pool": "persistent" if persistent_pool_enabled() else "per-call",
        "mode": mode,
        "faults": knobs.get_str("REPRO_FAULTS") or "",
        "nproc": os.cpu_count(),
    }


def _measure(wl: Any, args: argparse.Namespace) -> Measured:
    """Set up, run the timed pass(es) and verify."""
    from measure import SpeedMeter, live_children, peak_rss_mb

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
        recorder.phase = "prepare"
    try:
        wl.prepare()
        setups: List[float] = []
        for _ in range(wl.setup_repeats):
            wl.reset()
            if recorder is not None:
                recorder.phase = "setup"
            started = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - started)
        meters = [SpeedMeter()]
        layer_state = None
        if recorder is None:
            passes = [wl.timed_pass(args.seconds, meters[0])]
            rss = peak_rss_mb(live_children())
        else:
            import layers

            recorder.uninstall()
            untraced = wl.timed_pass(args.seconds / 2.0, meters[0])
            meters.append(SpeedMeter())
            recorder.phase = "timed"
            layer_state = layers.before_pass()
            recorder.install()
            traced = wl.timed_pass(args.seconds / 2.0, meters[1])
            recorder.uninstall()
            layer_state = layers.after_pass(layer_state)
            passes = [untraced, traced]
            rss = 0.0
        ref = wl.reference([key for one in passes for key, _ in one.answers])
    finally:
        if recorder is not None:
            recorder.uninstall()
    return Measured(
        setups=setups,
        passes=passes,
        slowdowns=[meter.factor for meter in meters],
        ref=ref,
        rss=rss,
        recorder=recorder,
        layer_state=layer_state,
    )


def _gate(passes: List[Any], ref: Any) -> Dict[str, int]:
    """Count answers with a wrong result or count, and answers that
    differ between passes (traced against untraced)."""
    wrong_answer = wrong_count = wrong = 0
    first: Dict[Any, Any] = {}
    across = 0
    for pi, one in enumerate(passes):
        for key, (answer, count) in one.answers:
            bad_answer = answer != ref.answers[key]
            bad_count = count != ref.counts[key]
            wrong_answer += bad_answer
            wrong_count += bad_count
            wrong += bad_answer or bad_count
            seen = first.setdefault(key, (pi, answer, count))
            if seen[0] != pi and seen[1:] != (answer, count):
                across += 1
    scalar = ref.extra.get("scalar_answers", {})
    scalar_wrong = sum(1 for key, answer in scalar.items() if answer != ref.answers[key])
    return {
        "wrong": wrong,
        "wrong_answers": wrong_answer,
        "wrong_counts": wrong_count,
        "traced_untraced_diffs": across,
        "scalar_reference_diffs": scalar_wrong,
    }


def _end_to_end(m: Measured) -> Dict[str, float]:
    one = m.passes[0]
    # over the distinct queries answered: the population's mean cost
    counts = {key: answer[1] for key, answer in one.answers}
    return {
        "setup_s": statistics.median(m.setups),
        "throughput_qps": one.throughput,
        "dist_per_query": sum(counts.values()) / max(len(counts), 1),
        "peak_rss_mb": m.rss,
    }


def _row(
    args: argparse.Namespace,
    wl: Any,
    m: Measured,
    gate: Dict[str, int],
    failed: int,
    attempted: int,
) -> Dict[str, Any]:
    from measure import latency_summary

    one = m.passes[0]
    row: Dict[str, Any] = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tags": _ambient_tags("perfbench-trace" if args.trace else "perfbench"),
        "config": wl.describe(),
        "machine_slowdown": m.slowdowns,
        "setup_runs_s": m.setups,
        "latency": latency_summary(one.latencies),
        "failed_frac": failed / max(attempted, 1),
        "gate": gate,
        "errors": sum(p.errors for p in m.passes),
        "loop_ms_per_query": m.ref.loop_ms_per_query,
    }
    if "class_error" in m.ref.extra:
        row["class_error"] = m.ref.extra["class_error"]
    if "calls" in one.extra:
        row["calls"] = one.extra["calls"]
    if "steps" in one.extra:
        row["slo_rate_qps"] = one.extra["slo_rate_qps"]
        row["steps"] = [
            {k: v for k, v in step.items() if k != "latencies"}
            for step in one.extra["steps"]
        ]
        row["server"] = one.extra["server"]
    return row


def _reap_children() -> None:
    """Wait for every child process this run started: pool workers that
    outlived the runtime shutdown, and multiprocessing's resource
    tracker (started by the shared-memory publications)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    wl = workloads.make(args.workload, args.seed, args.scale, workdir)
    try:
        m = _measure(wl, args)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        _reap_children()

    gate = _gate(m.passes, m.ref)
    attempted = sum(p.attempted for p in m.passes)
    failed = sum(p.errors for p in m.passes) + gate["wrong"]
    correct = failed == 0 and not any(gate.values())
    row = _row(args, wl, m, gate, failed, attempted)
    if m.recorder is None:
        chosen = _end_to_end(m)
        units = END_TO_END
    else:
        import layers

        chosen, row["layers"] = layers.per_layer(m)
        units = layers.PER_LAYER
        dump = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        m.recorder.dump(str(dump), {"workload": wl.name, "seed": args.seed})
        row["span_dump"] = str(dump.relative_to(ROOT))
    metrics = {
        name: {"value": chosen[name], "unit": unit} for name, unit in units.items()
    }
    row["metrics"] = chosen
    print(json.dumps(row, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
