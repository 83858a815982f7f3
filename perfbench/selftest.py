"""Tests of the benchmark itself (not collected by the repo's test run).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They drive the runner at the ``tiny`` input scale, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run_cli(workload: str, trace: int, seconds: float = 1.0) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["row"] = json.loads(lines[-2])
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _run_cli(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "row"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    assert result["row"]["tags"]["kernel_backend"]
    assert result["row"]["tags"]["nproc"] >= 1


@pytest.mark.parametrize("workload", ["serve-spell", "dict-shard2"])
def test_traced_run_emits_every_per_layer_metric_with_identical_answers(workload):
    result = _run_cli(workload, trace=1, seconds=2.0)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["row"]["gate"]["traced_untraced_diffs"] == 0
    assert result["metrics"]["trace.spans_per_q"]["value"] > 0
    assert (ROOT / result["row"]["span_dump"]).is_file()


def test_injected_wrong_answer_trips_the_gate(monkeypatch, capsys):
    from repro.index import LaesaIndex
    from repro.index.base import SearchResult

    original = LaesaIndex.bulk_knn

    def corrupted(self, queries, k):
        out = original(self, queries, k)
        results, stats = out[0]
        bad = SearchResult(results[0].item, results[0].index, results[0].distance + 1)
        out[0] = ([bad] + list(results[1:]), stats)
        return out

    monkeypatch.setattr(LaesaIndex, "bulk_knn", corrupted)
    code = run.main(
        ["--workload", "digits-classify", "--seed", "2", "--seconds", "0.5", "--scale", "tiny"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] >= 1


def test_open_loop_latency_counts_a_stall_against_later_requests(monkeypatch, tmp_path):
    """A server that blocks the event loop once delays the sends behind
    it; their latency is timed from when they were due, so it shows."""
    from repro.serve import IndexServer

    stall = 0.3
    original = IndexServer._submit
    stalled = []

    async def submit(self, *args):
        if not stalled:
            stalled.append(True)
            time.sleep(stall)  # blocks the loop, like a wedged server
        return await original(self, *args)

    monkeypatch.setattr(IndexServer, "_submit", submit)
    wl = workloads.make("serve-spell", 4, "tiny", str(tmp_path))
    try:
        wl.prepare()
        wl.setup()
        one = wl.timed_pass(2.0, measure.SpeedMeter())
    finally:
        wl.close()
    first_step = one.extra["steps"][0]
    assert first_step["lag_max_ms"] >= 0.5 * stall * 1000
    # requests due during the stall were sent late, and their latency
    # (from due) includes that wait
    late = [lat for lat in one.latencies if lat >= 0.5 * stall]
    assert len(late) >= 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(150) == 93
    with pytest.raises(ValueError):
        measure.tail_percentile(10)
    summary = measure.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["tail_pct"] == 90 and summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)


def test_self_time_subtracts_direct_children():
    spans = [
        (1, "index.bulk", 0.0, 10.0, None, "timed", None),
        (2, "engine.x", 1.0, 5.0, 1, "timed", None),
        (3, "kernels.y", 2.0, 4.0, 2, "timed", None),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 2.0}


def test_tail_rounds_split_on_repeated_query():
    peek = lambda sid, t, q: (sid, "core.peek", t, t + 0.1, 9, "timed", q)  # noqa: E731
    spans = [peek(1, 0, "a"), peek(2, 1, "b"), peek(3, 2, "a"), peek(4, 3, "b"), peek(5, 4, "b")]
    assert tracing.tail_rounds(spans) == {9: 3}


def test_wrappers_install_and_restore_originals():
    from repro.batch import engine
    from repro.index.laesa import LaesaIndex

    before = (LaesaIndex.__dict__["bulk_knn"], engine.levenshtein_batch_encoded)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert LaesaIndex.__dict__["bulk_knn"] is not before[0]
        assert engine.levenshtein_batch_encoded is not before[1]
    finally:
        recorder.uninstall()
    assert (LaesaIndex.__dict__["bulk_knn"], engine.levenshtein_batch_encoded) == before
