"""Chaos suite: bulk queries under injected faults stay bit-identical.

Every test arms a ``REPRO_FAULTS`` spec (deterministic under its seed),
forces the engine to fan out (tiny ``REPRO_MIN_PAIRS_PER_WORKER``, short
``REPRO_POOL_TIMEOUT``), runs bulk kNN / range workloads over the digit
and word corpora, and asserts the results are bit-identical to a serial
reference computed with faults unset and sharding disabled -- the
degradation ladder may change latency, never answers.

Seed choice: with ``seed=12`` the first ``worker_crash`` draw of the
per-site stream is 0.037 < 0.2, and forked pool workers inherit the
master's *unfired* stream -- so every fresh worker crashes on its first
task, which drives the ladder through the fresh-pool retries down to its
in-process serial rung (the hardest path).  The kill test below covers
the one-crash-among-healthy-workers shape instead.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

import repro.batch.engine as engine
import repro.batch.runtime as runtime
from repro.batch import DEGRADATION, DegradedExecutionWarning
from repro.index import ExhaustiveIndex, LaesaIndex

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.batch.runtime.DegradedExecutionWarning"
)


def _word_corpus(n=240, seed=23):
    import random

    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 14)))
        for _ in range(n)
    ]


def _digit_corpus(n=240, seed=7):
    """Synthetic chain-code strings standing in for the digit contours
    (same alphabet and length regime, a fraction of the render cost)."""
    import random

    rng = random.Random(seed)
    return [
        "".join(rng.choice("01234567") for _ in range(rng.randint(20, 60)))
        for _ in range(n)
    ]


def _results_key(per_query):
    """A comparable, bit-exact projection of bulk results: the canonical
    ``(index, distance)`` lists plus per-query computation counts."""
    return [
        (
            [(r.index, r.distance) for r in results],
            stats.distance_computations,
        )
        for results, stats in per_query
    ]


def _serial_reference(monkeypatch, build, drive):
    """Run *drive* with faults unset and sharding off: the ground truth."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", str(10**9))
    out = drive(build())
    monkeypatch.delenv("REPRO_MIN_PAIRS_PER_WORKER", raising=False)
    return out


def _arm(monkeypatch, spec, timeout="2", retries=1, min_pairs="20"):
    import repro.batch.faults as faults

    monkeypatch.setenv("REPRO_FAULTS", spec)
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", timeout)
    monkeypatch.setattr(runtime, "_POOL_RETRIES", retries)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", min_pairs)
    # "auto" only shards on multi-core hosts; chaos must fan out anywhere
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    faults._PLAN_CACHE = None


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    """Every chaos test leaves no armed faults, no poisoned pool and no
    published segments behind."""
    import repro.batch.faults as faults

    yield
    faults._PLAN_CACHE = None
    runtime.get_runtime().shutdown()


@pytest.mark.parametrize(
    "corpus_fn, radius", [(_word_corpus, 4.0), (_digit_corpus, 15.0)]
)
def test_bulk_queries_survive_worker_crashes(monkeypatch, corpus_fn, radius):
    """The acceptance workload: 200 queries of bulk_knn and
    bulk_range_search under seeded worker crashes complete without
    hanging and return results bit-identical to the serial path."""
    items = corpus_fn()
    queries = corpus_fn(n=200, seed=404)

    def drive(index):
        return (
            _results_key(index.bulk_knn(queries, k=3)),
            _results_key(index.bulk_range_search(queries, radius=radius)),
        )

    build = lambda: ExhaustiveIndex(items, "levenshtein")
    want_knn, want_range = _serial_reference(monkeypatch, build, drive)
    _arm(monkeypatch, "worker_crash:p=0.2,seed=12")
    index = build()
    got_knn, got_range = drive(index)
    assert got_knn == want_knn
    assert got_range == want_range


def test_laesa_bulk_knn_survives_worker_hangs(monkeypatch):
    """Wedged workers (not dead ones) must trip the per-chunk deadline
    and degrade, not hang the call."""
    items = _word_corpus(n=200)
    queries = _word_corpus(n=60, seed=91)

    def drive(index):
        return _results_key(index.bulk_knn(queries, k=2))

    build = lambda: LaesaIndex(items, "levenshtein", n_pivots=4)
    want = _serial_reference(monkeypatch, build, drive)
    _arm(monkeypatch, "worker_hang:p=1:s=60,seed=3", timeout="1", retries=0)
    before = DEGRADATION.snapshot()
    assert drive(build()) == want
    delta = DEGRADATION.snapshot()
    assert delta["pool_timeouts"] > before["pool_timeouts"]


def test_shm_attach_failures_walk_the_ladder(monkeypatch):
    """``shm_attach_fail:once`` fails every fresh worker's first attach
    (forked workers inherit the unfired state), so the interned ids path
    must fall through retries down to the serial rung -- and still match."""
    items = _word_corpus(n=220)
    queries = _word_corpus(n=80, seed=55)

    def drive(index):
        return _results_key(index.bulk_knn(queries, k=3))

    build = lambda: ExhaustiveIndex(items, "levenshtein")
    want = _serial_reference(monkeypatch, build, drive)
    _arm(monkeypatch, "shm_attach_fail:once,seed=1")
    index = build()
    assert drive(index) == want
    assert index.last_degradation, "expected degradation events to surface"


def test_publish_failure_falls_back_and_is_counted(monkeypatch):
    items = _word_corpus(n=200)
    queries = _word_corpus(n=60, seed=19)

    def drive(index):
        return _results_key(index.bulk_knn(queries, k=2))

    build = lambda: ExhaustiveIndex(items, "levenshtein")
    want = _serial_reference(monkeypatch, build, drive)
    _arm(monkeypatch, "publish_fail,seed=2")
    before = DEGRADATION.snapshot()["publish_failures"]
    assert drive(build()) == want
    assert DEGRADATION.snapshot()["publish_failures"] > before


def test_degradation_is_announced(monkeypatch):
    """Degraded fan-out must be visible: a DegradedExecutionWarning, not
    silence."""
    items = _word_corpus(n=200)
    queries = _word_corpus(n=60, seed=77)
    _arm(monkeypatch, "worker_crash:p=0.2,seed=12")
    index = ExhaustiveIndex(items, "levenshtein")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        index.bulk_knn(queries, k=2)
    assert any(
        issubclass(w.category, DegradedExecutionWarning) for w in caught
    )
    assert index.last_degradation


def test_engine_and_shard_fan_outs_walk_one_ladder(monkeypatch):
    """An engine call's chunks and a sharded scatter's shard tasks walk
    the runtime's one ladder.  With every fresh worker crashing on its
    first task, each fan-out takes exactly ``_POOL_RETRIES`` fresh-pool
    retries, then runs every chunk in-process, counted under its own
    caller's counter; answers equal the no-pool reference, and no
    process pool is created anywhere but ``EngineRuntime.pool``."""
    from multiprocessing import pool as mp_pool

    import numpy as np

    from repro.batch import intern_corpus, pairwise_values_ids
    from repro.core.levenshtein import levenshtein_distance
    from repro.shard import ShardedIndex

    items = _word_corpus(n=160)
    queries = _word_corpus(n=40, seed=91)
    store = intern_corpus(items).store()
    x_ids = np.repeat(np.arange(len(items)), 8)
    y_ids = np.tile(np.arange(8), len(items))
    sharded = ShardedIndex(
        items,
        levenshtein_distance,
        shards=2,
        structure="laesa",
        structure_params={"n_pivots": 4},
    )

    def engine_fan_out():
        # two chunks, whatever the host's core count
        monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 20)
        got = pairwise_values_ids("levenshtein", store, x_ids, y_ids, workers=2)
        # the shard searches re-run in the master must not fan out
        monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 10**9)
        return [float(v).hex() for v in got]

    def shard_scatter():
        return _results_key(sharded.bulk_knn(queries, 3))

    monkeypatch.delenv("REPRO_MIN_PAIRS_PER_WORKER", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    want = [engine_fan_out(), shard_scatter()]
    monkeypatch.delenv("REPRO_PERSISTENT_POOL")

    created = []  # per Pool constructed: was it inside EngineRuntime.pool?
    depth = []
    runtime_pool = runtime.EngineRuntime.pool
    pool_init = mp_pool.Pool.__init__

    def spy_runtime_pool(self, workers):
        depth.append(1)
        try:
            return runtime_pool(self, workers)
        finally:
            depth.pop()

    def spy_pool_init(self, *args, **kwargs):
        created.append(bool(depth))
        pool_init(self, *args, **kwargs)

    monkeypatch.setattr(runtime.EngineRuntime, "pool", spy_runtime_pool)
    monkeypatch.setattr(mp_pool.Pool, "__init__", spy_pool_init)
    _arm(monkeypatch, "worker_crash:p=0.2,seed=12", timeout="1")
    # each phase sets the module threshold itself; the env would win
    monkeypatch.delenv("REPRO_MIN_PAIRS_PER_WORKER")
    runtime.get_runtime().shutdown()  # fork the armed spec into the pool

    ladder = ("pool_retries", "serial_fallbacks", "shard_fallbacks")
    for run, want_run, counts in (
        (engine_fan_out, want[0], (runtime._POOL_RETRIES, 2, 0)),
        (shard_scatter, want[1], (runtime._POOL_RETRIES, 0, 2)),
    ):
        before = DEGRADATION.snapshot()
        assert run() == want_run
        after = DEGRADATION.snapshot()
        assert tuple(after[f] - before[f] for f in ladder) == counts, run
    assert created, "neither fan-out reached a process pool"
    assert all(created), "a process pool was created outside EngineRuntime.pool"


def test_dead_workers_end_their_round_without_a_deadline(monkeypatch):
    """A worker that dies mid-task ends its fan-out round at once: with
    every fresh worker crashing on its first task and a 60 s deadline, a
    ``workers=2`` engine fan-out walks the fresh-pool retry and the
    in-process rung in seconds.  No deadline expires, every lost chunk
    counts under ``pool_errors``, and the answer equals the no-pool
    one."""
    import numpy as np

    from repro.batch import intern_corpus, pairwise_values_ids

    items = _word_corpus(n=160)
    store = intern_corpus(items).store()
    x_ids = np.repeat(np.arange(len(items)), 8)
    y_ids = np.tile(np.arange(8), len(items))

    def fan_out():
        got = pairwise_values_ids("levenshtein", store, x_ids, y_ids, workers=2)
        return [float(v).hex() for v in got]

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    want = fan_out()
    monkeypatch.delenv("REPRO_PERSISTENT_POOL")
    _arm(monkeypatch, "worker_crash:p=0.2,seed=12", timeout="60")
    runtime.get_runtime().shutdown()  # fork the armed spec into the pool
    before = DEGRADATION.snapshot()
    started = time.monotonic()
    assert fan_out() == want
    assert time.monotonic() - started < 15
    after = DEGRADATION.snapshot()
    assert after["pool_timeouts"] == before["pool_timeouts"]
    assert after["pool_errors"] > before["pool_errors"]
    assert after["serial_fallbacks"] > before["serial_fallbacks"]


def test_sigkill_one_worker_mid_bulk_knn(monkeypatch):
    """Satellite: SIGKILL a live pool worker while a bulk_knn is in
    flight; the call must complete bit-identically and the *next* call
    must run on a healthy (respawned) pool."""
    items = _word_corpus(n=240)
    queries = _word_corpus(n=120, seed=33)

    def drive(index):
        return _results_key(index.bulk_knn(queries, k=3))

    build = lambda: ExhaustiveIndex(items, "levenshtein")
    want = _serial_reference(monkeypatch, build, drive)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "20")
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2")
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    rt = runtime.get_runtime()
    rt.shutdown()  # start from no pool so the killer sees the fresh one

    killed = threading.Event()

    def killer():
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and not killed.is_set():
            pool = rt._pool
            procs = list(getattr(pool, "_pool", None) or []) if pool else []
            if procs:
                try:
                    os.kill(procs[0].pid, signal.SIGKILL)
                    killed.set()
                    return
                except (ProcessLookupError, AttributeError):
                    pass
            time.sleep(0.001)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    index = build()
    got = drive(index)
    thread.join(20)
    assert killed.is_set(), "killer never saw a pool worker to SIGKILL"
    assert got == want
    # the pool must be healthy for the next call: same index, same answers
    assert drive(index) == want
    pool = rt._pool
    if pool is not None:
        assert all(p.is_alive() for p in pool._pool)


def test_reaper_removes_segments_of_a_sigkilled_master(tmp_path):
    """Acceptance: a master SIGKILLed mid-publication (whole process
    group, so its resource tracker dies too) leaks its session-prefixed
    segments; a fresh process's startup reaper removes them."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import numpy as np, sys, time\n"
            "from repro.batch import runtime\n"
            "rt = runtime.EngineRuntime()\n"
            "spec = rt._publish_array(np.arange(4096, dtype=np.int64))\n"
            "print(spec.shm_name, flush=True)\n"
            "time.sleep(120)\n",
        ],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        start_new_session=True,  # killpg must take the resource tracker too
        text=True,
    )
    try:
        name = child.stdout.readline().strip()
        assert name.startswith(f"repro-{child.pid}-")
        segment = os.path.join("/dev/shm", name)
        assert os.path.exists(segment)
        os.killpg(os.getpgid(child.pid), signal.SIGKILL)
        child.wait(timeout=10)
        time.sleep(0.2)
        if not os.path.exists(segment):  # pragma: no cover - tracker won
            pytest.skip("resource tracker outlived the SIGKILL")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            removed = runtime.reap_orphaned_segments()
        assert name in removed
        assert not os.path.exists(segment)
    finally:
        try:
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.stdout.close()


def test_reaper_spares_live_processes(fresh_segment=None):
    """The reaper must never unlink a live process's segments -- its own
    included."""
    rt = runtime.EngineRuntime()
    try:
        import numpy as np

        spec = rt._publish_array(np.arange(64, dtype=np.int64))
        if spec is None:  # pragma: no cover - no shared memory here
            pytest.skip("shared memory unavailable")
        removed = runtime.reap_orphaned_segments()
        assert spec.shm_name not in removed
        assert os.path.exists(os.path.join("/dev/shm", spec.shm_name))
    finally:
        rt.shutdown()


def test_reaper_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_SHM_REAPER", "0")
    assert not runtime.reaper_enabled()
    monkeypatch.delenv("REPRO_SHM_REAPER", raising=False)
    assert runtime.reaper_enabled()
