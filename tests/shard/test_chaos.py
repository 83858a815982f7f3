"""Sharded chaos suite: scatters under injected faults stay
bit-identical.

Each test computes a serial-scatter reference (faults unset, no process
pool), then re-runs the same workload with a fault armed --
shard worker tasks raising, engine workers crashing or hanging, a live
pool worker SIGKILLed mid-scatter, the gather order skewed, a shard
bundle failing to publish or to attach, the runtime shut down between
scatters -- and asserts the merged answers (neighbours, distances AND
per-query computation counts) never change; only the degradation
counters and the ``IndexServer`` metrics may move.
"""

import asyncio
import os
import signal
import threading
import time
import warnings

import pytest

import repro.batch.engine as engine
import repro.batch.faults as faults
import repro.batch.runtime as runtime
from repro.batch import DEGRADATION, DegradedExecutionWarning
from repro.core.levenshtein import levenshtein_distance
from repro.shard import ShardedIndex, scatter

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.batch.runtime.DegradedExecutionWarning"
)


def _word_corpus(n=160, seed=23):
    import random

    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 14)))
        for _ in range(n)
    ]


def _results_key(per_query):
    return [
        (
            [(r.index, r.distance) for r in results],
            stats.distance_computations,
        )
        for results, stats in per_query
    ]


def _build(items):
    return ShardedIndex(
        items,
        levenshtein_distance,
        shards=4,
        structure="laesa",
        structure_params={"n_pivots": 4},
    )


def _drive(index, queries):
    return (
        _results_key(index.bulk_knn(queries, 3)),
        _results_key(index.bulk_range_search(queries, 3.0)),
    )


def _serial_reference(monkeypatch, items, queries):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    out = _drive(_build(items), queries)
    monkeypatch.delenv("REPRO_PERSISTENT_POOL", raising=False)
    return out


def _arm(monkeypatch, spec, timeout="2", retries=1, min_pairs="20"):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", timeout)
    monkeypatch.setattr(runtime, "_POOL_RETRIES", retries)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", min_pairs)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    faults._PLAN_CACHE = None
    # the armed spec must reach the pool workers' environment
    runtime.get_runtime().shutdown()


@pytest.fixture(autouse=True)
def chaos_isolation(monkeypatch):
    yield
    faults._PLAN_CACHE = None
    runtime.get_runtime().shutdown()


def test_shard_worker_fail_falls_back_to_master(monkeypatch):
    """Every shard task raising on the pool walks the scatter down to
    the master's serial rung: answers identical, shard_fallbacks > 0,
    and the degradation is announced, not silent."""
    items = _word_corpus()
    queries = _word_corpus(n=40, seed=404)
    want = _serial_reference(monkeypatch, items, queries)
    _arm(monkeypatch, "shard_worker_fail:p=1.0,seed=3")
    before = DEGRADATION.snapshot()["shard_fallbacks"]
    index = _build(items)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _drive(index, queries)
    assert got == want
    assert DEGRADATION.snapshot()["shard_fallbacks"] > before
    assert any(
        issubclass(w.category, DegradedExecutionWarning) for w in caught
    )
    assert index.last_degradation.get("shard_fallbacks")


def test_partial_shard_worker_fail_reruns_only_failed_shards(monkeypatch):
    """A probabilistic fault leaves some shards succeeding on the pool;
    the master re-runs only the failed ones and the merge still matches."""
    items = _word_corpus(n=200)
    queries = _word_corpus(n=60, seed=91)
    want = _serial_reference(monkeypatch, items, queries)
    _arm(monkeypatch, "shard_worker_fail:p=0.3,seed=7")
    assert _drive(_build(items), queries) == want


def test_shard_merge_skew_never_changes_answers(monkeypatch):
    """The gather fed shard lists in reversed order must merge to the
    same canonical answer -- scalar and bulk, knn and range."""
    items = _word_corpus()
    queries = _word_corpus(n=30, seed=55)
    want = _serial_reference(monkeypatch, items, queries)
    _arm(monkeypatch, "shard_merge_skew:p=1.0,seed=5")
    index = _build(items)
    assert _drive(index, queries) == want
    flat, _stats = index.knn(queries[0], 5)
    keys = [(r.distance, r.index) for r in flat]
    assert keys == sorted(keys)


def test_scatter_survives_engine_worker_crashes(monkeypatch):
    """The generic worker_crash site fires inside shard tasks too (they
    run on the same supervised pool); the scatter must degrade through
    the ladder and still merge bit-identically."""
    items = _word_corpus(n=200)
    queries = _word_corpus(n=50, seed=12)
    want = _serial_reference(monkeypatch, items, queries)
    _arm(monkeypatch, "worker_crash:p=0.2,seed=12")
    assert _drive(_build(items), queries) == want


def test_scatter_survives_worker_hangs(monkeypatch):
    """Wedged shard tasks trip the pool deadline and fall back serially
    instead of hanging the scatter."""
    items = _word_corpus(n=160)
    queries = _word_corpus(n=30, seed=81)
    want = _serial_reference(monkeypatch, items, queries)
    _arm(monkeypatch, "worker_hang:p=1:s=60,seed=3", timeout="1", retries=0)
    before = DEGRADATION.snapshot()["pool_timeouts"]
    assert _drive(_build(items), queries) == want
    assert DEGRADATION.snapshot()["pool_timeouts"] > before


def test_sigkill_one_worker_mid_scatter(monkeypatch):
    """SIGKILL a live pool worker while a sharded bulk_knn is in flight:
    the merged answer must not change and the next scatter runs on a
    healthy respawned pool."""
    items = _word_corpus(n=240)
    queries = _word_corpus(n=80, seed=33)
    want = _serial_reference(monkeypatch, items, queries)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "20")
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2")
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    rt = runtime.get_runtime()
    rt.shutdown()

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
    index = _build(items)
    got = _drive(index, queries)
    thread.join(20)
    assert killed.is_set(), "killer never saw a pool worker to SIGKILL"
    assert got == want
    assert _drive(index, queries) == want
    pool = rt._pool
    if pool is not None:
        assert all(p.is_alive() for p in pool._pool)


def test_served_sharded_queries_under_faults(monkeypatch):
    """IndexServer over a ShardedIndex with shard workers failing: every
    served answer matches the serial reference and the server's
    degraded_batches metric records the turbulence."""
    from repro.serve import IndexServer, ServeConfig

    items = _word_corpus()
    queries = _word_corpus(n=12, seed=66)
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reference = _results_key(_build(items).bulk_knn(queries, 3))
    monkeypatch.delenv("REPRO_PERSISTENT_POOL", raising=False)

    _arm(monkeypatch, "shard_worker_fail:p=1.0,seed=3")
    index = _build(items)
    config = ServeConfig(window_ms=1.0, dispose_runtime_on_drain=False)

    async def drive():
        async with IndexServer(index, config=config) as server:
            answers = await asyncio.gather(
                *(server.knn(q, 3) for q in queries)
            )
            return answers, server.metrics.snapshot()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        answers, metrics = asyncio.run(drive())
    got = [
        ([(r.index, r.distance) for r in results], stats.distance_computations)
        for results, stats in answers
    ]
    assert got == reference
    assert metrics["degraded_batches"] > 0


def test_shard_publish_failure_scatters_in_the_master(monkeypatch):
    """A shard bundle that fails to publish part-way (its fourth array)
    sends the first scatter to the master: identical answers,
    ``publish_failures`` counted, and none of the partly published
    bundle's segments left behind."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - not Linux
        pytest.skip("no /dev/shm on this platform")
    items = _word_corpus()
    queries = _word_corpus(n=30, seed=71)
    want = _serial_reference(monkeypatch, items, queries)
    index = _build(items)
    # this seed's publish_fail stream first fires on its fourth draw:
    # the first shard bundle's fourth array
    _arm(monkeypatch, "publish_fail:p=0.2,seed=34")
    created = []
    publishing = []
    real_publish_shard = scatter.publish_shard
    real_publish_array = runtime.EngineRuntime._publish_array

    def publish_shard(*args):
        publishing.append(True)
        try:
            return real_publish_shard(*args)
        finally:
            publishing.pop()

    def publish_array(self, arr, reusable=False):
        spec = real_publish_array(self, arr, reusable)
        if spec is not None and publishing:
            created.append(spec.shm_name)
        return spec

    monkeypatch.setattr(scatter, "publish_shard", publish_shard)
    monkeypatch.setattr(runtime.EngineRuntime, "_publish_array", publish_array)
    before = DEGRADATION.snapshot()["publish_failures"]
    knn = _results_key(index.bulk_knn(queries, 3))
    assert index._publish_cache is None, "the scatter did not fall back"
    assert len(created) == 3  # the bundle's first three arrays
    assert not any(os.path.exists(f"/dev/shm/{name}") for name in created)
    owned = {shm.name for shm in runtime.get_runtime()._published}
    assert owned.isdisjoint(created)
    assert DEGRADATION.snapshot()["publish_failures"] > before
    assert knn == want[0]
    assert _results_key(index.bulk_range_search(queries, 3.0)) == want[1]


def test_shm_attach_failure_in_a_shard_task_ends_in_the_master(monkeypatch):
    """Every fresh pool worker fails its first shared-memory attach, so
    shard tasks fail on the pool and its retry: the runtime's ladder
    ends in the master with ``shard_fallbacks`` counted and identical
    answers."""
    items = _word_corpus()
    queries = _word_corpus(n=30, seed=72)
    want = _serial_reference(monkeypatch, items, queries)
    index = _build(items)
    _arm(monkeypatch, "shm_attach_fail:once")
    before = DEGRADATION.snapshot()["shard_fallbacks"]
    assert _drive(index, queries) == want
    assert DEGRADATION.snapshot()["shard_fallbacks"] > before
    assert index._publish_cache is not None  # it did publish and scatter


def test_runtime_shutdown_between_scatters_rebuilds_the_shard(monkeypatch):
    """A runtime shutdown between two scatters unlinks every shard
    bundle: the next scatter republishes them under the new generation,
    and a shard rebuilt from the old bundle is dropped and rebuilt from
    the new one, answering with unchanged results and counts."""
    items = _word_corpus()
    queries = _word_corpus(n=20, seed=73)
    want = _serial_reference(monkeypatch, items, queries)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "20")
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    rt = runtime.get_runtime()
    rt.shutdown()
    index = _build(items)
    assert _drive(index, queries) == want
    first = index._publish_cache[1]
    assert {t.generation for t in first} == {runtime.publish_generation()}
    try:
        # rebuild shard 0 in-process, exactly as a pool worker does
        old = scatter._attached_shard(first[0], rt.live_keys())
        assert scatter._attached_shard(first[0], rt.live_keys()) is old
        rt.shutdown()
        assert _drive(index, queries) == want
        second = index._publish_cache[1]
        assert [t.key for t in second] == [t.key for t in first]
        generation = runtime.publish_generation()
        assert {t.generation for t in second} == {generation}
        assert generation > first[0].generation
        stale = DEGRADATION.snapshot()["stale_attachments"]
        rebuilt = scatter._attached_shard(second[0], rt.live_keys())
        assert rebuilt is not old
        # one cached bundle per shard went stale, corpus included
        assert DEGRADATION.snapshot()["stale_attachments"] == stale + 1
        master = index._shards[0].index
        for mode, arg in (("knn", 3), ("range", 3.0)):
            assert scatter.run_shard_local(
                rebuilt, queries, mode, arg
            ) == scatter.run_shard_local(master, queries, mode, arg)
    finally:
        runtime.drop_released(frozenset())
