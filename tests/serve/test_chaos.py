"""Serve-layer chaos suite.

The acceptance invariant, under every injected fault: an accepted
request either returns results **bit-identical** to a direct bulk call
on the same index, or fails **loudly** (``DeadlineExceeded`` /
``ServerOverloaded``) within its deadline -- no hangs, no silent drops,
no cross-request contamination.  Engine-level faults (crashed / hung /
SIGKILLed pool workers) additionally exercise the degradation ladder
*underneath* the serving tier: the server must keep answering
identically while the engine walks its rungs.
"""

import asyncio
import os
import random
import signal
import threading
import time

import pytest

import repro.batch.engine as engine
import repro.batch.faults as faults
import repro.batch.runtime as runtime
from repro.core import get_distance
from repro.index import ExhaustiveIndex, LaesaIndex
from repro.serve import (
    DeadlineExceeded,
    IndexServer,
    ServeConfig,
    ServerOverloaded,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.batch.runtime.DegradedExecutionWarning"
)


def _corpus(n=240, seed=23):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 14)))
        for _ in range(n)
    ]


def _key(per_query):
    return [
        ([(r.index, r.distance) for r in results], stats.distance_computations)
        for results, stats in per_query
    ]


def _arm(monkeypatch, spec, timeout="2", retries=1, min_pairs="20"):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", timeout)
    monkeypatch.setattr(runtime, "_POOL_RETRIES", retries)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", min_pairs)
    # "auto" only shards on multi-core hosts; chaos must fan out anywhere
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    faults._PLAN_CACHE = None


def _serve(index, queries, k=3, config=None, timeout_ms=None):
    """Serve *queries* concurrently, returning outcome per query (a
    result tuple or the raised serving exception)."""
    config = config or ServeConfig(window_ms=10.0)

    async def main():
        async with IndexServer(index, config) as server:
            outcomes = await asyncio.gather(
                *(
                    server.knn(q, k, timeout_ms=timeout_ms)
                    for q in queries
                ),
                return_exceptions=True,
            )
            return outcomes, server.metrics.snapshot()

    return asyncio.run(main())


def test_serve_shed_fault_sheds_every_submission_loudly(monkeypatch):
    """An armed ``serve_shed`` turns every submission into a fast, loud
    ``ServerOverloaded`` -- nothing queues, nothing hangs."""
    index = LaesaIndex(
        _corpus(120), get_distance("levenshtein"), n_pivots=4,
        rng=random.Random(1),
    )
    monkeypatch.setenv("REPRO_FAULTS", "serve_shed")
    faults._PLAN_CACHE = None
    started = time.monotonic()
    outcomes, counters = _serve(index, _corpus(30, seed=9))
    elapsed = time.monotonic() - started
    assert all(isinstance(o, ServerOverloaded) for o in outcomes)
    assert counters["shed"] == 30
    assert counters["batches"] == 0  # nothing was admitted, nothing ran
    assert elapsed < 10.0


def test_serve_deadline_fault_fails_some_requests_never_their_batch(
    monkeypatch,
):
    """A probabilistic ``serve_deadline`` kills individual requests at
    batch assembly; survivors in the *same* window still get answers
    bit-identical to a direct bulk call."""
    index = LaesaIndex(
        _corpus(120), get_distance("levenshtein"), n_pivots=4,
        rng=random.Random(1),
    )
    queries = _corpus(40, seed=31)
    direct = {q: _key(index.bulk_knn([q], 3))[0] for q in queries}
    monkeypatch.setenv("REPRO_FAULTS", "serve_deadline:p=0.5,seed=3")
    faults._PLAN_CACHE = None
    outcomes, counters = _serve(index, queries)
    failed = sum(isinstance(o, DeadlineExceeded) for o in outcomes)
    survived = 0
    for q, outcome in zip(queries, outcomes):
        if isinstance(outcome, DeadlineExceeded):
            continue
        assert not isinstance(outcome, BaseException), outcome
        assert _key([outcome])[0] == direct[q]
        survived += 1
    assert failed > 0 and survived > 0  # p=0.5 over 40 draws hits both
    assert counters["deadline_exceeded"] == failed
    assert counters["completed"] == survived


def test_serve_slow_batch_deadline_fires_on_time(monkeypatch):
    """A wedged batch (``serve_slow_batch``) cannot hold clients past
    their deadline: the waiter fails on schedule even though the bulk
    call is still sleeping."""
    index = LaesaIndex(
        _corpus(120), get_distance("levenshtein"), n_pivots=4,
        rng=random.Random(1),
    )
    monkeypatch.setenv("REPRO_FAULTS", "serve_slow_batch:s=0.5")
    faults._PLAN_CACHE = None
    started = time.monotonic()
    outcomes, counters = _serve(
        index, _corpus(8, seed=5), timeout_ms=100,
        config=ServeConfig(window_ms=2.0),
    )
    elapsed = time.monotonic() - started
    assert all(isinstance(o, DeadlineExceeded) for o in outcomes)
    assert counters["deadline_exceeded"] == 8
    # waiters failed at ~100ms; only the drain waited for the sleeper
    assert elapsed < 5.0


def test_one_slow_batch_does_not_poison_later_requests(monkeypatch):
    """``serve_slow_batch:once``: the first batch wedges (its client
    deadline fires), the next batch runs clean and answers
    bit-identically -- no contamination across batches."""
    index = LaesaIndex(
        _corpus(120), get_distance("levenshtein"), n_pivots=4,
        rng=random.Random(1),
    )
    want = _key(index.bulk_knn(["abcd"], 3))
    monkeypatch.setenv("REPRO_FAULTS", "serve_slow_batch:once:s=0.4")
    faults._PLAN_CACHE = None

    async def main():
        config = ServeConfig(window_ms=2.0)
        async with IndexServer(index, config) as server:
            with pytest.raises(DeadlineExceeded):
                await server.knn("abcd", 3, timeout_ms=80)
            # the next request rides a fresh batch: the once-fault has
            # burned out, so it completes and matches the direct call
            return await server.knn("abcd", 3, timeout_ms=5_000)

    result = asyncio.run(main())
    assert _key([result]) == want


@pytest.mark.parametrize(
    "spec",
    [
        "worker_crash:p=0.2,seed=12",
        "worker_hang:p=0.1:s=30,seed=12",
    ],
)
def test_served_results_survive_engine_faults(monkeypatch, spec):
    """Crashed / hung pool workers under the serving tier: the engine
    walks its degradation ladder, the server keeps answering, and every
    answer stays bit-identical to the no-fault serial reference."""
    items = _corpus(240)
    queries = _corpus(60, seed=404)

    # ground truth: fresh index, faults unset, sharding forced off
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", str(10**9))
    reference = _key(
        ExhaustiveIndex(items, "levenshtein").bulk_knn(queries, 3)
    )
    monkeypatch.delenv("REPRO_MIN_PAIRS_PER_WORKER", raising=False)
    runtime.get_runtime().shutdown()

    _arm(monkeypatch, spec)
    index = ExhaustiveIndex(items, "levenshtein")
    outcomes, counters = _serve(
        index, queries, config=ServeConfig(window_ms=10.0, max_batch=16)
    )
    assert not any(isinstance(o, BaseException) for o in outcomes)
    assert _key(outcomes) == reference
    assert counters["completed"] == len(queries)
    # the ladder really was walked, and the server saw it
    assert counters["degraded_batches"] > 0


def test_sigkill_pool_worker_mid_served_batch(monkeypatch):
    """SIGKILL a live pool worker while served batches are in flight;
    every request must still complete bit-identically."""
    items = _corpus(240)
    queries = _corpus(60, seed=33)

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", str(10**9))
    reference = _key(
        ExhaustiveIndex(items, "levenshtein").bulk_knn(queries, 3)
    )
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "20")
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2")
    monkeypatch.setattr(engine, "_cpu_count", lambda: 4)
    rt = runtime.get_runtime()
    rt.shutdown()  # start from no pool so the killer sees the fresh one

    killed = threading.Event()
    stop = threading.Event()

    def killer():
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and not stop.is_set():
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
    index = ExhaustiveIndex(items, "levenshtein")
    outcomes, counters = _serve(
        index, queries, config=ServeConfig(window_ms=10.0, max_batch=16)
    )
    stop.set()
    thread.join(20)
    assert killed.is_set(), "killer never saw a pool worker to SIGKILL"
    assert not any(isinstance(o, BaseException) for o in outcomes)
    assert _key(outcomes) == reference
    assert counters["completed"] == len(queries)
