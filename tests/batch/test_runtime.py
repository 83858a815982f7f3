"""The persistent engine runtime: pool reuse, shared-memory publication,
supervision, teardown hygiene, and the opt-out that keeps every call
in-process."""

import os
import time

import numpy as np
import pytest

import repro.batch.engine as engine
import repro.batch.runtime as runtime
from repro.batch import (
    intern_corpus,
    pairwise_matrix,
    pairwise_values_ids,
    persistent_pool_enabled,
)


def _double(x):
    return x * 2


def _sleep_forever(x):  # pragma: no cover - killed by the supervisor
    time.sleep(60)
    return x


def _boom(x):
    raise ValueError("boom")


@pytest.fixture
def fresh_runtime():
    """An isolated EngineRuntime (module singleton untouched)."""
    rt = runtime.EngineRuntime()
    yield rt
    rt.shutdown()


@pytest.fixture
def corpus():
    import random

    rng = random.Random(11)
    words = [
        "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 12)))
        for _ in range(120)
    ]
    return intern_corpus(words)


def test_persistent_pool_env(monkeypatch):
    assert persistent_pool_enabled()
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    assert not persistent_pool_enabled()
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "no")
    assert not persistent_pool_enabled()


def test_publish_and_attach_roundtrip(fresh_runtime, corpus):
    store = corpus.store(["abcdef"])
    token = fresh_runtime.publish_store(store)
    if token is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    assert token.corpus.persistent
    assert token.extra is not None and not token.extra.persistent
    # corpus publication is cached on the corpus object
    again = fresh_runtime.publish_store(corpus.store(["zzz"]))
    assert again.corpus is token.corpus
    # an in-process attach sees the same rows the store gathers
    attached, ephemeral = runtime.attach_store(token)
    x_ids = np.array([0, 3, 120])
    y_ids = np.array([5, 120, 7])
    for got, want in zip(attached.gather(x_ids, y_ids), store.gather(x_ids, y_ids)):
        assert np.array_equal(got, want)
    runtime.release_attachment(ephemeral)
    fresh_runtime.release_arrays(token.extra)


def test_worker_fn_memoised():
    engine._WORKER_FNS.clear()
    fn1 = engine._worker_fn("levenshtein")
    fn2 = engine._worker_fn("levenshtein")
    assert fn1 is fn2
    assert "levenshtein" in engine._WORKER_FNS


def test_fan_out_ids_uses_one_pool_across_calls(corpus, monkeypatch):
    """Two sharded interned calls must reuse the same pool object and
    return values identical to the serial path."""
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "50")
    store = corpus.store()
    x_ids = np.repeat(np.arange(120), 20)
    y_ids = np.tile(np.arange(20), 120)
    serial = pairwise_values_ids("levenshtein", store, x_ids, y_ids, workers=None)
    pooled = pairwise_values_ids("levenshtein", store, x_ids, y_ids, workers=2)
    assert serial.tolist() == pooled.tolist()
    rt = runtime.get_runtime()
    if rt._pool is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    pool = rt._pool
    again = pairwise_values_ids("dmax", store, x_ids, y_ids, workers=2)
    assert rt._pool is pool, "second sharded call spawned a fresh pool"
    check = pairwise_values_ids("dmax", store, x_ids, y_ids, workers=None)
    assert again.tolist() == check.tolist()


def test_opt_out_bypasses_the_persistent_pool(corpus, monkeypatch):
    """``REPRO_PERSISTENT_POOL=0`` keeps every engine call in-process:
    no process pool runs, for id calls and for the matrix adapter
    alike, and the values do not change."""
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "50")
    calls = []
    monkeypatch.setattr(
        runtime.EngineRuntime,
        "supervised_map",
        lambda self, fn, chunks, workers, sizes=None: calls.append("pool"),
    )
    store = corpus.store()
    x_ids = np.repeat(np.arange(120), 20)
    y_ids = np.tile(np.arange(20), 120)

    def run():
        return (
            pairwise_values_ids("levenshtein", store, x_ids, y_ids, workers=2),
            pairwise_matrix("levenshtein", corpus.items, workers=2),
        )

    pooled = run()
    # control: with the knob unset both calls reach the (spied) pool
    assert calls == ["pool", "pool"]
    calls.clear()
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    in_process = run()
    assert not calls, f"REPRO_PERSISTENT_POOL=0 still ran {calls}"
    for got, want in zip(in_process, pooled):
        assert got.tolist() == want.tolist()


def test_map_survives_a_broken_pool(fresh_runtime):
    """A pool terminated behind the runtime's back is discarded, and the
    next supervised map spawns a new one."""
    pool = fresh_runtime.pool(2)
    if pool is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    pool.terminate()  # kill it behind the runtime's back
    before = runtime.DEGRADATION.snapshot()["dead_pools"]
    out = fresh_runtime.supervised_map(_double, [1, 2], 2, sizes=[1, 1])
    assert out == ([2, 4], [])
    assert fresh_runtime._pool is not None and fresh_runtime._pool is not pool
    assert runtime.DEGRADATION.snapshot()["dead_pools"] == before + 1


def test_shutdown_invalidates_cached_corpus_tokens(fresh_runtime, corpus):
    """A token whose segments a shutdown unlinked must never be handed
    out again -- the corpus republishes under the new generation."""
    store = corpus.store()
    first = fresh_runtime.publish_store(store)
    if first is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    fresh_runtime.shutdown()
    second = fresh_runtime.publish_store(store)
    assert second is not None
    assert second.corpus is not first.corpus
    # and the fresh segments are attachable
    attached, ephemeral = runtime.attach_store(second)
    assert attached.n_corpus == len(corpus)
    runtime.release_attachment(ephemeral)


def test_supervised_map_happy_path(fresh_runtime):
    out = fresh_runtime.supervised_map(_double, [1, 2, 3], 2, sizes=[1, 1, 1])
    if out is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    results, failed = out
    assert results == [2, 4, 6]
    assert failed == []


def test_supervised_map_reports_failed_chunks(fresh_runtime, monkeypatch):
    monkeypatch.setattr(runtime, "_POOL_RETRIES", 1)
    if fresh_runtime.pool(2) is None:  # pragma: no cover - no fork here
        pytest.skip("process pool unavailable")
    before = runtime.DEGRADATION.snapshot()["pool_errors"]
    # the retry round announces itself
    with pytest.warns(runtime.DegradedExecutionWarning, match="retry 1/1"):
        results, failed = fresh_runtime.supervised_map(_boom, [1, 2], 2)
    assert failed == [0, 1]
    assert results == [None, None]
    assert runtime.DEGRADATION.snapshot()["pool_errors"] > before
    assert fresh_runtime._pool is None  # failed round discards the pool


def test_supervised_map_deadline_catches_wedged_workers(
    fresh_runtime, monkeypatch
):
    """A worker that never returns must surface as a timed-out chunk,
    not a hung call."""
    monkeypatch.setenv("REPRO_POOL_TIMEOUT", "0.5")
    monkeypatch.setattr(runtime, "_POOL_RETRIES", 0)
    before = runtime.DEGRADATION.snapshot()["pool_timeouts"]
    started = time.monotonic()
    out = fresh_runtime.supervised_map(_sleep_forever, [1], 1)
    if out is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    _, failed = out
    assert failed == [0]
    assert time.monotonic() - started < 30
    assert runtime.DEGRADATION.snapshot()["pool_timeouts"] > before


def test_discard_pool_joins_workers(fresh_runtime):
    """Satellite regression: discarding a pool must reap its workers --
    terminate-without-join used to leave zombies behind every respawn."""
    pool = fresh_runtime.pool(2)
    if pool is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    procs = list(pool._pool)
    fresh_runtime._discard_pool()
    for proc in procs:
        assert not proc.is_alive()
        assert proc.exitcode is not None, "worker was never joined"
    # and the kill-hardened variant must cope with wedged-looking pools
    pool = fresh_runtime.pool(2)
    procs = list(pool._pool)
    fresh_runtime._discard_pool(kill=True)
    for proc in procs:
        assert not proc.is_alive()
        assert proc.exitcode is not None


def test_release_tolerates_externally_unlinked_segments(fresh_runtime, corpus):
    """Satellite regression: a segment some other actor already removed
    (reaper in another process, manual rm, atexit-after-explicit races)
    must not break release_arrays or shutdown."""
    token = fresh_runtime.publish_store(corpus.store())
    if token is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    path = os.path.join("/dev/shm", token.corpus.specs[0][1].shm_name)
    if os.path.exists(path):
        os.unlink(path)  # simulate the racing unlink
    fresh_runtime.release_arrays(token.corpus)  # must not raise
    fresh_runtime.release_arrays(token.corpus)  # idempotent re-release
    fresh_runtime.shutdown()  # and shutdown stays clean too
    fresh_runtime.shutdown()  # including a second (atexit-style) pass


def test_segment_names_carry_the_session_prefix(fresh_runtime, corpus):
    token = fresh_runtime.publish_store(corpus.store())
    if token is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    prefix = f"repro-{os.getpid()}-"
    assert len(token.corpus.specs) == 3  # the block's three arrays
    for _, spec in token.corpus.specs:
        assert spec.shm_name.startswith(prefix)


def test_stale_worker_attachment_is_refreshed(fresh_runtime, corpus):
    """A cached attachment whose publication generation lags the token's
    must be re-attached, not silently read."""
    store = corpus.store()
    first = fresh_runtime.publish_store(store)
    if first is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    attached, _ = runtime.attach_store(first)
    key = first.corpus.key
    assert key in runtime._ATTACHED_ARRAYS
    generation = runtime._ATTACHED_ARRAYS[key][0]
    fresh_runtime.shutdown()  # unlinks segments, bumps the generation
    second = fresh_runtime.publish_store(store)
    assert second.corpus.key == key, "republication must reuse the key"
    assert second.corpus.generation != generation
    again, _ = runtime.attach_store(second)  # must re-attach, not reuse
    assert runtime._ATTACHED_ARRAYS[key][0] == second.corpus.generation
    assert again.n_corpus == len(corpus)
    runtime._ATTACHED_ARRAYS.pop(key, None)


def test_corpus_segments_released_on_garbage_collection(fresh_runtime):
    """Persistent corpus publications die with their corpus, not with
    the process."""
    import gc

    from repro.batch import intern_corpus as build

    corpus = build(["abc", "defg", "hij"])
    token = fresh_runtime.publish_store(corpus.store())
    if token is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    names = {spec.shm_name for _, spec in token.corpus.specs}
    assert any(shm.name in names for shm in fresh_runtime._published)
    del corpus, token
    gc.collect()
    assert not any(shm.name in names for shm in fresh_runtime._published)


def test_publish_arrays_roundtrip(fresh_runtime):
    """A named-array bundle (the runtime's one publication format)
    publishes, attaches by name and caches per generation."""
    arrays = {
        "pivots": np.arange(12, dtype=np.int64),
        "rows": np.arange(24, dtype=np.float64).reshape(4, 6),
    }
    token = fresh_runtime.publish_arrays(arrays, persistent=True, key="t-bundle")
    if token is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    assert token.key == "t-bundle"
    attached, handles = runtime.attach_arrays(token)
    assert handles == []  # persistent bundles cache; nothing to close
    assert set(attached) == {"pivots", "rows"}
    assert (attached["pivots"] == arrays["pivots"]).all()
    assert (attached["rows"] == arrays["rows"]).all()
    # second attach is the cached one
    again, _ = runtime.attach_arrays(token)
    assert again["rows"] is attached["rows"]
    runtime._ATTACHED_ARRAYS.pop("t-bundle", None)
    fresh_runtime.release_arrays(token)


def test_stale_arrays_attachment_is_refreshed(fresh_runtime):
    """Generation verification applies to any persistent bundle, not
    only to corpus blocks: a shutdown invalidates cached worker
    attachments."""
    arrays = {"a": np.arange(6, dtype=np.float64)}
    first = fresh_runtime.publish_arrays(arrays, persistent=True, key="t-stale")
    if first is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    runtime.attach_arrays(first)
    assert runtime._ATTACHED_ARRAYS["t-stale"][0] == first.generation
    fresh_runtime.shutdown()
    second = fresh_runtime.publish_arrays(arrays, persistent=True, key="t-stale")
    assert second.generation != first.generation
    attached, _ = runtime.attach_arrays(second)
    assert runtime._ATTACHED_ARRAYS["t-stale"][0] == second.generation
    assert (attached["a"] == arrays["a"]).all()
    runtime._ATTACHED_ARRAYS.pop("t-stale", None)


_EARLY_POOL = """
import os, sys, time
import numpy as np
import repro.batch.engine as engine
import repro.batch.runtime as runtime
from repro.batch import intern_corpus, pairwise_values_ids

engine._cpu_count = lambda: 2
engine._MIN_PAIRS_PER_WORKER = 8
rt = runtime.get_runtime()
if rt.pool(2) is None:  # before this process published anything
    sys.exit(3)
corpus = intern_corpus(["abcd%d" % i for i in range(60)])
x, y = np.repeat(np.arange(60), 10), np.tile(np.arange(10), 60)
pairwise_values_ids("levenshtein", corpus.store(), x, y, workers=2)
token = corpus.shm_token[1]
rt._discard_pool()  # the workers exit
time.sleep(1.0)
names = [spec.shm_name for _, spec in token.specs]
print(sum(os.path.exists("/dev/shm/" + name) for name in names))
"""


def test_a_pool_spawned_before_any_publication_keeps_the_segments():
    """Workers forked before the master's first shared-memory publication
    used to start resource trackers of their own, which unlinked the
    master's still-published corpus when the workers exited (every later
    fan-out over it then failed to attach).  Run in a fresh process: this
    one's tracker is long running."""
    import subprocess
    import sys

    if not os.path.isdir("/dev/shm"):  # pragma: no cover - not Linux
        pytest.skip("no /dev/shm on this platform")
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    child = subprocess.run(
        [sys.executable, "-c", _EARLY_POOL],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        text=True,
        timeout=120,
    )
    if child.returncode == 3:  # pragma: no cover - fork unavailable
        pytest.skip("process pool unavailable")
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "3", "the workers' exit unlinked the corpus"
