"""The reusable shared-memory segment ring (ROADMAP 5c).

Released ephemeral segments park in the runtime's ring and the next
ephemeral publication rewrites one in place instead of creating a fresh
``/dev/shm`` entry -- the per-call segment churn that dominated
high-frequency small batches.  The ring is always on.  The contract:
reuse changes allocation counts only; attached bytes, fan-out results
and teardown hygiene are bit-identical to fresh segments, to the
in-process path, and under eviction."""

import numpy as np
import pytest

import repro.batch.runtime as runtime
from repro.batch import intern_corpus
from repro.batch.runtime import _RING_CAPACITY, _RING_SEGMENT_MAX


@pytest.fixture
def fresh_runtime():
    rt = runtime.EngineRuntime()
    yield rt
    rt.shutdown()


def _corpus(seed=11, n=120):
    import random

    rng = random.Random(seed)
    return intern_corpus(
        [
            "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 12)))
            for _ in range(n)
        ]
    )


def _publish_release(rt, arr):
    """One ephemeral publish/attach/release cycle; returns the bytes the
    attach saw."""
    spec = rt._publish_array(arr, reusable=True)
    if spec is None:  # pragma: no cover - no shared memory on this host
        pytest.skip("shared memory unavailable")
    attached, shm = runtime._attach_array(spec)
    got = np.array(attached, copy=True)
    runtime.release_attachment([shm])
    rt._release_names({spec.shm_name})
    return got


def test_released_segment_is_reused(fresh_runtime):
    a = np.arange(64, dtype=np.float64)
    b = np.arange(64, dtype=np.float64) * 3.0
    got_a = _publish_release(fresh_runtime, a)
    assert (got_a == a).all()
    stats = fresh_runtime.ring_stats()
    assert stats["creates"] == 1 and stats["returns"] == 1
    # second publication of a fitting array rewrites the parked segment
    got_b = _publish_release(fresh_runtime, b)
    assert (got_b == b).all()
    stats = fresh_runtime.ring_stats()
    assert stats["reuses"] == 1
    assert stats["creates"] == 1


def test_smaller_payload_reuses_larger_segment(fresh_runtime):
    big = np.arange(256, dtype=np.float64)
    small = np.arange(8, dtype=np.float64) * 7.0
    _publish_release(fresh_runtime, big)
    got = _publish_release(fresh_runtime, small)
    assert (got == small).all()
    assert fresh_runtime.ring_stats()["reuses"] == 1


def test_larger_payload_creates_fresh_segment(fresh_runtime):
    small = np.arange(8, dtype=np.float64)
    big = np.arange(256, dtype=np.float64)
    _publish_release(fresh_runtime, small)
    got = _publish_release(fresh_runtime, big)
    assert (got == big).all()
    assert fresh_runtime.ring_stats()["creates"] == 2


def test_oversized_segments_never_enter_the_ring(fresh_runtime):
    huge = np.zeros((_RING_SEGMENT_MAX // 8) + 16, dtype=np.float64)
    _publish_release(fresh_runtime, huge)
    stats = fresh_runtime.ring_stats()
    assert stats["returns"] == 0
    assert not fresh_runtime._ring


def test_ring_capacity_evicts(fresh_runtime):
    specs = [
        fresh_runtime._publish_array(
            np.full(16, float(i)), reusable=True
        )
        for i in range(_RING_CAPACITY + 3)
    ]
    if any(s is None for s in specs):  # pragma: no cover
        pytest.skip("shared memory unavailable")
    fresh_runtime._release_names({s.shm_name for s in specs})
    stats = fresh_runtime.ring_stats()
    assert stats["returns"] == _RING_CAPACITY
    assert stats["evictions"] == 3
    assert len(fresh_runtime._ring) == _RING_CAPACITY


def test_shutdown_unlinks_parked_segments(fresh_runtime):
    arr = np.arange(64, dtype=np.float64)
    spec = fresh_runtime._publish_array(arr, reusable=True)
    if spec is None:  # pragma: no cover
        pytest.skip("shared memory unavailable")
    fresh_runtime._release_names({spec.shm_name})
    assert fresh_runtime._ring
    fresh_runtime.shutdown()
    assert not fresh_runtime._ring
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=spec.shm_name)


def test_persistent_segments_bypass_the_ring(fresh_runtime):
    corpus = _corpus()
    token = fresh_runtime.publish_store(corpus.store())
    if token is None:  # pragma: no cover
        pytest.skip("shared memory unavailable")
    assert fresh_runtime.ring_stats()["creates"] == 0


def test_repeated_fan_outs_match_the_in_process_reference(monkeypatch):
    """The acceptance check: repeated small bulk queries fanned out over
    ring-recycled segments produce bit-identical answers to the
    in-process path (``REPRO_PERSISTENT_POOL=0``), while the pooled run
    actually reuses segments."""
    import random

    import repro.batch.engine as engine
    from repro.core.levenshtein import levenshtein_distance
    from repro.index import LaesaIndex

    rng = random.Random(3)
    items = [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 12)))
        for _ in range(150)
    ]
    queries = items[::10][:8]
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "1")
    # "auto" only fans out on multi-core hosts; this test must fan out
    # anywhere
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)

    def drive():
        index = LaesaIndex(items, levenshtein_distance, n_pivots=5)
        out = []
        for _ in range(3):
            out.append(
                [
                    ([(r.index, r.distance) for r in results],
                     stats.distance_computations)
                    for results, stats in index.bulk_knn(queries, 3)
                ]
            )
        return out

    rt = runtime.get_runtime()
    rt.shutdown()
    try:
        before = rt.ring_stats()["reuses"]
        pooled = drive()
        if rt._pool is None:  # pragma: no cover - fork unavailable here
            pytest.skip("process pool unavailable")
        reuses = rt.ring_stats()["reuses"] - before
        rt.shutdown()
        monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
        in_process = drive()
    finally:
        rt.shutdown()
    assert pooled == in_process
    assert reuses > 0
