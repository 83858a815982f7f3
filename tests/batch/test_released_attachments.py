"""Pool workers drop the shared-memory attachments the master released.

Every engine token lists the persistent publications the master still
holds; a worker closes every cached attachment (and every shard index
rebuilt over one) that is no longer listed.  Run on a real pool: after
N indexes or throwaway corpora were queried through it and dropped,
each worker's caches hold no more than one call's live publications.
"""

import gc
import os
import random
import tempfile
import time

import pytest

import repro.batch.engine as engine
import repro.batch.runtime as runtime
from repro.batch import pairwise_matrix
from repro.index import LaesaIndex
from repro.shard import ShardedIndex

ROUNDS = 4
POOL_SIZE = 2


def _mapped_segments():
    """Names of the engine's shared-memory segments this process maps,
    or None where ``/proc/self/maps`` cannot tell."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:  # pragma: no cover - no procfs on this platform
        return None
    return {
        os.path.basename(line.split()[5])
        for line in lines
        if "/dev/shm/repro-" in line
    }


def _probe(args):
    """Report this worker's caches once every pool worker has arrived
    (each one is parked here, so every worker takes exactly one probe),
    and check that every segment it still maps belongs to one of them."""
    directory, workers = args
    open(os.path.join(directory, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30
    while len(os.listdir(directory)) < workers and time.monotonic() < deadline:
        time.sleep(0.01)
    from repro.shard import scatter

    cached = {
        handle.name
        for _, _, handles in runtime._ATTACHED_ARRAYS.values()
        for handle in handles
    }
    mapped = _mapped_segments()
    return (
        os.getpid(),
        sorted(runtime._ATTACHED_ARRAYS),
        sorted(scatter._WORKER_SHARDS),
        sorted((mapped or set()) - cached),
    )


def _worker_caches():
    """``{pid: (bundle keys, shard keys)}`` of every worker; no worker
    may map a segment outside its one attachment cache."""
    rt = runtime.get_runtime()
    with tempfile.TemporaryDirectory() as directory:
        out = rt.supervised_map(
            _probe, [(directory, POOL_SIZE)] * POOL_SIZE, POOL_SIZE
        )
    if out is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    results, failed = out
    assert not failed
    caches = {}
    for pid, bundles, shards, unowned in results:
        assert not unowned, f"worker {pid} still maps released {unowned}"
        caches[pid] = (bundles, shards)
    assert len(caches) == POOL_SIZE, "a worker took two probes"
    return caches


def _words(seed, count=60):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdef") for _ in range(rng.randint(3, 10)))
        for _ in range(count)
    ]


@pytest.fixture
def fanned_out(monkeypatch):
    """A fresh two-worker pool that every engine call of more than a few
    pairs fans out to."""
    monkeypatch.setattr(engine, "_cpu_count", lambda: POOL_SIZE)
    monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 8)
    rt = runtime.get_runtime()
    rt.shutdown()
    # workers fork from here: start them with no inherited attachment
    runtime.drop_released(frozenset())
    if rt.pool(POOL_SIZE) is None:  # pragma: no cover - no fork here
        pytest.skip("process pool unavailable")
    yield rt
    rt.shutdown()


def test_dropped_laesa_indexes_leave_one_corpus(fanned_out):
    pools = []
    for seed in range(ROUNDS):
        words = _words(seed)
        index = LaesaIndex(words, "levenshtein", n_pivots=4)
        index.bulk_knn(_words(100 + seed, 12), 2)
        # the index's corpus is the one live publication of the round
        assert len(fanned_out.live_keys()) == 1
        pools.append(fanned_out._pool)
        del index
        gc.collect()
        assert not fanned_out.live_keys()
    assert all(pool is pools[0] for pool in pools), "pool respawned"
    for bundles, shards in _worker_caches().values():
        assert len(bundles) <= 1 and not shards


def test_fanned_out_matrices_leave_one_throwaway_corpus(fanned_out):
    for seed in range(ROUNDS):
        words = _words(seed, 40)
        pairwise_matrix("dmax", words, workers=POOL_SIZE)
        # the call's throwaway corpus was released on return
        gc.collect()
        assert not fanned_out.live_keys()
    caches = _worker_caches()
    assert any(bundles for bundles, _ in caches.values()), "never fanned out"
    for bundles, shards in caches.values():
        assert len(bundles) <= 1 and not shards


def test_dropped_sharded_indexes_leave_one_index_of_shards(fanned_out):
    for seed in range(ROUNDS):
        index = ShardedIndex(_words(seed, 80), "levenshtein", shards=2)
        index.bulk_knn(_words(100 + seed, 8), 2)
        # per round: the two shard corpora the AESA builds fanned out
        # over, and the two shard bundles of the scatter
        assert len(fanned_out.live_keys()) == 4
        del index
        gc.collect()
        assert not fanned_out.live_keys()
    caches = _worker_caches()
    assert any(shards for _, shards in caches.values()), "never scattered"
    for bundles, shards in caches.values():
        assert len(bundles) <= 4 and len(shards) <= 2
