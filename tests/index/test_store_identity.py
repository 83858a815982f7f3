"""Loaded-vs-rebuilt identity: a warm start must not change a single bit.

The artifact store changes *where* a built index comes from (mapped
read-only arrays instead of distance evaluations) but may never change a
value: neighbours, distances and per-query ``distance_computations`` of
``bulk_knn`` and ``bulk_range_search`` must be bit-identical between a
cold build and a snapshot loaded back from disk, across every index
structure and the paper's length regimes.  Runs on both kernel backends
via the CI matrix (``REPRO_JIT`` legs), like the interned-identity suite
it mirrors.
"""

import random

import pytest

from repro.core import get_distance
from repro.index import (
    AesaIndex,
    BKTreeIndex,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)
from repro.store import ArtifactStore

REGIMES = {
    "word": ("abcde", 1, 9),
    "dna": ("acgt", 8, 30),
    "digit": ("01234567", 20, 55),
}

STRUCTURES = {
    "exhaustive": ExhaustiveIndex,
    "aesa": AesaIndex,
    "laesa": LaesaIndex,
    "vptree": VPTreeIndex,
    "bktree": BKTreeIndex,
}


def _workload(regime, n_items=40, n_queries=10, seed=0x57E):
    alphabet, lo, hi = REGIMES[regime]
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    items = sorted({word() for _ in range(n_items * 2)})[:n_items]
    queries = [word() for _ in range(n_queries)]
    return items, queries


def _snapshot(results):
    return [
        (
            [(r.index, r.distance) for r in hits],
            stats.distance_computations,
        )
        for hits, stats in results
    ]


def _params(structure):
    return {"n_pivots": 4} if structure == "laesa" else {}


def _round_trip(structure, items, distance, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    params = _params(structure)
    built = STRUCTURES[structure](items, distance, **params)
    built.save(store)
    loaded = STRUCTURES[structure].load(items, distance, store, **params)
    assert loaded._counter.calls == 0  # the whole point of the store
    assert (
        loaded.preprocessing_computations == built.preprocessing_computations
    )
    return built, loaded


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@pytest.mark.parametrize("name", ["levenshtein", "dmax", "marzal_vidal"])
def test_bulk_knn_identical_after_round_trip(regime, structure, name, tmp_path):
    if structure == "bktree" and name != "levenshtein":
        pytest.skip("BK-tree requires an integer metric")
    items, queries = _workload(regime)
    distance = get_distance(name)
    built, loaded = _round_trip(structure, items, distance, tmp_path)
    assert _snapshot(loaded.bulk_knn(queries, 3)) == _snapshot(
        built.bulk_knn(queries, 3)
    )


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@pytest.mark.parametrize("name", ["levenshtein", "dmax", "marzal_vidal"])
def test_bulk_range_identical_after_round_trip(
    regime, structure, name, tmp_path
):
    if structure == "bktree" and name != "levenshtein":
        pytest.skip("BK-tree requires an integer metric")
    items, queries = _workload(regime)
    distance = get_distance(name)
    # a radius with a few hits per query: sample some true distances
    rng = random.Random(11)
    sample = sorted(
        distance(rng.choice(items), rng.choice(items)) for _ in range(40)
    )
    radius = sample[4]
    built, loaded = _round_trip(structure, items, distance, tmp_path)
    assert _snapshot(loaded.bulk_range_search(queries, radius)) == _snapshot(
        built.bulk_range_search(queries, radius)
    )


def test_loaded_corpus_republishes_to_shared_memory(tmp_path, monkeypatch):
    """A loaded InternedCorpus must feed the persistent worker pool
    exactly like a built one: force fan-out and compare to the built
    index's answers."""
    items, queries = _workload("digit", n_items=48, n_queries=8)
    distance = get_distance("levenshtein")
    built, loaded = _round_trip("laesa", items, distance, tmp_path)
    assert loaded._corpus is not None
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "1")  # pool on
    try:
        pooled = _snapshot(loaded.bulk_knn(queries, 3))
    finally:
        monkeypatch.delenv("REPRO_MIN_PAIRS_PER_WORKER")
    assert pooled == _snapshot(built.bulk_knn(queries, 3))
