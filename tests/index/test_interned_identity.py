"""Interned-vs-scalar identity: bulk queries must not notice the corpus.

The interned-corpus runtime changes *where* kernel inputs come from
(matrices encoded at build time, id-pair dispatch, optionally a
persistent shared-memory pool) but may never change a value: neighbours,
distances and per-query ``distance_computations`` of ``bulk_knn`` and
``bulk_range_search`` must be bit-identical to a plain loop of scalar
``knn`` / ``range_search`` calls on the same index, across every index
structure and the paper's length regimes.
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

REGIMES = {
    "word": ("abcde", 1, 9),
    "dna": ("acgt", 8, 30),
    "digit": ("01234567", 20, 55),
}


def _workload(regime, n_items=40, n_queries=10, seed=0x1D5):
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


def _build(structure, items, distance):
    if structure is LaesaIndex:
        return LaesaIndex(items, distance, n_pivots=4)
    return structure(items, distance)


STRUCTURES = {
    "exhaustive": ExhaustiveIndex,
    "laesa": LaesaIndex,
    "aesa": AesaIndex,
    "vptree": VPTreeIndex,
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
@pytest.mark.parametrize("name", ["dmax", "contextual_heuristic", "marzal_vidal"])
def test_interned_bulk_knn_matches_scalar_loop(regime, structure, name):
    items, queries = _workload(regime)
    index = _build(STRUCTURES[structure], items, get_distance(name))
    assert index._corpus.encoded
    bulk = _snapshot(index.bulk_knn(queries, 2))
    assert bulk == _snapshot([index.knn(q, 2) for q in queries])


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize(
    "structure", sorted(STRUCTURES) + ["bktree"]
)
@pytest.mark.parametrize("name", ["levenshtein", "dmax", "marzal_vidal"])
def test_interned_bulk_range_matches_scalar_loop(regime, structure, name):
    if structure == "bktree" and name != "levenshtein":
        pytest.skip("BK-tree requires an integer metric")
    items, queries = _workload(regime, seed=0x2E6)
    distance = get_distance(name)
    index_cls = BKTreeIndex if structure == "bktree" else STRUCTURES[structure]
    # a radius with a few hits per query: sample some true distances
    rng = random.Random(9)
    sample = sorted(
        distance(rng.choice(items), rng.choice(items)) for _ in range(40)
    )
    radius = sample[4]
    index = _build(index_cls, items, distance)
    bulk = _snapshot(index.bulk_range_search(queries, radius))
    assert bulk == _snapshot([index.range_search(q, radius) for q in queries])


def test_interned_bulk_knn_matches_scalar_loop_for_tuple_items():
    """Chain-code-style tuple items intern through the shared alphabet."""
    rng = random.Random(0x3F7)
    items = [
        tuple(rng.randrange(8) for _ in range(rng.randint(4, 20)))
        for _ in range(30)
    ]
    queries = [
        tuple(rng.randrange(8) for _ in range(rng.randint(4, 20)))
        for _ in range(6)
    ]
    distance = get_distance("dmax")
    index = LaesaIndex(items, distance, n_pivots=3)
    assert index._corpus.encoded
    bulk = _snapshot(index.bulk_knn(queries, 1))
    assert bulk == _snapshot([index.knn(q, 1) for q in queries])


def test_scalar_and_bulk_agree_with_interning():
    """The canonical identity: per-query knn loop vs interned bulk_knn."""
    items, queries = _workload("word", seed=0x4A8)
    for name in ("dmax", "contextual_heuristic", "marzal_vidal"):
        index = LaesaIndex(items, get_distance(name), n_pivots=4)
        scalar = [index.knn(q, 2) for q in queries]
        bulk = index.bulk_knn(queries, 2)
        assert _snapshot(scalar) == _snapshot(bulk)
