"""The sharded tier's core contract: bit-identity with the unsharded
index.

Every structure x regime x query-mode cell asserts the sharded answers
(neighbours AND distances, in canonical order) equal the equivalent
unsharded index's; parallel and serial scatters additionally agree on
per-query ``distance_computations`` (the deterministic sum of what each
shard demanded), the exhaustive structure's counts equal the unsharded
count outright (every item is evaluated exactly once either way), and a
single-shard layout is the unsharded index -- counts included.
"""

import random

import pytest

from repro.batch import runtime
from repro.core.levenshtein import levenshtein_distance as lev
from repro.index import (
    AesaIndex,
    BKTreeIndex,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)
from repro.shard import ShardedIndex


def _corpus(alphabet, lengths, n, seed):
    rng = random.Random(seed)
    lo, hi = lengths
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        for _ in range(n)
    ]


REGIMES = {
    "word": lambda n, seed: _corpus("abcdefghij", (3, 12), n, seed),
    "dna": lambda n, seed: _corpus("acgt", (15, 40), n, seed),
    "digit": lambda n, seed: _corpus("01234567", (20, 50), n, seed),
}

STRUCTURES = {
    "exhaustive": (ExhaustiveIndex, {}, {}),
    "laesa": (LaesaIndex, {"n_pivots": 6}, {"n_pivots": 6}),
    "aesa": (AesaIndex, {}, {}),
    "bktree": (BKTreeIndex, {}, {}),
    "vptree": (VPTreeIndex, {}, {}),
}


def _results(per_query):
    return [[(r.index, r.distance) for r in results] for results, _ in per_query]


def _counts(per_query):
    return [stats.distance_computations for _, stats in per_query]


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    runtime.get_runtime().shutdown()


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_sharded_matches_unsharded(regime, structure):
    cls, flat_params, shard_params = STRUCTURES[structure]
    items = REGIMES[regime](96, seed=11)
    queries = REGIMES[regime](16, seed=404)
    radius = 3.0 if regime == "word" else 12.0

    flat = cls(items, lev, **flat_params)
    sharded = ShardedIndex(
        items,
        lev,
        shards=3,
        structure=structure,
        structure_params=shard_params,
    )
    assert sharded.n_shards == 3

    flat_knn = flat.bulk_knn(queries, 5)
    shard_knn = sharded.bulk_knn(queries, 5)
    assert _results(shard_knn) == _results(flat_knn)

    flat_range = flat.bulk_range_search(queries, radius)
    shard_range = sharded.bulk_range_search(queries, radius)
    assert _results(shard_range) == _results(flat_range)

    if structure == "exhaustive":
        # n evaluations per query, sharded or not
        assert _counts(shard_knn) == _counts(flat_knn) == [96] * len(queries)


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_parallel_scatter_equals_serial(monkeypatch, structure):
    """The same sharded index, scattered on the pool and in the master,
    must agree bit-for-bit -- counts included."""
    cls, _flat, shard_params = STRUCTURES[structure]
    items = REGIMES["word"](120, seed=3)
    queries = REGIMES["word"](20, seed=505)

    sharded = ShardedIndex(
        items,
        lev,
        shards=4,
        structure=structure,
        structure_params=shard_params,
    )
    parallel_knn = sharded.bulk_knn(queries, 4)
    parallel_range = sharded.bulk_range_search(queries, 3.0)

    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    serial_knn = sharded.bulk_knn(queries, 4)
    serial_range = sharded.bulk_range_search(queries, 3.0)

    assert _results(parallel_knn) == _results(serial_knn)
    assert _counts(parallel_knn) == _counts(serial_knn)
    assert _results(parallel_range) == _results(serial_range)
    assert _counts(parallel_range) == _counts(serial_range)


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_single_shard_is_the_unsharded_index(structure):
    """shards=1 is the identity layout: full bit-identity with the flat
    structure, per-query computation counts included."""
    cls, flat_params, shard_params = STRUCTURES[structure]
    items = REGIMES["dna"](80, seed=29)
    queries = REGIMES["dna"](12, seed=606)

    flat = cls(items, lev, **flat_params)
    one = ShardedIndex(
        items,
        lev,
        shards=1,
        structure=structure,
        structure_params=shard_params,
    )
    a = one.bulk_knn(queries, 3)
    b = flat.bulk_knn(queries, 3)
    assert _results(a) == _results(b)
    assert _counts(a) == _counts(b)
    ar = one.bulk_range_search(queries, 10.0)
    br = flat.bulk_range_search(queries, 10.0)
    assert _results(ar) == _results(br)
    assert _counts(ar) == _counts(br)


def test_scalar_queries_match_unsharded():
    items = REGIMES["word"](90, seed=8)
    queries = REGIMES["word"](10, seed=707)
    flat = LaesaIndex(items, lev, n_pivots=5)
    sharded = ShardedIndex(
        items,
        lev,
        shards=3,
        structure="laesa",
        structure_params={"n_pivots": 5},
    )
    for q in queries:
        a, _ = sharded.knn(q, 3)
        b, _ = flat.knn(q, 3)
        assert [(r.index, r.distance) for r in a] == [
            (r.index, r.distance) for r in b
        ]
        ar, _ = sharded.range_search(q, 3.0)
        br, _ = flat.range_search(q, 3.0)
        assert [(r.index, r.distance) for r in ar] == [
            (r.index, r.distance) for r in br
        ]


def test_k_larger_than_shard_size():
    """The global k may exceed every shard's item count; each shard
    contributes its whole slice and the merge still returns global
    top-k."""
    items = REGIMES["word"](40, seed=15)
    queries = REGIMES["word"](6, seed=808)
    flat = ExhaustiveIndex(items, lev)
    sharded = ShardedIndex(items, lev, shards=4, structure="exhaustive")
    # 40 items over 4 shards -> 10 per shard; ask for 25 neighbours
    a = sharded.bulk_knn(queries, 25)
    b = flat.bulk_knn(queries, 25)
    assert _results(a) == _results(b)


def test_auto_structure_defaults(monkeypatch):
    """With no explicit shard count the module defaults drive
    resolution and ``auto`` picks AESA under the gate."""
    import repro.shard.sharded as module

    monkeypatch.setattr(module, "_DEFAULT_SHARDS", 3)
    items = REGIMES["word"](60, seed=21)
    assert ShardedIndex(items, lev).n_shards == 1  # 32 items per shard
    sharded = ShardedIndex(items, lev, min_shard_items=10)
    assert sharded.n_shards == 3
    assert all(isinstance(s.index, AesaIndex) for s in sharded._shards)
    flat = ExhaustiveIndex(items, lev)
    queries = REGIMES["word"](8, seed=909)
    assert _results(sharded.bulk_knn(queries, 3)) == _results(
        flat.bulk_knn(queries, 3)
    )


def test_preprocessing_is_sum_of_shards():
    items = REGIMES["word"](80, seed=33)
    sharded = ShardedIndex(
        items,
        lev,
        shards=4,
        structure="laesa",
        structure_params={"n_pivots": 4},
    )
    assert sharded.preprocessing_computations == sum(
        s.index.preprocessing_computations for s in sharded._shards
    )
    assert sharded.preprocessing_computations == 4 * 4 * 20


def test_bulk_results_share_index_and_distance_objects():
    # a caller keeping many answers holds one object per global index
    # and per distinct distance of a call, not one per hit
    items = REGIMES["word"](400, 3)  # indices past CPython's small ints
    queries = REGIMES["word"](12, 4)
    sharded = ShardedIndex(
        items, lev, shards=3, structure="laesa", structure_params={"n_pivots": 4}
    )
    flat = LaesaIndex(items, lev, n_pivots=4)
    per_query = sharded.bulk_knn(queries, 6)
    assert _results(per_query) == _results(flat.bulk_knn(queries, 6))
    by_value = {}
    by_index = {}
    for results, _ in per_query:
        for r in results:
            assert by_value.setdefault(r.distance, r.distance) is r.distance
            assert by_index.setdefault(r.index, r.index) is r.index
    assert len(by_value) < sum(len(results) for results, _ in per_query)
