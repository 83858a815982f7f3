"""Counting wrapper, stats, and the shared index contract."""

import pytest

from repro.core import get_distance
from repro.index import CountingDistance, ExhaustiveIndex


class TestCountingDistance:
    def test_counts_calls(self):
        counter = CountingDistance(get_distance("levenshtein"))
        counter("a", "b")
        counter("ab", "ba")
        assert counter.calls == 2

    def test_take_resets(self):
        counter = CountingDistance(get_distance("levenshtein"))
        counter("a", "b")
        assert counter.take() == 1
        assert counter.calls == 0

    def test_passes_values_through(self):
        counter = CountingDistance(get_distance("levenshtein"))
        assert counter("kitten", "sitting") == 3.0


class TestIndexContract:
    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            ExhaustiveIndex([], get_distance("levenshtein"))

    def test_k_validation(self):
        index = ExhaustiveIndex(["a", "b"], get_distance("levenshtein"))
        with pytest.raises(ValueError):
            index.knn("a", 0)
        with pytest.raises(ValueError):
            index.knn("a", 3)

    def test_nearest_returns_result_and_stats(self):
        index = ExhaustiveIndex(["aa", "bb", "ab"], get_distance("levenshtein"))
        result, stats = index.nearest("ab")
        assert result.item == "ab"
        assert result.distance == 0.0
        assert stats.distance_computations == 3
        assert stats.elapsed_seconds >= 0.0

    def test_stats_reset_between_queries(self):
        index = ExhaustiveIndex(["aa", "bb"], get_distance("levenshtein"))
        _, stats1 = index.nearest("aa")
        _, stats2 = index.nearest("bb")
        assert stats1.distance_computations == 2
        assert stats2.distance_computations == 2


WORDS = [f"{a}{b}{c}" for a in "abcd" for b in "xy" for c in "pqrst"][:40]

TARGETS = ["exhaustive", "laesa", "aesa", "bktree", "vptree", "sharded", "server"]


def _target_index(target, distance=None):
    from repro.index import AesaIndex, BKTreeIndex, LaesaIndex, VPTreeIndex
    from repro.shard import ShardedIndex

    if distance is None:
        distance = get_distance("levenshtein")
    if target in ("laesa", "server"):
        return LaesaIndex(WORDS, distance, n_pivots=4)
    if target == "sharded":
        return ShardedIndex(WORDS, distance, shards=2, structure="laesa")
    cls = {
        "exhaustive": ExhaustiveIndex,
        "aesa": AesaIndex,
        "bktree": BKTreeIndex,
        "vptree": VPTreeIndex,
    }[target]
    return cls(WORDS, distance)


@pytest.mark.parametrize("target", TARGETS)
def test_bad_k_and_radius_raise_value_error_everywhere(target):
    """One validation for every entry point: ``k`` must be an integer in
    ``[1, n]`` and a radius must be ``>= 0`` -- a non-integer ``k`` used
    to scan everything (or crash in a slice), a NaN radius used to
    return nothing, and an empty batch skipped the ``k`` check."""
    index = _target_index(target)
    nan = float("nan")
    if target == "server":
        import asyncio

        from repro.serve import IndexServer, ServeConfig

        async def main():
            config = ServeConfig(window_ms=1.0, dispose_runtime_on_drain=False)
            async with IndexServer(index, config) as server:
                for k in (2.5, 0, len(WORDS) + 1):
                    with pytest.raises(ValueError):
                        await server.knn("axp", k)
                for radius in (nan, -1.0):
                    with pytest.raises(ValueError):
                        await server.range_search("axp", radius)
                return server.metrics.snapshot()

        assert asyncio.run(main())["submitted"] == 0
        return
    for k in (2.5, 0, len(WORDS) + 1):
        with pytest.raises(ValueError):
            index.knn("axp", k)
        with pytest.raises(ValueError):
            index.bulk_knn(["axp"], k)
        with pytest.raises(ValueError):
            index.bulk_knn([], k)
    for radius in (nan, -1.0):
        with pytest.raises(ValueError):
            index.range_search("axp", radius)
        with pytest.raises(ValueError):
            index.bulk_range_search(["axp"], radius)
        with pytest.raises(ValueError):
            index.bulk_range_search([], radius)
    assert len(index.knn("axp", 3)[0]) == 3  # integral k still works


def _answers(index, queries):
    def snap(results):
        return [
            ([(r.index, r.distance) for r in hits], stats.distance_computations)
            for hits, stats in results
        ]

    return (
        snap([index.knn(q, 3) for q in queries]),
        snap([index.range_search(q, 1.0) for q in queries]),
        snap(index.bulk_knn(queries, 3)),
        snap(index.bulk_range_search(queries, 1.0)),
    )


def _served_answers(index, queries):
    import asyncio

    from repro.serve import IndexServer, ServeConfig

    async def main():
        config = ServeConfig(window_ms=1.0, dispose_runtime_on_drain=False)
        async with IndexServer(index, config) as server:
            knn = await asyncio.gather(*(server.knn(q, 3) for q in queries))
            hits = await asyncio.gather(
                *(server.range_search(q, 1.0) for q in queries)
            )
        return [
            ([(r.index, r.distance) for r in found], stats.distance_computations)
            for found, stats in list(knn) + list(hits)
        ]

    return asyncio.run(main())


@pytest.mark.parametrize("target", TARGETS)
def test_registry_name_matches_function_everywhere(target):
    """``distance`` may be a registry name: it resolves to the function
    once, at construction, so every scalar, early-exit and bulk path
    answers (and counts) exactly as with the function itself -- a name
    used to reach the scalar paths uncalled."""
    queries = ["axp", "byq", "czz", "dxt", "ayr", "bbb"]
    by_name = _target_index(target, "levenshtein")
    by_function = _target_index(target)
    if target == "server":
        assert _served_answers(by_name, queries) == _served_answers(
            by_function, queries
        )
    else:
        assert _answers(by_name, queries) == _answers(by_function, queries)
    with pytest.raises(KeyError):
        _target_index(target, "no_such_distance")
