"""Early-exit (bounded) evaluation inside the search structures.

The indexes must return *exactly* what an exhaustive scan returns while
never letting a pruned (inexact) value leak into results or bounds.
"""

import random

import pytest

from repro.core import get_distance, get_spec, list_distances
from repro.index import (
    BKTreeIndex,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)
from repro.index.base import CountingDistance


@pytest.fixture(scope="module")
def words():
    gen = random.Random(0xB0B)
    return sorted(
        {
            "".join(gen.choice("abcd") for _ in range(gen.randint(2, 9)))
            for _ in range(150)
        }
    )


class TestCountingDistanceWithin:
    def test_counts_like_a_plain_call(self):
        counter = CountingDistance(get_distance("levenshtein"))
        counter("ab", "ba")
        counter.within("ab", "ba", 0.5)
        assert counter.calls == 2

    def test_exact_when_under_limit(self):
        distance = get_distance("yujian_bo")
        counter = CountingDistance(distance)
        assert counter.within("abc", "abd", 1.0) == distance("abc", "abd")

    def test_above_limit_when_pruned(self):
        counter = CountingDistance(get_distance("levenshtein"))
        assert counter.within("aaaaaa", "bbbbbb", 1.0) > 1.0

    def test_infinite_limit_passes_through(self):
        distance = get_distance("dmax")
        counter = CountingDistance(distance)
        value = counter.within("abcd", "dcba", float("inf"))
        assert value == distance("abcd", "dcba")

    def test_unbounded_distance_falls_back_exact(self):
        # exact d_C is the one paper distance still without a twin
        distance = get_spec("contextual").function
        counter = CountingDistance(distance)
        assert counter.within("abc", "cab", 0.01) == distance("abc", "cab")

    def test_contextual_heuristic_twin_prunes(self):
        distance = get_spec("contextual_heuristic").function
        counter = CountingDistance(distance)
        value = counter.within("abc", "cab", 0.01)
        assert value > 0.01
        assert value <= distance("abc", "cab")

    def test_marzal_vidal_twin_prunes(self):
        distance = get_spec("marzal_vidal").function
        counter = CountingDistance(distance)
        value = counter.within("aaaa", "bbbb", 0.1)
        assert value > 0.1
        assert value <= distance("aaaa", "bbbb")

    def test_many_counts_per_pair(self):
        counter = CountingDistance(get_distance("levenshtein"))
        values = counter.many([("a", "b"), ("a", "b"), ("x", "x")])
        assert counter.calls == 3  # dedupe never hides demanded work
        assert values.tolist() == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("name", ["levenshtein", "yujian_bo", "dmax"])
@pytest.mark.parametrize("k", [1, 3])
def test_pruning_indexes_match_exhaustive(words, name, k):
    if name != "levenshtein" and k == 1:
        pass  # every combination is cheap enough to run
    distance = get_distance(name)
    queries = ["aab", "dcba", "abcdabcd", words[17], "a"]
    exhaustive = ExhaustiveIndex(words, distance)
    indexes = [
        LaesaIndex(words, distance, n_pivots=8),
        VPTreeIndex(words, distance),
    ]
    if name == "levenshtein":  # integer metric required
        indexes.append(BKTreeIndex(words, distance))
    for query in queries:
        truth, _ = exhaustive.knn(query, k)
        truth_distances = [r.distance for r in truth]
        for index in indexes:
            got, _ = index.knn(query, k)
            # structures may break distance ties differently; the distance
            # profile (and hence correctness of the pruning) must agree
            assert [r.distance for r in got] == truth_distances, (
                name,
                type(index).__name__,
                query,
            )
            for r in got:
                assert r.distance == distance(query, words[r.index])


@pytest.mark.parametrize("name", ["levenshtein", "yujian_bo"])
def test_pruning_indexes_match_exhaustive_range(words, name):
    distance = get_distance(name)
    radius = 2.0 if name == "levenshtein" else 0.45
    exhaustive = ExhaustiveIndex(words, distance)
    indexes = [
        LaesaIndex(words, distance, n_pivots=8),
        VPTreeIndex(words, distance),
    ]
    if name == "levenshtein":
        indexes.append(BKTreeIndex(words, distance))
    for query in ["abc", "dddd", words[3]]:
        truth, _ = exhaustive.range_search(query, radius)
        truth_set = {(r.index, r.distance) for r in truth}
        for index in indexes:
            got, _ = index.range_search(query, radius)
            assert {(r.index, r.distance) for r in got} == truth_set


#: Registry names whose function has an early-exit twin.
TWINNED = [spec.name for spec in list_distances() if spec.bounded is not None]


def _hits(results):
    return sorted((r.index, float(r.distance).hex()) for r in results)


@pytest.mark.parametrize("name", TWINNED)
def test_huge_limits_answer_the_full_distance(words, name):
    """A limit whose product with a length overflows (``1e308``), or an
    infinite one, prunes nothing: every twin answers the full distance,
    and LAESA's range searches at such radii answer what a scan does."""
    distance = get_distance(name)
    twin = get_spec(name).bounded
    sample = ["", "a", "ab", "ba", "abcd", "dcbad", "a" * 70, words[9]]
    for x in sample:
        for y in sample:
            want = float(distance(x, y)).hex()
            for limit in (1e308, float("inf")):
                assert float(twin(x, y, limit)).hex() == want, (x, y, limit)
    items = words[:40]
    queries = ["abc", "dddd", words[60]]
    exhaustive = ExhaustiveIndex(items, distance)
    laesa = LaesaIndex(items, distance, n_pivots=2)
    for radius in (1e308, float("inf")):
        want = [_hits(exhaustive.range_search(q, radius)[0]) for q in queries]
        assert [_hits(laesa.range_search(q, radius)[0]) for q in queries] == want
        bulk = laesa.bulk_range_search(queries, radius)
        assert [_hits(hits) for hits, _ in bulk] == want


def test_bounded_never_inflates_computation_counts(words):
    """Early exit changes the cost per computation, not the count."""
    distance = get_distance("levenshtein")
    plain = LaesaIndex(words, distance, n_pivots=6)
    _, stats = plain.knn("abca", 1)
    assert 0 < stats.distance_computations <= len(words)
