"""BK-tree: integer-metric search with pruning, and the request stream
of its k-NN generator."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import get_distance
from repro.index import BKTreeIndex, ExhaustiveIndex
from repro.index.base import SearchResult


class TestCorrectness:
    def test_matches_exhaustive(self, small_word_list):
        distance = get_distance("levenshtein")
        exhaustive = ExhaustiveIndex(small_word_list, distance)
        tree = BKTreeIndex(small_word_list, distance)
        rng = random.Random(0)
        for _ in range(40):
            q = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
            truth, _ = exhaustive.nearest(q)
            found, _ = tree.nearest(q)
            assert found.distance == pytest.approx(truth.distance)

    def test_knn(self, small_word_list):
        distance = get_distance("levenshtein")
        exhaustive = ExhaustiveIndex(small_word_list, distance)
        tree = BKTreeIndex(small_word_list, distance)
        truths, _ = exhaustive.knn("acde", 5)
        found, _ = tree.knn("acde", 5)
        assert [r.distance for r in found] == pytest.approx(
            [r.distance for r in truths]
        )

    def test_duplicates_allowed(self):
        distance = get_distance("levenshtein")
        tree = BKTreeIndex(["abc", "abc", "abd"], distance)
        result, _ = tree.nearest("abc")
        assert result.distance == 0.0


class TestPruning:
    def test_prunes_on_realistic_data(self, small_word_list):
        distance = get_distance("levenshtein")
        tree = BKTreeIndex(small_word_list, distance)
        total = 0
        rng = random.Random(1)
        queries = [
            "".join(rng.choice("abcde") for _ in range(rng.randint(2, 8)))
            for _ in range(30)
        ]
        for q in queries:
            _, stats = tree.nearest(q)
            total += stats.distance_computations
        assert total / len(queries) < len(small_word_list)


class TestIntegerRequirement:
    def test_rejects_real_valued_distance(self, small_word_list):
        distance = get_distance("contextual_heuristic")
        with pytest.raises(ValueError):
            BKTreeIndex(small_word_list[:30], distance)

    @pytest.mark.parametrize("d", [float("inf"), float("nan")])
    def test_rejects_non_finite_distance(self, d):
        # d_min("", "a") is infinite: that is a ValueError like any other
        # non-integer distance, not round()'s OverflowError
        with pytest.raises(ValueError, match="integer-valued"):
            BKTreeIndex(["a", "b"], lambda x, y: 0.0 if x == y else d)


def _reference_search(index, query, k):
    """``BKTreeIndex._search`` before k-NN became a request generator,
    kept statement for statement (``self`` -> *index*; the counted
    ``within`` call also records ``(item index, limit)``) as the oracle
    for the new request stream.  Returns the recorded calls and the
    results."""
    calls = []

    def within(idx, limit):
        calls.append((idx, limit))
        return index._counter.within(query, index.items[idx], limit)

    best = []

    def kth_best():
        return -best[0][0] if len(best) == k else float("inf")

    stack = [index._root]
    while stack:
        node = stack.pop()
        limit = index._node_limit(node, kth_best())
        d = within(node.index, limit)
        if d > limit:
            continue  # cannot enter the heap nor reach any child
        entry = (-d, -node.index)
        if len(best) < k:
            heapq.heappush(best, entry)
        elif entry > best[0]:
            heapq.heapreplace(best, entry)
        radius = kth_best()
        key = index._integer(d)
        for child_key, child in node.children.items():
            if abs(key - child_key) <= radius:
                stack.append(child)
    ordered = sorted((-nd, -nidx) for nd, nidx in best)
    return calls, [
        SearchResult(item=index.items[idx], index=idx, distance=d)
        for d, idx in ordered
    ]


def _stream(index, generator, query):
    """Drive *generator* as the scalar driver does, recording
    ``(item index, limit)`` per request; returns the requests and the
    results."""
    requests = []
    value = None
    while True:
        try:
            idx, limit, cache_pos = generator.send(value)
        except StopIteration as stop:
            return requests, stop.value
        assert cache_pos is None
        requests.append((idx, limit))
        value = index._counter.within(query, index.items[idx], limit)


_stream_word = st.text(alphabet="abc", max_size=5)  # empty strings included


@given(
    data=st.data(),
    items=st.lists(_stream_word, min_size=1, max_size=16),
    query=_stream_word,
)
@settings(max_examples=200, deadline=None)
def test_search_requests_match_reference_search(data, items, query):
    """The k-NN generator yields exactly the ``within`` calls, limits
    included, of the hand-written loop it replaced, and returns the same
    neighbours -- duplicates and distance ties included."""
    index = BKTreeIndex(items, get_distance("levenshtein"))
    k = data.draw(st.integers(1, len(items)), label="k")
    assert _stream(index, index._search_requests(k), query) == (
        _reference_search(index, query, k)
    )
