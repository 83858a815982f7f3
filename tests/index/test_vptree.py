"""VP-tree: real-valued metric search with median splits, and the
request streams of its generators."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import get_distance
from repro.index import ExhaustiveIndex, VPTreeIndex
from repro.index.base import SearchResult, canonical_key


@pytest.mark.parametrize("name", ["levenshtein", "contextual_heuristic", "yujian_bo"])
def test_matches_exhaustive(small_word_list, name):
    distance = get_distance(name)
    exhaustive = ExhaustiveIndex(small_word_list, distance)
    tree = VPTreeIndex(small_word_list, distance, rng=random.Random(0))
    rng = random.Random(1)
    for _ in range(25):
        q = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
        truth, _ = exhaustive.nearest(q)
        found, _ = tree.nearest(q)
        assert found.distance == pytest.approx(truth.distance)


def test_knn(small_word_list):
    distance = get_distance("levenshtein")
    exhaustive = ExhaustiveIndex(small_word_list, distance)
    tree = VPTreeIndex(small_word_list, distance, rng=random.Random(2))
    truths, _ = exhaustive.knn("ced", 6)
    found, _ = tree.knn("ced", 6)
    assert [r.distance for r in found] == pytest.approx(
        [r.distance for r in truths]
    )


def test_single_item():
    tree = VPTreeIndex(["solo"], get_distance("levenshtein"))
    result, _ = tree.nearest("sole")
    assert result.item == "solo"


def test_prunes(small_word_list):
    distance = get_distance("levenshtein")
    tree = VPTreeIndex(small_word_list, distance, rng=random.Random(3))
    rng = random.Random(4)
    total = 0
    queries = [
        "".join(rng.choice("abcde") for _ in range(rng.randint(2, 8)))
        for _ in range(30)
    ]
    for q in queries:
        _, stats = tree.nearest(q)
        total += stats.distance_computations
    assert total / len(queries) < len(small_word_list)


def test_preprocessing_counted(small_word_list):
    tree = VPTreeIndex(small_word_list, get_distance("levenshtein"))
    assert tree.preprocessing_computations > 0


def _reference_search(index, query, k):
    """``VPTreeIndex._search`` before k-NN became a request generator,
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

    def visit(node):
        if node is None:
            return
        limit = index._node_limit(node, kth_best())
        d = within(node.index, limit)
        if d > limit:
            visit(node.outside)
            return
        entry = (-d, -node.index)
        if len(best) < k:
            heapq.heappush(best, entry)
        elif entry > best[0]:
            heapq.heapreplace(best, entry)
        if d <= node.radius:
            visit(node.inside)
            if d + kth_best() > node.radius:
                visit(node.outside)
        else:
            visit(node.outside)
            if d - kth_best() <= node.radius:
                visit(node.inside)

    visit(index._root)
    ordered = sorted((-nd, -nidx) for nd, nidx in best)
    return calls, [
        SearchResult(item=index.items[idx], index=idx, distance=d)
        for d, idx in ordered
    ]


def _reference_range_requests(index, radius):
    """``VPTreeIndex._range_requests`` before its explicit stack: the
    recursion through nested ``yield from``, kept statement for
    statement (``self`` -> *index*)."""
    hits = []

    def visit(node):
        if node is None:
            return
        limit = index._node_limit(node, radius)
        d = yield (node.index, limit, None)
        if d > limit:
            yield from visit(node.outside)
            return
        if d <= radius:
            hits.append(
                SearchResult(
                    item=index.items[node.index], index=node.index, distance=d
                )
            )
        if d - radius <= node.radius:
            yield from visit(node.inside)
        if d + radius > node.radius:
            yield from visit(node.outside)

    yield from visit(index._root)
    hits.sort(key=canonical_key)
    return hits


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
_stream_names = st.sampled_from(["levenshtein", "dmax", "contextual_heuristic"])


@given(
    data=st.data(),
    items=st.lists(_stream_word, min_size=1, max_size=16),
    query=_stream_word,
    name=_stream_names,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, deadline=None)
def test_search_requests_match_reference_search(data, items, query, name, seed):
    """The k-NN generator yields exactly the ``within`` calls, limits
    included, of the recursive search it replaced, and returns the same
    neighbours -- duplicates and distance ties included."""
    index = VPTreeIndex(items, get_distance(name), rng=random.Random(seed))
    k = data.draw(st.integers(1, len(items)), label="k")
    assert _stream(index, index._search_requests(k), query) == (
        _reference_search(index, query, k)
    )


@given(
    data=st.data(),
    items=st.lists(_stream_word, min_size=1, max_size=16),
    query=_stream_word,
    name=_stream_names,
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_range_requests_match_reference_recursion(data, items, query, name, seed):
    """The explicit-stack range generator yields the nested-``yield
    from`` recursion's requests in the same order, with the same hits."""
    index = VPTreeIndex(items, get_distance(name), rng=random.Random(seed))
    distance = get_distance(name)
    radius = distance(query, data.draw(st.sampled_from(items), label="pivot"))
    assert _stream(index, index._range_requests(radius), query) == _stream(
        index, _reference_range_requests(index, radius), query
    )
