"""Property-based cross-index agreement on random databases and queries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import get_distance
from repro.index import (
    AesaIndex,
    BKTreeIndex,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)

_word = st.text(alphabet="abc", min_size=1, max_size=6)


@given(
    st.lists(_word, min_size=2, max_size=25, unique=True),
    _word,
    st.integers(0, 6),
)
@settings(max_examples=40, deadline=None)
def test_all_indexes_agree_on_nearest(items, query, n_pivots):
    distance = get_distance("levenshtein")
    exhaustive = ExhaustiveIndex(items, distance)
    truth, _ = exhaustive.nearest(query)
    indexes = [
        LaesaIndex(items, distance, n_pivots=min(n_pivots, len(items))),
        AesaIndex(items, distance),
        BKTreeIndex(items, distance),
        VPTreeIndex(items, distance, rng=random.Random(0)),
    ]
    for index in indexes:
        found, _ = index.nearest(query)
        assert found.distance == pytest.approx(truth.distance), type(index)


@given(
    st.lists(_word, min_size=3, max_size=20, unique=True),
    _word,
)
@settings(max_examples=30, deadline=None)
def test_knn_distances_agree(items, query):
    distance = get_distance("levenshtein")
    k = min(3, len(items))
    exhaustive = ExhaustiveIndex(items, distance)
    truths, _ = exhaustive.knn(query, k)
    for make in (
        lambda: LaesaIndex(items, distance, n_pivots=min(4, len(items))),
        lambda: AesaIndex(items, distance),
        lambda: VPTreeIndex(items, distance, rng=random.Random(1)),
    ):
        found, _ = make().knn(query, k)
        assert [r.distance for r in found] == pytest.approx(
            [r.distance for r in truths]
        )


@given(st.lists(_word, min_size=2, max_size=15, unique=True))
@settings(max_examples=30, deadline=None)
def test_member_queries_find_distance_zero(items):
    distance = get_distance("contextual_heuristic")
    laesa = LaesaIndex(items, distance, n_pivots=min(3, len(items)))
    for q in items[:3]:
        found, _ = laesa.nearest(q)
        assert found.distance == 0.0


def _drive_exact(index, query, gen):
    """Drive a request generator answering every request -- bounded ones
    included -- with the exact distance, as a row cache does; returns
    the generator's result and its request count."""
    distance = index._counter._distance
    value = None
    requests = 0
    while True:
        try:
            idx, _limit, _cache_pos = gen.send(value)
        except StopIteration as stop:
            return stop.value, requests
        requests += 1
        value = distance(query, index.items[idx])


_STRUCTURES = {
    "laesa": lambda items, d: LaesaIndex(items, d, n_pivots=min(3, len(items))),
    "aesa": AesaIndex,
    "bktree": BKTreeIndex,
    "vptree": lambda items, d: VPTreeIndex(items, d, rng=random.Random(0)),
}


#: longer words over more symbols than ``_word``, so a twin's value past
#: its limit (the least value above it) mostly differs from the exact one
_long_word = st.text(alphabet="abcdef", min_size=0, max_size=14)


@pytest.mark.parametrize("structure", sorted(_STRUCTURES))
@pytest.mark.parametrize("name", ["levenshtein", "dmax"])
@given(
    items=st.lists(_long_word, min_size=3, max_size=25, unique=True),
    query=_long_word,
    k=st.integers(1, 3),
    radius=st.integers(0, 6),
)
@settings(max_examples=25, deadline=None)
def test_exact_answers_to_bounded_requests_change_nothing(
    structure, name, items, query, k, radius
):
    # every generator uses a value past its limit only through
    # `value > limit`, so answering bounded requests with exact
    # distances must give the scalar driver's results and counts
    if structure == "bktree" and name != "levenshtein":
        return  # the BK-tree takes integer metrics only
    index = _STRUCTURES[structure](items, get_distance(name))
    if name == "dmax":
        radius = radius / 8
    for run, scalar in (
        (index._search_requests(k), index.knn(query, k)),
        (index._range_requests(radius), index.range_search(query, radius)),
    ):
        want, stats = scalar
        got, requests = _drive_exact(index, query, run)
        assert [(r.index, r.distance) for r in got] == [
            (r.index, r.distance) for r in want
        ]
        assert requests == stats.distance_computations
