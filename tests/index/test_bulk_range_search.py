"""Lockstep ``bulk_range_search`` must be bit-identical to the scalar
``range_search`` loop -- hits, order, distances AND per-query
``distance_computations`` -- across every structure and radius regime.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.engine as engine
from repro.core import get_distance
from repro.index import (
    AesaIndex,
    BKTreeIndex,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)

#: every test runs once per forced lockstep route (see conftest)
pytestmark = pytest.mark.usefixtures("lockstep_route")


def _identical(index, queries, radius):
    scalar = [index.range_search(q, radius) for q in queries]
    bulk = index.bulk_range_search(queries, radius)
    assert len(scalar) == len(bulk)
    for q, ((t_res, t_stats), (g_res, g_stats)) in enumerate(zip(scalar, bulk)):
        assert [(r.index, r.distance) for r in t_res] == [
            (r.index, r.distance) for r in g_res
        ], (type(index).__name__, q, radius)
        assert t_stats.distance_computations == g_stats.distance_computations, (
            type(index).__name__,
            q,
            radius,
        )


def _queries(rng, count, alphabet="abcde", max_len=8):
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


class TestAgainstScalarLoop:
    @pytest.mark.parametrize("radius", [0.0, 1.0, 2.0, 6.0])
    def test_integer_metric_structures(self, small_word_list, radius):
        distance = get_distance("levenshtein")
        queries = _queries(random.Random(1), 12)
        for index in (
            ExhaustiveIndex(small_word_list, distance),
            LaesaIndex(small_word_list, distance, n_pivots=10),
            LaesaIndex(small_word_list, distance, n_pivots=0),
            AesaIndex(small_word_list, distance),
            BKTreeIndex(small_word_list, distance),
            VPTreeIndex(small_word_list, distance, rng=random.Random(0)),
        ):
            _identical(index, queries, radius)

    @pytest.mark.parametrize("name", ["dmax", "contextual_heuristic"])
    @pytest.mark.parametrize("radius", [0.1, 0.35, 0.8])
    def test_real_valued_radii(self, small_word_list, name, radius):
        distance = get_distance(name)
        queries = _queries(random.Random(2), 10)
        for index in (
            LaesaIndex(small_word_list, distance, n_pivots=12),
            AesaIndex(small_word_list, distance),
            VPTreeIndex(small_word_list, distance, rng=random.Random(3)),
        ):
            _identical(index, queries, radius)

    @pytest.mark.parametrize("price", [0, 10**15])
    def test_aesa_with_and_without_rows(self, small_word_list, monkeypatch, price):
        # rows bought after the first round, or priced out so the
        # lockstep rounds answer everything; results and counts must not
        # move
        monkeypatch.setattr(engine, "row_price", lambda name, store: (price, 0))
        index = AesaIndex(small_word_list, get_distance("levenshtein"))
        _identical(index, _queries(random.Random(4), 8), 2.0)

    def test_member_queries_find_themselves(self, small_word_list):
        index = LaesaIndex(
            small_word_list, get_distance("levenshtein"), n_pivots=6
        )
        members = small_word_list[:6]
        for (hits, _stats), member in zip(
            index.bulk_range_search(members, 0.0), members
        ):
            assert [r.item for r in hits] == [member]


class TestSemantics:
    def test_empty_query_batch(self, small_word_list):
        index = LaesaIndex(
            small_word_list, get_distance("levenshtein"), n_pivots=4
        )
        assert index.bulk_range_search([], 2.0) == []

    def test_negative_radius_rejected(self, small_word_list):
        for index in (
            ExhaustiveIndex(small_word_list, get_distance("levenshtein")),
            LaesaIndex(small_word_list, get_distance("levenshtein"), n_pivots=4),
            AesaIndex(small_word_list, get_distance("levenshtein")),
            BKTreeIndex(small_word_list, get_distance("levenshtein")),
        ):
            with pytest.raises(ValueError):
                index.bulk_range_search(["abc"], -0.5)

    def test_results_sorted_by_canonical_key(self, small_word_list):
        index = AesaIndex(small_word_list, get_distance("levenshtein"))
        for hits, _ in index.bulk_range_search(_queries(random.Random(5), 6), 3.0):
            keys = [(r.distance, r.index) for r in hits]
            assert keys == sorted(keys)


def test_exhaustive_override_matches_scalar(small_word_list):
    """ExhaustiveIndex's engine-swept override must equal the loop."""
    index = ExhaustiveIndex(small_word_list, get_distance("dmax"))
    _identical(index, _queries(random.Random(6), 8), 0.4)


_word = st.text(alphabet="abc", min_size=1, max_size=6)


@given(
    st.lists(_word, min_size=2, max_size=16, unique=True),
    st.lists(_word, min_size=1, max_size=4),
    st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_property_bulk_equals_scalar(items, queries, radius):
    distance = get_distance("levenshtein")
    for index in (
        LaesaIndex(items, distance, n_pivots=min(3, len(items))),
        AesaIndex(items, distance),
        BKTreeIndex(items, distance),
        VPTreeIndex(items, distance, rng=random.Random(0)),
    ):
        _identical(index, queries, float(radius))
