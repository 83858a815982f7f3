"""Exhaustive scan: the ground truth every other index is checked against."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import get_distance
from repro.index import ExhaustiveIndex
from repro.index.base import SearchResult, canonical_key, row_hits


def test_finds_exact_match():
    items = ["casa", "cosa", "cesta", "masa"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    result, _ = index.nearest("cosa")
    assert result.item == "cosa"


def test_finds_closest_word():
    items = ["casa", "cesta", "perro"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    result, _ = index.nearest("case")
    assert result.item == "casa"
    assert result.distance == 1.0


def test_always_n_computations():
    items = ["a", "b", "c", "d", "e"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    _, stats = index.nearest("z")
    assert stats.distance_computations == len(items)


def test_knn_sorted_by_distance():
    items = ["aaaa", "aaab", "aabb", "abbb", "bbbb"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    results, _ = index.knn("aaaa", 3)
    distances = [r.distance for r in results]
    assert distances == sorted(distances)
    assert results[0].item == "aaaa"


def test_knn_full_size():
    items = ["x", "xy", "xyz"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    results, _ = index.knn("x", 3)
    assert len(results) == 3


def test_result_indices_point_into_items():
    items = ["uno", "dos", "tres"]
    index = ExhaustiveIndex(items, get_distance("levenshtein"))
    result, _ = index.nearest("does")
    assert items[result.index] == result.item


def test_works_with_normalised_distance():
    items = ["corto", "larguisimo", "medio"]
    index = ExhaustiveIndex(items, get_distance("contextual_heuristic"))
    result, _ = index.nearest("corte")
    assert result.item == "corto"


def _spy_engine(monkeypatch):
    """Record which engine entry the index calls: ``pairwise_values``
    (raw pairs, re-normalised and re-encoded per call) or
    ``pairwise_values_ids`` (the interned id path)."""
    import repro.batch as batch

    calls = []
    for name in ("pairwise_values", "pairwise_values_ids"):
        real = getattr(batch, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(batch, name, spy)
    return calls


def test_scalar_scan_hands_raw_items_to_callables(monkeypatch):
    # the scalar scan runs as an id grid on the interned corpus, but an
    # unregistered callable still sees each item exactly as indexed
    def list_only(x, y):
        assert isinstance(x, list) and isinstance(y, list), (x, y)
        return float(abs(len(x) - len(y)) + sum(a != b for a, b in zip(x, y)))

    items = [list(w) for w in ["casa", "cosa", "cesta", "masa", "perro"]]
    index = ExhaustiveIndex(items, list_only)
    calls = _spy_engine(monkeypatch)
    query = list("case")
    results, stats = index.knn(query, 2)
    assert calls == ["pairwise_values_ids"]
    assert stats.distance_computations == len(items)
    expected = sorted(
        (list_only(query, item), i) for i, item in enumerate(items)
    )[:2]
    assert [(r.distance, r.index) for r in results] == expected
    hits, _ = index.range_search(query, 1.0)
    assert [r.index for r in hits] == [i for d, i in expected if d <= 1.0]


def test_scalar_scan_over_an_unencoded_corpus(monkeypatch):
    # items the kernels cannot encode: the id grid falls back to the
    # callable on the raw items, once per item, like a plain loop
    class Point:
        def __init__(self, x):
            self.x = x

    seen = []

    def gap(a, b):
        seen.append((a, b))
        return float(abs(a.x - b.x))

    items = [Point(x) for x in (5, 1, 9, 3)]
    index = ExhaustiveIndex(items, gap)
    assert not index._corpus.encoded
    calls = _spy_engine(monkeypatch)
    query = Point(4)
    results, stats = index.knn(query, 2)
    assert calls == ["pairwise_values_ids"]
    assert [r.index for r in results] == [0, 3]
    assert [r.distance for r in results] == [1.0, 1.0]
    assert stats.distance_computations == len(items)
    assert len(seen) == len(items)
    assert all(a is query for a, _ in seen)
    assert [b for _, b in seen] == items


def _comprehension_hits(items, row, radius):
    """The per-entry Python loop the numpy selection replaced."""
    hits = [
        SearchResult(item=items[idx], index=int(idx), distance=float(d))
        for idx, d in enumerate(row)
        if d <= radius
    ]
    hits.sort(key=canonical_key)
    return hits


def _hex_hits(hits):
    return [(r.item, r.index, r.distance.hex()) for r in hits]


@given(
    values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]), max_size=30),
    radius=st.sampled_from([0.0, 0.25, 1.0, 2.5, float("inf")]),
    ids_seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_row_hits_match_the_comprehension_on_ties(values, radius, ids_seed):
    items = [f"w{i}" for i in range(len(values))]
    row = np.array(values, dtype=float)
    assert _hex_hits(row_hits(items, row, radius)) == _hex_hits(
        _comprehension_hits(items, row, radius)
    )
    # among a subset of ids (ascending), as LAESA's range finish asks
    ids = np.flatnonzero(np.random.default_rng(ids_seed).random(len(values)) < 0.5)
    want = [
        r for r in _comprehension_hits(items, row, radius) if r.index in set(ids)
    ]
    assert _hex_hits(row_hits(items, row, radius, ids)) == _hex_hits(want)


def test_row_hits_on_dmin_rows_with_nan_and_inf():
    words = ["", "ab", "abc", "b", "", "ca", "abcd", "bca", "x"]
    items = list(words)
    for query in ("", "ab", "c"):
        row = np.array([get_distance("dmin")(query, u) for u in words])
        with_nan = row.copy()
        with_nan[[2, 5]] = np.nan
        for values in (row, with_nan):
            for radius in (0.0, 0.5, 1.0, float("inf")):
                assert _hex_hits(row_hits(items, values, radius)) == _hex_hits(
                    _comprehension_hits(items, values, radius)
                )
    # the integer rows of levenshtein_distance give float distances
    int_row = np.array([2, 0, 1, 2, 0], dtype=np.int64)
    got = row_hits(items[:5], int_row, 1.0)
    assert [(r.index, type(r.distance)) for r in got] == [
        (1, float), (4, float), (2, float)
    ]


def test_range_search_uses_the_numpy_selection():
    words = ["casa", "cosa", "cesta", "masa", "casa", "", "cas"]
    index = ExhaustiveIndex(words, get_distance("dmin"))
    for query in ("casa", "", "ca"):
        for radius in (0.0, 0.5, float("inf")):
            row = index._grid_many([query])[0]
            want = _hex_hits(_comprehension_hits(words, row, radius))
            got, stats = index.range_search(query, radius)
            assert _hex_hits(got) == want
            assert stats.distance_computations == len(words)
            ((bulk, _),) = index.bulk_range_search([query], radius)
            assert _hex_hits(bulk) == want
