"""Exhaustive scan: the ground truth every other index is checked against."""

from repro.core import get_distance
from repro.index import ExhaustiveIndex


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
