"""BK-tree: integer-metric search with pruning."""

import random

import pytest

from repro.core import get_distance
from repro.index import BKTreeIndex, ExhaustiveIndex


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
