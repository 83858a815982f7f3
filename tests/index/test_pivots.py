"""Pivot selection: strategies, nesting, and the distance-row contract."""

import random

import numpy as np
import pytest

from repro.core import get_distance
from repro.index import PIVOT_STRATEGIES, select_pivots


@pytest.fixture
def items():
    gen = random.Random(7)
    return sorted(
        {"".join(gen.choice("abc") for _ in range(gen.randint(2, 6))) for _ in range(60)}
    )


def test_count_zero(items):
    indices, rows = select_pivots(items, get_distance("levenshtein"), 0)
    assert indices == []
    assert rows.shape == (0, len(items))


def test_count_validation(items):
    with pytest.raises(ValueError):
        select_pivots(items, get_distance("levenshtein"), -1)
    with pytest.raises(ValueError):
        select_pivots(items, get_distance("levenshtein"), len(items) + 1)


def test_unknown_strategy(items):
    with pytest.raises(ValueError):
        select_pivots(items, get_distance("levenshtein"), 3, strategy="bogus")


@pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
def test_rows_are_true_distances(items, strategy):
    distance = get_distance("levenshtein")
    indices, rows = select_pivots(
        items, distance, 5, strategy=strategy, rng=random.Random(1)
    )
    assert len(indices) == 5
    assert rows.shape == (5, len(items))
    for row, pivot_idx in zip(rows, indices):
        for j in (0, len(items) // 2, len(items) - 1):
            assert row[j] == distance(items[pivot_idx], items[j])


@pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
def test_no_duplicate_pivots(items, strategy):
    indices, _ = select_pivots(
        items, get_distance("levenshtein"), 10, strategy=strategy,
        rng=random.Random(2),
    )
    assert len(set(indices)) == len(indices)


def test_maxmin_is_nested(items):
    """The prefix property Figures 3/4 rely on for pivot-matrix reuse."""
    distance = get_distance("levenshtein")
    big_idx, big_rows = select_pivots(
        items, distance, 8, strategy="maxmin", rng=random.Random(3)
    )
    small_idx, small_rows = select_pivots(
        items, distance, 4, strategy="maxmin", rng=random.Random(3)
    )
    assert big_idx[:4] == small_idx
    assert np.allclose(big_rows[:4], small_rows)


def test_maxmin_spreads_pivots(items):
    """Each maxmin pivot should be far from the previously chosen ones --
    in particular never a duplicate string (distance 0)."""
    distance = get_distance("levenshtein")
    indices, rows = select_pivots(
        items, distance, 6, strategy="maxmin", rng=random.Random(4)
    )
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            assert distance(items[indices[a]], items[indices[b]]) > 0


def test_deterministic_given_rng(items):
    distance = get_distance("levenshtein")
    first = select_pivots(items, distance, 5, rng=random.Random(42))
    second = select_pivots(items, distance, 5, rng=random.Random(42))
    assert first[0] == second[0]
    assert np.allclose(first[1], second[1])


class TestSelectPivotsFromMatrix:
    """Matrix-backed selection must replay select_pivots decision for
    decision (the Figures 3/4 shared-memmap fast path)."""

    def test_matches_direct_selection(self, small_word_list):
        import random

        import numpy as np

        from repro.batch import pairwise_matrix
        from repro.core import get_distance
        from repro.index import select_pivots, select_pivots_from_matrix

        items = small_word_list[:30]
        distance = get_distance("levenshtein")
        matrix = pairwise_matrix(distance, items)
        for strategy in ("maxmin", "maxsum", "random"):
            direct_idx, direct_rows = select_pivots(
                items, distance, 6, strategy, random.Random(77)
            )
            matrix_idx, matrix_rows = select_pivots_from_matrix(
                matrix, 6, strategy, random.Random(77)
            )
            assert matrix_idx == direct_idx, strategy
            assert np.array_equal(matrix_rows, direct_rows), strategy

    def test_validation(self):
        import numpy as np

        from repro.index import select_pivots_from_matrix

        with pytest.raises(ValueError):
            select_pivots_from_matrix(np.zeros((3, 4)), 1)
        with pytest.raises(ValueError):
            select_pivots_from_matrix(np.zeros((3, 3)), 4)
        with pytest.raises(ValueError):
            select_pivots_from_matrix(np.zeros((3, 3)), -1)
        idx, rows = select_pivots_from_matrix(np.zeros((3, 3)), 0)
        assert idx == [] and rows.shape == (0, 3)


class TestInternedSelection:
    """ROADMAP 5(b): pivot rows dispatched as id grids against the
    interned corpus must be bit-identical to the raw-pair sweeps --
    selection decisions, rows, and reported computation counts."""

    @pytest.mark.parametrize("strategy", PIVOT_STRATEGIES)
    @pytest.mark.parametrize("distance_name", ["levenshtein", "contextual_heuristic"])
    def test_store_dispatch_is_bit_identical(self, items, strategy, distance_name):
        from repro.batch import intern_corpus
        from repro.index.base import CountingDistance

        raw_counter = CountingDistance(get_distance(distance_name))
        raw_idx, raw_rows = select_pivots(
            items, raw_counter, 5, strategy, random.Random(11)
        )

        store = intern_corpus(items).store()
        interned_counter = CountingDistance(get_distance(distance_name))
        got_idx, got_rows = select_pivots(
            items, interned_counter, 5, strategy, random.Random(11), store
        )

        assert got_idx == raw_idx
        np.testing.assert_array_equal(got_rows, raw_rows)
        assert interned_counter.calls == raw_counter.calls

    def test_laesa_construction_uses_the_interned_grid(self):
        """The constructor routes selection through the corpus store, and
        the result (pivots, rows, preprocessing count) is identical to a
        raw-pair selection with the same seed."""
        from repro.index import LaesaIndex
        from repro.index.base import CountingDistance

        gen = random.Random(41)
        items = sorted(
            {
                "".join(gen.choice("abcd") for _ in range(gen.randint(2, 7)))
                for _ in range(40)
            }
        )
        interned = LaesaIndex(
            items, get_distance("levenshtein"), n_pivots=4,
            rng=random.Random(3),
        )
        counter = CountingDistance(get_distance("levenshtein"))
        plain_idx, plain_rows = select_pivots(
            items, counter, 4, "maxmin", random.Random(3)
        )
        assert interned._corpus.encoded
        assert interned.pivot_indices == plain_idx
        np.testing.assert_array_equal(interned.pivot_rows, plain_rows)
        assert interned.preprocessing_computations == counter.calls
