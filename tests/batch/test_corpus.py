"""The interned-corpus layer: encoding, the id store, and its gather."""

import random

import numpy as np
import pytest

from repro.batch import intern_corpus
from repro.batch.kernels import (
    _PAD_X,
    _PAD_Y,
    levenshtein_grid_encoded,
    levenshtein_lanes_encoded,
)
from repro.core.levenshtein import levenshtein_distance


WORDS = ["abc", "", "cab", "abc", "abcd", "dcba", "aaaa"]


def test_corpus_lengths_and_dtypes():
    corpus = intern_corpus(WORDS)
    assert corpus is not None
    assert corpus.lengths.tolist() == [len(w) for w in WORDS]
    assert corpus.block.rows_x.dtype == np.int32
    assert corpus.block.rows_y.dtype == np.int32


def test_corpus_padding_sentinels_differ_per_side():
    corpus = intern_corpus(WORDS)
    # beyond each row's true length the x matrix holds the x sentinel and
    # the y matrix the y sentinel, so padded x never matches padded y
    for i, word in enumerate(WORDS):
        assert (corpus.block.rows_x[i, len(word) :] == _PAD_X).all()
        assert (corpus.block.rows_y[i, len(word) :] == _PAD_Y).all()


def test_encoding_preserves_equality_globally():
    corpus = intern_corpus(WORDS)
    store = corpus.store()
    # identical words at different ids encode identically
    assert store.same(0, 3)
    assert not store.same(0, 2)  # anagram, different symbol order
    assert not store.same(0, 4)  # prefix
    assert store.same(1, 1)


def test_cross_representation_equality_survives():
    corpus = intern_corpus(["ab", ("a", "b"), "ba", (0, 1), (0, 1)])
    store = corpus.store()
    assert store.same(0, 1)  # "ab" == ("a", "b") after normalisation
    assert not store.same(0, 2)
    assert store.same(3, 4)
    assert not store.same(1, 3)


def test_gather_matches_encode_batch_sweep():
    corpus = intern_corpus(WORDS)
    store = corpus.store()
    x_ids = np.array([0, 1, 2, 5, 6, 3])
    y_ids = np.array([4, 0, 2, 6, 1, 5])
    X, Y, mx, my = store.gather(x_ids, y_ids)
    # the gathered matrices sweep to the scalar distances, as pair
    # lanes and as a grid of every gathered x against every gathered y
    expected = [
        levenshtein_distance(WORDS[i], WORDS[j]) for i, j in zip(x_ids, y_ids)
    ]
    assert levenshtein_lanes_encoded(X, Y, mx, my).tolist() == expected
    grid = levenshtein_grid_encoded(X, mx, Y, my)
    assert np.diagonal(grid).tolist() == expected


def test_store_with_queries_extends_the_alphabet():
    corpus = intern_corpus(["abc", "cab"])
    store = corpus.store(["xyz", "abz"])
    assert len(store) == 4
    assert store.extra_id(0) == 2
    assert store.raw(3) == "abz"
    assert store.sym(1) == "cab"
    X, Y, mx, my = store.gather(
        np.array([2, 3, 0]), np.array([0, 1, 3])
    )
    expected = [
        levenshtein_distance(x, y)
        for x, y in [("xyz", "abc"), ("abz", "cab"), ("abc", "abz")]
    ]
    assert levenshtein_lanes_encoded(X, Y, mx, my).tolist() == expected


def test_unencodable_items_get_an_unencoded_corpus():
    odd = object()
    for items in ([odd], ["abc", 3.5], [[["nested"]]]):
        # unhashable symbols cannot key the alphabet table either
        corpus = intern_corpus(items)
        assert not corpus.encoded
        assert corpus.items == items and len(corpus) == len(items)
        with pytest.raises(TypeError):
            corpus.block
        store = corpus.store(["abc"])
        assert not store.encoded
        assert store.raw(0) is items[0] and store.raw(len(items)) == "abc"


def test_store_with_unencodable_queries_is_unencoded():
    corpus = intern_corpus(["abc"])
    odd = object()
    store = corpus.store([odd])
    assert corpus.encoded and not store.encoded
    assert len(store) == 2 and store.raw(1) is odd
    assert store.extra_ids().tolist() == [1]
    assert corpus.store(["abd"]).encoded  # the corpus itself is unharmed


def test_index_construction_interns(small_word_list):
    from repro.core import get_distance
    from repro.index import LaesaIndex

    index = LaesaIndex(small_word_list[:30], get_distance("dmax"), n_pivots=3)
    assert index._corpus.encoded
    assert len(index._corpus) == 30


class Odd:
    """An item no corpus can encode: sized, but not a sequence."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size


def length_gap(x, y):
    return abs(len(x) - len(y))


def _uninternable(kind):
    """``(items, queries, distance)`` whose store has no encoding."""
    from repro.core import get_distance

    rng = random.Random(0x0DD)
    if kind == "objects":
        items = [Odd(rng.randint(0, 12)) for _ in range(24)]
        queries = [Odd(rng.randint(0, 12)) for _ in range(5)]
        return items, queries, length_gap
    words = [
        "".join(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        for _ in range(48)
    ]
    nested = [[list(ch) for ch in word] for word in words]
    if kind == "nested lists":
        return nested[:24], nested[24:29], get_distance("levenshtein")
    # an encodable corpus queried with unencodable items
    return words[:24], nested[24:29], get_distance("levenshtein")


def _snapshot(results):
    return [
        ([(r.index, r.distance) for r in hits], stats.distance_computations)
        for hits, stats in results
    ]


@pytest.mark.parametrize("kind", ["objects", "nested lists", "nested queries"])
@pytest.mark.parametrize(
    "structure", ["exhaustive", "laesa", "aesa", "bktree", "vptree"]
)
def test_index_with_uninternable_items_falls_back(structure, kind):
    from repro.index import (
        AesaIndex,
        BKTreeIndex,
        ExhaustiveIndex,
        LaesaIndex,
        VPTreeIndex,
    )

    items, queries, distance = _uninternable(kind)
    if structure == "laesa":
        index = LaesaIndex(items, distance, n_pivots=4)
    else:
        cls = {
            "exhaustive": ExhaustiveIndex,
            "aesa": AesaIndex,
            "bktree": BKTreeIndex,
            "vptree": VPTreeIndex,
        }[structure]
        index = cls(items, distance)
    assert index._corpus.encoded == (kind == "nested queries")
    assert not index._corpus.store(queries).encoded
    scalar = [index.knn(q, 3) for q in queries]
    assert _snapshot(index.bulk_knn(queries, 3)) == _snapshot(scalar)
    scalar = [index.range_search(q, 2) for q in queries]
    assert _snapshot(index.bulk_range_search(queries, 2)) == _snapshot(scalar)


def test_gather_of_out_of_range_ids_raises_index_error():
    corpus = intern_corpus(WORDS)
    store = corpus.store()  # no extras: valid ids end at len(WORDS) - 1
    bad = np.asarray([len(WORDS)], dtype=np.int64)
    ok = np.asarray([0], dtype=np.int64)
    with pytest.raises(IndexError):
        store.gather(bad, ok)


def test_gather_rows_without_extra_block_raises_index_error():
    # Regression: an id addressing an extra block that was never gathered
    # (lengths cover it, the matrices do not) used to surface as an
    # AttributeError on NoneType deep inside the row stacking; it must be
    # the contract violation it is, pointing at the offending id.
    from repro.batch.corpus import gather_rows

    corpus = intern_corpus(WORDS)
    n = len(WORDS)
    lengths = np.concatenate([corpus.block.lengths, np.asarray([3])])
    with pytest.raises(IndexError, match=f"id {n} .*extra block"):
        gather_rows(
            (corpus.block.rows_x, corpus.block.rows_y),
            None,  # the extra block was never shipped
            lengths,
            n,
            np.asarray([n], dtype=np.int64),
            np.asarray([0], dtype=np.int64),
        )
