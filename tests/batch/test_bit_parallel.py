"""The bit-parallel ``d_E`` kernels: pair lanes and pattern x text grids
against the scalar distance, the vectorised length normalisations
against the scalar floats, and the scalar fallback for symbols the
kernels cannot encode."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.engine as engine
import repro.batch.kernels as kernels
from repro.batch import intern_corpus, pairwise_values
from repro.batch.kernels import (
    encode_batch,
    levenshtein_batch_numpy,
    levenshtein_grid_encoded,
    levenshtein_lanes_encoded,
)
from repro.core import get_distance
from repro.core.bounded import EDIT_RULES, bounded_for
from repro.core.levenshtein import levenshtein_distance
from repro.index import ExhaustiveIndex, LaesaIndex

INF = float("inf")

#: word boundaries of the uint64 lanes, and the lengths around them
_EDGES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 200]

_ALPHABETS = st.sampled_from(
    [
        "a",  # one symbol: every pair is a pure length difference
        "ab",
        "acgt",
        "abcdefghijklmnopqrstuvwxyz",
        "a\U0001F600\U00010348é",  # non-BMP code points
    ]
)


@st.composite
def _strings(draw, alphabet):
    length = draw(st.one_of(st.sampled_from(_EDGES), st.integers(0, 200)))
    return "".join(
        draw(st.sampled_from(alphabet)) for _ in range(length)
    )


@st.composite
def _pairs(draw):
    alphabet = draw(_ALPHABETS)
    pairs = draw(
        st.lists(st.tuples(_strings(alphabet), _strings(alphabet)), min_size=1, max_size=12)
    )
    if draw(st.booleans()):
        pairs = pairs + pairs[: draw(st.integers(1, len(pairs)))]  # duplicates
    return pairs


@given(_pairs())
@settings(max_examples=60, deadline=None)
def test_pair_lanes_equal_the_scalar_distance(pairs):
    want = [levenshtein_distance(x, y) for x, y in pairs]
    assert levenshtein_batch_numpy(pairs).tolist() == want
    assert levenshtein_lanes_encoded(*encode_batch(pairs)).tolist() == want


@given(
    _ALPHABETS.flatmap(
        lambda a: st.tuples(
            st.lists(_strings(a), min_size=1, max_size=5),
            st.lists(_strings(a), min_size=1, max_size=12),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_grids_equal_the_scalar_distance(patterns_texts):
    patterns, texts = patterns_texts
    store = intern_corpus(texts).store(patterns)
    T, Xq, mt, mq = store.gather(
        np.arange(len(texts)), store.extra_ids()
    )
    want = [[levenshtein_distance(p, t) for t in texts] for p in patterns]
    assert levenshtein_grid_encoded(Xq, mq, T, mt).tolist() == want
    rows = engine.pairwise_rows_ids("levenshtein", store, store.extra_ids())
    assert rows.tolist() == [[float(d) for d in row] for row in want]


@pytest.mark.parametrize("name", ["dmax", "contextual_heuristic"])
def test_rows_equal_the_id_grid(name):
    # the grid kernel for the d_E family, the plain id grid otherwise
    texts = ["casa", "", "cesta", "masa", "perro", "a" * 70]
    patterns = ["case", "", "b" * 66]
    store = intern_corpus(texts).store(patterns)
    n = len(texts)
    grid = engine.pairwise_values_ids(
        name,
        store,
        np.repeat(store.extra_ids(), n),
        np.tile(np.arange(n), len(patterns)),
    )
    rows = engine.pairwise_rows_ids(name, store, store.extra_ids())
    assert [float(v).hex() for v in rows.ravel()] == [
        float(v).hex() for v in grid
    ]


def test_grid_chunks_patterns(monkeypatch):
    # more lanes than one sweep takes: the patterns run in chunks
    monkeypatch.setattr(kernels, "_GRID_LANES", 7)
    patterns = ["a" * 70, "", "abc", "b" * 130, "ab" * 33]
    texts = ["", "a", "ba" * 40, "c" * 65, "abcabc", "a" * 129]
    store = intern_corpus(texts).store(patterns)
    T, Xq, mt, mq = store.gather(np.arange(len(texts)), store.extra_ids())
    want = [[levenshtein_distance(p, t) for t in texts] for p in patterns]
    assert levenshtein_grid_encoded(Xq, mq, T, mt).tolist() == want


def test_edge_lengths_exhaustively():
    lengths = [0, 1, 63, 64, 65, 128, 129]
    pairs = [
        ("ab" * (m // 2) + "a" * (m % 2), "ba" * (n // 2) + "b" * (n % 2))
        for m in lengths
        for n in lengths
    ]
    want = [levenshtein_distance(x, y) for x, y in pairs]
    assert levenshtein_batch_numpy(pairs).tolist() == want


@pytest.mark.parametrize("name", ["levenshtein", "dmax", "dsum", "dmin", "yujian_bo"])
@given(pairs=_pairs())
@settings(max_examples=25, deadline=None)
def test_vectorised_finalize_is_bit_identical(name, pairs):
    fn = get_distance(name)
    mx = np.asarray([len(x) for x, _ in pairs])
    my = np.asarray([len(y) for _, y in pairs])
    d_e = levenshtein_batch_numpy(pairs)
    got = engine._lev_finalize(name, mx, my, d_e)
    want = [float(fn(x, y)).hex() for x, y in pairs]
    assert [float(v).hex() for v in got] == want
    # the twin's own decision at limit inf is the full distance
    _, decide = EDIT_RULES[bounded_for(fn)]
    scalar = [decide(int(m), int(n), INF, int(d)) for m, n, d in zip(mx, my, d_e)]
    assert [float(v).hex() for v in scalar] == want


def test_unhashable_symbols_reach_the_scalar_fallback(monkeypatch):
    # list symbols cannot key the mask tables: the engine must answer
    # them with the scalar function, never a kernel
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was handed unhashable symbols")

    monkeypatch.setattr(engine, "levenshtein_grid_encoded", refuse)
    for name in ("levenshtein_lanes_encoded", "levenshtein_grid_encoded"):
        monkeypatch.setattr(kernels, name, refuse)
    items = [[[1], [2], [3]], [[1], [3]], [[2]], []]
    query = [[1], [2]]
    pairs = [(query, item) for item in items]
    want = [float(levenshtein_distance(x, y)) for x, y in pairs]
    assert pairwise_values("levenshtein", pairs).tolist() == want
    for index in (
        ExhaustiveIndex(items, get_distance("levenshtein")),
        LaesaIndex(items, get_distance("levenshtein"), n_pivots=2),
    ):
        assert not index._corpus.encoded
        (results, stats), = index.bulk_knn([query], 2)
        loop, loop_stats = index.knn(query, 2)
        assert [(r.index, r.distance) for r in results] == [
            (r.index, r.distance) for r in loop
        ]
        assert stats.distance_computations == loop_stats.distance_computations
        assert sorted(r.distance for r in results) == sorted(want)[:2]
