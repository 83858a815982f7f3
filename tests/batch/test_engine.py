"""The batch engine against scalar distances: every registry entry,
empty strings, duplicates, mixed-length buckets, both matrix shapes."""

import importlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import distances_from, pairwise_matrix, pairwise_values
from repro.batch.engine import _buckets, _canonical_finalize
from repro.core import get_distance, get_spec, list_distances
from repro.core.contextual import canonical_cost
from repro.core.harmonic import HarmonicTable
from repro.core.levenshtein import levenshtein_distance

ALL_NAMES = [spec.name for spec in list_distances()]


def _random_strings(seed, count, max_len, alphabet="abc"):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def mixed_pairs():
    """Empty strings, duplicates, and pairs spanning several buckets."""
    rng = random.Random(0xBA7)
    short = _random_strings(1, 24, 6)
    long = _random_strings(2, 6, 90, alphabet="acgt")
    pool = short + long + ["", "", short[0], long[0]]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(120)]
    pairs += [("", ""), ("", "ab"), ("ab", ""), ("ab", "ab")]
    pairs += pairs[:7]  # exact duplicate pairs
    return pairs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pairwise_values_bit_identical_to_scalar(name, mixed_pairs):
    pairs = mixed_pairs
    if name in ("contextual", "marzal_vidal"):
        pairs = mixed_pairs[:40]  # the expensive scalar fallbacks
    function = get_distance(name)
    values = pairwise_values(name, pairs)
    for p, (x, y) in enumerate(pairs):
        assert values[p] == function(x, y), (name, x, y)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_function_object_resolves_like_name(name):
    pairs = [("abc", "acb"), ("", "x"), ("aa", "aa")]
    by_name = pairwise_values(name, pairs)
    by_function = pairwise_values(get_spec(name).function, pairs)
    assert np.array_equal(by_name, by_function)


def test_raw_levenshtein_returns_ints():
    pairs = [("kitten", "sitting"), ("", ""), ("a", "b")]
    values = pairwise_values(levenshtein_distance, pairs)
    assert values.dtype == np.int64
    assert values.tolist() == [3, 0, 1]


def test_symmetric_matrix_matches_scalar():
    items = _random_strings(3, 18, 9) + ["", "dup", "dup"]
    matrix = pairwise_matrix("yujian_bo", items)
    function = get_distance("yujian_bo")
    assert matrix.shape == (len(items), len(items))
    assert np.array_equal(matrix, matrix.T)
    for i in range(len(items)):
        for j in range(len(items)):
            assert matrix[i, j] == function(items[i], items[j])


def test_rectangular_matrix_matches_scalar():
    xs = _random_strings(4, 7, 8)
    ys = _random_strings(5, 5, 8)
    matrix = pairwise_matrix("dmax", xs, ys)
    function = get_distance("dmax")
    assert matrix.shape == (7, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert matrix[i, j] == function(x, y)


def test_unregistered_callable_falls_back_scalar():
    calls = []

    def exotic(x, y):
        calls.append((x, y))
        return float(abs(len(x) - len(y)))

    values = pairwise_values(exotic, [("a", "bbb"), ("a", "bbb"), ("c", "c")])
    assert values.tolist() == [2.0, 2.0, 0.0]
    # deduped: the repeated pair is computed once, and ("c","c") is NOT
    # shortcut to zero for unknown callables (it was actually called)
    assert calls == [("a", "bbb"), ("c", "c")]


def test_registered_equal_pairs_skip_computation():
    # for registry entries x == y never reaches the kernel or the scalar fn
    values = pairwise_values("contextual", [("same", "same"), ("", "")])
    assert values.tolist() == [0.0, 0.0]


def test_distances_from_row():
    targets = ["a", "ab", "abc", ""]
    row = distances_from("levenshtein", "ab", targets)
    function = get_distance("levenshtein")
    assert row.tolist() == [function("ab", t) for t in targets]


def test_buckets_partition_and_bound_length_spread():
    pairs = [("a" * n, "b" * n) for n in (1, 2, 3, 200, 201, 250)]
    buckets = _buckets(pairs, bucket_size=4)
    seen = sorted(p for bucket in buckets for p in bucket)
    assert seen == list(range(len(pairs)))  # exact partition
    for bucket in buckets:
        sizes = [len(pairs[p][0]) + len(pairs[p][1]) for p in bucket]
        assert max(sizes) <= 2 * min(sizes) + 16  # no word pays gene padding


def test_workers_fan_out_matches_serial(monkeypatch):
    # lower the pool threshold so two real worker chunks actually run
    import repro.batch.engine as engine

    monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 8)
    pairs = [
        (x, y)
        for x in _random_strings(6, 12, 10)
        for y in _random_strings(7, 8, 10)
    ]
    serial = pairwise_values("levenshtein", pairs)
    fanned = pairwise_values("levenshtein", pairs, workers=2)
    assert np.array_equal(serial, fanned)


def test_tuple_and_string_representations_agree():
    expected = float(levenshtein_distance("ab", "ba"))
    values = pairwise_values(
        "levenshtein", [("ab", "ba"), (("a", "b"), ("b", "a"))]
    )
    assert values.tolist() == [expected, expected]


@st.composite
def _canonical_rows(draw):
    """A feasible ``(m, n, k, ni)``: ``ni``, ``nd`` and ``ns`` each zero
    or not, equal lengths included (``nd == ni``)."""
    m = draw(st.integers(0, 300))
    ni = draw(st.just(0) | st.integers(0, 200))
    peak = m + ni
    nd = draw(st.sampled_from([0, ni, peak]) | st.integers(0, peak))
    ns = 0 if peak == 0 else draw(st.just(0) | st.integers(0, peak))
    return m, peak - nd, ni + nd + ns, ni


@settings(max_examples=60, deadline=None)
@given(st.lists(_canonical_rows(), min_size=1, max_size=30), st.integers(0, 64))
def test_canonical_finalize_is_bit_identical(rows, size):
    # a fresh table shorter than most peaks: the vectorised replay must
    # grow it before it reads H
    module = importlib.import_module("repro.core.harmonic")
    with mock.patch.object(module, "_TABLE", HarmonicTable(size)):
        m, n, k, ni = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
        got = _canonical_finalize(m, n, k, ni)
        want = [canonical_cost(*row).hex() for row in rows]
    assert [float(v).hex() for v in got] == want


def test_canonical_finalize_keeps_the_scalar_order():
    # with all three terms non-zero, about one row in twenty rounds
    # differently if the sums are reordered
    rng = random.Random(0xCA11)
    rows = []
    for _ in range(5000):
        m, ni = rng.randint(0, 300), rng.randint(1, 200)
        nd = rng.randint(1, m + ni)
        rows.append((m, m + ni - nd, ni + nd + rng.randint(1, m + ni), ni))
    m, n, k, ni = (np.asarray(col, dtype=np.int64) for col in zip(*rows))
    got = _canonical_finalize(m, n, k, ni)
    assert [float(v).hex() for v in got] == [
        canonical_cost(*row).hex() for row in rows
    ]
