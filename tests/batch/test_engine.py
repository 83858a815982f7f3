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
from repro.batch.engine import _canonical_finalize, _sizes_buckets
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
    buckets = _sizes_buckets([len(x) + len(y) for x, y in pairs], 4)
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


# -- the pair-list adapter over the one id path ------------------------------

#: Non-BMP symbols included: the corpus codes them like any other.
_SYMBOLS = st.sampled_from(["a", "b", "\U0001d538", "\U0001f600"])

_FORMS = ("str", "tuple", "list")


@st.composite
def _adapter_pairs(draw):
    """Pairs over a few contents, each item drawn as a ``str``, a tuple
    or a list of the same symbols, with empty items, equal pairs and
    repeated pairs."""
    contents = draw(st.lists(st.lists(_SYMBOLS, max_size=6), min_size=1, max_size=5))

    def item():
        content = draw(st.sampled_from(contents))
        form = draw(st.sampled_from(_FORMS))
        if form == "str":
            return "".join(content)
        return tuple(content) if form == "tuple" else list(content)

    pairs = []
    for _ in range(draw(st.integers(0, 10))):
        x = item()
        pairs.append((x, x) if draw(st.booleans()) and pairs else (x, item()))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return pairs


def _expected_calls(pairs):
    """One ``(x, y)`` per distinct normalised pair, in first-seen order,
    on the first-seen raw item of each normalised key."""
    from repro.core.types import as_symbols

    first = {}
    for pair in pairs:
        for item in pair:
            first.setdefault(as_symbols(item), item)
    calls, seen = [], set()
    for x, y in pairs:
        key = (as_symbols(x), as_symbols(y))
        if key not in seen:
            seen.add(key)
            calls.append((first[key[0]], first[key[1]]))
    return calls


@settings(max_examples=40, deadline=None)
@given(_adapter_pairs())
def test_adapter_bit_identical_to_scalar_functions(pairs):
    for name in ALL_NAMES:
        function = get_distance(name)
        values = pairwise_values(name, pairs)
        assert values.dtype == np.float64
        assert [float(v).hex() for v in values] == [
            float(function(x, y)).hex() for x, y in pairs
        ], name
    raw = pairwise_values(levenshtein_distance, pairs)
    assert raw.dtype == np.int64
    assert raw.tolist() == [levenshtein_distance(x, y) for x, y in pairs]
    assert pairwise_values(levenshtein_distance, []).dtype == np.int64

    calls = []

    def logged(x, y):
        calls.append((x, y))
        return float(len(x) * 7 + len(y))

    values = pairwise_values(logged, pairs)
    # equal pairs are called, not shortcut; the raw items are the
    # first-seen objects of their normalised keys (a list stays a list)
    want = _expected_calls(pairs)
    assert [(id(x), id(y)) for x, y in calls] == [(id(x), id(y)) for x, y in want]
    assert values.tolist() == [float(len(x) * 7 + len(y)) for x, y in pairs]

    # a non-sequence item, or unhashable symbols, anywhere in the list
    # sends every pair to the callable verbatim (repeats and equal pairs
    # included)
    for odd in ((object(), "a"), ([["x"]], [["x"]])):
        verbatim = [odd, *pairs, odd]
        calls.clear()
        pairwise_values(lambda x, y: calls.append((x, y)) or 0.0, verbatim)
        assert [(id(x), id(y)) for x, y in calls] == [
            (id(x), id(y)) for x, y in verbatim
        ]


@pytest.mark.parametrize(
    "distance, x_ids, y_ids",
    [
        ("levenshtein", [0, 1], [1, 2]),  # the scalar bit-parallel route
        ("contextual_heuristic", [0, 1], [1, 2]),
        (lambda x, y: 0.0, [0], [1]),  # an unregistered callable
        ("levenshtein", [], []),
    ],
)
def test_ids_reject_an_unknown_workers_string(distance, x_ids, y_ids):
    from repro.batch import intern_corpus, pairwise_values_ids

    store = intern_corpus(["ab", "ba", "abc"]).store()
    with pytest.raises(ValueError, match="'auto'"):
        pairwise_values_ids(distance, store, x_ids, y_ids, workers="max")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_pooled_equals_serial_for_every_distance(name, monkeypatch):
    """Every registered distance fans out through the one worker task
    -- exact ``d_C`` and ``d_MV`` on numpy evaluate the published code
    rows there -- and returns the serial values bit for bit."""
    import repro.batch.engine as engine
    import repro.batch.runtime as runtime

    monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 4)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    runs = []
    supervised_map = runtime.EngineRuntime.supervised_map

    def spy(self, fn, chunks, workers, sizes=None):
        out = supervised_map(self, fn, chunks, workers, sizes=sizes)
        runs.append(out)
        return out

    monkeypatch.setattr(runtime.EngineRuntime, "supervised_map", spy)
    items = _random_strings(31, 16, 7, alphabet="ab\U0001d538\U0001f600")
    items += [tuple(items[0]), list(items[1]), ("a", 1, 2.5), ()]
    # 100 pairs: more than the d_E family's scalar route takes
    pairs = [(x, y) for x in items[:10] for y in items[10:]]
    pooled = pairwise_values(name, pairs)
    assert len(runs) == 1, "the call never reached the pool"
    if runs[0] is None:  # pragma: no cover - fork unavailable on this host
        pytest.skip("process pool unavailable")
    assert not runs[0][1], "the fan-out degraded"
    serial = pairwise_values(name, pairs, workers=None)
    assert [float(v).hex() for v in pooled] == [float(v).hex() for v in serial]


@st.composite
def _mixed_items(draw):
    symbol = st.sampled_from(["a", "b", "\U0001f600", 1, 2.5, ("t",), None])
    return draw(st.lists(st.lists(symbol, max_size=7).map(tuple), min_size=2, max_size=6))


@settings(max_examples=30, deadline=None)
@given(_mixed_items(), st.data())
def test_worker_store_scores_code_rows_like_symbols(items, data):
    """A pool worker sees a store of code rows (``AttachedStore``);
    every registered distance scores them bit for bit like the master's
    symbols, because it compares symbols only for equality."""
    import repro.batch.engine as engine
    from repro.batch import intern_corpus
    from repro.batch.corpus import AttachedStore

    corpus = intern_corpus(items)
    store = corpus.store()
    worker = AttachedStore(corpus.block.arrays(), None)
    n = len(items)
    x_ids = np.asarray(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)))
    y_ids = (x_ids + data.draw(st.integers(1, n - 1))) % n  # x != y
    for name in ALL_NAMES:
        master = engine._evaluate_ids(name, store, x_ids, y_ids)
        pooled = engine._evaluate_ids(name, worker, x_ids, y_ids)
        assert [float(v).hex() for v in pooled] == [float(v).hex() for v in master]
