"""``pairwise_values_bounded`` must be bit-identical to ``within``.

The lockstep bulk drivers replace one scalar ``CountingDistance.within``
call per candidate with one slot of a batched engine call; any value
drift would silently change search results, so every distance with a
twin is cross-checked slot by slot against the scalar path.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.batch.engine as engine
from repro.batch import intern_corpus, pairwise_values_bounded
from repro.batch.engine import pairwise_values_bounded_ids
from repro.core import get_distance, get_spec, list_distances
from repro.core._kernels import jit_backend
from repro.core.bounded import (
    bounded_for,
    contextual_edit_budget,
    contextual_pruned_value,
)
from repro.core.levenshtein import levenshtein_distance
from repro.index.base import CountingDistance

INF = float("inf")

#: Every registry distance with an early-exit twin, plus one without.
NAMES = (
    "levenshtein",
    "dmax",
    "dsum",
    "dmin",
    "yujian_bo",
    "contextual_heuristic",
    "marzal_vidal",
    "contextual",  # twin-less: must degrade to the full distance
)


def _workload(seed, count=400):
    rng = random.Random(seed)
    pairs, limits = [], []
    for _ in range(count):
        x = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        y = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
        pairs.append((x, y))
        limits.append(rng.choice([0.0, 0.1, 0.3, 0.5, 0.9, 1.5, 3.0, INF]))
    return pairs, limits


@pytest.mark.parametrize("name", NAMES)
def test_matches_within_slot_by_slot(name):
    fn = get_spec(name).function
    counter = CountingDistance(fn)
    # explicit seed per distance: hash(str) is salted per process, so
    # seeding from it would sample different pairs every run
    pairs, limits = _workload(0xB0B0 + NAMES.index(name))
    got = pairwise_values_bounded(fn, pairs, limits)
    for p, ((x, y), limit) in enumerate(zip(pairs, limits)):
        assert got[p] == counter.within(x, y, limit), (name, x, y, limit)


def test_registry_name_resolution():
    counter = CountingDistance(get_spec("dmax").function)
    pairs, limits = _workload(0xABC, count=50)
    got = pairwise_values_bounded("dmax", pairs, limits)
    want = [counter.within(x, y, l) for (x, y), l in zip(pairs, limits)]
    assert got.tolist() == want


def test_raw_levenshtein_keeps_integer_dtype():
    counter = CountingDistance(levenshtein_distance)
    pairs = [("abca", "bca"), ("aaaa", "bbbb"), ("", "xyz"), ("ab", "ab")]
    limits = [1.0, 1.0, INF, 0.0]
    got = pairwise_values_bounded(levenshtein_distance, pairs, limits)
    assert got.dtype == np.int64
    assert got.tolist() == [
        counter.within(x, y, l) for (x, y), l in zip(pairs, limits)
    ]


def test_mixed_representations_normalise():
    fn = get_spec("dmax").function
    counter = CountingDistance(fn)
    pairs = [(tuple("abc"), "acb"), (["a", "b"], ["b", "a"]), ("ab", tuple("ab"))]
    limits = [0.4, INF, 0.1]
    got = pairwise_values_bounded(fn, pairs, limits)
    assert got.tolist() == [
        counter.within(x, y, l) for (x, y), l in zip(pairs, limits)
    ]


#: Registry names whose function has an early-exit twin.
TWINNED = [spec.name for spec in list_distances() if spec.bounded is not None]


@pytest.mark.parametrize("name", TWINNED)
def test_twins_match_the_engine_on_equal_content_below_zero(name):
    """Equal content in two representations is one item to the engine
    (interned by its symbols); each bounded twin must agree with it at
    every limit, the negative ones included, where nothing is within
    the limit and only equal content escapes the pruned value."""
    twin = bounded_for(get_distance(name))
    forms = ["abc", ("a", "b", "c"), ["a", "b", "c"]]
    for x in forms:
        for y in forms:
            for limit in (-1.0, -0.25, 0.0):
                got = float(twin(x, y, limit))
                want = pairwise_values_bounded(name, [(x, y)], [limit])[0]
                assert got.hex() == float(want).hex(), (name, x, y, limit)


def test_unhashable_symbols_fall_back_to_scalar_twins():
    # items whose symbols cannot be hashed defeat dedupe and kernel
    # encoding, but within() handles them -- so must the batched path
    fn = get_spec("levenshtein").function
    counter = CountingDistance(fn)
    x, y = [[1, 2], [3, 4]], [[1, 2], [9, 9]]
    for limit in (0.0, 1.0, INF):
        got = pairwise_values_bounded(fn, [(x, y)], [limit])
        assert got.tolist() == [counter.within(x, y, limit)]


def test_unregistered_callable_falls_back_to_full_values():
    def exotic(x, y):
        return float(abs(len(x) - len(y)))

    pairs = [("aaa", "a"), ("b", "bbbb")]
    got = pairwise_values_bounded(exotic, pairs, [0.5, 1.0])
    assert got.tolist() == [2.0, 3.0]


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        pairwise_values_bounded("dmax", [("a", "b")], [0.1, 0.2])


def test_empty_input():
    got = pairwise_values_bounded("dmax", [], [])
    assert got.shape == (0,)


# ---------------------------------------------------------------------------
# the d_E check before d_C,h twin tables (pairwise_values_bounded_ids)
# ---------------------------------------------------------------------------

#: the check runs on the numpy backend only; the numba backend sends
#: every bounded pair straight to its compiled kernel
numpy_backend = pytest.mark.skipif(
    jit_backend() is not None, reason="numba backend skips the d_E check"
)


def _contours(seed, count, length, alphabet="01234567"):
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(length)) for _ in range(count)
    ]


@pytest.fixture(params=["scalar", "batched"])
def tables_route(request, monkeypatch):
    """Force where the twin tables left after the check are built:
    scalar band DPs or one batched sweep."""
    forced = request.param == "scalar"
    monkeypatch.setattr(
        engine, "_scalar_tables_cheaper", lambda pairs, cells, diagonals: forced
    )
    return request.param


@pytest.fixture
def within_spy(monkeypatch):
    """Every ``(x, y, bound)`` the engine's d_E check is asked."""
    calls = []
    check = engine._within

    def spy(x, y, bound):
        calls.append((x, y, bound))
        return check(x, y, bound)

    monkeypatch.setattr(engine, "_within", spy)
    return calls


@pytest.fixture
def table_bands(monkeypatch):
    """The band of every twin table the engine builds, by either
    route."""
    bands = []
    tables = engine._banded_heuristic_tables
    sweep = engine.contextual_heuristic_batch_bounded_encoded

    def scalar_spy(x, y, bound):
        bands.append(bound)
        return tables(x, y, bound)

    def sweep_spy(X, Y, mx, my, bounds):
        bands.extend(int(b) for b in bounds)
        return sweep(X, Y, mx, my, bounds)

    monkeypatch.setattr(engine, "_banded_heuristic_tables", scalar_spy)
    monkeypatch.setattr(
        engine, "contextual_heuristic_batch_bounded_encoded", sweep_spy
    )
    return bands


def _bounded_ids(items, queries, x_pos, y_ids, limits):
    store = intern_corpus(items).store(queries)
    x_ids = [store.extra_id(q) for q in x_pos]
    got = pairwise_values_bounded_ids(
        "contextual_heuristic", store, x_ids, y_ids, limits
    )
    counter = CountingDistance("contextual_heuristic")
    for p, (q, y, limit) in enumerate(zip(x_pos, y_ids, limits)):
        want = counter.within(queries[q], items[y], limit)
        assert got[p].hex() == want.hex(), (queries[q], items[y], limit)
    return got


def test_check_covers_every_pair_when_all_fail(
    within_spy, table_bands, tables_route
):
    # equal lengths (no gap shortcut), d_E far above a budget of 3
    items = _contours(1, 12, 30)
    queries = _contours(2, 3, 30)
    x_pos = [q for q in range(3) for _ in range(12)]
    y_ids = list(range(12)) * 3
    limits = [0.1] * len(y_ids)
    assert contextual_edit_budget(0.1, 60) == 3
    _bounded_ids(items, queries, x_pos, y_ids, limits)
    if jit_backend() is None:
        assert len(within_spy) == len(y_ids)
        assert table_bands == []  # no pair survives, so no table


@numpy_backend
def test_check_stops_early_when_every_pair_passes(within_spy, tables_route):
    # a budget of 49 > d_E (at most 30) below the whole table: every
    # check passes and none pays, so the first one stops the rest
    items = _contours(3, 12, 30)
    queries = _contours(4, 2, 30)
    x_pos = [q for q in range(2) for _ in range(12)]
    y_ids = list(range(12)) * 2
    limits = [0.9] * len(y_ids)
    assert contextual_edit_budget(0.9, 60) == 49
    _bounded_ids(items, queries, x_pos, y_ids, limits)
    assert len(within_spy) == 1


@pytest.mark.parametrize("limits", [[0.9, 0.05, 0.2], [0.05, 0.9], [0.2, 0.9, 0.9]])
def test_duplicated_pairs_check_the_widest_budget(
    limits, within_spy, table_bands, tables_route
):
    # one id pair requested at several limits: the check runs once, at
    # the widest budget, and the tables are built in the band of d_E
    item = "0123456701234567012345670123"
    query = "0123556701234567712345670123"  # two substitutions
    total = len(item) + len(query)
    budgets = [contextual_edit_budget(limit, total) for limit in limits]
    assert budgets == [{0.05: 1, 0.2: 6, 0.9: 45}[limit] for limit in limits]
    got = _bounded_ids(
        [item], [query], [0] * len(limits), [0] * len(limits), limits
    )
    if jit_backend() is None:
        assert [bound for _, _, bound in within_spy] == [max(budgets)]
        assert table_bands == [levenshtein_distance(item, query)]
    # budgets under d_E = 2 prune, the others are exact
    exact = get_spec("contextual_heuristic").function(query, item)
    assert got.tolist() == [
        exact if k >= 2 else contextual_pruned_value(k, total) for k in budgets
    ]


def test_inf_limits_mixed_in(within_spy, tables_route):
    items = _contours(4, 8, 24) + ["0" * 24]
    queries = _contours(5, 2, 24) + ["0" * 24]
    rng = random.Random(6)
    x_pos, y_ids, limits = [], [], []
    for _ in range(40):
        x_pos.append(rng.randrange(len(queries)))
        y_ids.append(rng.randrange(len(items)))
        limits.append(rng.choice([0.05, 0.3, 0.9, INF]))
    x_pos.append(2)  # the equal pair needs neither check nor table
    y_ids.append(len(items) - 1)
    limits.append(0.05)
    _bounded_ids(items, queries, x_pos, y_ids, limits)
    # an inf-limit pair (its budget is the whole table) is never checked
    checked = {(x, y) for x, y, _ in within_spy}
    finite = {
        (queries[q], items[y])
        for q, y, limit in zip(x_pos, y_ids, limits)
        if limit != INF
    }
    assert checked <= finite | {(y, x) for x, y in finite}
    assert ("0" * 24, "0" * 24) not in checked


# ---------------------------------------------------------------------------
# twin fuzz: every bounded twin against the engine's batched replay
# ---------------------------------------------------------------------------

#: Every registered twin's distance, plus the raw integer Levenshtein.
FUZZED = {name: get_distance(name) for name in TWINNED}
FUZZED["levenshtein_distance"] = levenshtein_distance

#: The twins defined by an edit budget and a decision; the others are
#: slow enough at 1000 symbols to skip the long examples.
EDIT_FAMILY = (
    "levenshtein", "dmax", "dsum", "dmin", "yujian_bo", "levenshtein_distance"
)

#: Lengths around the 64- and 128-symbol words of the bit-parallel core.
FUZZ_EDGES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 140]

#: Limits every request can draw, beside the pair's own distance, its
#: two neighbouring floats and its combined length.
FIXED_LIMITS = (-1.0, -0.25, 0.0, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.5, 7.0, 1e308, INF)


def _limit_menu(distance, m, n):
    d = float(distance)
    near = (d, math.nextafter(d, -INF), math.nextafter(d, INF), float(m + n))
    return FIXED_LIMITS + near


def _edited(word, rng, alphabet, edits):
    symbols = list(word)
    for _ in range(edits):
        spot = rng.randint(0, len(symbols))
        kind = rng.randrange(3)
        if kind == 0 or not symbols[spot:]:
            symbols.insert(spot, rng.choice(alphabet))
        elif kind == 1:
            del symbols[spot]
        else:
            symbols[spot] = rng.choice(alphabet)
    return "".join(symbols)


@st.composite
def _fuzz_calls(draw):
    """``(items, requests)``: a few items in str, tuple or list form --
    near copies of one word or independent words, one symbol alphabets
    included -- and requests ``(i, j, pick)`` over them, a pair often
    repeated, *pick* choosing from :func:`_limit_menu`."""
    alphabet = draw(st.sampled_from(["a", "ab", "acgt", "abcdefghijklmnop"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def word():
        length = draw(st.one_of(st.sampled_from(FUZZ_EDGES), st.integers(0, 140)))
        return "".join(rng.choice(alphabet) for _ in range(length))

    base = word()
    words = [base]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            words.append(_edited(base, rng, alphabet, draw(st.integers(0, 6))))
        else:
            words.append(word())
    items = [draw(st.sampled_from([str, tuple, list]))(w) for w in words]
    index = st.integers(0, len(items) - 1)
    pick = st.integers(0, len(FIXED_LIMITS) + 3)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3))
    requests = [
        (i, j, p)
        for i, j in pairs
        for p in draw(st.lists(pick, min_size=1, max_size=3, unique=True))
    ]
    return items, requests


def _long_call(seed, edits):
    rng = random.Random(seed)
    base = "".join(rng.choice("acgt") for _ in range(1000))
    near = _edited(base, rng, "acgt", edits)
    picks = range(len(FIXED_LIMITS) + 4)
    return [base, near], [(0, 1, p) for p in picks] + [(1, 1, 2), (1, 0, 14)]


@pytest.mark.parametrize("name", sorted(FUZZED))
@given(call=_fuzz_calls())
@example(call=_long_call(1, 3))
@example(call=_long_call(2, 40))
@example(call=(["a" * 1000, "a" * 990 + "b" * 10], [(0, 1, 2), (0, 1, 5), (1, 0, 16)]))
@example(call=(["", ()], [(0, 1, 0), (0, 1, 1), (1, 0, 2)]))
@settings(max_examples=60, deadline=None)
def test_every_twin_matches_the_engine_replay(name, call):
    """The batched replay answers each request like ``within``, float
    for float, and each twin keeps its contract: the full distance when
    that is within the limit, a value above the limit otherwise."""
    items, requests = call
    if name not in EDIT_FAMILY and max(map(len, items)) > 140:
        return  # the long examples are for the d_E family
    fn = FUZZED[name]
    twin = bounded_for(fn)
    full = {}
    limits = []
    for i, j, pick in requests:
        if (i, j) not in full:
            full[i, j] = fn(items[i], items[j])
        limits.append(_limit_menu(full[i, j], len(items[i]), len(items[j]))[pick])
    store = intern_corpus(items).store()
    x_ids = [i for i, _, _ in requests]
    y_ids = [j for _, j, _ in requests]
    got = pairwise_values_bounded_ids(fn, store, x_ids, y_ids, limits)
    counter = CountingDistance(fn)
    for p, (i, j, _) in enumerate(requests):
        x, y, limit = items[i], items[j], limits[p]
        want = counter.within(x, y, limit)
        assert float(got[p]).hex() == float(want).hex(), (name, x, y, limit)
        value = twin(x, y, limit)
        if full[i, j] <= limit:
            assert float(value).hex() == float(full[i, j]).hex(), (name, x, y, limit)
        else:
            assert value > limit, (name, x, y, limit)
