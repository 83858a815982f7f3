"""Batched query phases: ``bulk_knn`` must match per-query ``knn``
result-for-result and count-for-count, with auto-sharding on and off."""

import random

import numpy as np
import pytest

import repro.batch.engine as engine
import repro.core.bounded as bounded_module
from repro.core import get_distance
from repro.core._kernels import jit_backend
from repro.index import (
    AesaIndex,
    BKTreeIndex,
    CountingDistance,
    ExhaustiveIndex,
    LaesaIndex,
    VPTreeIndex,
)

#: every test runs once per forced lockstep route (see conftest)
pytestmark = pytest.mark.usefixtures("lockstep_route")


@pytest.fixture(scope="module")
def words():
    gen = random.Random(0xBEEF)
    return sorted(
        {
            "".join(gen.choice("abcd") for _ in range(gen.randint(1, 9)))
            for _ in range(110)
        }
    )


@pytest.fixture(scope="module")
def queries(words):
    gen = random.Random(0xF00D)
    made = [
        "".join(gen.choice("abcde") for _ in range(gen.randint(0, 8)))
        for _ in range(25)
    ]
    return made + [words[3], words[3], words[-1]]  # members + duplicates


def _check_bulk_matches_scalar(index, queries, k):
    scalar = [index.knn(q, k) for q in queries]
    batch = index.bulk_knn(queries, k)
    assert len(batch) == len(scalar)
    for (truth, t_stats), (got, g_stats) in zip(scalar, batch):
        assert [(r.index, r.distance) for r in got] == [
            (r.index, r.distance) for r in truth
        ]
        assert (
            g_stats.distance_computations == t_stats.distance_computations
        )
        assert g_stats.elapsed_seconds >= 0.0


@pytest.mark.parametrize("name", ["levenshtein", "dmax", "contextual_heuristic"])
@pytest.mark.parametrize("n_pivots", [1, 8])
@pytest.mark.parametrize("k", [1, 4])
def test_laesa_bulk_matches_scalar(words, queries, name, n_pivots, k):
    index = LaesaIndex(words, get_distance(name), n_pivots=n_pivots)
    _check_bulk_matches_scalar(index, queries, k)


def test_laesa_zero_pivots_falls_back_to_loop(words, queries):
    index = LaesaIndex(words, get_distance("levenshtein"), n_pivots=0)
    _check_bulk_matches_scalar(index, queries, 2)


def test_laesa_bulk_empty_batch(words):
    index = LaesaIndex(words, get_distance("levenshtein"), n_pivots=4)
    assert index.bulk_knn([], 1) == []


def test_aesa_bulk_matches_scalar(words, queries):
    index = AesaIndex(words[:40], get_distance("levenshtein"))
    _check_bulk_matches_scalar(index, queries, 3)


def _spy_rows(monkeypatch, n_items):
    """Record the ``(patterns, texts)`` shape of every bit-parallel grid
    that computes rows against all *n_items* (pivot sweeps and pivot
    rows run the same kernel over fewer texts)."""
    taken = []
    real = engine.levenshtein_grid_encoded

    def spy(Xq, mq, T, mt):
        if len(mt) == n_items:
            taken.append(len(mq))
        return real(Xq, mq, T, mt)

    monkeypatch.setattr(engine, "levenshtein_grid_encoded", spy)
    return taken


def _spy_spent(monkeypatch):
    """Record the modelled twin work of every lockstep round."""
    spent = []
    real = engine.twin_ns

    def spy(store, x_ids, y_ids, scalar):
        costs = real(store, x_ids, y_ids, scalar)
        spent.append(sum(costs))
        return costs

    monkeypatch.setattr(engine, "twin_ns", spy)
    return spent


@pytest.mark.parametrize("structure", ["laesa", "aesa", "bktree", "vptree"])
def test_row_is_taken_once_spent_work_passes_its_cost(
    words, queries, structure, monkeypatch
):
    distance = get_distance("levenshtein")
    index = {
        "laesa": lambda: LaesaIndex(words, distance, n_pivots=2),
        "aesa": lambda: AesaIndex(words, distance),
        "bktree": lambda: BKTreeIndex(words, distance),
        "vptree": lambda: VPTreeIndex(words, distance, rng=random.Random(5)),
    }[structure]()
    query = queries[1]
    spent = _spy_spent(monkeypatch)
    taken = _spy_rows(monkeypatch, len(words))
    real_rows = CountingDistance.rows_ids
    purchases = []

    def spying_rows(self, store, x_ids):
        purchases.append((len(x_ids), list(spent)))
        return real_rows(self, store, x_ids)

    monkeypatch.setattr(CountingDistance, "rows_ids", spying_rows)
    # rows priced out: the call's whole twin work, round by round
    monkeypatch.setattr(engine, "row_price", lambda name, store: (10**15, 0))
    _check_bulk_matches_scalar(index, [query], 3)
    assert not purchases and not taken and len(spent) > 2
    price = sum(spent) // 2
    # priced at half of it, one query: the rows are bought after the
    # first round whose running total reaches the price, and serve the
    # rest of the call
    spent.clear()
    monkeypatch.setattr(engine, "row_price", lambda name, store: (price, 0))
    _check_bulk_matches_scalar(index, [query], 3)
    ((rows, before),) = purchases
    assert rows == 1
    assert taken == ([] if jit_backend() is not None else [1])
    assert sum(before) >= price > sum(before[:-1])
    assert spent == before  # no twin work after the purchase


def _spy_purchases(monkeypatch):
    """Record every row purchase of the lockstep rounds as ``(kind,
    counter, query symbols)``: ``"values"`` rows (``rows_ids``) or
    ``d_E`` ``"checks"`` rows (``check_rows_ids``)."""
    bought = []
    for kind, method in (("values", "rows_ids"), ("checks", "check_rows_ids")):
        real = getattr(CountingDistance, method)

        def spy(self, store, x_ids, kind=kind, real=real):
            bought.append((kind, self, [store.sym(i) for i in x_ids]))
            return real(self, store, x_ids)

        monkeypatch.setattr(CountingDistance, method, spy)
    return bought


def test_row_rule_never_prices_rows_for_contextual(words, queries, monkeypatch):
    # d_C,h is not a closed form of d_E: no d_C,h value row is bought,
    # however much is spent, even with every row cost priced at zero --
    # only d_E check rows, and only for bounded requests, so AESA (exact
    # requests only) buys none
    for constant in ("_ROUTE_ROW_NS", "_ROUTE_ROUND_NS", "_ROUTE_DIAGONAL_NS"):
        monkeypatch.setattr(engine, constant, 0)
    taken = _spy_rows(monkeypatch, 60)
    bought = _spy_purchases(monkeypatch)
    laesa = LaesaIndex(words[:60], get_distance("contextual_heuristic"), n_pivots=4)
    aesa = AesaIndex(words[:60], get_distance("contextual_heuristic"))
    for index in (laesa, aesa):
        _check_bulk_matches_scalar(index, queries[:8], 2)
    assert all(kind == "checks" for kind, _, _ in bought)
    if jit_backend() is not None:
        # the compiled backend takes no rows at all
        assert engine.row_price("contextual_heuristic", laesa._corpus.store()) is None
        assert not bought and not taken
        return
    # LAESA's bounded requests bought check rows once, at the first
    # round: one d_E grid against every item
    ((_, counter, _),) = bought
    assert counter is laesa._counter
    assert taken == [len(bought[0][2])]
    # the same zero price makes d_E rows pay at the first round
    bought.clear()
    _check_bulk_matches_scalar(
        LaesaIndex(words[:60], get_distance("levenshtein"), n_pivots=4),
        queries[:8],
        2,
    )
    assert [kind for kind, _, _ in bought] == ["values"]


def _contextual_answers(results):
    return [
        ([(r.index, r.distance.hex()) for r in found], stats.distance_computations)
        for found, stats in results
    ]


@pytest.mark.parametrize("price", ["zero", "never"])
@pytest.mark.parametrize("search", ["knn", "range"])
@pytest.mark.parametrize("structure", ["laesa", "vptree"])
def test_contextual_check_rows_keep_loop_answers(
    words, queries, structure, search, price, monkeypatch
):
    distance = get_distance("contextual_heuristic")
    index = {
        "laesa": lambda: LaesaIndex(words, distance, n_pivots=4),
        "vptree": lambda: VPTreeIndex(words, distance, rng=random.Random(5)),
    }[structure]()
    batch = queries[:12] + queries[-3:]  # members and duplicates
    if search == "knn":
        loop = [index.knn(q, 3) for q in batch]
        run = lambda: index.bulk_knn(batch, 3)
    else:
        loop = [index.range_search(q, 0.4) for q in batch]
        run = lambda: index.bulk_range_search(batch, 0.4)
    real_price = engine.row_price
    cost = 0 if price == "zero" else 10**15
    # the purchase at the first round, or never; no rows where the
    # backend offers none
    monkeypatch.setattr(
        engine,
        "row_price",
        lambda name, store: None if real_price(name, store) is None else (cost, 0),
    )
    # purchases and bit-parallel d_E checks, in call order
    log = _spy_purchases(monkeypatch)
    for module in (bounded_module, engine):
        real_within = module._within

        def within(x, y, bound, real_within=real_within):
            log.append(("within", None, x))
            return real_within(x, y, bound)

        monkeypatch.setattr(module, "_within", within)
    assert _contextual_answers(run()) == _contextual_answers(loop)
    assert not [event for event in log if event[0] == "values"]
    bought = [i for i, event in enumerate(log) if event[0] == "checks"]
    if price == "never" or jit_backend() is not None:
        assert not bought  # the numba leg takes no rows at all
        return
    # one purchase, and no d_E check of a query that holds its row runs
    # the bit-parallel core after it
    (at,) = bought
    rowed = set(log[at][2])
    assert rowed
    assert not [x for _, _, x in log[at + 1 :] if x in rowed]


def test_aesa_buys_no_check_rows(words, queries, monkeypatch):
    # AESA asks exact d_C,h distances only: nothing it spends is a d_E
    # check, so even free rows are never bought
    monkeypatch.setattr(engine, "row_price", lambda name, store: (0, 0))
    bought = _spy_purchases(monkeypatch)
    index = AesaIndex(words[:50], get_distance("contextual_heuristic"))
    _check_bulk_matches_scalar(index, queries[:10], 2)
    assert _contextual_answers(
        index.bulk_range_search(queries[:10], 0.4)
    ) == _contextual_answers([index.range_search(q, 0.4) for q in queries[:10]])
    assert not bought


def test_check_rows_need_the_numpy_grid(words, monkeypatch):
    # the numba backend offers no rows: not even d_C,h's check rows
    index = LaesaIndex(words, get_distance("contextual_heuristic"), n_pivots=2)
    monkeypatch.setattr(engine, "jit_backend", lambda: object())
    assert engine.row_price("contextual_heuristic", index._corpus.store()) is None


class _SpyGenerator:
    """A request generator that logs every value sent to it."""

    def __init__(self, gen, log, qi):
        self._gen, self._log, self._qi = gen, log, qi

    def send(self, value):
        self._log.append(("send", self._qi, value))
        return self._gen.send(value)


def _spy_purchase(monkeypatch, index, log):
    """Log every generator send, every lockstep round and the row
    purchase of *index*'s bulk calls into *log*, in order."""
    for method in ("_search_requests", "_range_requests"):
        real_method = getattr(index, method)
        made = []

        def spying(arg, real_method=real_method, made=made):
            made.append(None)
            return _SpyGenerator(real_method(arg), log, len(made) - 1)

        monkeypatch.setattr(index, method, spying)
    real_round = engine.scalar_round_cheaper

    def spying_round(*args):
        log.append(("round",))
        return real_round(*args)

    monkeypatch.setattr(engine, "scalar_round_cheaper", spying_round)
    real_rows = CountingDistance.rows_ids

    def spying_rows(self, store, x_ids):
        log.append(("rows", len(x_ids)))
        return real_rows(self, store, x_ids)

    monkeypatch.setattr(CountingDistance, "rows_ids", spying_rows)


def _price_at_half(monkeypatch, run):
    """Price rows at half the twin work *run* spends with rows priced
    out, so the purchase falls in the middle of the call."""
    spent = _spy_spent(monkeypatch)
    monkeypatch.setattr(engine, "row_price", lambda name, store: (10**15, 0))
    run()
    price = sum(spent) // 2
    monkeypatch.setattr(engine, "row_price", lambda name, store: (price, 0))


@pytest.mark.skipif(jit_backend() is not None, reason="numba takes no rows")
@pytest.mark.parametrize("search", ["knn", "range"])
@pytest.mark.parametrize("structure", ["laesa", "aesa", "bktree", "vptree"])
def test_purchase_finishes_every_active_query(
    words, queries, structure, search, monkeypatch
):
    distance = get_distance("levenshtein")
    index = {
        "laesa": lambda: LaesaIndex(words, distance, n_pivots=4),
        "aesa": lambda: AesaIndex(words, distance),
        "bktree": lambda: BKTreeIndex(words, distance),
        "vptree": lambda: VPTreeIndex(words, distance, rng=random.Random(5)),
    }[structure]()
    batch = queries[:10]
    if search == "knn":
        loop = [index.knn(q, 3) for q in batch]
        run = lambda: index.bulk_knn(batch, 3)
    else:
        loop = [index.range_search(q, 2.0) for q in batch]
        run = lambda: index.bulk_range_search(batch, 2.0)
    _price_at_half(monkeypatch, run)
    log = []
    _spy_purchase(monkeypatch, index, log)
    got = run()
    assert [
        ([(r.index, r.distance) for r in res], s.distance_computations)
        for res, s in got
    ] == [
        ([(r.index, r.distance) for r in res], s.distance_computations)
        for res, s in loop
    ]
    (at,) = [i for i, event in enumerate(log) if event[0] == "rows"]
    before, after = log[:at], log[at + 1 :]
    assert ("round",) in before
    # no round runs once the rows are bought
    assert all(event[0] == "send" for event in after)
    finished = {event[1] for event in after}
    assert len(finished) == log[at][1] > 0
    rowed = [value for _, _, value in after if isinstance(value, np.ndarray)]
    if structure == "laesa":
        # one hand-off per active query, and not another float after it
        assert len(rowed) == len(after) == len(finished)
    else:
        # drained from the row, one float per remaining request
        assert not rowed
    # the loop's counts: a drained query answers one request per send
    for qi, (_, stats) in enumerate(loop):
        sends = [event for event in log if event[:2] == ("send", qi)]
        if structure != "laesa" or qi not in finished:
            assert len(sends) - 1 == stats.distance_computations


def test_exhaustive_bulk_matches_scalar(words, queries):
    index = ExhaustiveIndex(words, get_distance("dmax"))
    _check_bulk_matches_scalar(index, queries, 2)


def test_unregistered_callable_distance(words, queries):
    # arbitrary callables take the engine's scalar fallback inside the
    # precompute sweep; results and counts must still match exactly
    def exotic(x, y):
        return float(abs(len(x) - len(y)) + sum(a != b for a, b in zip(x, y)))

    index = LaesaIndex(words[:30], exotic, n_pivots=4)
    _check_bulk_matches_scalar(index, queries[:8], 2)


def test_representation_sensitive_callable_over_list_items(words):
    # the precompute sweep must hand unregistered callables the *raw*
    # items: a callable that insists on lists would crash (or score
    # differently) on the engine's as_symbols-normalised tuples
    def list_only(x, y):
        assert isinstance(x, list) and isinstance(y, list), (x, y)
        return float(abs(len(x) - len(y)) + sum(a != b for a, b in zip(x, y)))

    items = [list(w) for w in words[:20]]
    queries = [list(w) for w in words[5:10]] + [list("abc")]
    for index in (
        LaesaIndex(items, list_only, n_pivots=3),
        AesaIndex(items, list_only),
    ):
        _check_bulk_matches_scalar(index, queries, 2)


def test_bulk_with_auto_sharding_engaged(words, queries, monkeypatch):
    """Force workers="auto" to attempt a pool and verify identical output.

    The pivot sweep dispatches interned id grids against the index's
    corpus (``_fan_out_ids``); the auto gate must attempt the pool.
    """
    attempts = []
    real_fan_out_ids = engine._fan_out_ids

    def spying_fan_out_ids(name, store, x_ids, y_ids, workers):
        attempts.append((name, len(x_ids), workers))
        return real_fan_out_ids(name, store, x_ids, y_ids, workers)

    index = LaesaIndex(words, get_distance("levenshtein"), n_pivots=8)
    scalar = [index.knn(q, 1) for q in queries]

    monkeypatch.setattr(engine, "_MIN_PAIRS_PER_WORKER", 2)
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "_fan_out_ids", spying_fan_out_ids)
    batch = index.bulk_knn(queries, 1)

    assert attempts, "auto-sharding never attempted a pool"
    assert all(workers == 2 for _, _, workers in attempts)
    for (truth, t_stats), (got, g_stats) in zip(scalar, batch):
        assert [(r.index, r.distance) for r in got] == [
            (r.index, r.distance) for r in truth
        ]
        assert (
            g_stats.distance_computations == t_stats.distance_computations
        )


@pytest.mark.parametrize("name", ["marzal_vidal", "contextual_heuristic"])
def test_laesa_bulk_matches_scalar_for_new_bounded_twins(words, queries, name):
    # the batched candidate phase must replay d_C,h / d_MV's fresh
    # early-exit twins bit-identically, counts included
    index = LaesaIndex(words[:60], get_distance(name), n_pivots=4)
    _check_bulk_matches_scalar(index, queries[:10], 2)


def test_aesa_lockstep_rounds_without_rows(words, queries, monkeypatch):
    # with rows priced out the lockstep driver answers every comparison
    # by the twins or the batched engine, identically to the loop
    monkeypatch.setattr(engine, "row_price", lambda name, store: (10**15, 0))
    taken = _spy_rows(monkeypatch, 40)
    index = AesaIndex(words[:40], get_distance("dmax"))
    _check_bulk_matches_scalar(index, queries[:8], 2)
    assert not taken


def test_engine_min_pairs_env_override(monkeypatch):
    assert engine._min_pairs_per_worker() == engine._MIN_PAIRS_PER_WORKER
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "3")
    assert engine._min_pairs_per_worker() == 3
    # the threshold feeds workers="auto" resolution directly
    monkeypatch.setattr(engine, "_cpu_count", lambda: 2)
    assert engine._resolve_workers("auto", 6, registered=True) == 2
    monkeypatch.setenv("REPRO_MIN_PAIRS_PER_WORKER", "512")
    assert engine._resolve_workers("auto", 6, registered=True) == 0
