#!/usr/bin/env python
"""Benchmark the batched query phases against the scalar query loops.

Reproduces the paper's Section 4.3 query regime on the digit-contour
dataset: a LAESA index over a training set of contour strings, a batch of
held-out contours as queries.  Four modes:

* ``--mode knn`` (default) -- nearest-neighbour search per query: the
  per-query `knn` loop vs `bulk_knn` (pivot sweep + lockstep candidate
  rounds through the banded batch kernels), for LAESA, AESA and the
  VP-tree (lockstep rounds without a sweep), plus LAESA `bulk_knn` in
  batches of 1, 8 and 32 against the same loop.  Each bulk pass
  records its row purchases (``d_E``-family value rows, ``d_C,h``
  check rows); the numba backend must buy none, and under
  ``contextual_heuristic`` on numpy LAESA must buy check rows and AESA
  none;
* ``--mode range`` -- radius search at a paper-style tight radius (a low
  quantile of sampled training distances): the per-query `range_search`
  loop vs the lockstep `bulk_range_search` (row purchases recorded and
  checked like knn mode's, except that LAESA need not buy), plus a
  direct timing of the banded `pairwise_values_bounded` engine path
  against a slot-by-slot ``CountingDistance.within`` loop on the same
  candidate workload,
  values asserted equal (for ``--distance marzal_vidal`` that compares
  the batched banded parametric kernel against the per-pair scalar
  probe);
* ``--mode repeat`` -- the engine runtime: the same index serves
  several consecutive ``bulk_knn`` calls with the persistent pool on
  (ambient default) vs off (``REPRO_PERSISTENT_POOL=0``: no process
  pool, so every engine call runs in-process), results asserted
  bit-identical;
* ``--mode route`` -- the per-round lockstep route: one round of
  {1, 2, 4, 8, 16, 64} pairs on dictionary words (``levenshtein``) and
  on digit contours (``contextual_heuristic``), timed both ways (one
  batched ``pairwise_values_bounded_ids`` sweep vs one scalar
  ``peek_within`` per pair), each cell recording the measured winner
  beside ``scalar_round_cheaper``'s choice; values asserted equal.
  Run on every kernel backend, its rows are the data the backend's
  route constants are set from;
* ``--mode words`` -- word-length strings, where a twin call costs a
  few microseconds: LAESA ``knn`` loop vs ``bulk_knn`` (P=8, k=3) on
  the 160 short words of ``bench_serve.py`` at batch
  sizes 1, 8 and 48, then the 8000-word dictionary (k=5, batch 64) at
  P=8 and P=32, plus ``ExhaustiveIndex.bulk_knn`` on it; then LAESA
  P=8 ``range_search`` loop vs ``bulk_range_search`` at radius 1 and 2
  on both corpora (the whole query set as one batch), plus the
  exhaustive scan's range search on the dictionary.  Each row records
  comps/q and ms/q both ways (best of three) and the row purchases of
  one bulk pass, and is checked against the loop and against the
  exhaustive scan.  LAESA rows must buy rows on the numpy backend and
  none on numba.

Either way the batched paths must return bit-identical results and
identical per-query ``distance_computations`` (asserted, not sampled);
only the wall-clock may differ.  Results are appended as one JSON object
per run to ``BENCH_query.json`` (each row tagged with the ambient
``pool`` mode of :func:`bench_tags.ambient_tags`) so the perf
trajectory survives across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_batch.py                # full knn
    PYTHONPATH=src python benchmarks/bench_query_batch.py --smoke        # CI knn
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode range   # radius mode
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode repeat  # runtime amortisation
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode route   # round routing
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode words   # word rows
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

from bench_tags import ambient_tags
from repro.batch import jit
from repro.datasets import handwritten_digits
from repro.core import get_distance
from repro.index import AesaIndex, ExhaustiveIndex, LaesaIndex, VPTreeIndex

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_query.json"


def _workload(per_class: int, n_train: int, n_queries: int, seed: int):
    data = handwritten_digits(per_class=per_class, seed=1995, grid=24)
    pool = list(range(len(data)))
    random.Random(seed).shuffle(pool)
    if n_train + n_queries > len(pool):
        raise ValueError(
            f"workload needs {n_train + n_queries} contours, dataset has "
            f"{len(pool)}; raise --per-class"
        )
    train = [data.items[i] for i in pool[:n_train]]
    queries = [data.items[i] for i in pool[n_train : n_train + n_queries]]
    return train, queries


def _tight_radius(train, distance: str, quantile: float = 0.02) -> float:
    """A paper-style tight radius: a low quantile of sampled distances
    (a few hits per query -- the spellcheck/classification regime).

    Deterministic given the training set; tight radii are where the
    banded kernels shine (wide ones degrade gracefully to the full
    sweep).
    """
    from repro.batch import pairwise_values

    rng = random.Random(0x7AD1)
    sample_pairs = [
        (rng.choice(train), rng.choice(train)) for _ in range(256)
    ]
    values = sorted(float(v) for v in pairwise_values(distance, sample_pairs))
    return values[int(quantile * (len(values) - 1))]


def _check_identical(scalar, batch, label: str) -> None:
    for q, ((truth, t_stats), (got, g_stats)) in enumerate(zip(scalar, batch)):
        truth_pairs = [(r.index, r.distance) for r in truth]
        got_pairs = [(r.index, r.distance) for r in got]
        if truth_pairs != got_pairs:
            raise AssertionError(
                f"{label}: query {q} neighbours differ: "
                f"{got_pairs} vs {truth_pairs}"
            )
        if t_stats.distance_computations != g_stats.distance_computations:
            raise AssertionError(
                f"{label}: query {q} computation counts differ: "
                f"{g_stats.distance_computations} vs "
                f"{t_stats.distance_computations}"
            )


#: LAESA ``bulk_knn`` batch sizes of knn mode's per-batch rows.
KNN_BATCHES = (1, 8, 32)


def run_benchmark(
    distance: str,
    per_class: int,
    n_train: int,
    n_queries: int,
    n_pivots: int,
    k: int,
    seed: int = 0xD161,
) -> dict:
    train, queries = _workload(per_class, n_train, n_queries, seed)
    index = LaesaIndex(train, get_distance(distance), n_pivots=n_pivots)

    started = time.perf_counter()
    scalar = [index.knn(q, k) for q in queries]
    scalar_seconds = time.perf_counter() - started
    purchases = {}

    batch, batch_seconds, purchases["laesa"] = _bulk_in_batches(
        index.bulk_knn, queries, k, len(queries)
    )
    _check_identical(scalar, batch, "LAESA")

    # the batch sizes the upper tiers send: a served batch of one, a
    # coalesced few, a shard's tens
    batch_rows = []
    for size in KNN_BATCHES:
        answers, seconds, bought = _bulk_in_batches(index.bulk_knn, queries, k, size)
        _check_identical(scalar, answers, f"LAESA batch {size}")
        batch_rows.append(
            {
                "batch": size,
                "loop_ms_per_query": round(scalar_seconds * 1e3 / len(queries), 3),
                "bulk_ms_per_query": round(seconds * 1e3 / len(queries), 3),
                "bulk_over_loop": round(scalar_seconds / seconds, 2),
                "row_purchases": bought,
            }
        )

    # AESA rides the same cache machinery; keep it honest on a small
    # database (its quadratic preprocessing regime) without letting it
    # dominate the benchmark's runtime.
    aesa_n = min(len(train), 120)
    aesa = AesaIndex(train[:aesa_n], get_distance(distance))
    started = time.perf_counter()
    aesa_scalar = [aesa.knn(q, k) for q in queries]
    aesa_scalar_seconds = time.perf_counter() - started
    aesa_batch, aesa_batch_seconds, purchases["aesa"] = _bulk_in_batches(
        aesa.bulk_knn, queries, k, len(queries)
    )
    _check_identical(aesa_scalar, aesa_batch, "AESA")

    # the VP-tree has no sweep: its bulk_knn is the lockstep rounds alone
    vptree = VPTreeIndex(train, get_distance(distance))
    started = time.perf_counter()
    vptree_scalar = [vptree.knn(q, k) for q in queries]
    vptree_scalar_seconds = time.perf_counter() - started
    vptree_batch, vptree_batch_seconds, purchases["vptree"] = _bulk_in_batches(
        vptree.bulk_knn, queries, k, len(queries)
    )
    _check_identical(vptree_scalar, vptree_batch, "VP-tree")
    _check_purchases(distance, purchases, laesa_buys=True)

    comps = [s.distance_computations for _, s in batch]
    return {
        "bench": "query_batch",
        "distance": distance,
        "n_train": len(train),
        "n_queries": len(queries),
        "n_pivots": index.n_pivots,
        "k": k,
        "mean_computations_per_query": round(float(np.mean(comps)), 1),
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "aesa_n_train": aesa_n,
        "aesa_scalar_seconds": round(aesa_scalar_seconds, 4),
        "aesa_batch_seconds": round(aesa_batch_seconds, 4),
        "aesa_speedup": round(aesa_scalar_seconds / aesa_batch_seconds, 2),
        "vptree_scalar_seconds": round(vptree_scalar_seconds, 4),
        "vptree_batch_seconds": round(vptree_batch_seconds, 4),
        "vptree_speedup": round(vptree_scalar_seconds / vptree_batch_seconds, 2),
        "row_purchases": purchases,
        "batches": batch_rows,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_range_benchmark(
    distance: str,
    per_class: int,
    n_train: int,
    n_queries: int,
    n_pivots: int,
    radius=None,
    seed: int = 0xD161,
) -> dict:
    """Scalar vs lockstep range search, plus the bounded engine path vs
    a scalar ``within`` loop on the same tight-radius candidate
    workload."""
    from repro.batch import pairwise_values_bounded
    from repro.index.base import CountingDistance

    train, queries = _workload(per_class, n_train, n_queries, seed)
    if radius is None:
        radius = _tight_radius(train, distance)
    index = LaesaIndex(train, get_distance(distance), n_pivots=n_pivots)

    started = time.perf_counter()
    scalar = [index.range_search(q, radius) for q in queries]
    scalar_seconds = time.perf_counter() - started
    purchases = {}

    batch, batch_seconds, purchases["laesa"] = _bulk_in_batches(
        index.bulk_range_search, queries, radius, len(queries)
    )
    _check_identical(scalar, batch, "LAESA range")

    aesa_n = min(len(train), 120)
    aesa = AesaIndex(train[:aesa_n], get_distance(distance))
    started = time.perf_counter()
    aesa_scalar = [aesa.range_search(q, radius) for q in queries]
    aesa_scalar_seconds = time.perf_counter() - started
    aesa_batch, aesa_batch_seconds, purchases["aesa"] = _bulk_in_batches(
        aesa.bulk_range_search, queries, radius, len(queries)
    )
    _check_identical(aesa_scalar, aesa_batch, "AESA range")
    _check_purchases(distance, purchases, laesa_buys=False)

    # Direct bounded-engine vs scalar-twin comparison on the tight-radius
    # candidate workload (every query against a training slice at the
    # radius) -- the kernel-level speedup, identity asserted slot by slot.
    candidates = train[: min(len(train), 80)]
    pairs = [(q, c) for q in queries for c in candidates]
    limits = [radius] * len(pairs)
    started = time.perf_counter()
    engine_values = pairwise_values_bounded(distance, pairs, limits)
    engine_seconds = time.perf_counter() - started
    counter = CountingDistance(get_distance(distance))
    started = time.perf_counter()
    within_values = [counter.within(x, y, radius) for x, y in pairs]
    within_seconds = time.perf_counter() - started
    if engine_values.tolist() != within_values:
        raise AssertionError(
            "pairwise_values_bounded disagrees with CountingDistance.within"
        )

    comps = [s.distance_computations for _, s in batch]
    hits = [len(r) for r, _ in batch]
    return {
        "bench": "query_batch",
        "search": "range",
        "distance": distance,
        "radius": round(float(radius), 6),
        "n_train": len(train),
        "n_queries": len(queries),
        "n_pivots": index.n_pivots,
        "mean_hits_per_query": round(float(np.mean(hits)), 2),
        "mean_computations_per_query": round(float(np.mean(comps)), 1),
        "scalar_seconds": round(scalar_seconds, 4),
        "batch_seconds": round(batch_seconds, 4),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "aesa_n_train": aesa_n,
        "aesa_scalar_seconds": round(aesa_scalar_seconds, 4),
        "aesa_batch_seconds": round(aesa_batch_seconds, 4),
        "aesa_speedup": round(aesa_scalar_seconds / aesa_batch_seconds, 2),
        "bounded_engine_seconds": round(engine_seconds, 4),
        "bounded_within_seconds": round(within_seconds, 4),
        "bounded_speedup": round(within_seconds / engine_seconds, 2),
        "row_purchases": purchases,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: Pairs per lockstep round in route mode.
ROUTE_PAIRS = (1, 2, 4, 8, 16, 64)


def _route_rounds(smoke: bool):
    """``(distance, items, queries, limits)`` for route mode: 64
    two-edit perturbed queries against dictionary words at radius 2,
    and 64 held-out digit contours at a first-candidate-round radius
    (the distance to the nearest of 16 training contours)."""
    from repro.batch import pairwise_matrix
    from repro.datasets.perturb import perturbed_queries
    from repro.datasets.words import spanish_dictionary

    n = max(ROUTE_PAIRS)
    dictionary = spanish_dictionary(300 if smoke else 1000, seed=2008)
    words = perturbed_queries(dictionary, n, random.Random(71), operations=2)
    train = list(handwritten_digits(per_class=20 if smoke else 50, seed=1995).items)
    contours = list(handwritten_digits(per_class=7, seed=2008).items[:n])
    radii = pairwise_matrix("contextual_heuristic", contours, train[:16])
    return [
        ("levenshtein", list(dictionary.items), words, [2.0] * n),
        ("contextual_heuristic", train[16:], contours, radii.min(axis=1).tolist()),
    ]


def run_route_benchmark(smoke: bool, repeats: int = 3) -> dict:
    """Time one lockstep round each way per (distance, pair count) and
    record the measured winner beside the cost model's choice."""
    from repro.batch import intern_corpus, pairwise_values_bounded_ids
    from repro.batch.engine import scalar_round_cheaper
    from repro.index.base import CountingDistance

    cells = []
    for name, items, queries, limits in _route_rounds(smoke):
        counter = CountingDistance(name)
        store = intern_corpus(items).store(queries)
        step = len(items) // max(ROUTE_PAIRS)
        for pairs in ROUTE_PAIRS:
            x_ids = [store.extra_id(i) for i in range(pairs)]
            y_ids = [i * step for i in range(pairs)]
            lims = limits[:pairs]
            batched_s = scalar_s = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                batched = pairwise_values_bounded_ids(
                    name, store, x_ids, y_ids, lims
                )
                middle = time.perf_counter()
                scalar = [
                    counter.peek_within(queries[i], items[j], limit)
                    for i, j, limit in zip(range(pairs), y_ids, lims)
                ]
                batched_s = min(batched_s, middle - started)
                scalar_s = min(scalar_s, time.perf_counter() - middle)
            if batched.tolist() != scalar:
                raise AssertionError(
                    f"{name}: batched and scalar rounds of {pairs} pairs differ"
                )
            model = scalar_round_cheaper(name, store, x_ids, y_ids, lims)
            cells.append(
                {
                    "distance": name,
                    "pairs": pairs,
                    "batched_ms": round(batched_s * 1e3, 4),
                    "scalar_ms": round(scalar_s * 1e3, 4),
                    "measured": "scalar" if scalar_s <= batched_s else "batched",
                    "model": "scalar" if model else "batched",
                }
            )
    return {
        "bench": "query_batch",
        "search": "route",
        "cells": cells,
        "model_agrees": sum(c["measured"] == c["model"] for c in cells),
        "n_cells": len(cells),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _short_words(n: int, seed: int, lo: int = 3, hi: int = 12) -> list:
    """The bench_serve corpus: random words over ``abcdefgh``."""
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abcdefgh") for _ in range(rng.randint(lo, hi)))
        for _ in range(n)
    ]


class _RowPurchases:
    """Counts the row purchases of the lockstep rounds while installed
    as a wrapper: calls of ``CountingDistance.rows_ids`` (``d_E``-family
    value rows) and ``CountingDistance.check_rows_ids`` (``d_C,h``'s
    ``d_E`` check rows)."""

    def __init__(self) -> None:
        self.count = 0
        self._real: dict = {}

    def __enter__(self) -> "_RowPurchases":
        from repro.index.base import CountingDistance

        for method in ("rows_ids", "check_rows_ids"):
            real = self._real[method] = getattr(CountingDistance, method)

            def counting(counter, store, x_ids, real=real):
                self.count += 1
                return real(counter, store, x_ids)

            setattr(CountingDistance, method, counting)
        return self

    def __exit__(self, *exc) -> None:
        from repro.index.base import CountingDistance

        for method, real in self._real.items():
            setattr(CountingDistance, method, real)


def _bulk_in_batches(bulk_call, queries, arg, batch):
    """``bulk_call`` over *queries* in batches of *batch*: ``(answers,
    seconds, row purchases)``."""
    with _RowPurchases() as purchases:
        started = time.perf_counter()
        answers = []
        for lo in range(0, len(queries), batch):
            answers.extend(bulk_call(queries[lo : lo + batch], arg))
        seconds = time.perf_counter() - started
    return answers, seconds, purchases.count


def _check_purchases(distance: str, purchases: dict, laesa_buys: bool) -> None:
    """The numba backend takes no rows at all.  On numpy, AESA's
    ``d_C,h`` searches buy no ``d_E`` check rows (it asks exact
    distances only), and LAESA's k-NN bulk call (*laesa_buys*) must buy
    them: its bounded requests check ``d_E``.  (A tight-radius range
    search asks too few of them for the rent to reach a row.)"""
    if jit.backend_name() == "numba":
        if any(purchases.values()):
            raise AssertionError(f"numba took rows: {purchases}")
    elif distance == "contextual_heuristic":
        if purchases["aesa"] or (laesa_buys and not purchases["laesa"]):
            raise AssertionError(f"d_C,h check rows misbought: {purchases}")


def _words_row(index, queries, arg, batch, truth, label, repeats, search="knn"):
    """One words-mode row: the ``knn`` loop vs ``bulk_knn`` in batches
    of *batch* (or ``range_search`` vs ``bulk_range_search`` at radius
    *arg* for ``search="range"``), best of *repeats*, checked against
    the loop and the exhaustive scan's answers *truth*; records the row
    purchases of one bulk pass."""
    if search == "knn":
        one, bulk_call = index.knn, index.bulk_knn
    else:
        one, bulk_call = index.range_search, index.bulk_range_search
    loop_s = bulk_s = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        loop = [one(q, arg) for q in queries]
        loop_s = min(loop_s, time.perf_counter() - started)
        bulk, seconds, bought = _bulk_in_batches(bulk_call, queries, arg, batch)
        bulk_s = min(bulk_s, seconds)
    _check_identical(loop, bulk, label)
    for q, ((got, _), want) in enumerate(zip(bulk, truth)):
        if [(r.index, r.distance) for r in got] != want:
            raise AssertionError(f"{label}: query {q} differs from the scan")
    n = len(queries)
    return {
        "structure": label,
        "search": search,
        **({"radius": arg} if search == "range" else {}),
        "n_items": len(index.items),
        "batch": batch,
        "comps_per_query": round(
            float(np.mean([s.distance_computations for _, s in bulk])), 1
        ),
        "loop_ms_per_query": round(loop_s * 1e3 / n, 3),
        "bulk_ms_per_query": round(bulk_s * 1e3 / n, 3),
        "bulk_over_loop": round(loop_s / bulk_s, 2),
        "row_purchases": bought,
    }


#: Range rows of words mode: LAESA P=8 over the whole query set.
WORDS_RADII = (1.0, 2.0)


def run_words_benchmark(smoke: bool, repeats: int = 3) -> dict:
    """The word rows under ``levenshtein`` (see the module docstring);
    every row is asserted identical to the loop and to the exhaustive
    scan.  LAESA's bulk rows must have bought rows on the numpy backend
    (the row hand-off ran) and none on numba, which
    takes no rows."""
    from repro.datasets.words import spanish_dictionary

    distance = get_distance("levenshtein")
    if smoke:
        repeats = 1
    short = _short_words(160, seed=2008)
    short_queries = _short_words(16 if smoke else 48, seed=71, hi=10)
    dictionary = list(spanish_dictionary(1000 if smoke else 8000, seed=2008))
    dict_queries = random.Random(71).sample(dictionary, 16 if smoke else 64)
    full = len(dict_queries)
    cells = []
    for items, queries, k, points in (
        (short, short_queries, 3, [(8, 1), (8, 8), (8, len(short_queries))]),
        (dictionary, dict_queries, 5, [(8, full), (32, full), (None, full)]),
    ):
        scan = ExhaustiveIndex(items, distance)
        truth = [
            [(r.index, r.distance) for r in results]
            for results, _ in scan.bulk_knn(queries, k)
        ]
        for n_pivots, batch in points:
            if n_pivots is None:  # the exhaustive scan itself
                index, label = scan, "exhaustive"
            else:
                index = LaesaIndex(items, distance, n_pivots=n_pivots)
                label = f"laesa P={n_pivots}"
            cells.append(
                _words_row(index, queries, k, batch, truth, label, repeats)
            )
        laesa = LaesaIndex(items, distance, n_pivots=8)
        for radius in WORDS_RADII:
            truth = [
                [(r.index, r.distance) for r in hits]
                for hits, _ in scan.bulk_range_search(queries, radius)
            ]
            for index, label in [(laesa, "laesa P=8")] + (
                [(scan, "exhaustive")] if items is dictionary else []
            ):
                cells.append(
                    _words_row(
                        index, queries, radius, len(queries), truth, label,
                        repeats, search="range",
                    )
                )
    bought = [c["row_purchases"] for c in cells if c["structure"] != "exhaustive"]
    if jit.backend_name() == "numba" and any(bought):
        raise AssertionError(f"numba took rows: {bought}")
    if jit.backend_name() != "numba" and not all(bought):
        raise AssertionError(f"a LAESA row bought no rows: {bought}")
    return {
        "bench": "query_batch",
        "search": "words",
        "distance": "levenshtein",
        "cells": cells,
        # main()'s 0.95 gate reads the knn rows; the range rows are
        # reported only (at radius 1 a dictionary query asks too few
        # twins for the rent paid before its row to come back)
        "min_bulk_over_loop": min(
            c["bulk_over_loop"] for c in cells if c["search"] == "knn"
        ),
        "min_range_bulk_over_loop": min(
            c["bulk_over_loop"] for c in cells if c["search"] == "range"
        ),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_repeat_benchmark(
    distance: str,
    per_class: int,
    n_train: int,
    n_queries: int,
    n_pivots: int,
    k: int,
    rounds: int = 3,
    seed: int = 0xD161,
) -> dict:
    """Repeated bulk queries against one fixed index: the persistent
    pool (ambient default) vs no pool at all
    (``REPRO_PERSISTENT_POOL=0``: every engine call in-process).

    The index is built under each regime and then serves *rounds*
    consecutive ``bulk_knn`` calls -- the serving-traffic shape where
    the pool's one-time costs (spawn, corpus publication) amortise.
    Neighbours, distances and per-query computation counts are asserted
    bit-identical between the regimes; the row keeps its historic
    ``percall_seconds`` key for the in-process time.
    """
    train, queries = _workload(per_class, n_train, n_queries, seed)

    def timed_rounds():
        index = LaesaIndex(train, get_distance(distance), n_pivots=n_pivots)
        started = time.perf_counter()
        batches = [index.bulk_knn(queries, k) for _ in range(rounds)]
        return time.perf_counter() - started, batches

    persistent_seconds, persistent = timed_rounds()
    saved = os.environ.get("REPRO_PERSISTENT_POOL")
    os.environ["REPRO_PERSISTENT_POOL"] = "0"
    try:
        percall_seconds, percall = timed_rounds()
    finally:
        if saved is None:
            del os.environ["REPRO_PERSISTENT_POOL"]
        else:
            os.environ["REPRO_PERSISTENT_POOL"] = saved
    for r, (new, old) in enumerate(zip(persistent, percall)):
        _check_identical(old, new, f"repeat round {r}")

    comps = [s.distance_computations for _, s in persistent[0]]
    return {
        "bench": "query_batch",
        "search": "repeat",
        "distance": distance,
        "n_train": len(train),
        "n_queries": len(queries),
        "n_pivots": n_pivots,
        "k": k,
        "rounds": rounds,
        "mean_computations_per_query": round(float(np.mean(comps)), 1),
        "persistent_seconds": round(persistent_seconds, 4),
        "percall_seconds": round(percall_seconds, 4),
        "speedup": round(percall_seconds / persistent_seconds, 2),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, CI-sized run (~seconds) instead of the 200-query workload",
    )
    parser.add_argument(
        "--mode",
        choices=("knn", "range", "repeat", "route", "words"),
        default="knn",
        help="benchmark k-NN (default), radius search, repeated bulk "
        "queries (persistent pool vs in-process), the lockstep round "
        "route (scalar vs batched per pair count), or the word rows "
        "(loop vs bulk on short words and the dictionary)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="repeat-mode: consecutive bulk_knn calls per regime",
    )
    parser.add_argument(
        "--radius",
        type=float,
        default=None,
        help="range-mode radius (default: the 2nd percentile of sampled "
        "training distances)",
    )
    parser.add_argument(
        "--distance",
        default="dmax",
        help="registry name to benchmark (default: dmax, Table 2's "
        "best-performing distance)",
    )
    parser.add_argument(
        "--queries", type=int, default=None, help="override the query count"
    )
    parser.add_argument(
        "--pivots", type=int, default=None, help="override the pivot count"
    )
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"JSON-lines results file (default: {DEFAULT_JSON.name})",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="arm a REPRO_FAULTS spec for the run (chaos smoke, e.g. "
        "'worker_crash:p=0.2,seed=12'); identity checks still apply -- "
        "degradation must never change results",
    )
    args = parser.parse_args(argv)

    if args.faults:
        import repro.batch.faults as faults

        faults.parse_spec(args.faults)  # fail fast on a typo'd spec
        os.environ["REPRO_FAULTS"] = args.faults
        faults._PLAN_CACHE = None

    from repro.batch import DEGRADATION

    degradation_before = DEGRADATION.snapshot()

    if args.smoke:
        per_class, n_train = 6, 40
        n_queries = 16 if args.queries is None else args.queries
        n_pivots = 8 if args.pivots is None else args.pivots
    else:
        per_class, n_train = 50, 300
        # the paper-regime digit workload
        n_queries = 200 if args.queries is None else args.queries
        n_pivots = 40 if args.pivots is None else args.pivots

    if args.mode == "route":
        record = run_route_benchmark(args.smoke)
    elif args.mode == "words":
        record = run_words_benchmark(args.smoke)
    elif args.mode == "range":
        record = run_range_benchmark(
            args.distance, per_class, n_train, n_queries, n_pivots, args.radius
        )
    elif args.mode == "repeat":
        record = run_repeat_benchmark(
            args.distance,
            per_class,
            n_train,
            n_queries,
            n_pivots,
            args.k,
            rounds=args.rounds,
        )
    else:
        record = run_benchmark(
            args.distance, per_class, n_train, n_queries, n_pivots, args.k
        )
        record["search"] = "knn"
    # the mandatory row tags; kernel_backend splits the CI numpy and
    # numba legs, which append one record each (BENCH_kernel.json)
    record.update(ambient_tags("smoke" if args.smoke else "full", args.faults or ""))
    # per-run degradation-ladder events (all zero on a healthy run):
    # a chaos smoke proves the identity checks held *while* degrading
    after = DEGRADATION.snapshot()
    record["degradation"] = {
        event: after[event] - degradation_before.get(event, 0)
        for event in after
        if after[event] - degradation_before.get(event, 0)
    }
    print(json.dumps(record, indent=2))

    with args.json.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"[appended to {args.json}]")

    if args.mode == "route":
        return 0  # a measurement, not a gate: the rows set the constants
    if args.mode == "words":
        gate, target, label = record["min_bulk_over_loop"], 0.95, "words bulk"
    elif args.mode == "repeat":
        gate, target, label = record["speedup"], 1.0, "repeat bulk"
    elif args.mode == "range" and args.distance == "marzal_vidal":
        # d_MV's pivot phase stays scalar on the numpy backend, so the
        # metric here is the candidate-phase kernel: batched banded
        # probes vs the per-pair scalar probe (within) loop
        gate, target, label = record["bounded_speedup"], 1.2, "d_MV banded-batch"
    else:
        gate, target, label = record["speedup"], 1.5, f"{args.mode} bulk"
    if gate < target and not args.smoke:
        print(
            f"WARNING: {label} speedup {gate}x below the {target}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
