#!/usr/bin/env python
"""Benchmark the batched query phases against the scalar query loops.

Reproduces the paper's Section 4.3 query regime on the digit-contour
dataset: a LAESA index over a training set of contour strings, a batch of
held-out contours as queries.  Two modes:

* ``--mode knn`` (default) -- nearest-neighbour search per query: the
  per-query `knn` loop vs `bulk_knn` (pivot sweep + lockstep candidate
  rounds through the banded batch kernels);
* ``--mode range`` -- radius search at a paper-style tight radius (a low
  quantile of sampled training distances): the per-query `range_search`
  loop vs the lockstep `bulk_range_search`, plus a direct timing of the
  banded `pairwise_values_bounded` engine path against a slot-by-slot
  ``CountingDistance.within`` loop on the same candidate workload,
  values asserted equal (for ``--distance marzal_vidal`` that compares
  the batched banded parametric kernel against the per-pair scalar
  probe);
* ``--mode repeat`` -- the engine runtime: the same index serves
  several consecutive ``bulk_knn`` calls with the persistent pool on
  (ambient default) vs off (``REPRO_PERSISTENT_POOL=0``: id sweeps then
  run in-process, since only the persistent pool attaches the
  shared-memory corpus), results asserted bit-identical.

Either way the batched paths must return bit-identical results and
identical per-query ``distance_computations`` (asserted, not sampled);
only the wall-clock may differ.  Results are appended as one JSON object
per run to ``BENCH_query.json`` (each row tagged with the ambient
``pool`` mode: persistent vs per-call) so the perf trajectory survives
across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_query_batch.py                # full knn
    PYTHONPATH=src python benchmarks/bench_query_batch.py --smoke        # CI knn
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode range   # radius mode
    PYTHONPATH=src python benchmarks/bench_query_batch.py --mode repeat  # runtime amortisation
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

from repro.batch import jit
from repro.datasets import handwritten_digits
from repro.core import get_distance
from repro.index import AesaIndex, LaesaIndex

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


def _pool_tag() -> str:
    """The ambient engine pool mode recorded in every emitted row."""
    from repro.batch import persistent_pool_enabled

    return "persistent" if persistent_pool_enabled() else "per-call"


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

    started = time.perf_counter()
    batch = index.bulk_knn(queries, k)
    batch_seconds = time.perf_counter() - started

    _check_identical(scalar, batch, "LAESA")

    # AESA rides the same cache machinery; keep it honest on a small
    # database (its quadratic preprocessing regime) without letting it
    # dominate the benchmark's runtime.
    aesa_n = min(len(train), 120)
    aesa = AesaIndex(train[:aesa_n], get_distance(distance))
    started = time.perf_counter()
    aesa_scalar = [aesa.knn(q, k) for q in queries]
    aesa_scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    aesa_batch = aesa.bulk_knn(queries, k)
    aesa_batch_seconds = time.perf_counter() - started
    _check_identical(aesa_scalar, aesa_batch, "AESA")

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
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # numpy vs numba: the CI kernel-backend matrix appends one record
        # per leg (BENCH_kernel.json) so the trajectory shows both
        "kernel_backend": jit.backend_name(),
        "pool": _pool_tag(),
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

    started = time.perf_counter()
    batch = index.bulk_range_search(queries, radius)
    batch_seconds = time.perf_counter() - started

    _check_identical(scalar, batch, "LAESA range")

    aesa_n = min(len(train), 120)
    aesa = AesaIndex(train[:aesa_n], get_distance(distance))
    started = time.perf_counter()
    aesa_scalar = [aesa.range_search(q, radius) for q in queries]
    aesa_scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    aesa_batch = aesa.bulk_range_search(queries, radius)
    aesa_batch_seconds = time.perf_counter() - started
    _check_identical(aesa_scalar, aesa_batch, "AESA range")

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
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": jit.backend_name(),
        "pool": _pool_tag(),
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
    pool (ambient default) vs the per-call path
    (``REPRO_PERSISTENT_POOL=0``).

    The index is built under each regime and then serves *rounds*
    consecutive ``bulk_knn`` calls -- the serving-traffic shape where
    the per-call costs the runtime removes (spawning a pool every sweep)
    actually repeat.  Neighbours, distances and per-query computation
    counts are asserted bit-identical between the regimes.
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
        "kernel_backend": jit.backend_name(),
        "pool": _pool_tag(),
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
        choices=("knn", "range", "repeat"),
        default="knn",
        help="benchmark k-NN (default), radius search, or repeated bulk "
        "queries (persistent vs per-call pool)",
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

    if args.mode == "range":
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
    record["mode"] = "smoke" if args.smoke else "full"
    record["faults"] = args.faults or ""
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

    if args.mode == "repeat":
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
