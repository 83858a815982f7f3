#!/usr/bin/env python
"""Scatter-gather sharded query tier benchmark (`repro.shard`).

Sweeps the shard count S over the Spanish-dictionary workload: one
unsharded LAESA index as ground truth, then a :class:`ShardedIndex`
per S answering the same ``bulk_knn`` batches -- per-shard lockstep
searches scattered over the persistent worker pool and k-merged.  Each
S is one JSON row (elapsed, throughput, speedup vs S=1, shard sizes,
degradation counters) appended to ``BENCH_shard.json`` so the scaling
trajectory survives across PRs.

Each row also records distance computations per query and, beside
the bulk figure, the ms/query of a plain loop of scalar ``knn`` calls on
the same sharded index -- the baseline the lockstep bulk path must beat.

Identity is asserted **in-benchmark** for every S: the sharded answers
(neighbours and distances, canonical order) must equal the unsharded
index's, and at S=1 -- the identity layout -- the per-query distance
counts must match too.  Any divergence exits non-zero.  With
``--faults`` armed (the chaos leg) the same assertions hold while shard
tasks fail and fall back to the master.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_shard.py --smoke    # CI leg
    PYTHONPATH=src python benchmarks/bench_shard.py --smoke \
        --faults "shard_worker_fail:p=0.3,seed=7"              # chaos leg
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
from repro.core import get_distance
from repro.index import LaesaIndex
from repro.shard import ShardedIndex

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _key(per_query):
    """Bit-exact projection of bulk results for identity checks."""
    return [
        ([(r.index, r.distance) for r in results], stats.distance_computations)
        for results, stats in per_query
    ]


def _results_only(keyed):
    return [hits for hits, _count in keyed]


def _run_point(sharded, reference, queries, k, repeats):
    """Time *repeats* bulk_knn batches on one sharded index and verify
    every answer against the unsharded reference."""
    from repro.batch.runtime import DEGRADATION

    sharded.bulk_knn(queries[:4], k)  # warm-up: publish shards, spawn pool
    before = DEGRADATION.snapshot()
    started = time.perf_counter()
    keyed = None
    for _ in range(repeats):
        keyed = _key(sharded.bulk_knn(queries, k))
    elapsed = time.perf_counter() - started
    after = DEGRADATION.snapshot()

    if _results_only(keyed) != _results_only(reference):
        raise SystemExit(
            f"IDENTITY VIOLATION: S={sharded.n_shards} sharded bulk_knn "
            "diverged from the unsharded index"
        )
    if sharded.n_shards == 1 and keyed != reference:
        raise SystemExit(
            "IDENTITY VIOLATION: single-shard counts diverged from the "
            "unsharded index (identity layout must be bit-identical)"
        )
    started = time.perf_counter()
    loop = _key([sharded.knn(q, k) for q in queries])
    loop_elapsed = time.perf_counter() - started
    if _results_only(loop) != _results_only(reference):
        raise SystemExit(
            f"IDENTITY VIOLATION: S={sharded.n_shards} scalar knn loop "
            "diverged from the unsharded index"
        )
    return elapsed, loop_elapsed, keyed, {
        key: after[key] - before[key]
        for key in after
        if after[key] != before[key]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, CI-sized run (~seconds) instead of the full sweep",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="arm a REPRO_FAULTS spec for the sweep (chaos leg)",
    )
    parser.add_argument(
        "--shards",
        default=None,
        help="comma-separated shard counts (default: 1,2,4,8)",
    )
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--n-pivots", type=int, default=8)
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"JSON-lines results file (default: {DEFAULT_JSON.name})",
    )
    args = parser.parse_args(argv)

    if args.faults:
        import repro.batch.faults as faults

        faults.parse_spec(args.faults)  # fail fast on a typo'd spec
        os.environ["REPRO_FAULTS"] = args.faults
        faults._PLAN_CACHE = None
        os.environ.setdefault("REPRO_MIN_PAIRS_PER_WORKER", "20")
        os.environ.setdefault("REPRO_POOL_TIMEOUT", "2")

    if args.smoke:
        n_items, n_queries, repeats = 400, 24, 2
        shard_counts = [1, 2, 4]
    else:
        n_items, n_queries, repeats = None, 64, 3  # None = whole dictionary
        shard_counts = [1, 2, 4, 8]
    if args.shards:
        shard_counts = [int(s) for s in args.shards.split(",")]

    from repro.datasets import words

    dictionary = words.spanish_dictionary()
    items = dictionary[:n_items] if n_items else list(dictionary)
    rng = random.Random(71)
    queries = rng.sample(items, n_queries)
    distance = get_distance("levenshtein")

    flat = LaesaIndex(items, distance, n_pivots=args.n_pivots)
    reference = _key(flat.bulk_knn(queries, args.k))

    tags = ambient_tags("smoke" if args.smoke else "full", args.faults or "")
    rows = []
    baseline_elapsed = None
    for count in shard_counts:
        sharded = ShardedIndex(
            items,
            distance,
            shards=count,
            structure="laesa",
            structure_params={"n_pivots": args.n_pivots},
        )
        elapsed, loop_elapsed, keyed, degraded = _run_point(
            sharded, reference, queries, args.k, repeats
        )
        if count == shard_counts[0] and count == 1:
            baseline_elapsed = elapsed
        row = {
            "bench": "shard",
            "shards": count,
            "shard_sizes": sharded.shard_sizes,
            "n_items": len(items),
            "n_queries": n_queries,
            "repeats": repeats,
            "k": args.k,
            "n_pivots": args.n_pivots,
            "elapsed_seconds": round(elapsed, 4),
            "queries_per_second": round(n_queries * repeats / elapsed, 2),
            "bulk_ms_per_query": round(elapsed * 1e3 / (n_queries * repeats), 3),
            "loop_ms_per_query": round(loop_elapsed * 1e3 / n_queries, 3),
            "bulk_vs_loop": round(loop_elapsed * repeats / elapsed, 3),
            "dist_per_query": round(
                sum(count for _hits, count in keyed) / n_queries, 2
            ),
            "speedup_vs_serial": (
                round(baseline_elapsed / elapsed, 3) if baseline_elapsed else None
            ),
            "identity_checked": n_queries,
            "degradation": degraded,
            "preprocessing_computations": sharded.preprocessing_computations,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        row.update(tags)
        rows.append(row)
        print(json.dumps(row, indent=2))

    with args.json.open("a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    print(f"[appended {len(rows)} rows to {args.json}]")

    from repro.batch.runtime import get_runtime

    get_runtime().shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
