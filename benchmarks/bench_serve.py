#!/usr/bin/env python
"""Traffic-replay benchmark of the serving tier (`repro.serve`).

Replays open-loop traffic (seeded exponential arrivals at a target
rate) and closed-loop traffic (C clients, each issuing its next request
the moment the previous one answers) against an
:class:`~repro.serve.IndexServer` over a LAESA index, sweeping the
coalescing window.  Each (loop, window) point is emitted as one JSON
row with p50/p99 latency, throughput, shed / deadline / degraded-batch
counts, and mean coalesced batch size -- appended to ``BENCH_serve.json``
so the serving-latency trajectory survives across PRs.

Each row also records distance computations per query and the ms/query
of the direct ``bulk_knn`` call and of a plain loop of scalar ``knn``
calls over the same requests -- the baseline the served (coalesced,
lockstep) path is measured against.

Every successful response is cross-checked **bit-identically** against
a direct ``bulk_knn`` on the same index (results and per-query distance
counts); with ``--faults`` armed the checks still hold for every
response the server chose to answer -- the chaos receipts
(``DeadlineExceeded``/``ServerOverloaded``) cover the rest.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI leg
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke \
        --faults "worker_crash:p=0.2,seed=12"                  # chaos leg
"""

from __future__ import annotations

import argparse
import asyncio
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
from repro.serve import IndexServer, ServeConfig, ServeError

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _corpus(n, seed, alphabet="abcdefgh", lo=3, hi=12):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        out.append(word)
    return out


def _key(per_query):
    """Bit-exact projection of bulk results for identity checks."""
    return [
        ([(r.index, r.distance) for r in results], stats.distance_computations)
        for results, stats in per_query
    ]


async def _open_loop(server, queries, k, rate_rps, timeout_ms, seed):
    """Open loop: arrivals at seeded exponential inter-arrival times,
    regardless of how fast the server answers (the overload-honest
    shape).  Returns (outcomes, per-request latencies in seconds)."""
    rng = random.Random(seed)
    latencies = [None] * len(queries)
    outcomes = [None] * len(queries)

    async def one(i, query):
        started = time.perf_counter()
        try:
            outcomes[i] = await server.knn(query, k, timeout_ms=timeout_ms)
        except ServeError as exc:
            outcomes[i] = exc
        latencies[i] = time.perf_counter() - started

    tasks = []
    for i, query in enumerate(queries):
        tasks.append(asyncio.create_task(one(i, query)))
        await asyncio.sleep(rng.expovariate(rate_rps))
    await asyncio.gather(*tasks)
    return outcomes, latencies


async def _closed_loop(server, queries, k, clients, timeout_ms):
    """Closed loop: *clients* concurrent workers, each issuing its next
    query as soon as the previous answer (or receipt) lands."""
    latencies = [None] * len(queries)
    outcomes = [None] * len(queries)
    cursor = iter(range(len(queries)))

    async def worker():
        for i in cursor:
            started = time.perf_counter()
            try:
                outcomes[i] = await server.knn(
                    queries[i], k, timeout_ms=timeout_ms
                )
            except ServeError as exc:
                outcomes[i] = exc
            latencies[i] = time.perf_counter() - started

    await asyncio.gather(*(worker() for _ in range(clients)))
    return outcomes, latencies


def _run_point(index, direct, queries, k, loop_kind, window_ms, args):
    """One (loop, window) measurement: replay, verify, summarise."""
    config = ServeConfig(
        window_ms=window_ms,
        max_batch=args.max_batch,
        queue_max=args.queue_max,
        dispose_runtime_on_drain=False,
    )

    async def replay():
        async with IndexServer(index, config) as server:
            started = time.perf_counter()
            if loop_kind == "open":
                outcomes, latencies = await _open_loop(
                    server, queries, k, args.rate, args.timeout_ms, seed=71
                )
            else:
                outcomes, latencies = await _closed_loop(
                    server, queries, k, args.clients, args.timeout_ms
                )
            elapsed = time.perf_counter() - started
            return outcomes, latencies, elapsed, server.metrics.snapshot()

    from repro.batch.runtime import get_runtime

    ring_before = get_runtime().ring_stats()
    outcomes, latencies, elapsed, counters = asyncio.run(replay())
    ring_after = get_runtime().ring_stats()

    answered = 0
    for query, outcome in zip(queries, outcomes):
        if isinstance(outcome, ServeError):
            continue
        if _key([outcome]) != [direct[query]]:
            raise SystemExit(
                f"IDENTITY VIOLATION: served answer for {query!r} diverged "
                "from the direct bulk_knn result"
            )
        answered += 1

    answered_latencies = sorted(
        lat for lat, out in zip(latencies, outcomes)
        if not isinstance(out, ServeError)
    )
    def percentile(q):
        if not answered_latencies:
            return None
        return round(float(np.percentile(answered_latencies, q)) * 1000.0, 3)
    return {
        "bench": "serve",
        "loop": loop_kind,
        "window_ms": window_ms,
        "max_batch": args.max_batch,
        "queue_max": args.queue_max,
        "timeout_ms": args.timeout_ms,
        "rate_rps": args.rate if loop_kind == "open" else None,
        "clients": args.clients if loop_kind == "closed" else None,
        "n_requests": len(queries),
        "answered": answered,
        "identity_checked": answered,
        "p50_ms": percentile(50),
        "p99_ms": percentile(99),
        "throughput_rps": round(answered / elapsed, 2) if elapsed else None,
        "elapsed_seconds": round(elapsed, 4),
        "shed": counters["shed"],
        "deadline_exceeded": counters["deadline_exceeded"],
        "failed": counters["failed"],
        "batches": counters["batches"],
        "degraded_batches": counters["degraded_batches"],
        "breaker_trips": counters["breaker_trips"],
        "mean_batch_size": (
            round(counters["batched_requests"] / counters["batches"], 2)
            if counters["batches"]
            else None
        ),
        # segment-ring effectiveness for this point: reuses avoid a
        # /dev/shm create+unlink pair per coalesced batch (ROADMAP 5c)
        "shm_ring": {
            key: ring_after[key] - ring_before[key] for key in ring_after
        },
        "n_items": len(index.items),
        "k": k,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
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
        help="arm a REPRO_FAULTS spec for the replay (chaos leg)",
    )
    parser.add_argument(
        "--windows",
        default=None,
        help="comma-separated coalescing windows in ms (overrides sweep)",
    )
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop arrival rate, requests/s")
    parser.add_argument("--clients", type=int, default=None,
                        help="closed-loop concurrent clients")
    parser.add_argument("--timeout-ms", type=float, default=2_000.0,
                        help="per-request deadline (ms)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--queue-max", type=int, default=1024)
    parser.add_argument("--k", type=int, default=3)
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
        # chaos replays must fan out and supervise tightly, like the suite
        os.environ.setdefault("REPRO_MIN_PAIRS_PER_WORKER", "20")
        os.environ.setdefault("REPRO_POOL_TIMEOUT", "2")

    if args.smoke:
        n_items, n_requests = 160, 48
        windows = [0.0, 2.0, 10.0]
        rate = args.rate or 400.0
        clients = args.clients or 8
    else:
        n_items, n_requests = 1_000, 400
        windows = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0]
        rate = args.rate or 800.0
        clients = args.clients or 32
    if args.windows:
        windows = [float(w) for w in args.windows.split(",")]
    args.rate, args.clients = rate, clients

    items = _corpus(n_items, seed=2008)
    queries = _corpus(n_requests, seed=71, lo=3, hi=10)
    index = LaesaIndex(
        items, get_distance("levenshtein"), n_pivots=8, rng=random.Random(1)
    )
    # ground truth for the identity cross-check, one direct bulk call,
    # timed beside the scalar knn loop it must not lose to
    started = time.perf_counter()
    keyed = _key(index.bulk_knn(queries, args.k))
    bulk_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    loop = _key([index.knn(q, args.k) for q in queries])
    loop_elapsed = time.perf_counter() - started
    if loop != keyed:
        raise SystemExit("IDENTITY VIOLATION: bulk_knn diverged from the knn loop")
    direct = dict(zip(queries, keyed))
    baseline = {
        "dist_per_query": round(
            sum(count for _hits, count in keyed) / len(queries), 2
        ),
        "bulk_ms_per_query": round(bulk_elapsed * 1e3 / len(queries), 3),
        "loop_ms_per_query": round(loop_elapsed * 1e3 / len(queries), 3),
    }

    tags = ambient_tags("smoke" if args.smoke else "full", args.faults or "")
    rows = []
    for loop_kind in ("open", "closed"):
        for window_ms in windows:
            row = _run_point(
                index, direct, queries, args.k, loop_kind, window_ms, args
            )
            row.update(baseline)
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
