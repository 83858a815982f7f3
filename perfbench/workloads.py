"""The benchmark workloads, driven through repro's public API.

Each workload holds a fixed corpus and a fixed population of distinct
queries (the paper's datasets at fixed dataset seeds), so every run does
the same work.  The ``--seed`` draws how that work arrives: the order of
the queries, hence which queries share a batch, and for the served
workload the arrival times.  A workload runs a set-up step the runner
times (several times, see ``run.py``), runs a timed pass for a given
number of seconds, and then has every answer of the pass verified
outside the timed region:

* the Levenshtein workloads (a metric) against an
  :class:`~repro.index.ExhaustiveIndex` reference: equal neighbours and
  distances;
* ``digits-classify`` (``d_C,h`` is not a metric, so LAESA may prune a
  true neighbour) against the scalar ``knn`` loop on the same index --
  the repo's bulk == scalar contract;
* every per-query distance count against the scalar loop's count.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import SpeedMeter, latency_summary

#: A projected answer: ``((index, distance), ...)`` and its count.
Answer = Tuple[Tuple[Tuple[int, float], ...], int]

#: Dataset seeds of the fixed corpora and query populations.
DICTIONARY_SEED = 2008
QUERY_SEED = 71
DIGITS_TRAIN_SEED = 1995
DIGITS_TEST_SEED = 2008


def project(results: Sequence[Any], stats: Any) -> Answer:
    """Bit-exact projection of one ``(results, stats)`` answer."""
    return (
        tuple((r.index, r.distance) for r in results),
        int(stats.distance_computations),
    )


def fresh(query: str) -> str:
    """A distinct string object with *query*'s content, so spans can
    tell two requests for the same pool query apart."""
    return (query + " ")[:-1]


def dictionary_queries(n_words: int, n_queries: int) -> Tuple[List[str], List[str]]:
    """The fixed dictionary and its 2-edit perturbed query population
    (the paper's genqueries)."""
    from repro.datasets.perturb import perturbed_queries
    from repro.datasets.words import spanish_dictionary

    dictionary = spanish_dictionary(n_words, seed=DICTIONARY_SEED)
    queries = perturbed_queries(
        dictionary, n_queries, random.Random(QUERY_SEED), operations=2
    )
    return list(dictionary.items), queries


@dataclass
class Pass:
    """What one timed pass observed."""

    #: per request (serve) or per bulk call (batch), seconds
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    answered: int = 0
    errors: int = 0
    wall: float = 0.0
    #: (key, answer) for every answered query, in answer order
    answers: List[Tuple[Any, Answer]] = field(default_factory=list)
    #: answered queries per second (see each workload)
    throughput: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Reference:
    """Expected answers and counts per key, plus the scalar loop's time."""

    answers: Dict[Any, Tuple[Tuple[int, float], ...]]
    counts: Dict[Any, int]
    loop_ms_per_query: float
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Shared life cycle: ``prepare`` (untimed), then per set-up
    ``reset`` (untimed) and ``setup`` (timed by the runner), then
    ``timed_pass``, ``reference`` and ``close``."""

    name = ""
    loop = "closed"
    #: timed set-ups per run; ``setup_s`` is their median
    setup_repeats = 5

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.index: Any = None
        self.config: Dict[str, Any] = {}

    def prepare(self) -> None:
        """Inputs and stores, before any timing."""

    def reset(self) -> None:
        """Drop the index and the engine runtime, so every set-up
        starts cold (pool spawn included)."""
        from repro.batch.runtime import get_runtime

        self.index = None
        get_runtime().shutdown()

    def setup(self) -> None:
        raise NotImplementedError

    def timed_pass(self, seconds: float, meter: SpeedMeter) -> Pass:
        """Run for about *seconds*, sampling *meter* only where nothing
        of the program is running."""
        raise NotImplementedError

    def reference(self, keys: Sequence[Any]) -> Reference:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"loop": self.loop, **self.config}

    def close(self) -> None:
        from repro.batch.runtime import get_runtime

        get_runtime().shutdown()

    def _fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)


# -- closed-loop batch workloads ---------------------------------------------


class _BatchWorkload(Workload):
    """One closed-loop caller sending ``bulk_knn`` batches, cycling over
    the query population in a seeded order until the time is up."""

    loop = "closed"
    k = 1
    batch = 16
    #: at least this many bulk calls per pass, so the latency tail (ten
    #: calls beyond it) is at or above the median
    min_calls = 20

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.pool: List[str] = []

    def timed_pass(self, seconds: float, meter: SpeedMeter) -> Pass:
        out = Pass()
        rng = random.Random(self.seed)
        batches: List[List[int]] = []
        started = time.perf_counter()
        calls = 0
        while True:
            if not batches:
                # a fresh seeded order every cycle over the population,
                # so the pass samples many batch compositions
                order = list(range(len(self.pool)))
                rng.shuffle(order)
                batches = [order[i : i + self.batch] for i in range(0, len(order), self.batch)]
            positions = batches.pop(0)
            queries = [fresh(self.pool[p]) for p in positions]
            t0 = time.perf_counter()
            per_query = self.index.bulk_knn(queries, self.k)
            t1 = time.perf_counter()
            out.latencies.append(t1 - t0)
            out.attempted += len(queries)
            for p, (results, stats) in zip(positions, per_query):
                out.answers.append((p, project(results, stats)))
                out.answered += 1
            calls += 1
            meter.sample(4)
            if time.perf_counter() - started >= seconds and calls >= self.min_calls:
                break
        out.wall = time.perf_counter() - started
        # one caller, no think time: the rate while a call is in flight
        out.throughput = out.answered / sum(out.latencies)
        out.extra["calls"] = calls
        return out

    def _scalar_loop(self, keys: Sequence[int]) -> Tuple[Dict[int, Answer], float]:
        answers: Dict[int, Answer] = {}
        started = time.perf_counter()
        for p in keys:
            answers[p] = project(*self.index.knn(self.pool[p], self.k))
        elapsed = time.perf_counter() - started
        return answers, elapsed * 1000.0 / max(len(keys), 1)


class DictShard2(_BatchWorkload):
    """``bulk_knn(k=5)`` batches of 16 perturbed words through a
    two-shard scatter-gather tier of LAESA(levenshtein, P=8) shards over
    a 1000-word dictionary; set-up is the build, a save into an empty
    artifact store, the shard publication and the pool spawn (a
    one-query warm-up call triggers the last two)."""

    name = "dict-shard2"
    k = 5
    batch = 16

    def prepare(self) -> None:
        from repro.core import get_distance

        n_words, n_queries = (1000, 64) if self.scale == "full" else (120, 16)
        self.distance = get_distance("levenshtein")
        self.items, self.pool = dictionary_queries(n_words, n_queries)
        self.config.update(
            corpus=f"spanish_dictionary(seed={DICTIONARY_SEED})",
            n_items=n_words,
            distinct_queries=n_queries,
            batch=self.batch,
            k=self.k,
            clients=1,
        )

    def reference(self, keys: Sequence[int]) -> Reference:
        from repro.index import ExhaustiveIndex

        keys = sorted(set(keys))
        exhaustive = ExhaustiveIndex(self.items, self.distance)
        truth = exhaustive.bulk_knn([self.pool[p] for p in keys], self.k)
        scalar, loop_ms = self._scalar_loop(keys)
        return Reference(
            answers={p: project(*t)[0] for p, t in zip(keys, truth)},
            counts={p: scalar[p][1] for p in keys},
            loop_ms_per_query=loop_ms,
            extra={"scalar_answers": {p: scalar[p][0] for p in keys}},
        )

    def setup(self) -> None:
        from repro.shard import ShardedIndex

        self.index = ShardedIndex(
            self.items,
            self.distance,
            shards=2,
            structure="laesa",
            structure_params={"n_pivots": 8},
        )
        self.index.save(self._fresh_dir("store-"))
        self.index.bulk_knn([self.pool[0]], self.k)
        self.config["structure"] = "ShardedIndex(shards=2, laesa, n_pivots=8)"


class DigitsClassify(_BatchWorkload):
    """1-NN classification of Freeman chain-code digit contours under
    ``d_C,h`` with LAESA(P=40), in batches of 32 test contours."""

    name = "digits-classify"
    k = 1
    batch = 32

    def prepare(self) -> None:
        from repro.core import get_distance
        from repro.datasets.digits import handwritten_digits

        per_class, n_test = (50, 96) if self.scale == "full" else (6, 20)
        train = handwritten_digits(per_class=per_class, seed=DIGITS_TRAIN_SEED)
        test = handwritten_digits(
            per_class=-(-n_test // 10), seed=DIGITS_TEST_SEED
        )
        picked = random.Random(DIGITS_TEST_SEED).sample(range(len(test.items)), n_test)
        self.distance = get_distance("contextual_heuristic")
        self.items = list(train.items)
        self.labels = list(train.labels)
        self.pool = [test.items[i] for i in picked]
        self.pool_labels = [test.labels[i] for i in picked]
        self.n_pivots = 40 if self.scale == "full" else 8
        self.config.update(
            corpus=f"handwritten_digits(seed={DIGITS_TRAIN_SEED})",
            n_items=len(self.items),
            distinct_queries=len(self.pool),
            batch=self.batch,
            k=self.k,
            n_pivots=self.n_pivots,
            clients=1,
        )

    def setup(self) -> None:
        from repro.index import LaesaIndex

        self.index = LaesaIndex(
            self.items, self.distance, n_pivots=self.n_pivots, rng=random.Random(1)
        )
        self.config["structure"] = f"LaesaIndex(n_pivots={self.n_pivots})"

    def reference(self, keys: Sequence[int]) -> Reference:
        keys = sorted(set(keys))
        scalar, loop_ms = self._scalar_loop(keys)
        wrong = sum(
            1
            for p in keys
            if self.labels[scalar[p][0][0][0]] != self.pool_labels[p]
        )
        return Reference(
            answers={p: scalar[p][0] for p in keys},
            counts={p: scalar[p][1] for p in keys},
            loop_ms_per_query=loop_ms,
            extra={"class_error": wrong / max(len(keys), 1)},
        )


# -- open-loop served workload -------------------------------------------------


#: The latency limit behind ``slo_rate_qps``, on the tail percentile.
SLO_TAIL_MS = 250.0
#: A step keeps up when it answers at least this share of its offered rate.
KEEP_UP = 0.9


class ServeSpell(Workload):
    """Open-loop spellcheck traffic against an ``IndexServer`` (default
    ``ServeConfig``: 2 ms window) over LAESA(levenshtein, P=8), warm
    started from a store populated before timing.

    Every fifth pool query is a ``range_search(r=1)``, the rest
    ``knn(k=3)``.  Requests arrive at seeded exponential times through
    fixed rate steps, each step sending whole cycles over the pool in a
    seeded order, so every run serves the same queries.  Latencies are
    taken at the lowest step; the throughput is the answer rate over the
    whole pass, which falls below the offered one when a step leaves a
    backlog.
    """

    name = "serve-spell"
    loop = "open"
    setup_repeats = 15
    k = 3
    radius = 1.0
    #: ``(offered rate in queries/s, share of the pass)``
    steps = ((25.0, 0.6), (50.0, 0.2), (100.0, 0.1))

    def prepare(self) -> None:
        from repro.core import get_distance
        from repro.index import LaesaIndex

        n_words, n_queries = (500, 100) if self.scale == "full" else (80, 20)
        self.distance = get_distance("levenshtein")
        self.items, self.pool = dictionary_queries(n_words, n_queries)
        self.kinds = ["range" if p % 5 == 0 else "knn" for p in range(n_queries)]
        self.store = self._fresh_dir("store-")
        LaesaIndex(
            self.items, self.distance, n_pivots=8, rng=random.Random(1)
        ).save(self.store)
        self.config.update(
            corpus=f"spanish_dictionary(seed={DICTIONARY_SEED})",
            n_items=n_words,
            distinct_queries=n_queries,
            k=self.k,
            radius=self.radius,
            range_share=0.2,
            rate_steps_qps=[rate for rate, _ in self.steps],
            slo_tail_ms=SLO_TAIL_MS,
            window_ms=2.0,
            structure="LaesaIndex(n_pivots=8)",
        )

    def setup(self) -> None:
        from repro.index import LaesaIndex
        from repro.serve import IndexServer

        server = IndexServer.warm_start(
            LaesaIndex, self.items, self.distance, self.store, n_pivots=8
        )
        self.index = server.index

    def _cycles(self, rng: random.Random, requests: float) -> List[int]:
        """Whole seeded cycles over the pool, about *requests* long."""
        positions: List[int] = []
        for _ in range(max(1, round(requests / len(self.pool)))):
            order = list(range(len(self.pool)))
            rng.shuffle(order)
            positions += order
        return positions

    def timed_pass(self, seconds: float, meter: SpeedMeter) -> Pass:
        from repro.serve import IndexServer, ServeConfig

        config = ServeConfig(dispose_runtime_on_drain=False)
        rng = random.Random(self.seed)
        plan = []
        for rate, share in self.steps:
            due, step = 0.0, []
            for position in self._cycles(rng, rate * share * seconds):
                step.append((due, position))
                due += rng.expovariate(rate)
            plan.append(step)
        out = Pass()
        out.extra["requests"] = []
        self._outstanding = 0

        async def replay() -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
            async with IndexServer(self.index, config) as server:
                started = time.perf_counter()
                steps = []
                for step, (rate, _share) in zip(plan, self.steps):
                    meter.sample(20)
                    steps.append(await self._open_step(server, step, rate, out, meter))
                out.wall = time.perf_counter() - started
                meter.sample(20)
                return steps, server.metrics.snapshot()

        steps, counters = asyncio.run(replay())
        out.extra.update(steps=steps, server=counters)
        out.latencies = steps[0]["latencies"]
        out.throughput = out.answered / out.wall
        ok = [
            s["rate_qps"] for s in steps if s["tail_ms"] <= SLO_TAIL_MS and s["keeps_up"]
        ]
        out.extra["slo_rate_qps"] = max(ok) if ok else 0.0
        return out

    async def _request(
        self, server: Any, position: int, due: float, out: Pass
    ) -> Optional[float]:
        """Send one request; its latency from *due*, or None on error."""
        from repro.serve import ServeError

        query = fresh(self.pool[position])
        record = {"due": due, "sent": time.perf_counter(), "query_id": id(query)}
        out.extra["requests"].append(record)
        out.attempted += 1
        self._outstanding += 1
        try:
            if self.kinds[position] == "knn":
                results, stats = await server.knn(query, self.k)
            else:
                results, stats = await server.range_search(query, self.radius)
        except ServeError:
            out.errors += 1
            return None
        finally:
            self._outstanding -= 1
        record["done"] = time.perf_counter()
        out.answers.append((position, project(results, stats)))
        out.answered += 1
        return record["done"] - due

    async def _open_step(
        self,
        server: Any,
        step: List[Tuple[float, int]],
        rate: float,
        out: Pass,
        meter: SpeedMeter,
    ) -> Dict[str, Any]:
        tasks = []
        lags: List[float] = []
        base = time.perf_counter()
        for offset, position in step:
            due = base + offset
            if self._outstanding == 0 and due - time.perf_counter() > 0.005:
                meter.sample(1)  # the server is idle: nothing to disturb
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(self._request(server, position, due, out)))
        outcomes = await asyncio.gather(*tasks)
        finished = time.perf_counter()
        latencies = [lat for lat in outcomes if lat is not None]
        offered = len(step) / max(step[-1][0], 1e-9)
        achieved = len(latencies) / (finished - base)
        summary: Dict[str, Any] = {"p50_ms": None, "tail_ms": float("inf"), "tail_pct": None}
        if len(latencies) > 10:
            summary = latency_summary(latencies)
        return {
            "rate_qps": rate,
            "requests": len(step),
            "achieved_qps": achieved,
            "keeps_up": achieved >= KEEP_UP * offered,
            "lag_p50_ms": statistics.median(lags) * 1000.0,
            "lag_max_ms": max(lags) * 1000.0,
            "latencies": latencies,
            **summary,
            "samples": len(latencies),
        }

    def reference(self, keys: Sequence[int]) -> Reference:
        from repro.index import ExhaustiveIndex

        keys = sorted(set(keys))
        exhaustive = ExhaustiveIndex(self.items, self.distance)
        answers: Dict[Any, Any] = {}
        for kind in ("knn", "range"):
            positions = [p for p in keys if self.kinds[p] == kind]
            queries = [self.pool[p] for p in positions]
            if kind == "knn":
                truth = exhaustive.bulk_knn(queries, self.k)
            else:
                truth = exhaustive.bulk_range_search(queries, self.radius)
            for p, t in zip(positions, truth):
                answers[p] = project(*t)[0]
        scalar: Dict[int, Answer] = {}
        started = time.perf_counter()
        for p in keys:
            if self.kinds[p] == "knn":
                scalar[p] = project(*self.index.knn(self.pool[p], self.k))
            else:
                scalar[p] = project(*self.index.range_search(self.pool[p], self.radius))
        loop_ms = (time.perf_counter() - started) * 1000.0 / max(len(keys), 1)
        return Reference(
            answers=answers,
            counts={p: scalar[p][1] for p in keys},
            loop_ms_per_query=loop_ms,
            extra={"scalar_answers": {p: scalar[p][0] for p in keys}},
        )


WORKLOADS: Dict[str, Callable[[int, str, str], Workload]] = {
    ServeSpell.name: ServeSpell,
    DictShard2.name: DictShard2,
    DigitsClassify.name: DigitsClassify,
}


def make(name: str, seed: int, scale: str, workdir: str) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})"
        ) from None
    return factory(seed, scale, workdir)
