"""The asyncio index server: coalescing front-end over one index.

:class:`IndexServer` turns any :class:`~repro.index.base.NearestNeighborIndex`
into a resilient concurrent service.  Clients ``await server.knn(...)``
or ``await server.range_search(...)`` one query at a time; internally a
single batcher loop coalesces whatever arrives within the configured
window into homogeneous groups and runs each group as **one**
``bulk_knn`` / ``bulk_range_search`` call on a worker thread, fanning
the per-query results back to their futures.  Every answer is
bit-identical to a direct bulk (equivalently, scalar) call on the same
index -- coalescing is invisible except in latency.

Robustness contract (the chaos suite in ``tests/serve/`` enforces it):

* **Deadlines end-to-end.**  A request carries an absolute deadline from
  admission; the waiter enforces it with ``asyncio.wait_for`` so even a
  wedged batch cannot hold a client past its deadline, and the batch
  assembler fails already-expired requests without running them.  A late
  request gets :class:`~repro.serve.policy.DeadlineExceeded` -- loudly,
  never a silent drop -- and never poisons its batch: the batch still
  runs for the requests that can make it.
* **Bounded admission.**  At most ``queue_max`` accepted-but-unanswered
  requests exist at any instant; beyond that, submissions fail fast with
  :class:`~repro.serve.policy.ServerOverloaded` (the ``shed`` counter
  receipts it).  Memory is bounded no matter how hard clients push.
* **Circuit breaker.**  After ``breaker_after`` consecutive degraded
  batches (the engine's ladder reported pool trouble), the window and
  the admission bound halve -- smaller batches, earlier shedding --
  until a clean batch closes the breaker.
* **Warm start.**  :meth:`IndexServer.warm_start` builds the index
  through :func:`repro.store.load_or_build` with ``save_on_miss=True``,
  so a restarted server loads artifacts instead of recomputing, and the
  first-ever start leaves artifacts behind.
* **Graceful drain.**  :meth:`drain` stops admission, flushes every
  queued request (no window waits), awaits in-flight batches, and
  disposes the engine runtime (configurable).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Type,
    TypeVar,
)

from ..batch import faults
from ..batch.runtime import get_runtime
from ..index.base import NearestNeighborIndex, _validate_k, _validate_radius
from .batcher import PendingRequest, QueryResult, take_groups
from .config import ServeConfig
from .metrics import ServeMetrics
from .policy import (
    CircuitBreaker,
    DeadlineExceeded,
    ServeError,
    ServerClosed,
    ServerOverloaded,
    compute_deadline,
    effective_queue_max,
    effective_window_ms,
    remaining_seconds,
)

__all__ = ["IndexServer"]

IndexT = TypeVar("IndexT", bound="NearestNeighborIndex[Any]")


class IndexServer:
    """Coalescing async front-end over *index*.

    One instance owns one index and one batcher loop; use it as an async
    context manager (``async with IndexServer(index) as server:``) or
    pair :meth:`start` with :meth:`drain` explicitly.  All coroutine
    methods must be called from one event loop; the bulk calls
    themselves run on worker threads via ``asyncio.to_thread``.
    """

    def __init__(
        self,
        index: "NearestNeighborIndex[Any]",
        config: Optional[ServeConfig] = None,
    ) -> None:
        self._index = index
        self._config = config if config is not None else ServeConfig.from_env()
        self.metrics = ServeMetrics()
        self.breaker = CircuitBreaker(self._config.breaker_after)
        self._queue: Deque[PendingRequest] = deque()
        self._wake = asyncio.Event()
        self._flush = asyncio.Event()
        self._loop_task: Optional["asyncio.Task[None]"] = None
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._sem: Optional[asyncio.Semaphore] = None
        self._pending = 0
        self._closing = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def warm_start(
        cls,
        index_cls: Type[IndexT],
        items: Sequence[Any],
        distance: Any,
        store: Any,
        *,
        config: Optional[ServeConfig] = None,
        **params: Any,
    ) -> "IndexServer":
        """A server over *index_cls* loaded from *store* (or built once
        and saved there), so restarts answer their first query without
        recomputing a single distance."""
        from ..store import load_or_build

        index = load_or_build(
            index_cls, items, distance, store, params, save_on_miss=True
        )
        return cls(index, config=config)

    @property
    def index(self) -> "NearestNeighborIndex[Any]":
        return self._index

    @property
    def config(self) -> ServeConfig:
        return self._config

    async def start(self) -> "IndexServer":
        """Start the batcher loop (idempotent; re-opens after a drain)."""
        if self._started:
            return self
        self._started = True
        self._closing = False
        self._sem = asyncio.Semaphore(self._config.max_inflight)
        self._loop_task = asyncio.create_task(self._run())
        return self

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, flush every queued
        request (skipping window waits), await in-flight batches (up to
        *timeout* seconds, ``None`` = forever), then dispose the engine
        runtime when the config says the server owns it."""
        self._closing = True
        self._wake.set()
        self._flush.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        if self._inflight:
            await asyncio.wait(set(self._inflight), timeout=timeout)
        self._started = False
        if self._config.dispose_runtime_on_drain:
            await asyncio.to_thread(get_runtime().shutdown)

    async def __aenter__(self) -> "IndexServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.drain()

    # -- client surface ----------------------------------------------------

    async def knn(
        self, query: Any, k: int, *, timeout_ms: Optional[float] = None
    ) -> QueryResult:
        """k nearest neighbours of *query* -- the ``(results, stats)``
        tuple a direct ``index.knn`` / ``bulk_knn`` call would return,
        bit-identical."""
        _validate_k(k, len(self._index.items))
        return await self._submit("knn", float(k), query, timeout_ms)

    async def range_search(
        self, query: Any, radius: float, *, timeout_ms: Optional[float] = None
    ) -> QueryResult:
        """All items within *radius* of *query*, closest first --
        bit-identical to a direct ``bulk_range_search``."""
        _validate_radius(radius)
        return await self._submit("range", float(radius), query, timeout_ms)

    def health(self) -> Dict[str, Any]:
        """Point-in-time health surface: server counters, the
        degradation delta since the previous ``health()`` call, breaker
        state, and current effective limits."""
        return {
            "counters": self.metrics.snapshot(),
            "degradation_interval": self.metrics.degradation_interval(),
            "breaker": {
                "tripped": self.breaker.tripped,
                "trips": self.breaker.trips,
                "consecutive_degraded": self.breaker.consecutive_degraded,
            },
            "effective_window_ms": effective_window_ms(
                self._config.window_ms, self.breaker
            ),
            "effective_queue_max": effective_queue_max(
                self._config.queue_max, self.breaker
            ),
            "pending": self._pending,
            "queue_depth": len(self._queue),
            "closing": self._closing,
        }

    # -- submission path ---------------------------------------------------

    async def _submit(
        self, kind: str, param: float, query: Any, timeout_ms: Optional[float]
    ) -> QueryResult:
        if self._closing:
            raise ServerClosed("server is draining; submit refused")
        if not self._started:
            await self.start()
        if self._closing:  # drained while start() yielded
            raise ServerClosed("server is draining; submit refused")
        self.metrics.record("submitted")
        bound = effective_queue_max(self._config.queue_max, self.breaker)
        if self._pending >= bound or faults.fires("serve_shed"):
            self.metrics.record("shed")
            raise ServerOverloaded(
                f"admission queue full ({self._pending}/{bound} pending); "
                "request shed"
            )
        now = time.monotonic()
        deadline = compute_deadline(
            timeout_ms, self._config.default_deadline_ms, now
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryResult]" = loop.create_future()
        self._pending += 1
        future.add_done_callback(self._on_request_done)
        self._queue.append(
            PendingRequest(kind, param, query, deadline, future, now)
        )
        self._wake.set()
        if len(self._queue) >= self._config.max_batch:
            self._flush.set()  # a full batch need not wait out the window
        try:
            if deadline is None:
                result = await future
            else:
                budget = remaining_seconds(deadline)
                assert budget is not None
                result = await asyncio.wait_for(future, budget)
        except asyncio.TimeoutError:
            self.metrics.record("deadline_exceeded")
            raise DeadlineExceeded(
                f"{kind} request missed its deadline after "
                f"{(timeout_ms if timeout_ms is not None else self._config.default_deadline_ms)}ms"
            ) from None
        except DeadlineExceeded:
            self.metrics.record("deadline_exceeded")
            raise
        except ServeError:
            self.metrics.record("failed")
            raise
        else:
            self.metrics.record("completed")
            return result

    def _on_request_done(self, future: "asyncio.Future[QueryResult]") -> None:
        self._pending -= 1

    # -- batcher loop ------------------------------------------------------

    async def _run(self) -> None:
        while True:
            if not self._queue:
                if self._closing:
                    return
                self._wake.clear()
                if self._queue:  # appended between the check and clear
                    continue
                if self._closing:
                    return
                await self._wake.wait()
                continue
            window = effective_window_ms(self._config.window_ms, self.breaker)
            if (
                window > 0
                and not self._closing
                and len(self._queue) < self._config.max_batch
            ):
                # An interruptible window: a drain (or a queue reaching
                # max_batch) sets the flush event and cuts it short.
                self._flush.clear()
                try:
                    await asyncio.wait_for(
                        self._flush.wait(), window / 1000.0
                    )
                except asyncio.TimeoutError:
                    pass
            for group in take_groups(self._queue, self._config.max_batch):
                task = asyncio.create_task(self._run_batch(group))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, group: List[PendingRequest]) -> None:
        assert self._sem is not None
        async with self._sem:
            now = time.monotonic()
            live: List[PendingRequest] = []
            for req in group:
                if req.future.done():
                    continue  # waiter already timed out or was cancelled
                expired = req.deadline is not None and now >= req.deadline
                if expired or faults.fires("serve_deadline"):
                    req.future.set_exception(
                        DeadlineExceeded(
                            f"{req.kind} request expired before its batch ran"
                        )
                    )
                    continue
                live.append(req)
            if not live:
                return
            kind, param = live[0].kind, live[0].param
            queries = [req.query for req in live]
            self.metrics.record("batches")
            self.metrics.record("batched_requests", len(live))
            try:
                results = await asyncio.to_thread(
                    self._execute, kind, queries, param
                )
            except asyncio.CancelledError:
                # Only event-loop teardown cancels batch tasks; receipts
                # before re-raising so no waiter hangs on a dead batch.
                for req in live:
                    if not req.future.done():
                        req.future.set_exception(
                            ServerClosed("batch cancelled at shutdown")
                        )
                raise
            except Exception as exc:
                # The engine ladder absorbs runtime faults; reaching here
                # means something unexpected (bad parameter for this
                # corpus, kernel bug).  Fail the whole group loudly --
                # every member shares the same (kind, param).
                self.metrics.record("degraded_batches")
                if self.breaker.record_batch(True):
                    self.metrics.record("breaker_trips")
                failure = ServeError(f"batch execution failed: {exc!r}")
                failure.__cause__ = exc
                for req in live:
                    if not req.future.done():
                        req.future.set_exception(failure)
                return
            degraded = bool(self._index.last_degradation)
            if degraded:
                self.metrics.record("degraded_batches")
            if self.breaker.record_batch(degraded):
                self.metrics.record("breaker_trips")
            now = time.monotonic()
            for req, outcome in zip(live, results):
                if req.future.done():
                    continue
                if req.deadline is not None and now >= req.deadline:
                    req.future.set_exception(
                        DeadlineExceeded(
                            f"{req.kind} request finished after its deadline"
                        )
                    )
                    continue
                req.future.set_result(outcome)

    def _execute(
        self, kind: str, queries: List[Any], param: float
    ) -> List[QueryResult]:
        """One coalesced bulk call (worker thread)."""
        plan = faults.active_plan()
        if plan is not None and plan.should_fire("serve_slow_batch"):
            spec = plan.spec("serve_slow_batch")
            if spec is not None:
                time.sleep(spec.sleep_seconds)
        if kind == "knn":
            return self._index.bulk_knn(queries, int(param))
        return self._index.bulk_range_search(queries, param)
