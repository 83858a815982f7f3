"""Deadline and backpressure policy for the serving tier.

Three decisions live here, pulled out of the server so they are
unit-testable without an event loop:

* **Deadlines** are absolute ``time.monotonic()`` instants computed at
  admission and carried with the request; "how long is left" is always
  derived from the same clock, so a deadline means the same thing to the
  submitting client, the batch assembler, and the fan-out.
* **The circuit breaker** watches batch health (did the bulk call
  degrade down the engine's reliability ladder?) and trips after a
  configurable run of consecutive degraded batches; any clean batch
  resets it.
* **Effective limits** -- while the breaker is tripped, the coalescing
  window halves (smaller batches = less work at risk behind a sick
  runtime) and the admission bound halves (shed earlier, recover
  sooner).  Both snap back the moment the breaker closes.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "ServeError",
    "DeadlineExceeded",
    "ServerOverloaded",
    "ServerClosed",
    "compute_deadline",
    "remaining_seconds",
    "CircuitBreaker",
    "effective_window_ms",
    "effective_queue_max",
]


class ServeError(RuntimeError):
    """Base class of every serving-tier failure."""


class DeadlineExceeded(ServeError):
    """The request could not finish inside its deadline.  The request
    was *not* silently dropped: its batch still ran (or never started),
    and this failure is the loud receipt."""


class ServerOverloaded(ServeError):
    """The bounded admission queue is full (or the breaker shrank it);
    the request was shed at the door instead of growing memory."""


class ServerClosed(ServeError):
    """The server is draining or drained; no new work is accepted."""


def compute_deadline(
    timeout_ms: Optional[float],
    default_ms: Optional[float],
    now: Optional[float] = None,
) -> Optional[float]:
    """The absolute monotonic deadline of a request submitted *now* with
    an explicit *timeout_ms* (falling back to the config's *default_ms*);
    ``None`` when neither applies -- the request waits indefinitely."""
    chosen = timeout_ms if timeout_ms is not None else default_ms
    if chosen is None:
        return None
    if now is None:
        now = time.monotonic()
    return now + chosen / 1000.0


def remaining_seconds(deadline: Optional[float], now: Optional[float] = None) -> Optional[float]:
    """Seconds left before *deadline* (clamped at 0), or ``None`` for
    deadline-less requests."""
    if deadline is None:
        return None
    if now is None:
        now = time.monotonic()
    return max(0.0, deadline - now)


class CircuitBreaker:
    """Trip after *threshold* consecutive degraded batches.

    The engine already degrades gracefully (pool retry -> in-process
    serial) and keeps answers bit-identical, so a degraded batch is not
    an error -- but a *run* of them means the runtime is sick and every
    oversized batch queues more latency behind it.  While tripped, the
    server halves its window and admission bound; one clean batch
    closes the breaker and restores both.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self._threshold = threshold
        self._consecutive = 0
        self.trips = 0

    @property
    def tripped(self) -> bool:
        return self._consecutive >= self._threshold

    @property
    def consecutive_degraded(self) -> int:
        return self._consecutive

    def record_batch(self, degraded: bool) -> bool:
        """Feed one batch outcome; returns ``True`` when this batch is
        the one that tripped the breaker (for metrics)."""
        if not degraded:
            self._consecutive = 0
            return False
        was_tripped = self.tripped
        self._consecutive += 1
        just_tripped = self.tripped and not was_tripped
        if just_tripped:
            self.trips += 1
        return just_tripped


def effective_window_ms(window_ms: float, breaker: CircuitBreaker) -> float:
    """The coalescing window under current breaker state."""
    return window_ms / 2.0 if breaker.tripped else window_ms


def effective_queue_max(queue_max: int, breaker: CircuitBreaker) -> int:
    """The admission bound under current breaker state (never below 1:
    a tripped server still serves, it just sheds sooner)."""
    return max(1, queue_max // 2) if breaker.tripped else queue_max
