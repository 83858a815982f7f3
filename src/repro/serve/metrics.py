"""The serving tier's health and metrics surface.

:class:`ServeMetrics` is one more set of the runtime's
:class:`~repro.batch.runtime.Counters` -- named counters behind one
lock, cheap point-in-time snapshots -- plus *interval* reporting for
the process-wide degradation counters: each :meth:`degradation_interval`
call returns what degraded since the previous one without ever racing
(or double/zero-counting against) in-flight bulk calls, because both
the delta and the new baseline come from the same consistent snapshot.

Counting discipline: terminal per-request outcomes (``completed``,
``deadline_exceeded``, ``failed``, ``shed``) are recorded exactly once,
by the submission path that raises or returns to the client -- the
batch side only accounts batch-shaped facts (``batches``,
``batched_requests``, ``degraded_batches``, ``breaker_trips``).  The
invariant ``submitted == completed + shed + deadline_exceeded + failed``
therefore holds whenever no request is in flight.
"""

from __future__ import annotations

from typing import Dict

from ..batch.runtime import DEGRADATION, Counters

__all__ = ["ServeMetrics"]


class ServeMetrics(Counters):
    """Process-local counters of one server instance."""

    _FIELDS = (
        "submitted",  # requests that passed the closed-server check
        "completed",  # requests answered with results
        "shed",  # requests refused at admission (ServerOverloaded)
        "deadline_exceeded",  # requests failed on their deadline
        "failed",  # requests failed by a batch execution error
        "batches",  # coalesced bulk calls dispatched
        "batched_requests",  # live requests carried by those calls
        "degraded_batches",  # bulk calls that degraded down the ladder
        "breaker_trips",  # times the circuit breaker opened
    )

    def __init__(self) -> None:
        super().__init__()
        self._baseline: Dict[str, int] = DEGRADATION.snapshot()

    def degradation_interval(self, *, rebase: bool = True) -> Dict[str, int]:
        """Non-zero process-wide degradation counter increases since the
        previous interval (or construction), from one consistent
        snapshot.  With ``rebase=True`` (the default, statsd-flush
        semantics) the baseline advances to that same snapshot, so
        consecutive intervals partition events losslessly;
        ``rebase=False`` peeks without consuming."""
        after = DEGRADATION.snapshot()
        with self._lock:
            before = self._baseline
            if rebase:
                self._baseline = after
        return self.increases(before, after)
