"""Small measurement helpers shared by the workloads and the runner."""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least :data:`TAIL_SAMPLES`
    of *n* samples beyond it."""
    if n <= TAIL_SAMPLES:
        raise ValueError(
            f"{n} samples leave no percentile with {TAIL_SAMPLES} beyond it"
        )
    return int(math.floor(100.0 * (n - TAIL_SAMPLES) / n))


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample, in milliseconds, with the
    tail's percentile and the sample count beside it."""
    ms = [s * 1000.0 for s in seconds]
    tail_pct = tail_percentile(len(ms))
    return {
        "p50_ms": percentile(ms, 50),
        "tail_ms": percentile(ms, tail_pct),
        "tail_pct": tail_pct,
        "samples": len(ms),
    }


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / |median|)`` as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else float("inf")
    return q1, q2, q3, spread


#: Duration of one :func:`speed_probe` call on the reference machine
#: (2-vCPU Xeon at 2.1 GHz, quiet), seconds.
PROBE_NOMINAL_S = 0.0006


def speed_probe() -> None:
    """A fixed slice of the program's kind of work -- a pure-Python edit
    DP and a run of small numpy calls -- independent of the program
    under test, so its duration tracks only the machine's speed."""
    a, b = "contextual", "normalised"
    for _ in range(6):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
    x = np.arange(64)
    for _ in range(300):
        x = np.minimum(x, x[::-1] + 1)


class SpeedMeter:
    """Samples :func:`speed_probe` between timed operations.

    The machine this benchmark was built on ran whole stretches of tens
    of seconds with this probe up to 1.7x slower than usual (other
    tenants), while the workloads slowed by 1.1-1.6x.  ``factor`` -- the
    median probe time over the nominal one -- is reported beside each
    pass so a reader can tell such runs apart; no figure is corrected
    by it, because the workloads feel the slowdown unequally.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 2) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            speed_probe()
            self.samples.append(time.perf_counter() - started)

    @property
    def factor(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / PROBE_NOMINAL_S


def _vm_hwm_kb(pid: int) -> Optional[int]:
    """Peak resident set (``VmHWM``) of *pid* in KiB, from procfs."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mb(child_pids: Sequence[int]) -> float:
    """Peak memory of this process plus its live pool children, MiB.

    Falls back to ``getrusage`` where procfs is unavailable."""
    own = _vm_hwm_kb(os.getpid())
    if own is None:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own
    for pid in child_pids:
        total += _vm_hwm_kb(pid) or 0
    return total / 1024.0


def live_children() -> List[int]:
    """Pids of this process's live multiprocessing children."""
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children() if p.pid]
