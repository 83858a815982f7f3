"""The mandatory tag set every ``BENCH_*.json`` row carries.

Trajectory tooling groups rows by these four tags; a row missing any of
them silently falls out of every comparison, so emitters call
:func:`ambient_tags` instead of hand-rolling a subset.  ``mode`` and
``faults`` describe the run shape (CLI flags); ``kernel_backend`` and
``pool`` capture the ambient engine configuration at emit time.

``pool`` is ``persistent``, or ``per-call``: the historic name of the
``REPRO_PERSISTENT_POOL=0`` regime, which runs no process pool at all
(every engine call and shard scatter stays in-process; no per-call pool
exists anywhere).  The name is kept because the ``BENCH_*.json``
trajectories and the frozen ``perfbench/run.py`` emit it.
"""

from __future__ import annotations

from typing import Dict, Optional

#: The tags every emitted row must include.
REQUIRED_TAGS = ("kernel_backend", "pool", "mode", "faults")


def ambient_tags(mode: str, faults: Optional[str] = None) -> Dict[str, str]:
    """The full tag set for one benchmark row.

    *mode* is ``smoke``/``full`` (or a benchmark-specific mode string);
    *faults* is the armed ``REPRO_FAULTS`` spec -- defaulting to
    whatever is actually armed in the environment, empty when unarmed.
    """
    from repro.batch import jit, persistent_pool_enabled
    from repro.tools import knobs

    if faults is None:
        faults = knobs.get_str("REPRO_FAULTS") or ""
    return {
        "kernel_backend": jit.backend_name(),
        "pool": "persistent" if persistent_pool_enabled() else "per-call",
        "mode": mode,
        "faults": faults,
    }
