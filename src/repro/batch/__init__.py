"""Pair-batched distance computation.

The scalar distance functions in :mod:`repro.core` compute one pair per
Python call; this subpackage computes *many* pairs per numpy dispatch by
stacking same-length-bucket pairs into one anti-diagonal sweep, and layers
deduplication, symmetry exploitation and optional process-pool fan-out on
top.  The index, classification, experiment and metric-checking layers all
route their bulk distance needs through here.

Entry points:

* :func:`pairwise_values` -- distances for an explicit pair list;
* :func:`pairwise_values_ids` / :func:`pairwise_values_bounded_ids` --
  the same over ``(id, id)`` pairs of an interned corpus
  (:func:`intern_corpus`): the one path through the engine, which the
  indexes call directly and every pair-list and matrix entry point
  reaches by interning its items into a throwaway corpus per call;
  the bounded twin returns early-exit distances with per-pair limits,
  bit-identical to ``CountingDistance.within`` (the batched candidate
  phase of the lockstep ``bulk_*`` drivers);
* :func:`pairwise_values_bounded` -- the bounded twin over an explicit
  pair list (interned into a throwaway corpus per call);
* :func:`pairwise_matrix` -- a full (or symmetric upper-triangle) matrix;
* :func:`pairwise_matrix_blocks` -- the matrix streamed as row-block
  shards (bounded memory for paper-scale gene sets);
* :func:`pairwise_matrix_memmap` -- the streamed matrix written into an
  on-disk ``.npy`` memmap;
* :func:`distances_from`  -- one item against many;
* :func:`levenshtein_batch` / :func:`contextual_heuristic_batch` -- the
  raw pair-batched kernels.

Every entry point defaults to ``workers="auto"``: unique-pair chunks fan
out over a process pool when the machine and the batch size justify it.
The fan-out is *supervised*: dead or wedged workers surface as failed
chunks (per-chunk deadlines) and walk one degradation ladder, shared
with the sharded scatter -- fresh-pool retry, then in-process serial --
that preserves bit-identical results (:data:`DEGRADATION` counts the
events, :class:`DegradedExecutionWarning` announces them, and
:mod:`repro.batch.faults` injects the failures on demand for the chaos
suite).
"""

from .corpus import InternedCorpus, PairStore, intern_corpus
from .engine import (
    distances_from,
    pairwise_matrix,
    pairwise_matrix_blocks,
    pairwise_matrix_memmap,
    pairwise_values,
    pairwise_values_bounded,
    pairwise_values_bounded_ids,
    pairwise_values_ids,
)
from .kernels import (
    contextual_heuristic_batch,
    contextual_heuristic_batch_bounded,
    encode_batch,
    levenshtein_batch,
    levenshtein_batch_bounded,
    mv_banded_probe_batch,
)
from .faults import FaultInjected
from .runtime import (
    DEGRADATION,
    DegradationStats,
    DegradedExecutionWarning,
    EngineRuntime,
    get_runtime,
    persistent_pool_enabled,
    reap_orphaned_segments,
)

__all__ = [
    "pairwise_values",
    "pairwise_values_ids",
    "pairwise_values_bounded",
    "pairwise_values_bounded_ids",
    "pairwise_matrix",
    "pairwise_matrix_blocks",
    "pairwise_matrix_memmap",
    "distances_from",
    "levenshtein_batch",
    "levenshtein_batch_bounded",
    "contextual_heuristic_batch",
    "contextual_heuristic_batch_bounded",
    "mv_banded_probe_batch",
    "encode_batch",
    "InternedCorpus",
    "PairStore",
    "intern_corpus",
    "EngineRuntime",
    "get_runtime",
    "persistent_pool_enabled",
    "DEGRADATION",
    "DegradationStats",
    "DegradedExecutionWarning",
    "FaultInjected",
    "reap_orphaned_segments",
]
