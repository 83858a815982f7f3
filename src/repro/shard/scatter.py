"""Parallel scatter of per-shard searches onto the engine worker pool.

The master publishes each shard exactly once per publication generation,
as one persistent :class:`~repro.batch.runtime.ArraysToken` bundle: the
shard index's snapshot
(:meth:`~repro.index.base.NearestNeighborIndex._snapshot`, the same
arrays the artifact store saves -- the corpus block plus pivot tables,
AESA matrices or tree arrays) plus a pickled blob holding the items,
the distance's registry name, the snapshot meta and the build's
computation count.  A pool worker receiving a shard task attaches the
bundle (cached until the master releases the shard, dropped and
re-attached when the publication generation advances), restores the
shard index from it exactly as the store loads one
(:meth:`~repro.index.base.NearestNeighborIndex._from_snapshot`, zero
distance evaluations), and runs the ordinary ``bulk_knn`` /
``bulk_range_search`` lockstep drivers in-process -- the engine's
``workers="auto"`` resolution is daemon-gated, so everything inside the
worker runs on the serial rung and returns values bit-identical to the
master running the same shard (the degradation-ladder contract).

Only per-query ``(local index, distance)`` hit lists and demanded
computation counts cross back; the master rebases local indices onto
the shard's global id map and k-merges (:mod:`repro.shard.merge`).

The ``shard_worker_fail`` fault site raises inside the worker task
(daemon-gated, like ``worker_crash``), which the sharded index answers
down the runtime's one degradation ladder
(:meth:`~repro.batch.runtime.EngineRuntime.fan_out`): a fresh-pool
retry, then that shard re-run serially in the master -- recorded under
the ``shard_fallbacks`` degradation counter, results unchanged.
``REPRO_PERSISTENT_POOL=0`` keeps every shard in the master.
"""

from __future__ import annotations

import pickle
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ..batch import runtime
from ..batch.runtime import ArraysToken
from ..index.base import NearestNeighborIndex

__all__ = [
    "publish_shard",
    "run_shard_local",
    "shard_task",
]

#: One query's answer in transit: canonically sorted ``(local index,
#: distance)`` hits plus the demanded distance-computation count.
QueryHits = Tuple[List[Tuple[int, float]], int]

#: One shard task's answer: a :data:`QueryHits` per query.
TaskResult = List[QueryHits]

#: Structure classes a worker may reconstruct, by class name.  An
#: explicit allow-list: the blob names one of these, never an arbitrary
#: pickled class.
_STRUCTURES: Dict[str, Type[NearestNeighborIndex[Any]]] = {}


def _structure_class(name: str) -> Type[NearestNeighborIndex[Any]]:
    if not _STRUCTURES:
        from ..index import (
            AesaIndex,
            BKTreeIndex,
            ExhaustiveIndex,
            LaesaIndex,
            VPTreeIndex,
        )

        for cls in (
            ExhaustiveIndex,
            LaesaIndex,
            AesaIndex,
            BKTreeIndex,
            VPTreeIndex,
        ):
            _STRUCTURES[cls.__name__] = cls
    return _STRUCTURES[name]


def publish_shard(
    index: NearestNeighborIndex[Any], key: str, distance_name: str
) -> Optional[ArraysToken]:
    """Publish one built shard for worker-side reconstruction: its
    snapshot arrays plus the pickled ``blob``, as one persistent bundle
    under the caller's *key*, so workers cache the rebuilt index until
    the master releases the shard, with generation verification.

    Returns ``None`` when the shard's corpus has no encoding or any
    segment publication fails -- the caller then scatters serially.
    """
    if not index._corpus.encoded:
        return None
    arrays, meta = index._snapshot()
    blob = pickle.dumps(
        {
            "cls": type(index).__name__,
            "distance": distance_name,
            "items": index.items,
            "meta": meta,
            "preprocessing": index.preprocessing_computations,
        }
    )
    arrays["blob"] = np.frombuffer(blob, dtype=np.uint8)
    return runtime.get_runtime().publish_arrays(arrays, persistent=True, key=key)


def _distance_from_name(name: str) -> Callable[[Any, Any], float]:
    """The exact function object the master resolved *name* from, so the
    worker's shard searches evaluate the very same scalar code."""
    from ..batch.engine import _LEV_INT
    from ..core import registry
    from ..core.levenshtein import levenshtein_distance

    if name == _LEV_INT:
        return levenshtein_distance
    fn: Callable[[Any, Any], float] = registry.get_distance(name)
    return fn


#: Worker cache of reconstructed shard indexes, dropped with the
#: attachments they view once the master releases the shard:
#: bundle key -> (publication generation, index).
_WORKER_SHARDS: Dict[str, Tuple[int, NearestNeighborIndex[Any]]] = {}
runtime.register_view_cache(_WORKER_SHARDS)


def _attached_shard(
    token: ArraysToken, live: FrozenSet[str]
) -> NearestNeighborIndex[Any]:
    """The shard index behind *token*, rebuilt on first sight and cached
    until the master releases the shard (*live* lists the keys it still
    publishes; rebuilt again when the publication generation advances
    -- the old segments are gone)."""
    runtime.drop_released(live)
    cached = _WORKER_SHARDS.get(token.key)
    if cached is not None and cached[0] == token.generation:
        return cached[1]
    _WORKER_SHARDS.pop(token.key, None)
    arrays, _ = runtime.attach_arrays(token)
    spec = pickle.loads(arrays["blob"].tobytes())
    index = _structure_class(spec["cls"])._from_snapshot(
        spec["items"],
        _distance_from_name(spec["distance"]),
        {name: array for name, array in arrays.items() if name != "blob"},
        spec["meta"],
        spec["preprocessing"],
    )
    _WORKER_SHARDS[token.key] = (token.generation, index)
    return index


def run_shard_local(
    index: NearestNeighborIndex[Any],
    queries: Sequence[Any],
    mode: str,
    arg: float,
) -> TaskResult:
    """Run one shard's bulk search and flatten to :data:`TaskResult`.

    Shared by the worker task and the master's serial fallback, so both
    paths produce byte-equal payloads by construction.  ``knn`` clamps
    ``k`` to the shard size (a shard cannot yield more hits than items;
    the global top-k only needs each shard's best ``k``).
    """
    if mode == "knn":
        per_query = index.bulk_knn(queries, min(int(arg), len(index.items)))
    else:
        per_query = index.bulk_range_search(queries, arg)
    return [
        (
            [(result.index, result.distance) for result in results],
            stats.distance_computations,
        )
        for results, stats in per_query
    ]


def shard_task(
    args: Tuple[ArraysToken, FrozenSet[str], str, float, List[Any]],
) -> TaskResult:
    """Pool-worker task: reconstruct (or reuse) the shard behind the
    token and answer the whole query batch on it, serially in-process
    (the engine's daemon gate guarantees no nested pools)."""
    from ..batch import faults

    faults.worker_task()
    token, live, mode, arg, queries = args
    import multiprocessing

    if multiprocessing.current_process().daemon and faults.fires(
        "shard_worker_fail"
    ):
        raise faults.FaultInjected("shard_worker_fail")
    index = _attached_shard(token, live)
    return run_shard_local(index, queries, mode, arg)
