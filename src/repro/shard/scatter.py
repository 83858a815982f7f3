"""Parallel scatter of per-shard searches onto the engine worker pool.

The master publishes each shard exactly once per publication generation:
the shard's interned twin matrices go through the existing
generation-verified shared-memory path
(:meth:`~repro.batch.runtime.EngineRuntime.publish_store`), and the
shard's *structure* -- pivot tables, AESA matrices, tree arrays, plus a
pickled blob holding the items, the distance's registry name and the
restore metadata -- rides a persistent
:class:`~repro.batch.runtime.ArraysToken` bundle.  A pool worker
receiving a shard task attaches both (cached for its lifetime, dropped
and re-attached when the publication generation advances), reconstructs
the shard index through the artifact-skeleton hooks (zero distance
evaluations), and runs the ordinary ``bulk_knn`` /
``bulk_range_search`` lockstep drivers in-process -- the engine's
``workers="auto"`` resolution is daemon-gated, so everything inside the
worker runs on the serial rung and returns values bit-identical to the
master running the same shard (the degradation-ladder contract).

Only per-query ``(local index, distance)`` hit lists and demanded
computation counts cross back; the master rebases local indices onto
the shard's global id map and k-merges (:mod:`repro.shard.merge`).

The ``shard_worker_fail`` fault site raises inside the worker task
(daemon-gated, like ``worker_crash``), which the sharded index answers
by re-running that shard serially in the master -- recorded under the
``shard_fallbacks`` degradation counter, results unchanged.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ..batch import runtime
from ..batch.runtime import ArraysToken, StoreToken
from ..index.base import NearestNeighborIndex
from ..tools import knobs

__all__ = [
    "ShardPublication",
    "parallel_enabled",
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


def parallel_enabled() -> bool:
    """Whether sharded scatters fan out over the persistent worker pool;
    ``REPRO_SHARD_PARALLEL=0`` runs every shard serially in the master
    (read per call; results are bit-identical either way)."""
    return knobs.get_flag("REPRO_SHARD_PARALLEL")


@dataclass(frozen=True)
class ShardPublication:
    """One shard's shared-memory presence: the interned corpus block
    (:class:`StoreToken`) plus the structure bundle
    (:class:`ArraysToken`, blob + structure arrays)."""

    blob: ArraysToken
    store: StoreToken


def _restore_params(index: NearestNeighborIndex[Any]) -> Dict[str, Any]:
    """Runtime-only restore parameters the worker-side skeleton needs
    (mirrors what :meth:`_restore_artifact` reads from ``load``
    keywords).  Only AESA carries one: its bulk-sweep gate, which
    changes batching but never results."""
    from ..index import AesaIndex

    if isinstance(index, AesaIndex):
        return {"bulk_sweep_max_items": int(index._BULK_SWEEP_MAX_ITEMS)}
    return {}


def publish_shard(
    index: NearestNeighborIndex[Any], key: str, distance_name: str
) -> Optional[ShardPublication]:
    """Publish one built shard for worker-side reconstruction.

    Returns ``None`` when the shard's corpus has no encoding or any
    segment publication fails -- the caller then scatters serially.
    The corpus block is cached per corpus (and finalizer-released) by
    :meth:`publish_store`; the structure bundle is persistent under the
    caller's *key* so workers cache the rebuilt index for their
    lifetime, with generation verification.
    """
    rt = runtime.get_runtime()
    store_token = rt.publish_store(index._corpus.store())
    if store_token is None:
        return None
    arrays: Dict[str, np.ndarray] = {
        f"arr:{name}": arr for name, arr in index._artifact_arrays().items()
    }
    blob = pickle.dumps(
        {
            "cls": type(index).__name__,
            "distance": distance_name,
            "items": index.items,
            "meta": index._artifact_meta(),
            "params": _restore_params(index),
            "preprocessing": index.preprocessing_computations,
        }
    )
    arrays["blob"] = np.frombuffer(blob, dtype=np.uint8)
    token = rt.publish_arrays(arrays, persistent=True, key=key)
    if token is None:
        return None
    return ShardPublication(token, store_token)


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


#: Worker-lifetime cache of reconstructed shard indexes:
#: bundle key -> (publication generation, index).
_WORKER_SHARDS: Dict[str, Tuple[int, NearestNeighborIndex[Any]]] = {}


def _attached_shard(
    blob_token: ArraysToken, store_token: StoreToken
) -> NearestNeighborIndex[Any]:
    """The shard index behind *blob_token*, rebuilt on first sight and
    cached for this worker's lifetime (re-rebuilt when the publication
    generation advances -- the old segments are gone)."""
    cached = _WORKER_SHARDS.get(blob_token.key)
    if cached is not None and cached[0] == blob_token.generation:
        return cached[1]
    _WORKER_SHARDS.pop(blob_token.key, None)
    arrays, handles = runtime.attach_arrays(blob_token)
    try:
        spec = pickle.loads(arrays["blob"].tobytes())
    finally:
        runtime.release_attachment(handles)
    corpus_arrays, _ = runtime._attach_block(store_token.corpus)
    from ..batch.corpus import InternedCorpus

    corpus = InternedCorpus.from_arrays(spec["items"], *corpus_arrays)
    cls = _structure_class(spec["cls"])
    index = cls._artifact_skeleton(
        spec["items"], _distance_from_name(spec["distance"]), corpus
    )
    structure = {
        name[4:]: arr for name, arr in arrays.items() if name.startswith("arr:")
    }
    index._restore_artifact(structure, spec["meta"], spec["params"])
    index.preprocessing_computations = int(spec["preprocessing"])
    _WORKER_SHARDS[blob_token.key] = (blob_token.generation, index)
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
    args: Tuple[ArraysToken, StoreToken, str, float, List[Any]],
) -> TaskResult:
    """Pool-worker task: reconstruct (or reuse) the shard behind the
    tokens and answer the whole query batch on it, serially in-process
    (the engine's daemon gate guarantees no nested pools)."""
    from ..batch import faults

    faults.worker_task()
    blob_token, store_token, mode, arg, queries = args
    import multiprocessing

    if multiprocessing.current_process().daemon and faults.fires(
        "shard_worker_fail"
    ):
        raise faults.FaultInjected("shard_worker_fail")
    index = _attached_shard(blob_token, store_token)
    return run_shard_local(index, queries, mode, arg)
