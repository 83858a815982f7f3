"""``ShardedIndex``: a scatter-gather query tier over partitioned corpora.

AESA's quadratic pivot matrix confines it to small databases, and even
LAESA is bounded by one interned table in one shared-memory block.  This
module breaks that ceiling by partitioning the *corpus itself*: the item
list is split into S size-balanced shards (deterministic under a seed),
each shard builds its own independent index -- LAESA pivot tables by
default, AESA when the shard is small enough for the existing
``_BULK_SWEEP_MAX_ITEMS``-style gate -- and every query scatters across
the shards and k-merges (:mod:`repro.shard.merge`) under the canonical
``(distance, global index)`` tie-break.

The exactness argument is the same one that makes pruned search exact:
each shard's search is exact over its slice (for metric distances), the
slices cover the corpus disjointly, so the merged best-k over all
slices *is* the global best-k -- same neighbours, same distances, same
canonical order as the equivalent unsharded index.  With ``shards=1``
the partition is the identity layout and the sharded index is the
unsharded index, per-query ``distance_computations`` included; with
more shards the counts are the deterministic **sum of what every
shard's search demanded**, identical between the parallel and serial
scatter paths (and for the exhaustive structure, identical to the
unsharded count: every item is evaluated exactly once either way).

Bulk scatters fan out over the persistent engine pool
(:mod:`repro.shard.scatter`): each worker attaches its shard's interned
twin matrices and structure arrays from shared memory and runs the
ordinary lockstep drivers serially in-process.  A failed shard task
falls back to the master re-running that one shard
(``shard_fallbacks`` degradation counter, ``DegradedExecutionWarning``)
-- the answer never changes, only where it was computed.

Persistence composes per shard: :meth:`ShardedIndex.save` snapshots
every shard under its own artifact key (the shard's corpus fingerprint
captures the layout), and ``load`` / ``load_or_build`` restores all
shards, rebuilding -- loudly -- only the ones whose artifacts are
corrupt.  :class:`~repro.serve.IndexServer` accepts a ``ShardedIndex``
unchanged: it is a :class:`~repro.index.base.NearestNeighborIndex` with
the same bulk entry points and degradation accounting.
"""

from __future__ import annotations

import time
import uuid
import warnings
import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ..batch import runtime
from ..batch.corpus import InternedCorpus
from ..batch.runtime import DEGRADATION, DegradedExecutionWarning
from ..index.base import (
    CountingDistance,
    NearestNeighborIndex,
    SearchResult,
    SearchStats,
    _validate_k,
    _validate_radius,
)
from ..tools import knobs
from . import scatter
from .merge import k_merge
from .scatter import ShardPublication, TaskResult

if TYPE_CHECKING:
    from pathlib import Path

    from ..store.artifacts import ArtifactStore, StoreLike

__all__ = [
    "ShardedIndex",
    "partition_indices",
    "resolve_shard_count",
]

#: Structure names :class:`ShardedIndex` accepts for its per-shard
#: indexes (``"auto"`` picks AESA under the gate, LAESA above it).
STRUCTURES = ("auto", "exhaustive", "laesa", "aesa", "bktree", "vptree")

#: Default pivot count for per-shard LAESA tables (clamped to the shard
#: size); override via ``structure_params={"n_pivots": ...}``.
_DEFAULT_PIVOTS = 8


def resolve_shard_count(
    n_items: int,
    shards: Optional[int] = None,
    min_shard_items: Optional[int] = None,
) -> int:
    """The effective shard count for a corpus of *n_items*.

    An explicit *shards* wins (validated, clamped to the corpus size);
    otherwise ``REPRO_SHARD_COUNT`` applies, reduced until every shard
    holds at least *min_shard_items* (``REPRO_SHARD_MIN_ITEMS``) --
    tiny corpora collapse to one shard rather than paying scatter
    overhead for slivers.
    """
    if n_items < 1:
        raise ValueError("cannot shard an empty collection")
    explicit = shards is not None
    if shards is None:
        shards = knobs.get_int("REPRO_SHARD_COUNT", _DEFAULT_SHARDS, minimum=1)
        assert shards is not None
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    count = min(int(shards), n_items)
    if not explicit:
        if min_shard_items is None:
            min_shard_items = knobs.get_int(
                "REPRO_SHARD_MIN_ITEMS", _DEFAULT_MIN_ITEMS, minimum=1
            )
            assert min_shard_items is not None
        if min_shard_items > 0:
            count = min(count, max(1, n_items // min_shard_items))
    return count


_DEFAULT_SHARDS = 4
_DEFAULT_MIN_ITEMS = 32


def partition_indices(
    n_items: int, shards: int, seed: int = 0
) -> List[np.ndarray]:
    """Size-balanced deterministic partition of ``range(n_items)``.

    A seeded permutation is cut into *shards* contiguous slices (the
    first ``n_items % shards`` get one extra item) and each slice is
    sorted ascending, so within-shard order agrees with global order --
    the property that makes per-shard canonical result order compose
    into global canonical order under the k-merge.  With ``shards=1``
    the layout is the identity.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > n_items:
        raise ValueError(f"{shards} shards over {n_items} items")
    perm = np.random.default_rng(seed).permutation(n_items)
    base, extra = divmod(n_items, shards)
    layout: List[np.ndarray] = []
    pos = 0
    for si in range(shards):
        size = base + (1 if si < extra else 0)
        layout.append(np.sort(perm[pos : pos + size]).astype(np.int64))
        pos += size
    return layout


def _resolve_structure(
    structure: str, shard_size: int, params: Mapping[str, Any]
) -> Tuple[Type[NearestNeighborIndex[Any]], Dict[str, Any]]:
    """Map a structure name + shard size to ``(class, constructor
    kwargs)``.  ``"auto"`` follows the issue's rule: AESA while the
    shard fits the bulk-sweep gate (``REPRO_AESA_BULK_MAX_ITEMS``, the
    regime its quadratic build is affordable in), LAESA beyond it --
    and then only LAESA-applicable *params* are forwarded."""
    from ..index import (
        AesaIndex,
        BKTreeIndex,
        ExhaustiveIndex,
        LaesaIndex,
        VPTreeIndex,
    )

    if structure not in STRUCTURES:
        raise ValueError(
            f"unknown shard structure {structure!r} "
            f"(known: {', '.join(STRUCTURES)})"
        )
    kwargs = dict(params)
    if structure == "auto":
        gate = knobs.get_int("REPRO_AESA_BULK_MAX_ITEMS")
        if gate is None:
            gate = AesaIndex._BULK_SWEEP_MAX_ITEMS
        if shard_size <= gate:
            structure = "aesa"
            kwargs.pop("n_pivots", None)
            kwargs.pop("pivot_strategy", None)
        else:
            structure = "laesa"
    if structure == "laesa":
        kwargs.setdefault("n_pivots", min(_DEFAULT_PIVOTS, shard_size))
        return LaesaIndex, kwargs
    if structure == "aesa":
        return AesaIndex, kwargs
    if structure == "exhaustive":
        return ExhaustiveIndex, kwargs
    if structure == "bktree":
        return BKTreeIndex, kwargs
    return VPTreeIndex, kwargs


@dataclass(frozen=True)
class _Shard:
    """One corpus slice: its independent index plus the ascending map
    from shard-local positions back to global item indices."""

    index: NearestNeighborIndex[Any]
    global_ids: np.ndarray


class ShardedIndex(NearestNeighborIndex[Any]):
    """Scatter-gather index over S independently indexed corpus shards.

    Parameters
    ----------
    items, distance:
        The database and the (ideally metric) distance function --
        exactness of pruned per-shard searches requires the metric
        properties, exactly as for the unsharded structures.
    shards:
        Shard count; ``None`` resolves ``REPRO_SHARD_COUNT`` clamped by
        ``REPRO_SHARD_MIN_ITEMS`` (see :func:`resolve_shard_count`).
    seed:
        Partition seed (the layout is deterministic given ``(len(items),
        shards, seed)``).
    structure:
        Per-shard structure: one of :data:`STRUCTURES`.  The default
        ``"auto"`` builds AESA while the shard fits the bulk-sweep gate
        and LAESA beyond it.
    structure_params:
        Constructor keywords for the per-shard structure (e.g.
        ``{"n_pivots": 12}``).
    min_shard_items:
        Overrides ``REPRO_SHARD_MIN_ITEMS`` for the implicit count
        resolution (ignored when *shards* is explicit).
    """

    def __init__(
        self,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        *,
        shards: Optional[int] = None,
        seed: int = 0,
        structure: str = "auto",
        structure_params: Optional[Mapping[str, Any]] = None,
        min_shard_items: Optional[int] = None,
    ) -> None:
        super().__init__(items, distance)
        count = resolve_shard_count(len(self.items), shards, min_shard_items)
        layout = partition_indices(len(self.items), count, seed)
        self._configure(seed, structure, structure_params)
        shard_list: List[_Shard] = []
        for ids in layout:
            sub_items = [self.items[int(i)] for i in ids]
            sub_cls, sub_kwargs = _resolve_structure(
                structure, len(ids), self._structure_params
            )
            shard_list.append(_Shard(sub_cls(sub_items, distance, **sub_kwargs), ids))
        self._attach_shards(shard_list)

    # -- construction plumbing ----------------------------------------------

    def _init_index(
        self,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        corpus: Optional["InternedCorpus"],
    ) -> None:
        # Deliberately NOT the base body: the top level never dispatches
        # engine calls itself (every search runs inside a shard), so
        # encoding the full corpus here would duplicate every shard's
        # twin matrices in memory for nothing.
        if not items:
            raise ValueError("cannot index an empty collection")
        self.items = list(items)
        self._counter = CountingDistance(distance)
        self.preprocessing_computations = 0
        self._corpus = InternedCorpus.unencoded(self.items)
        self.last_degradation = {}

    def _configure(
        self,
        seed: int,
        structure: str,
        structure_params: Optional[Mapping[str, Any]],
    ) -> None:
        if structure not in STRUCTURES:
            raise ValueError(
                f"unknown shard structure {structure!r} "
                f"(known: {', '.join(STRUCTURES)})"
            )
        self._seed = int(seed)
        self._structure = structure
        self._structure_params: Dict[str, Any] = dict(structure_params or {})
        #: Stable identity for the per-shard structure publications --
        #: workers cache rebuilt shards under it, generation-verified.
        self._key = uuid.uuid4().hex[:12]
        self._publish_cache: Optional[Tuple[int, List[ShardPublication]]] = None

    def _attach_shards(self, shard_list: List[_Shard]) -> None:
        self._shards = shard_list
        self.preprocessing_computations = sum(
            shard.index.preprocessing_computations for shard in shard_list
        )

    @classmethod
    def _from_shards(
        cls,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        shard_indexes: Sequence[NearestNeighborIndex[Any]],
        layout: Sequence[np.ndarray],
        *,
        seed: int,
        structure: str,
        structure_params: Optional[Mapping[str, Any]] = None,
    ) -> "ShardedIndex":
        """Assemble a sharded index around already-built shard indexes
        (the warm-start path: each shard came from the artifact store
        with zero distance evaluations)."""
        index = cls.__new__(cls)
        index._init_index(items, distance, None)
        index._configure(seed, structure, structure_params)
        index._attach_shards(
            [
                _Shard(shard, np.asarray(ids, dtype=np.int64))
                for shard, ids in zip(shard_indexes, layout)
            ]
        )
        return index

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_sizes(self) -> List[int]:
        return [len(shard.index.items) for shard in self._shards]

    # -- scatter-gather -------------------------------------------------------

    def _globalise(self, shard: _Shard, hits: List[Tuple[int, float]]) -> List[SearchResult]:
        """Rebase one shard's ``(local index, distance)`` hits onto the
        global item space.  ``global_ids`` is ascending, so per-shard
        canonical order is preserved under the rebase."""
        items = self.items
        ids = shard.global_ids
        out = []
        for local, dist in hits:
            gid = int(ids[local])
            out.append(SearchResult(item=items[gid], index=gid, distance=dist))
        return out

    def _scatter(
        self, queries: List[Any], mode: str, arg: float
    ) -> List[TaskResult]:
        """Run every shard's bulk search over *queries*: in parallel on
        the persistent pool when possible, serially in the master for
        whatever could not run there.  Entry ``[si][qi]`` is shard
        *si*'s ``(local hits, demanded count)`` for query *qi* --
        bit-identical regardless of where the shard ran."""
        n_shards = len(self._shards)
        gathered: List[Optional[TaskResult]] = [None] * n_shards
        pending = list(range(n_shards))
        if n_shards > 1 and self._parallel_allowed():
            publications = self._publications()
            if publications is not None:
                rt = runtime.get_runtime()
                tasks = [
                    (
                        publications[si].blob,
                        publications[si].store,
                        mode,
                        arg,
                        queries,
                    )
                    for si in pending
                ]
                sizes = [
                    len(queries) * len(self._shards[si].index.items)
                    for si in pending
                ]
                out = rt.supervised_map(
                    scatter.shard_task, tasks, workers=n_shards, sizes=sizes
                )
                if out is not None:
                    results, _failed = out
                    for pos, si in enumerate(list(pending)):
                        if results[pos] is not None:
                            gathered[si] = results[pos]
                    pending = [si for si in pending if gathered[si] is None]
                    if pending:
                        DEGRADATION.record("shard_fallbacks", len(pending))
                        warnings.warn(
                            f"sharded scatter: {len(pending)}/{n_shards} "
                            "shard task(s) failed on the worker pool; "
                            "re-running them serially in the master "
                            "(results unchanged)",
                            DegradedExecutionWarning,
                            stacklevel=3,
                        )
        for si in pending:
            gathered[si] = scatter.run_shard_local(
                self._shards[si].index, queries, mode, arg
            )
        return [task for task in gathered if task is not None]

    def _parallel_allowed(self) -> bool:
        if not scatter.parallel_enabled():
            return False
        if not runtime.persistent_pool_enabled():
            return False
        import multiprocessing

        return not multiprocessing.current_process().daemon

    def _publications(self) -> Optional[List[ShardPublication]]:
        """The per-shard shared-memory publications for the current
        generation, publishing (and caching) on first use.  ``None``
        when the distance has no registry name, a shard's corpus has no
        encoding, or any segment publication failed -- the scatter then
        runs serially (quiet, like every no-pool fallback)."""
        generation = runtime.publish_generation()
        if self._publish_cache is not None and self._publish_cache[0] == generation:
            return self._publish_cache[1]
        self._publish_cache = None
        from ..batch.engine import _resolve

        name, _ = _resolve(self._counter._distance)
        if name is None:
            return None
        rt = runtime.get_runtime()
        publications: List[ShardPublication] = []
        for si, shard in enumerate(self._shards):
            publication = scatter.publish_shard(
                shard.index, f"shard-{self._key}-{si}", name
            )
            if publication is None:
                for done in publications:
                    rt.release_arrays(done.blob)
                return None
            # structure bundles live exactly as long as this index (the
            # corpus blocks already have their own per-corpus finalizer)
            weakref.finalize(self, rt.release_arrays, publication.blob)
            publications.append(publication)
        self._publish_cache = (generation, publications)
        return publications

    def _merge_order(self, n_shards: int) -> List[int]:
        """Shard order fed to the k-merge -- reversed under the
        ``shard_merge_skew`` chaos fault, which must not change any
        merged answer (unique ``(distance, global index)`` keys make the
        merge order-independent)."""
        from ..batch import faults

        order = list(range(n_shards))
        if faults.fires("shard_merge_skew"):
            order.reverse()
        return order

    def _gather(
        self,
        gathered: List[TaskResult],
        n_queries: int,
        k: Optional[int],
        elapsed: float,
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        order = self._merge_order(len(self._shards))
        share = elapsed / max(n_queries, 1)
        out: List[Tuple[List[SearchResult], SearchStats]] = []
        for qi in range(n_queries):
            lists = [
                self._globalise(self._shards[si], gathered[si][qi][0])
                for si in order
            ]
            count = sum(gathered[si][qi][1] for si in order)
            out.append(
                (
                    k_merge(lists, k),
                    SearchStats(
                        distance_computations=count, elapsed_seconds=share
                    ),
                )
            )
        return out

    # -- queries --------------------------------------------------------------

    def _search(self, query: Any, k: int) -> List[SearchResult]:
        lists: List[List[SearchResult]] = []
        total = 0
        for si in self._merge_order(len(self._shards)):
            shard = self._shards[si]
            results, stats = shard.index.knn(
                query, min(k, len(shard.index.items))
            )
            lists.append(
                [
                    SearchResult(
                        item=r.item,
                        index=int(shard.global_ids[r.index]),
                        distance=r.distance,
                    )
                    for r in results
                ]
            )
            total += stats.distance_computations
        self._counter.charge(total)
        return k_merge(lists, k)

    def _range_search(self, query: Any, radius: float) -> List[SearchResult]:
        lists: List[List[SearchResult]] = []
        total = 0
        for si in self._merge_order(len(self._shards)):
            shard = self._shards[si]
            results, stats = shard.index.range_search(query, radius)
            lists.append(
                [
                    SearchResult(
                        item=r.item,
                        index=int(shard.global_ids[r.index]),
                        distance=r.distance,
                    )
                    for r in results
                ]
            )
            total += stats.distance_computations
        self._counter.charge(total)
        return k_merge(lists)

    def bulk_knn(
        self, queries: Sequence[Any], k: int
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """k-NN for a whole query batch by parallel scatter-gather.

        Every shard runs its ordinary lockstep ``bulk_knn`` over the
        batch (on a pool worker when possible, in the master otherwise)
        and the per-query answers k-merge under the canonical order.
        Neighbours, distances and per-query ``distance_computations``
        (the sum of what every shard demanded) are bit-identical to the
        serial scatter -- and, with one shard, to the unsharded
        structure itself.
        """
        _validate_k(k, len(self.items))
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():
            started = time.perf_counter()
            gathered = self._scatter(queries, "knn", k)
            return self._gather(
                gathered, len(queries), k, time.perf_counter() - started
            )

    def bulk_range_search(
        self, queries: Sequence[Any], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Range search for a whole query batch by parallel
        scatter-gather; every hit within *radius* from every shard,
        k-merged (unbounded) into canonical order.  Same identity
        contract as :meth:`bulk_knn`."""
        _validate_radius(radius)
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():
            started = time.perf_counter()
            gathered = self._scatter(queries, "range", radius)
            return self._gather(
                gathered, len(queries), None, time.perf_counter() - started
            )

    # -- persistence (repro.store) --------------------------------------------

    def save(self, store: "StoreLike") -> "Path":
        """Snapshot every shard into the artifact *store* -- one
        immutable per-shard snapshot each (the shard's corpus
        fingerprint captures the layout), so partial corruption later
        costs one shard's rebuild, not the fleet's.  Returns the store
        root."""
        from ..store import ArtifactStore

        artifact_store = ArtifactStore.coerce(store)
        for shard in self._shards:
            artifact_store.save(shard.index)
        return artifact_store.root

    @classmethod
    def _parse_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Normalise ``load(**params)`` keywords (the ``__init__``
        keyword set); unknown names raise ``TypeError`` exactly like the
        flat structures' key normalisers."""
        out = {
            "shards": params.pop("shards", None),
            "seed": int(params.pop("seed", 0)),
            "structure": str(params.pop("structure", "auto")),
            "structure_params": dict(params.pop("structure_params", None) or {}),
            "min_shard_items": params.pop("min_shard_items", None),
        }
        if params:
            raise TypeError(
                f"ShardedIndex.load got unexpected parameters {sorted(params)}"
            )
        return out

    @classmethod
    def _load_or_build_override(
        cls,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        store: "ArtifactStore",
        params: Dict[str, Any],
        *,
        save_on_miss: bool = False,
    ) -> "ShardedIndex":
        """The sharded ``load_or_build``: resolve the deterministic
        layout, then load-or-build every shard *independently* under the
        store's usual miss-vs-corruption semantics -- a corrupt shard
        snapshot rebuilds only that shard (loudly, via the
        ``store_load_failures`` ladder), the rest load with zero
        distance evaluations.  Called by
        :func:`repro.store.load_or_build` (and therefore by
        ``ShardedIndex.load`` and ``IndexServer.warm_start``)."""
        from ..store import load_or_build

        spec = cls._parse_params(dict(params))
        count = resolve_shard_count(
            len(items), spec["shards"], spec["min_shard_items"]
        )
        layout = partition_indices(len(items), count, spec["seed"])
        shard_indexes: List[NearestNeighborIndex[Any]] = []
        degradation: Dict[str, int] = {}
        for ids in layout:
            sub_items = [items[int(i)] for i in ids]
            sub_cls, sub_kwargs = _resolve_structure(
                spec["structure"], len(ids), spec["structure_params"]
            )
            shard = load_or_build(
                sub_cls,
                sub_items,
                distance,
                store,
                sub_kwargs,
                save_on_miss=save_on_miss,
            )
            for event, n in shard.last_degradation.items():
                degradation[event] = degradation.get(event, 0) + n
            shard_indexes.append(shard)
        index = cls._from_shards(
            items,
            distance,
            shard_indexes,
            layout,
            seed=spec["seed"],
            structure=spec["structure"],
            structure_params=spec["structure_params"],
        )
        index.last_degradation = degradation
        return index
