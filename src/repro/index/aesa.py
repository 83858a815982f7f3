"""AESA: Approximating and Eliminating Search Algorithm [Vidal 1986].

The ancestor of LAESA: stores the *full* pairwise distance matrix, so
every already-compared item tightens the lower bound of every candidate.
Search costs an essentially constant number of distance computations, but
preprocessing is quadratic in both time and memory -- the trade-off LAESA
was invented to fix (Rico-Juan & Micó 2003 compare the two on string
distances, which is the ablation ``benchmarks/bench_index_structures.py``
reproduces).
"""

from __future__ import annotations

import heapq
import time
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
)

import numpy as np

from ..tools import knobs
from .base import (
    NearestNeighborIndex,
    RequestGenerator,
    SearchResult,
    SearchStats,
    _tighten_bounds,
    _validate_k,
    _validate_radius,
    canonical_key,
)

if TYPE_CHECKING:
    from ..batch.corpus import PairStore

__all__ = ["AesaIndex"]


class AesaIndex(NearestNeighborIndex):
    """AESA with the full ``n x n`` matrix computed at build time."""

    #: Largest database for which :meth:`bulk_knn` front-loads the full
    #: ``queries x items`` sweep.  AESA visits a near-constant handful of
    #: items per query, so the sweep's ``n`` engine evaluations per query
    #: only undercut the scalar loop while ``n`` is small -- the regime
    #: AESA's quadratic preprocessing confines it to anyway.  Beyond this
    #: bulk_knn skips the sweep and batches only the lockstep candidate
    #: rounds (identical results and counts either way).  Overridable per
    #: instance via the ``bulk_sweep_max_items`` keyword or, fleet-wide,
    #: the ``REPRO_AESA_BULK_MAX_ITEMS`` environment variable.
    _BULK_SWEEP_MAX_ITEMS = 512

    def __init__(
        self,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        bulk_sweep_max_items: Optional[int] = None,
    ) -> None:
        super().__init__(items, distance)
        self._apply_bulk_gate(bulk_sweep_max_items)
        n = len(self.items)
        # Upper triangle through the pair-batched engine, then mirrored --
        # the same C(n, 2) computations the scalar loop performed.  The
        # triangle is an id grid against the interned corpus: no pair
        # list is materialised and the (auto-sharded) fan-out ships only
        # id arrays against the shared-memory corpus.
        iu, ju = np.triu_indices(n, k=1)
        flat = self._counter.many_ids(self._corpus.store(), iu, ju)
        matrix = np.zeros((n, n), dtype=float)
        pos = 0
        for i in range(n):
            row = flat[pos : pos + n - i - 1]
            matrix[i, i + 1 :] = row
            matrix[i + 1 :, i] = row
            pos += n - i - 1
        self.matrix = matrix
        self.preprocessing_computations = self._counter.take()

    def _apply_bulk_gate(self, bulk_sweep_max_items: Optional[int]) -> None:
        if bulk_sweep_max_items is None:
            bulk_sweep_max_items = knobs.get_int("REPRO_AESA_BULK_MAX_ITEMS")
        if bulk_sweep_max_items is not None:
            # instance attribute shadows the class default; when neither
            # keyword nor env var is given, the class attribute stays the
            # single source of truth (and remains monkeypatchable)
            self._BULK_SWEEP_MAX_ITEMS = int(bulk_sweep_max_items)

    @classmethod
    def _artifact_key_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        params = dict(params)
        # the bulk-sweep gate is a runtime batching heuristic: it changes
        # neither the matrix nor any result, so it stays out of the key
        # and is re-applied to the loaded instance instead
        params.pop("bulk_sweep_max_items", None)
        if params:
            raise TypeError(
                f"AesaIndex.load got unexpected parameters {sorted(params)}"
            )
        return {}

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        return {"matrix": np.asarray(self.matrix, dtype=float)}

    def _restore_artifact(
        self,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> None:
        matrix = arrays["matrix"]
        n = len(self.items)
        if matrix.shape != (n, n):
            raise ValueError(
                f"AESA matrix shape {matrix.shape} does not fit {n} items"
            )
        self.matrix = matrix
        gate = params.get("bulk_sweep_max_items")
        self._apply_bulk_gate(None if gate is None else int(gate))

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Range search with the full-matrix bounds as a request
        generator: repeatedly compare the undecided item with the
        smallest lower bound, tighten everyone's bounds with the new
        distance, and discard items whose bound exceeds *radius*.  Every
        comparison doubles as a pivot, so each request needs the exact
        distance (``limit=None``) and is cacheable at ``cache_pos=item``
        when a bulk driver precomputed the ``queries x items`` sweep.
        """
        items = self.items
        n = len(items)
        bounds = np.zeros(n, dtype=float)
        undecided = np.ones(n, dtype=bool)
        hits: List[SearchResult] = []
        while True:
            candidates = np.nonzero(undecided)[0]
            if len(candidates) == 0:
                break
            # select among the undecided only: an all-inf bounds vector
            # (infinite distances) would otherwise re-pick a decided index
            current = int(candidates[np.argmin(bounds[candidates])])
            undecided[current] = False
            d = yield (current, None, current)
            if d <= radius:
                hits.append(
                    SearchResult(item=items[current], index=current, distance=d)
                )
            _tighten_bounds(bounds, self.matrix[current], d)
            undecided &= bounds <= radius
        hits.sort(key=canonical_key)
        return hits

    def bulk_range_search(
        self, queries: Sequence[Any], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Batched range search over the same lockstep machinery as
        :meth:`bulk_knn`, with the same ``_BULK_SWEEP_MAX_ITEMS`` gate on
        the front-loaded ``queries x items`` sweep.  Hits and per-query
        counts are identical to looping :meth:`range_search`.
        """
        _validate_radius(radius)
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():  # grid sweep + lockstep drive
            generators = [self._range_requests(radius) for _ in queries]
            store = self._corpus.store(queries)
            if not self._sweep_worthwhile():
                return self._lockstep_drive(queries, generators, store)
            started = time.perf_counter()
            cache = self._grid_sweep(store)
            sweep_seconds = time.perf_counter() - started
            return self._lockstep_drive(
                queries,
                generators,
                store,
                pivot_cache=cache,
                extra_elapsed=sweep_seconds,
            )

    def _sweep_worthwhile(self) -> bool:
        """Whether front-loading the full ``queries x items`` sweep can
        undercut the lockstep loop: the database must be small
        (``_BULK_SWEEP_MAX_ITEMS``) *and* the distance must run through
        the engine's batch kernels -- a scalar-fallback distance (exact
        ``d_C`` / ``d_MV`` on the numpy backend, arbitrary callables)
        costs the same per sweep entry as per scalar call, so computing
        the whole grid can never beat AESA's near-constant visited set.
        Results and counts are identical either way; only the cache is
        at stake."""
        from ..batch.engine import has_batched_kernel

        if len(self.items) > self._BULK_SWEEP_MAX_ITEMS:
            return False
        return has_batched_kernel(self._counter._distance)

    def _grid_sweep(self, store: "PairStore") -> np.ndarray:
        """The full ``queries x items`` matrix in one engine sweep: an id
        grid of *store*'s queries against the corpus (entries are
        charged only as the elimination loops read them)."""
        q_ids, n = store.extra_ids(), len(self.items)
        flat = self._counter.precompute_ids(
            store,
            np.repeat(q_ids, n),
            np.tile(np.arange(n, dtype=np.int64), len(q_ids)),
        )
        return flat.reshape(len(q_ids), n)

    def _search(
        self,
        query: Any,
        k: int,
        pivot_cache: Optional[np.ndarray] = None,
    ) -> List[SearchResult]:
        return self._drive_search(query, k, pivot_cache)

    def _search_requests(self, k: int) -> RequestGenerator:
        """AESA's elimination loop as a request generator.

        Every comparison in AESA doubles as a pivot (its matrix row
        tightens all bounds), so each request needs the exact distance
        (``limit=None``) and is cacheable at ``cache_pos=item`` when a
        bulk driver precomputed the ``queries x items`` sweep.  See
        :meth:`~repro.index.base.NearestNeighborIndex._search_requests`
        for the protocol.
        """
        items = self.items
        n = len(items)
        alive = np.ones(n, dtype=bool)
        bounds = np.zeros(n, dtype=float)
        # min-heap of (-distance, -index): root = canonical worst of the
        # k best so far under the library-wide (distance, index) order
        best: List[Tuple[float, int]] = []

        def kth_best() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        current = 0
        while True:
            alive[current] = False
            d = yield (current, None, current)
            entry = (-d, -current)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            # every compared item is a pivot in AESA
            _tighten_bounds(bounds, self.matrix[current], d)
            radius = kth_best()
            if radius < float("inf"):
                alive &= bounds <= radius
            candidates = np.nonzero(alive)[0]
            if len(candidates) == 0:
                break
            current = int(candidates[np.argmin(bounds[candidates])])
        ordered = sorted((-nd, -nidx) for nd, nidx in best)
        return [
            SearchResult(item=items[idx], index=idx, distance=d)
            for d, idx in ordered
        ]

    def bulk_knn(
        self, queries: Sequence[Any], k: int
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Batched query phase over the same lockstep machinery as LAESA.

        Every item AESA compares against acts as a pivot, so the batch
        sweep precomputes the full ``queries x items`` matrix and each
        query's lockstep elimination loop reads (and charges) only the
        handful of entries it actually visits -- results and per-query
        counts are identical to looping :meth:`knn`.  The sweep is worth
        it only while the engine's per-distance cost times ``len(items)``
        undercuts the scalar cost of AESA's near-constant visited set, so
        databases above ``_BULK_SWEEP_MAX_ITEMS`` skip it; the lockstep
        loop still batches each round's comparisons -- one per active
        query -- into a single engine call.
        """
        _validate_k(k, len(self.items))
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():  # grid sweep + lockstep drive
            store = self._corpus.store(queries)
            if not self._sweep_worthwhile():
                return self._bulk_knn_lockstep(queries, k, store)
            started = time.perf_counter()
            cache = self._grid_sweep(store)
            sweep_seconds = time.perf_counter() - started
            return self._bulk_knn_lockstep(
                queries, k, store, pivot_cache=cache, extra_elapsed=sweep_seconds
            )
