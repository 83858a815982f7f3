"""LAESA: Linear AESA [Micó, Oncina & Vidal 1994].

The fast nearest-neighbour algorithm used throughout the paper's
Section 4.3.  Preprocessing stores the distances between every item and a
small set of *base prototypes* (pivots) -- linear memory and linear
preprocessing time, unlike AESA's quadratic matrix.  At query time the
triangle inequality turns each computed distance ``d(q, p)`` into lower
bounds ``g(u) = max_p |d(q, p) - d(p, u)|``; items whose bound exceeds the
best distance found so far can be discarded *without computing their
distance*.

The search loop alternates two roles for the next string to compare
against:

* while unused pivots remain alive, the next comparison is the alive pivot
  with the smallest bound (pivots sharpen *all* bounds);
* afterwards, the candidate with the smallest lower bound (most promising
  neighbour) is compared directly.

Only pivot comparisons move a bound; bounds only grow and the k-th-best
radius only shrinks, so an item eliminated once stays eliminated.  The
candidate phase is therefore one sorted walk: a stable sort ranks the
items by (NaN bound first, bound, index) -- the order an ``argmin`` over
the live items would take them in -- and a cursor skips visited items
(and NaN bounds once the radius is finite) and stops at the first bound
above the radius.  Choosing the next candidate costs O(1) amortised
Python work instead of O(n) array passes per comparison; the sort runs
once per query, again only when the walk reaches a pivot whose bound was
infinite or NaN (the pivot rule never picks those) and its comparison
moves the bounds.

With 0 pivots LAESA degenerates into an exhaustive scan, which is exactly
the leftmost point of the paper's Figures 3 and 4.

Query batches go through :meth:`LaesaIndex.bulk_knn`: the entire
``queries x pivots`` distance matrix is computed in one pair-batched
engine sweep (auto-sharded over a process pool when large enough) before
the per-query elimination loops run -- identical results and identical
reported computation counts, a fraction of the wall-clock.

Correctness requires the distance to be a metric; the paper nevertheless
runs LAESA with the non-metric ``d_max`` and ``d_MV`` in Table 2 and
observes (as we do) that the error rate barely moves -- the library allows
it but records ``is_metric`` in the distance registry so users know the
guarantee is gone.
"""

from __future__ import annotations

import heapq
import random
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
from .pivots import select_pivots

if TYPE_CHECKING:
    from ..batch.corpus import PairStore

__all__ = ["LaesaIndex"]


class LaesaIndex(NearestNeighborIndex):
    """LAESA with configurable pivot count and selection strategy.

    Parameters
    ----------
    items, distance:
        The database and the (ideally metric) distance function.
    n_pivots:
        Number of base prototypes.  More pivots mean tighter bounds but a
        higher fixed cost per query (each alive pivot is compared first);
        Figures 3 and 4 sweep this parameter.
    pivot_strategy:
        ``"maxmin"`` (default, as in the original paper), ``"maxsum"`` or
        ``"random"``.
    rng:
        Source of randomness for pivot seeding (deterministic by default).
    """

    def __init__(
        self,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        n_pivots: int,
        pivot_strategy: str = "maxmin",
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(items, distance)
        before = self._counter.calls
        # the pivot rows dispatch as id grids against the interned corpus
        store = self._corpus.store()
        self.pivot_indices, self.pivot_rows = select_pivots(
            self.items, self._counter, n_pivots, pivot_strategy, rng, store
        )
        self.pivot_strategy = pivot_strategy
        self.preprocessing_computations = self._counter.calls - before
        self._pivot_position = {
            item_idx: row for row, item_idx in enumerate(self.pivot_indices)
        }

    @property
    def n_pivots(self) -> int:
        return len(self.pivot_indices)

    def _artifact_params(self) -> Dict[str, Any]:
        return {"n_pivots": self.n_pivots, "pivot_strategy": self.pivot_strategy}

    @classmethod
    def _artifact_key_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        params = dict(params)
        # the rng seeds *which* pivots a rebuild would select; any built
        # pivot set answers queries exactly, so it is not part of the key
        params.pop("rng", None)
        if "n_pivots" not in params:
            raise TypeError("LaesaIndex.load requires n_pivots")
        n_pivots = int(params.pop("n_pivots"))
        strategy = str(params.pop("pivot_strategy", "maxmin"))
        if params:
            raise TypeError(
                f"LaesaIndex.load got unexpected parameters {sorted(params)}"
            )
        return {"n_pivots": n_pivots, "pivot_strategy": strategy}

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "pivot_indices": np.asarray(self.pivot_indices, dtype=np.int64),
            "pivot_rows": np.asarray(self.pivot_rows, dtype=float),
        }

    def _artifact_meta(self) -> Dict[str, Any]:
        return {"pivot_strategy": self.pivot_strategy}

    def _restore_artifact(
        self,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> None:
        indices = np.asarray(arrays["pivot_indices"], dtype=np.int64)
        rows = arrays["pivot_rows"]
        if rows.ndim != 2 or rows.shape[0] != len(indices) or (
            len(indices) and rows.shape[1] != len(self.items)
        ):
            raise ValueError(
                f"pivot matrix shape {rows.shape} does not fit "
                f"{len(indices)} pivots over {len(self.items)} items"
            )
        self.pivot_indices = [int(i) for i in indices]
        self.pivot_rows = rows
        self.pivot_strategy = str(meta.get("pivot_strategy", "maxmin"))
        self._pivot_position = {
            item_idx: row for row, item_idx in enumerate(self.pivot_indices)
        }

    @classmethod
    def from_pivots(
        cls,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        pivot_indices: Sequence[int],
        pivot_rows: np.ndarray,
    ) -> "LaesaIndex":
        """Build a LAESA structure from an existing pivot matrix.

        Max-min pivot selection is *nested* (the first ``p`` pivots of a
        larger selection are exactly the selection of size ``p``), so a
        pivot-count sweep (Figures 3/4) can select once at the largest
        count and slice -- this constructor makes that reuse explicit and
        free of recomputation.
        """
        if len(pivot_indices) != len(pivot_rows):
            raise ValueError(
                f"{len(pivot_indices)} pivot indices but "
                f"{len(pivot_rows)} matrix rows"
            )
        rows = np.asarray(pivot_rows, dtype=float)
        if len(pivot_indices) == 0:
            rows = rows.reshape(0, len(items))
        elif rows.ndim != 2 or rows.shape[1] != len(items):
            # a wrong-width matrix would silently broadcast (or crash deep
            # inside _search) -- reject it at construction instead
            raise ValueError(
                f"pivot matrix has shape {rows.shape}; expected "
                f"({len(pivot_indices)}, {len(items)}) for "
                f"{len(items)} indexed items"
            )
        index = cls.__new__(cls)
        NearestNeighborIndex.__init__(index, items, distance)
        index.pivot_indices = list(pivot_indices)
        index.pivot_rows = rows
        index.pivot_strategy = "precomputed"
        index.preprocessing_computations = 0
        index._pivot_position = {
            item_idx: row for row, item_idx in enumerate(index.pivot_indices)
        }
        return index

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Pivot-filtered range search as a request generator.

        Computes the query-to-pivot distances once (``limit=None``,
        cacheable at the pivot's row, like :meth:`_search_requests`);
        every candidate whose lower bound ``max_p |d(q,p) - d(p,u)|``
        exceeds *radius* is discarded without computing its distance,
        and the survivors are requested at limit *radius* -- exact iff
        within the radius, which is the only case that can produce a
        hit.  Scalar and lockstep drivers account one computation per
        request, exactly like the pre-generator loop.
        """
        items = self.items
        bounds = np.zeros(len(items), dtype=float)
        pivot_distances = {}
        hits: List[SearchResult] = []
        for row, item_idx in enumerate(self.pivot_indices):
            d = yield (item_idx, None, row)
            pivot_distances[item_idx] = d
            _tighten_bounds(bounds, self.pivot_rows[row], d)
        # ~(bound > radius), not bound <= radius: a NaN bound proves
        # nothing, so that item is still requested
        for idx in np.flatnonzero(~(bounds > radius)).tolist():
            d = pivot_distances.get(idx)
            if d is None:
                d = yield (idx, radius, None)
            if d <= radius:
                hits.append(SearchResult(item=items[idx], index=idx, distance=d))
        hits.sort(key=canonical_key)
        return hits

    def bulk_range_search(
        self, queries: Sequence[Any], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Range search for a whole query batch with batched pivot *and*
        candidate phases, exactly like :meth:`bulk_knn`: one engine sweep
        for the ``queries x pivots`` matrix, then lockstep pruning loops
        whose per-round candidate evaluations group into single banded
        engine calls.  Hits and per-query ``distance_computations`` are
        identical to looping :meth:`range_search`.
        """
        _validate_radius(radius)
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():  # pivot sweep + lockstep drive
            store = self._corpus.store(queries)
            cache = None
            sweep_seconds = 0.0
            if self.pivot_indices:
                started = time.perf_counter()
                cache = self._pivot_sweep(store)
                sweep_seconds = time.perf_counter() - started
            return self._lockstep_drive(
                queries,
                [self._range_requests(radius) for _ in queries],
                store,
                pivot_cache=cache,
                extra_elapsed=sweep_seconds,
            )

    def _pivot_sweep(self, store: "PairStore") -> np.ndarray:
        """The ``queries x pivots`` distance matrix in one engine sweep:
        an id grid of *store*'s queries against the pivots (which *are*
        corpus ids).  The bulk drivers charge each entry as its
        elimination loop demands it."""
        q_ids = store.extra_ids()
        p_ids = np.asarray(self.pivot_indices, dtype=np.int64)
        flat = self._counter.precompute_ids(
            store, np.repeat(q_ids, len(p_ids)), np.tile(p_ids, len(q_ids))
        )
        return flat.reshape(len(q_ids), len(p_ids))

    def _search(
        self,
        query: Any,
        k: int,
        pivot_cache: Optional[np.ndarray] = None,
    ) -> List[SearchResult]:
        return self._drive_search(query, k, pivot_cache)

    def _search_requests(self, k: int) -> RequestGenerator:
        """LAESA's elimination loop as a request generator.

        Pivot comparisons are yielded with ``limit=None`` (their exact
        values tighten every candidate's bound) and ``cache_pos`` set to
        the pivot's row, so bulk drivers can serve them from the
        precomputed ``queries x pivots`` sweep; candidate comparisons
        carry the current k-th-best radius, so drivers may answer them
        with the early-exit twin (scalar) or the batched bounded kernels
        (lockstep).  See
        :meth:`~repro.index.base.NearestNeighborIndex._search_requests`
        for the protocol.
        """
        items = self.items
        n = len(items)
        inf = float("inf")
        visited = bytearray(n)
        bounds = np.zeros(n, dtype=float)
        pending = list(self.pivot_indices)  # live, not-yet-compared pivots
        # Every item in candidate order, with its bound: built on first
        # use after each pivot comparison (the only step that moves a
        # bound) and walked by `cursor`.
        order: List[int] = []
        order_bounds: List[float] = []
        cursor = 0
        stale = True
        # min-heap of (-distance, -index): the root is the canonical worst
        # of the k best found so far under (distance, index) order
        best: List[Tuple[float, int]] = []

        def kth_best() -> float:
            return -best[0][0] if len(best) == k else inf

        def record(idx: int, d: float) -> None:
            entry = (-d, -idx)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                # canonical (distance, index) order: the newcomer replaces
                # the worst on a smaller distance, or on an equal distance
                # and a smaller index -- every index structure breaks ties
                # the same way, so tied k-NN sets agree across structures
                heapq.heapreplace(best, entry)

        # First comparison: the first pivot if any, else item 0.
        current = pending[0] if pending else 0
        while True:
            visited[current] = 1
            row_pos = self._pivot_position.get(current)
            if row_pos is None:
                # Non-pivot candidates only need their distance when it can
                # enter the k-best heap: the early-exit twin abandons the
                # banded DP as soon as the current best radius is exceeded.
                d = yield (current, kth_best(), None)
            else:
                # Pivot distances tighten every bound via |d(q,p) - d(p,u)|
                # and must therefore be exact (limit None); bulk drivers
                # serve them from the precomputed sweep at cache_pos.
                d = yield (current, None, row_pos)
                _tighten_bounds(bounds, self.pivot_rows[row_pos], d)
                stale = True
            record(current, d)
            # An unvisited item is live while no bound-versus-radius test
            # has eliminated it: the radius is still infinite, or its
            # bound is at most the radius.  Bounds only grow and the
            # radius only shrinks, so an eliminated item stays eliminated
            # and a NaN bound is live only while the radius is infinite.
            radius = kth_best()
            # Next comparison: the live pending pivot with the smallest
            # finite bound (first in pivot order on ties).  Eliminated and
            # visited pivots leave `pending` for good, so the scan shrinks
            # as elimination progresses.
            next_pivot = None
            if pending:
                pending = [
                    p
                    for p in pending
                    if not visited[p] and (radius == inf or bounds[p] <= radius)
                ]
                best_bound = inf
                for p in pending:
                    if bounds[p] < best_bound:
                        best_bound = bounds[p]
                        next_pivot = p
            if next_pivot is not None:
                current = next_pivot
                continue
            # Otherwise the next live item in (NaN first, bound, index)
            # order, the order argmin over the live items took.  It is
            # rebuilt after every pivot comparison, not once: the walk
            # can reach a pivot whose infinite or NaN bound the rule
            # above never picks.
            if stale:
                # bounds are absolute differences, so -1 ranks NaN first
                ranked = np.argsort(
                    np.where(np.isnan(bounds), -1.0, bounds), kind="stable"
                )
                order = ranked.tolist()
                order_bounds = bounds[ranked].tolist()
                cursor = 0
                stale = False
            current = -1
            while cursor < n:
                bound = order_bounds[cursor]
                if bound > radius:
                    break  # every later bound is at least as large
                idx = order[cursor]
                cursor += 1
                # (bound != bound only for NaN)
                if not visited[idx] and (bound == bound or radius == inf):
                    current = idx
                    break
            if current < 0:
                break
        ordered = sorted((-nd, -nidx) for nd, nidx in best)
        return [
            SearchResult(item=items[idx], index=idx, distance=d)
            for d, idx in ordered
        ]

    def bulk_knn(
        self, queries: Sequence[Any], k: int
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """k-NN for a whole query batch with batched pivot *and* candidate
        phases.

        One engine sweep computes the full ``queries x pivots`` distance
        matrix up front; the per-query elimination loops then run in
        lockstep
        (:meth:`~repro.index.base.NearestNeighborIndex._bulk_knn_lockstep`),
        reading pivot distances from the cache and grouping each round's
        candidate evaluations -- one bounded comparison per still-active
        query -- into a single batched-kernel call.  Results, neighbour
        order and per-query ``distance_computations`` are identical to
        looping :meth:`knn` (asserted by the tests); only the wall-clock
        drops.  With 0 pivots the lockstep loop degenerates into a
        batched linear scan (no pivot sweep to run).
        """
        _validate_k(k, len(self.items))
        queries = list(queries)
        if not queries:
            return []
        with self._track_degradation():  # pivot sweep + lockstep drive
            store = self._corpus.store(queries)
            cache = None
            sweep_seconds = 0.0
            if self.pivot_indices:
                started = time.perf_counter()
                cache = self._pivot_sweep(store)
                sweep_seconds = time.perf_counter() - started
            return self._bulk_knn_lockstep(
                queries, k, store, pivot_cache=cache, extra_elapsed=sweep_seconds
            )
