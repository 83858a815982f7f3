"""Exhaustive (linear-scan) nearest-neighbour search.

The baseline of Table 2's right column: computes the distance from the
query to every indexed item.  Needs no metric properties, so it is the
ground truth every triangle-inequality-based index is validated against.

The scan is fed through the pair-batched engine
(:meth:`~repro.index.base.CountingDistance.many`), so the ``n`` distance
computations of one query run as a handful of stacked anti-diagonal
sweeps instead of ``n`` interpreted DP loops -- same results, same
reported computation count, a fraction of the wall-clock.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence, Tuple

import numpy as np

from .base import (
    NearestNeighborIndex,
    SearchResult,
    SearchStats,
    _validate_k,
    _validate_radius,
    canonical_key,
)

__all__ = ["ExhaustiveIndex"]


class ExhaustiveIndex(NearestNeighborIndex):
    """Linear scan over all items; ``n`` distance computations per query."""

    def _search(self, query: Any, k: int) -> List[SearchResult]:
        distances = self._counter.many([(query, item) for item in self.items])
        return self._row_results(distances, k)

    def _grid_many(self, queries: Sequence[Any]) -> np.ndarray:
        """The counted ``q x n`` scan grid: an id grid against the
        interned corpus (no pair list, no re-encoding)."""
        n = len(self.items)
        store = self._corpus.store(queries)
        flat = self._counter.many_ids(
            store,
            np.repeat(store.extra_ids(), n),
            np.tile(np.arange(n, dtype=np.int64), len(queries)),
        )
        return flat.reshape(len(queries), n)

    def _row_results(self, row: np.ndarray, k: int) -> List[SearchResult]:
        # Canonical (distance, index) order: a *stable* argsort on the
        # distances keeps equal-distance items in ascending index order,
        # which is exactly the tie-breaking every pruning index applies in
        # its k-best heap -- so exhaustive and pruned searches return the
        # same neighbour sets even on ties.
        order = np.argsort(row, kind="stable")[:k]
        return [
            SearchResult(
                item=self.items[int(idx)],
                index=int(idx),
                distance=float(row[idx]),
            )
            for idx in order
        ]

    def bulk_knn(
        self, queries: Sequence[Any], k: int
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """All queries in one engine sweep: the ``q x n`` pair list is
        length-bucketed and batched as a whole, which amortises far better
        than ``q`` separate scans.  Each query still reports its ``n``
        distance computations; the measured wall-clock is split evenly."""
        _validate_k(k, len(self.items))
        queries = list(queries)
        if not queries:
            return []
        n = len(self.items)
        self._counter.take()
        started = time.perf_counter()
        with self._track_degradation():
            matrix = self._grid_many(queries)
        results = [self._row_results(row, k) for row in matrix]
        # selection is timed too, like every per-query _search elsewhere
        elapsed = time.perf_counter() - started
        self._counter.take()
        per_query = SearchStats(
            distance_computations=n,
            elapsed_seconds=elapsed / len(queries),
        )
        return [(row_results, per_query) for row_results in results]

    def _range_search(self, query: Any, radius: float) -> List[SearchResult]:
        distances = self._counter.many([(query, item) for item in self.items])
        return self._row_hits(distances, radius)

    def _row_hits(self, row: np.ndarray, radius: float) -> List[SearchResult]:
        hits = [
            SearchResult(item=self.items[idx], index=int(idx), distance=float(d))
            for idx, d in enumerate(row)
            if d <= radius
        ]
        hits.sort(key=canonical_key)
        return hits

    def bulk_range_search(
        self, queries: Sequence[Any], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """All queries' scans in one engine sweep, exactly like
        :meth:`bulk_knn`: same hits and per-query counts as looping
        :meth:`range_search`, one length-bucketed batch instead of ``q``
        scans."""
        _validate_radius(radius)
        queries = list(queries)
        if not queries:
            return []
        n = len(self.items)
        self._counter.take()
        started = time.perf_counter()
        with self._track_degradation():
            matrix = self._grid_many(queries)
        results = [self._row_hits(row, radius) for row in matrix]
        elapsed = time.perf_counter() - started
        self._counter.take()
        per_query = SearchStats(
            distance_computations=n,
            elapsed_seconds=elapsed / len(queries),
        )
        return [(row_hits, per_query) for row_hits in results]
