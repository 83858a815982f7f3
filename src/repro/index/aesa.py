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
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .base import (
    NearestNeighborIndex,
    RequestGenerator,
    SearchResult,
    _tighten_bounds,
    canonical_key,
)

__all__ = ["AesaIndex"]


class AesaIndex(NearestNeighborIndex):
    """AESA with the full ``n x n`` matrix computed at build time."""

    def __init__(
        self, items: Sequence[Any], distance: Callable[[Any, Any], float]
    ) -> None:
        super().__init__(items, distance)
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

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        return {"matrix": np.asarray(self.matrix, dtype=float)}

    def _restore_artifact(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        matrix = arrays["matrix"]
        n = len(self.items)
        if matrix.shape != (n, n):
            raise ValueError(
                f"AESA matrix shape {matrix.shape} does not fit {n} items"
            )
        self.matrix = matrix

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Range search with the full-matrix bounds as a request
        generator: repeatedly compare the undecided item with the
        smallest lower bound, tighten everyone's bounds with the new
        distance, and discard items whose bound exceeds *radius*.  Every
        comparison doubles as a pivot, so each request needs the exact
        distance (``limit=None``).
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
            d = yield (current, None, None)
            if d <= radius:
                hits.append(
                    SearchResult(item=items[current], index=current, distance=d)
                )
            _tighten_bounds(bounds, self.matrix[current], d)
            # ~(bound > radius), not bound <= radius: a NaN bound proves
            # nothing, so that item stays undecided
            undecided &= ~(bounds > radius)
        hits.sort(key=canonical_key)
        return hits

    def _search_requests(self, k: int) -> RequestGenerator:
        """AESA's elimination loop as a request generator.

        Every comparison in AESA doubles as a pivot (its matrix row
        tightens all bounds), so each request needs the exact distance
        (``limit=None``).  See
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
            d = yield (current, None, None)
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
