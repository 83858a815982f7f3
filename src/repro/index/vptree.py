"""Vantage-point tree [Yianilos 1993] for arbitrary metrics.

The real-valued counterpart of the BK-tree: each node picks a vantage
point, computes the median distance ``mu`` of its subset, and splits the
subset into inside (``d <= mu``) and outside (``d > mu``) children; the
triangle inequality prunes whole subtrees at query time.  Included as an
ablation point next to LAESA/AESA -- unlike LAESA it needs no pivot-count
parameter, but its pruning uses one vantage point per level instead of a
global pivot set.
"""

from __future__ import annotations

import heapq
import random
import statistics
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .base import (
    NearestNeighborIndex,
    RequestGenerator,
    SearchResult,
    canonical_key,
)

__all__ = ["VPTreeIndex"]


class _Node:
    __slots__ = ("index", "radius", "inside", "outside")

    def __init__(
        self,
        index: int,
        radius: float,
        inside: Optional["_Node"],
        outside: Optional["_Node"],
    ) -> None:
        self.index = index
        self.radius = radius
        self.inside = inside
        self.outside = outside


class VPTreeIndex(NearestNeighborIndex):
    """VP-tree with median splits and random vantage points."""

    def __init__(
        self,
        items: Sequence[Any],
        distance: Callable[[Any, Any], float],
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(items, distance)
        self._rng = rng if rng is not None else random.Random(0x7EE5)
        self._root = self._build(list(range(len(self.items))))
        self.preprocessing_computations = self._counter.take()

    def _build(self, indices: List[int]) -> Optional["_Node"]:
        if not indices:
            return None
        vantage = indices[self._rng.randrange(len(indices))]
        rest = [i for i in indices if i != vantage]
        if not rest:
            return _Node(vantage, 0.0, None, None)
        distances = [self._counter(self.items[vantage], self.items[i]) for i in rest]
        mu = statistics.median(distances)
        inside = [i for i, d in zip(rest, distances) if d <= mu]
        outside = [i for i, d in zip(rest, distances) if d > mu]
        return _Node(vantage, mu, self._build(inside), self._build(outside))

    @classmethod
    def _artifact_key_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        params = dict(params)
        # the rng only seeds which vantage points a rebuild would pick;
        # any built tree answers queries exactly, so it stays out of the key
        params.pop("rng", None)
        if params:
            raise TypeError(
                f"VPTreeIndex.load got unexpected parameters {sorted(params)}"
            )
        return {}

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize the tree in preorder as ``(item_index, inside_row,
        outside_row)`` rows plus a parallel radius vector.  Preorder
        guarantees every child row number exceeds its parent's, which the
        loader exploits to rebuild bottom-up in one reverse pass.
        """
        rows: List[Tuple[int, int, int]] = []
        radii: List[float] = []

        def emit(node: Optional["_Node"]) -> int:
            if node is None:
                return -1
            row = len(rows)
            rows.append((node.index, -1, -1))
            radii.append(node.radius)
            inside = emit(node.inside)
            outside = emit(node.outside)
            rows[row] = (node.index, inside, outside)
            return row

        emit(self._root)
        return {
            "tree_nodes": np.asarray(rows, dtype=np.int64).reshape(len(rows), 3),
            "tree_radii": np.asarray(radii, dtype=float),
        }

    def _restore_artifact(
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        rows = np.asarray(arrays["tree_nodes"], dtype=np.int64)
        radii = np.asarray(arrays["tree_radii"], dtype=float)
        n = len(self.items)
        if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] != n:
            raise ValueError(
                f"VP-tree payload shape {rows.shape} does not fit {n} items"
            )
        if radii.shape != (n,):
            raise ValueError(
                f"VP-tree radius vector shape {radii.shape} does not fit {n} items"
            )
        built: List[Optional[_Node]] = [None] * n

        def child(row: int, slot: int) -> Optional["_Node"]:
            if slot == -1:
                return None
            if not row < slot < n or built[slot] is None:
                raise ValueError(
                    f"VP-tree row {row} points at invalid child row {slot}"
                )
            return built[slot]

        for row in range(n - 1, -1, -1):
            item_index, inside_row, outside_row = (int(v) for v in rows[row])
            if not 0 <= item_index < n:
                raise ValueError(f"VP-tree row {row} points at item {item_index}")
            built[row] = _Node(
                item_index,
                float(radii[row]),
                child(row, inside_row),
                child(row, outside_row),
            )
        self._root = built[0] if n else None
        # loaded trees never re-enter _build, so self._rng is left unset
        # on purpose: touching it would imply a rebuild path that the
        # restored structure does not have

    @staticmethod
    def _node_limit(node: "_Node", search_radius: float) -> float:
        """Largest vantage distance that still matters at *search_radius*.

        Beyond ``node.radius + search_radius`` the vantage point is no hit,
        the inside child is unreachable (``d - search_radius > mu``) and
        the outside child must be visited regardless -- so the early-exit
        twin may stop there.  Leaves collapse to ``search_radius``.
        """
        if node.inside is None and node.outside is None:
            return search_radius
        return node.radius + search_radius

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Subtree-pruned range query as a request generator.

        A depth-first walk over an explicit stack (the inside child is
        pushed last, so it is explored first); the scalar driver answers
        each request with ``within`` and the lockstep bulk driver groups
        them -- one per still-active query -- into banded batch-kernel
        calls.  Requests are not precomputable (``cache_pos=None``).
        """
        hits: List[SearchResult] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            limit = self._node_limit(node, radius)
            d = yield (node.index, limit, None)
            if d > limit:
                stack.append(node.outside)  # the only reachable side
                continue
            if d <= radius:
                hits.append(
                    SearchResult(
                        item=self.items[node.index], index=node.index, distance=d
                    )
                )
            if d + radius > node.radius:
                stack.append(node.outside)
            if d - radius <= node.radius:
                stack.append(node.inside)
        hits.sort(key=canonical_key)
        return hits

    def _search_requests(self, k: int) -> RequestGenerator:
        """k-NN as a request generator over an explicit stack.

        A ``(node, None)`` entry visits *node*: one request at the
        early-exit limit for the current k-th-best radius, then the
        likelier side is explored first.  A ``(node, d)`` entry sits
        below that side and, once the side is done, decides the other
        side.  The explicit stack keeps each request O(1) to resume;
        nested ``yield from`` would resume the whole tree depth every
        time.  Requests are not precomputable (``cache_pos=None``).
        """
        best: List[Tuple[float, int]] = []

        def kth_best() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        stack: List[Tuple[Optional["_Node"], Optional[float]]] = [
            (self._root, None)
        ]
        while stack:
            node, d = stack.pop()
            if node is None:
                continue
            if d is not None:
                # the likelier side is done: decide the other with the
                # radius as it stands now (it may have shrunk meanwhile)
                if d <= node.radius:
                    if d + kth_best() > node.radius:
                        stack.append((node.outside, None))
                elif d - kth_best() <= node.radius:
                    stack.append((node.inside, None))
                continue
            limit = self._node_limit(node, kth_best())
            d = yield (node.index, limit, None)
            if d > limit:
                # Too far to enter the heap or reach the inside child; the
                # outside child is still reachable (d > mu by a margin).
                stack.append((node.outside, None))
                continue
            entry = (-d, -node.index)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                # canonical (distance, index) tie-breaking: equal-distance
                # entries keep the smaller index, matching every other
                # index structure
                heapq.heapreplace(best, entry)
            # visit the likelier side first, decide the other after it
            stack.append((node, d))
            stack.append((node.inside if d <= node.radius else node.outside, None))
        ordered = sorted((-nd, -nidx) for nd, nidx in best)
        return [
            SearchResult(item=self.items[idx], index=idx, distance=d)
            for d, idx in ordered
        ]
