"""BK-tree [Burkhard & Keller 1973] for *integer-valued* metrics.

A classic triangle-inequality structure tailored to discrete metrics such
as the plain Levenshtein distance: each node stores children keyed by
their exact (integer) distance from the node, and a query with current
search radius ``r`` only needs to visit children whose key lies in
``[d - r, d + r]``.

Included as an ablation point: the paper argues its LAESA results "apply
in similar cases" of triangle-inequality-based methods, and the BK-tree is
the most widely deployed such method for edit distances.  It does not
apply to the normalised (real-valued) distances -- the constructor rejects
them loudly rather than silently degrading.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .base import (
    NearestNeighborIndex,
    RequestGenerator,
    SearchResult,
    canonical_key,
)

__all__ = ["BKTreeIndex"]


class _Node:
    __slots__ = ("index", "children")

    def __init__(self, index: int) -> None:
        self.index = index
        self.children: Dict[int, "_Node"] = {}


class BKTreeIndex(NearestNeighborIndex):
    """BK-tree over an integer metric (e.g. ``levenshtein_distance``)."""

    def __init__(
        self, items: Sequence[Any], distance: Callable[[Any, Any], float]
    ) -> None:
        super().__init__(items, distance)
        self._root = _Node(0)
        for idx in range(1, len(self.items)):
            self._insert(idx)
        self.preprocessing_computations = self._counter.take()

    def _insert(self, idx: int) -> None:
        node = self._root
        item = self.items[idx]
        while True:
            d = self._counter(item, self.items[node.index])
            key = self._integer(d)
            if key == 0 and item == self.items[node.index]:
                # exact duplicate: hang it under key 0 like any child
                pass
            child = node.children.get(key)
            if child is None:
                node.children[key] = _Node(idx)
                return
            node = child

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize the tree as ``(item_index, parent_row, key)`` rows.

        Breadth-first order, with each node's children emitted in dict
        insertion order: search pushes children onto a stack in that
        order, so replaying it keeps traversal -- and therefore the
        early-exit limits and per-query distance counts -- bit-identical.
        """
        rows: List[Tuple[int, int, int]] = []
        queue = deque([(self._root, -1, 0)])
        while queue:
            node, parent_row, key = queue.popleft()
            row = len(rows)
            rows.append((node.index, parent_row, key))
            for child_key, child in node.children.items():
                queue.append((child, row, child_key))
        return {"tree_nodes": np.asarray(rows, dtype=np.int64)}

    def _restore_artifact(
        self,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> None:
        rows = np.asarray(arrays["tree_nodes"], dtype=np.int64)
        n = len(self.items)
        if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] != n:
            raise ValueError(
                f"BK-tree payload shape {rows.shape} does not fit {n} items"
            )
        built: List[_Node] = []
        root: Optional[_Node] = None
        for row in range(n):
            item_index, parent_row, key = (int(v) for v in rows[row])
            if not 0 <= item_index < n:
                raise ValueError(f"BK-tree row {row} points at item {item_index}")
            node = _Node(item_index)
            if parent_row == -1:
                if root is not None:
                    raise ValueError("BK-tree payload has multiple roots")
                root = node
            elif 0 <= parent_row < row:
                # BFS emission guarantees parents precede children, so
                # appending in row order replays dict insertion order
                built[parent_row].children[key] = node
            else:
                raise ValueError(
                    f"BK-tree row {row} has invalid parent {parent_row}"
                )
            built.append(node)
        if root is None:
            raise ValueError("BK-tree payload has no root")
        self._root = root

    @staticmethod
    def _integer(d: float) -> int:
        """*d* as a child key; ValueError unless *d* is a finite integer
        (checked before ``round``, which overflows on infinity)."""
        if not math.isfinite(d) or abs(d - round(d)) > 1e-9:
            raise ValueError(
                f"BK-tree requires an integer-valued metric; got distance {d}"
            )
        return int(round(d))

    @staticmethod
    def _node_limit(node: "_Node", radius: float) -> float:
        """Largest distance at which *node* still matters for *radius*.

        A hit needs ``d <= radius``; visiting a child keyed ``c`` needs
        ``|d - c| <= radius``, i.e. ``d <= c + radius``.  Beyond
        ``max(children) + radius`` the exact value of ``d`` is irrelevant,
        so the early-exit twin may stop there -- on leaves that collapses
        to ``radius`` itself.
        """
        if node.children:
            return max(radius, max(node.children) + radius)
        return radius

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Classic BK-tree range query as a request generator: visit
        children whose key lies in ``[d - radius, d + radius]``.  Every
        request carries the node's early-exit limit, so both the scalar
        driver (``within``) and the lockstep bulk driver (banded batch
        kernels) may stop each DP at the point the traversal stops
        caring; requests are not precomputable (``cache_pos=None``).
        """
        hits: List[SearchResult] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            limit = self._node_limit(node, radius)
            d = yield (node.index, limit, None)
            if d > limit:
                continue  # no hit, and no child interval can be reached
            if d <= radius:
                hits.append(
                    SearchResult(
                        item=self.items[node.index], index=node.index, distance=d
                    )
                )
            key = self._integer(d)
            for child_key, child in node.children.items():
                if abs(key - child_key) <= radius:
                    stack.append(child)
        hits.sort(key=canonical_key)
        return hits

    def _search(self, query: Any, k: int) -> List[SearchResult]:
        best: List[Tuple[float, int]] = []

        def kth_best() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        stack = [self._root]
        while stack:
            node = stack.pop()
            limit = self._node_limit(node, kth_best())
            d = self._counter.within(query, self.items[node.index], limit)
            if d > limit:
                continue  # cannot enter the heap nor reach any child
            entry = (-d, -node.index)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                # canonical (distance, index) tie-breaking, shared by all
                # index structures: equal distances keep the smaller index
                heapq.heapreplace(best, entry)
            radius = kth_best()
            key = self._integer(d)
            for child_key, child in node.children.items():
                # child subtree distances from node are exactly child_key,
                # so their distance from the query is >= |d - child_key|
                if abs(key - child_key) <= radius:
                    stack.append(child)
        ordered = sorted((-nd, -nidx) for nd, nidx in best)
        return [
            SearchResult(item=self.items[idx], index=idx, distance=d)
            for d, idx in ordered
        ]
