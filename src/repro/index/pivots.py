"""Pivot (base-prototype) selection strategies for LAESA.

LAESA's preprocessing chooses a subset of *base prototypes*; the quality of
that choice drives how tight the triangle-inequality lower bounds are.
The original paper [Micó, Oncina & Vidal 1994] uses a greedy *maximum of
minimum distances* rule; random and max-sum selection are provided for the
ablation benchmark.

Every strategy returns ``(pivot_indices, rows)`` where ``rows[t]`` is the
vector of distances from pivot ``t`` to every item -- the rows double as
LAESA's preprocessed matrix, so selection costs no extra distance
computations beyond the ``n_pivots * n`` the matrix needs anyway.  Each
row is one pair-batched engine sweep, which since the engine's
``workers="auto"`` default also shards across a process pool on machines
and row sizes where the pool pays for itself.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["select_pivots", "select_pivots_from_matrix", "PIVOT_STRATEGIES"]

Distance = Callable[[Any, Any], float]


def _distance_row(
    distance: Distance, store: Any, pivot_index: int
) -> np.ndarray:
    """The distances from store id *pivot_index* to every corpus item:
    one id grid against the interned corpus, counted per pair for a
    :class:`~repro.index.base.CountingDistance`."""
    n = store.n_corpus
    pivots = np.full(n, pivot_index, dtype=np.int64)
    items = np.arange(n, dtype=np.int64)
    if hasattr(distance, "many_ids"):
        row = distance.many_ids(store, pivots, items)
    else:
        from ..batch import pairwise_values_ids

        row = pairwise_values_ids(distance, store, pivots, items)
    return np.asarray(row, dtype=float)


def _greedy(
    n: int,
    row_of: Callable[[int], np.ndarray],
    count: int,
    rng: random.Random,
    combine: str,
) -> Tuple[List[int], np.ndarray]:
    """Greedy pivot selection maximising the min (or sum) of distances to
    the already-chosen pivots; the first pivot is drawn at random.

    ``row_of(i)`` supplies the distance row of item *i* -- evaluated
    through the engine by :func:`select_pivots`, read from a precomputed
    matrix by :func:`select_pivots_from_matrix`.  Sharing the loop keeps
    the two entry points' selection decisions identical by construction.
    """
    chosen = [rng.randrange(n)]
    rows = [row_of(chosen[0])]
    score = rows[0].copy()  # min and sum coincide with one pivot chosen
    while len(chosen) < count:
        score[chosen] = -np.inf  # never re-pick a pivot
        nxt = int(np.argmax(score))
        chosen.append(nxt)
        row = row_of(nxt)
        rows.append(row)
        if combine == "min":
            np.minimum(score, row, out=score)
        else:
            score = score + row
    return chosen, np.vstack(rows)


def _random(
    n: int,
    row_of: Callable[[int], np.ndarray],
    count: int,
    rng: random.Random,
) -> Tuple[List[int], np.ndarray]:
    chosen = rng.sample(range(n), count)
    rows = np.vstack([row_of(p) for p in chosen])
    return chosen, rows


def _select(
    n: int,
    row_of: Callable[[int], np.ndarray],
    count: int,
    strategy: str,
    rng: Optional[random.Random],
) -> Tuple[List[int], np.ndarray]:
    """Validation + strategy dispatch shared by both selection fronts."""
    if count < 0:
        raise ValueError(f"pivot count must be >= 0, got {count}")
    if count > n:
        raise ValueError(f"cannot select {count} pivots from {n} items")
    if count == 0:
        return [], np.zeros((0, n))
    rng = rng if rng is not None else random.Random(0x5EED)
    if strategy == "maxmin":
        return _greedy(n, row_of, count, rng, combine="min")
    if strategy == "maxsum":
        return _greedy(n, row_of, count, rng, combine="sum")
    if strategy == "random":
        return _random(n, row_of, count, rng)
    raise ValueError(
        f"unknown pivot strategy {strategy!r}; known: {sorted(PIVOT_STRATEGIES)}"
    )


def select_pivots(
    items: Sequence[Any],
    distance: Distance,
    count: int,
    strategy: str = "maxmin",
    rng: Optional[random.Random] = None,
    store: Optional[Any] = None,
) -> Tuple[List[int], np.ndarray]:
    """Choose *count* pivots from *items* and return their distance rows.

    ``strategy`` is one of ``"maxmin"`` (LAESA's default: each new pivot
    maximises its minimum distance to the chosen set), ``"maxsum"`` (ditto
    with the sum), or ``"random"``.  Each pivot row dispatches as an id
    grid against an interned corpus: *store* is the caller's
    :class:`~repro.batch.corpus.PairStore` covering *items* (ids ``[0,
    len(items))``, as LAESA passes its own), or, when omitted, the items
    are interned once per call.  Rows and counts are the same either
    way.
    """
    if store is None:
        from ..batch import intern_corpus

        store = intern_corpus(items).store()
    return _select(
        len(items),
        lambda idx: _distance_row(distance, store, idx),
        count,
        strategy,
        rng,
    )


def select_pivots_from_matrix(
    matrix: np.ndarray,
    count: int,
    strategy: str = "maxmin",
    rng: Optional[random.Random] = None,
) -> Tuple[List[int], np.ndarray]:
    """:func:`select_pivots` reading rows from a precomputed matrix.

    ``matrix[i, j]`` must hold ``d(items[i], items[j])`` (e.g. a slice of
    a :func:`~repro.batch.pairwise_matrix_memmap` over a training pool).
    Selection decisions are identical to :func:`select_pivots` with the
    same *rng* -- the greedy rules only consume distance rows, and the
    engine-evaluated matrix is bit-identical to scalar calls -- but zero
    distances are computed, which is what lets a pivot-count sweep
    (Figures 3/4) persist one pool matrix and slice per-trial submatrices
    instead of re-evaluating every trial's pivot rows.

    Returns ``(pivot_indices, rows)`` with ``rows[t] = matrix[pivot_t]``
    as a float array, directly usable by
    :meth:`~repro.index.laesa.LaesaIndex.from_pivots`.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"pivot matrix must be square, got shape {matrix.shape}"
        )
    return _select(
        matrix.shape[0], lambda idx: matrix[idx], count, strategy, rng
    )


#: Names accepted by :func:`select_pivots` (for CLIs and benchmarks).
PIVOT_STRATEGIES = ("maxmin", "maxsum", "random")
