"""The contextual normalised edit distance ``d_C`` (the paper's contribution).

Each elementary operation ``u -> v`` costs ``1/max(|u|, |v|)``: substituting
or deleting in a string of length ``m`` costs ``1/m``; inserting into it
costs ``1/(m+1)``.  ``d_C(x, y)`` is the cheapest total over all rewriting
paths from ``x`` to ``y``.

Two results from Section 3 make the distance computable:

* only *internal* paths matter (Proposition 1), and along an internal path
  the optimum is reached by doing all insertions first, substitutions on the
  longest intermediate string, and deletions last (Lemma 1);
* consequently a path is characterised by its paid-operation count ``k`` and
  its insertion count ``Ni``; its cost is the closed form ``D(k, Ni)``
  implemented by :func:`canonical_cost`, and ``D`` is minimised (for fixed
  ``k``) by the *maximum* feasible ``Ni``.

**Algorithm 1** therefore tabulates ``ni[i][j][k]`` -- the maximum number of
insertions over internal paths from ``x[:i]`` to ``y[:j]`` with exactly
``k`` paid operations -- and minimises ``D(k, ni[|x|][|y|][k])`` over ``k``.
Complexity ``O(|x| * |y| * (|x|+|y|))``; we vectorise the ``k`` axis with
numpy.

The **heuristic** ``d_C,h`` (Section 4.1) evaluates only the *minimal*
feasible ``k`` per cell -- i.e. ``k = d_E(x, y)`` with the maximum insertion
count among minimum-cost edit paths -- and runs in ``O(|x| * |y|)``.  It is
an upper bound on ``d_C`` and agrees with it in the vast majority of cases
(the paper reports ~90%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._kernels import jit_backend as _jit
from .harmonic import harmonic_range
from .types import StringLike, require_strings

__all__ = [
    "contextual_distance",
    "contextual_distance_heuristic",
    "contextual_edit_path",
    "canonical_cost",
    "contextual_profile",
    "KPoint",
]

#: Sentinel for "no internal path with this k" (stays negative under +1 updates).
_NEG = -(1 << 30)

#: Above this (len(x)+len(y)) threshold the heuristic uses the numpy
#: anti-diagonal kernel.  Calibrated with benchmarks/bench_kernels.py: the
#: pure-Python twin tables win below ~260 combined symbols (per-call numpy
#: overhead dominates), the vectorised kernel wins beyond.  Treated as
#: zero when the optional numba backend is active -- a compiled kernel
#: wins at every length.
_NUMPY_THRESHOLD = 260


def _heuristic_pair(x, y) -> Tuple[int, int]:
    """Backend-dispatched ``(d_E, Ni)`` twin tables for one pair.

    The vectorised kernels code symbols through a dict, so unhashable
    symbols fall back to the pure-Python tables, which only compare
    them for equality."""
    jit = _jit()
    try:
        if jit is not None:  # compiled backend: threshold drops to zero
            return jit.contextual_heuristic_single(x, y)
        if len(x) + len(y) >= _NUMPY_THRESHOLD:
            from ._kernels import contextual_heuristic_numpy

            return contextual_heuristic_numpy(x, y)
    except TypeError:  # unhashable symbols
        pass
    return _heuristic_tables(x, y)


def canonical_cost(m: int, n: int, k: int, ni: int) -> Optional[float]:
    """Cost ``D(k, Ni)`` of the canonical internal path (Section 3.1).

    The canonical path from a length-``m`` string to a length-``n`` string
    performs ``Ni`` insertions first (growing ``m`` to the peak ``m + Ni``),
    then ``Ns`` substitutions at the peak, then ``Nd`` deletions (shrinking
    to ``n``)::

        D = sum_{i=m+1}^{m+Ni} 1/i  +  Ns/(m+Ni)  +  sum_{i=n+1}^{n+Nd} 1/i

    with ``Nd = m - n + Ni`` and ``Ns = k - Ni - Nd``.  Returns ``None``
    when the combination is infeasible (negative ``Ni``, ``Nd`` or ``Ns``).
    """
    if ni < 0:
        return None
    nd = m - n + ni
    ns = k - ni - nd
    if nd < 0 or ns < 0:
        return None
    peak = m + ni
    cost = harmonic_range(m, peak)
    if ns:
        cost += ns / peak
    cost += harmonic_range(n, n + nd)
    return cost


@dataclass(frozen=True)
class KPoint:
    """One feasible paid-operation count in the exact DP's final column.

    ``k`` paid operations, of which ``ni`` insertions (the maximum possible),
    ``ns`` substitutions and ``nd`` deletions, with canonical cost ``cost``.
    """

    k: int
    ni: int
    ns: int
    nd: int
    cost: float


def _insertion_table_final_py(x, y, k_max):
    """Pure-Python variant of :func:`_insertion_table_final` for short
    strings, where per-call numpy overhead dominates the actual work."""
    m, n = len(x), len(y)
    kk = k_max + 1
    prev = [[_NEG] * kk for _ in range(n + 1)]
    for j in range(min(n, k_max) + 1):
        prev[j][j] = j
    for i in range(1, m + 1):
        xi = x[i - 1]
        cur = [[_NEG] * kk for _ in range(n + 1)]
        if i <= k_max:
            cur[0][i] = 0
        for j in range(1, n + 1):
            eq = xi == y[j - 1]
            row = cur[j]
            diag = prev[j - 1]
            up = prev[j]
            left = cur[j - 1]
            for k in range(kk):
                best = diag[k] if eq else (diag[k - 1] if k else _NEG)
                if k:
                    v = up[k - 1]
                    if v > best:
                        best = v
                    v = left[k - 1] + 1
                    if v > best:
                        best = v
                row[k] = best
        prev = cur
    return prev[n]


#: Below this (len(x)+len(y)) bound the exact DP runs in pure Python.
_EXACT_PY_THRESHOLD = 48


def _insertion_table_final(x, y, k_max=None):
    """Run Algorithm 1's DP and return ``ni[|x|][|y|][:]`` as a vector.

    Entry ``k`` holds the maximum number of insertions over internal paths
    from ``x`` to ``y`` with exactly ``k`` paid operations, or a large
    negative sentinel when no such path exists.  Rows are processed one at a
    time (memory ``O(|y| * k_max)``); the ``k`` axis is vectorised with
    numpy for long strings and looped in Python for short ones.

    ``k_max`` truncates the paid-operation axis: paths using more than
    ``k_max`` operations are ignored.  Callers that can bound the optimum
    (see :func:`contextual_distance`) use this to shrink the cubic factor.
    """
    m, n = len(x), len(y)
    if k_max is None or k_max > m + n:
        k_max = m + n
    jit = _jit()
    if jit is not None:  # compiled backend: thresholds drop to zero
        return jit.insertion_table_final(x, y, k_max)
    if m + n < _EXACT_PY_THRESHOLD:
        return _insertion_table_final_py(x, y, k_max)
    kk = k_max + 1
    # Row 0: from the empty prefix of x, the only internal path to y[:j]
    # is j insertions => ni[0][j][j] = j.
    prev = np.full((n + 1, kk), _NEG, dtype=np.int64)
    for j in range(min(n, k_max) + 1):
        prev[j, j] = j

    def shifted(vec: np.ndarray) -> np.ndarray:
        """Return vec indexed at k-1 (k=0 gets the sentinel)."""
        out = np.empty_like(vec)
        out[0] = _NEG
        out[1:] = vec[:-1]
        return out

    cur = np.empty_like(prev)
    for i in range(1, m + 1):
        xi = x[i - 1]
        # Column 0: only path from x[:i] to the empty string is i deletions.
        cur[0, :] = _NEG
        if i <= k_max:
            cur[0, i] = 0
        for j in range(1, n + 1):
            if xi == y[j - 1]:
                best = prev[j - 1].copy()  # free match, same k
            else:
                best = shifted(prev[j - 1])  # paid substitution
            np.maximum(best, shifted(prev[j]), out=best)  # deletion
            np.maximum(best, shifted(cur[j - 1]) + 1, out=best)  # insertion
            cur[j] = best
        prev, cur = cur, prev
    return prev[n]


def contextual_profile(x: StringLike, y: StringLike) -> List[KPoint]:
    """Return every feasible ``(k, Ni, Ns, Nd, cost)`` for the pair.

    This is the final column of Algorithm 1's DP, evaluated through
    :func:`canonical_cost` -- useful for inspecting *why* the heuristic
    (which only looks at the smallest ``k``) occasionally loses.
    """
    x, y = require_strings(x, y)
    m, n = len(x), len(y)
    final = _insertion_table_final(x, y)
    points: List[KPoint] = []
    for k in range(m + n + 1):
        ni = int(final[k])
        if ni < 0:
            continue
        cost = canonical_cost(m, n, k, ni)
        if cost is None:
            continue
        nd = m - n + ni
        points.append(KPoint(k=k, ni=ni, ns=k - ni - nd, nd=nd, cost=cost))
    return points


def contextual_distance(x: StringLike, y: StringLike) -> float:
    """Exact contextual normalised edit distance ``d_C(x, y)`` (Algorithm 1).

    The DP's paid-operation axis is pruned with a sound bound: any path
    with ``k`` paid operations has at most ``(k + |y| - |x|) / 2``
    insertions, so its peak length is at most ``(|x| + |y| + k) / 2`` and
    its cost at least ``2k / (|x| + |y| + k)``.  The heuristic (an upper
    bound ``B`` computed first in quadratic time) therefore caps the useful
    ``k`` at ``B (|x| + |y|) / (2 - B)``, which in practice shrinks the
    cubic factor to a small constant multiple of ``d_E``.

    >>> round(contextual_distance("ababa", "baab"), 10) == round(8 / 15, 10)
    True
    """
    x, y = require_strings(x, y)
    if x == y:
        return 0.0
    m, n = len(x), len(y)
    # Quadratic upper bound (and d_E) from the heuristic's twin tables.
    d_e, ni_h = _heuristic_pair(x, y)
    upper = canonical_cost(m, n, d_e, ni_h)
    if upper is None:  # pragma: no cover - the DP guarantees feasibility
        raise AssertionError(f"infeasible heuristic for {x!r}, {y!r}")
    if upper < 2.0:
        k_max = int((upper * (m + n)) / (2.0 - upper) + 1e-9)
    else:
        k_max = m + n
    k_max = min(max(k_max, d_e), m + n)
    best = upper
    final = _insertion_table_final(x, y, k_max)
    for k in range(k_max + 1):
        ni = int(final[k])
        if ni < 0:
            continue
        cost = canonical_cost(m, n, k, ni)
        if cost is not None and cost < best:
            best = cost
    return best


def _full_insertion_table(x, y):
    """The complete ``ni[i][j][k]`` table (pure Python, analysis sizes).

    Path recovery needs every cell, not just the final column, so memory
    is ``O(|x| * |y| * (|x|+|y|))`` -- fine for the explanation-sized
    strings :func:`contextual_edit_path` targets.
    """
    m, n = len(x), len(y)
    kk = m + n + 1
    table = [[[_NEG] * kk for _ in range(n + 1)] for _ in range(m + 1)]
    for j in range(n + 1):
        table[0][j][j] = j
    for i in range(1, m + 1):
        xi = x[i - 1]
        table[i][0][i] = 0
        for j in range(1, n + 1):
            eq = xi == y[j - 1]
            row = table[i][j]
            diag = table[i - 1][j - 1]
            up = table[i - 1][j]
            left = table[i][j - 1]
            for k in range(kk):
                best = diag[k] if eq else (diag[k - 1] if k else _NEG)
                if k:
                    v = up[k - 1]
                    if v > best:
                        best = v
                    v = left[k - 1] + 1
                    if v > best:
                        best = v
                row[k] = best
    return table


def contextual_edit_path(x: StringLike, y: StringLike) -> "EditPath":
    """Recover an *optimal* contextual edit path from ``x`` to ``y``.

    Backtracks Algorithm 1's DP at the optimal ``(k, Ni)`` to an alignment
    and emits it in the canonical temporal order of Lemma 1 -- all
    insertions first, substitutions at the peak length, matches, then
    deletions -- as a replayable :class:`~repro.core.paths.EditPath`:
    ``apply_ops(x, path.ops)`` reconstructs ``y`` and
    ``path.contextual_weight`` equals ``contextual_distance(x, y)``
    (both are asserted by the test-suite).

    Memory is cubic in the input lengths; this is an explanation tool for
    human-sized strings, not a bulk-distance API.
    """
    from .paths import EditOp, EditPath

    x, y = require_strings(x, y)
    m, n = len(x), len(y)
    if x == y:
        return EditPath(
            tuple(EditOp("match", i, s, s) for i, s in enumerate(x)),
            source=x,
            target=y,
        )
    table = _full_insertion_table(x, y)
    final = table[m][n]
    best_cost = float("inf")
    best_k = -1
    for k in range(m + n + 1):
        ni = int(final[k])
        if ni < 0:
            continue
        cost = canonical_cost(m, n, k, ni)
        if cost is not None and cost < best_cost:
            best_cost = cost
            best_k = k
    # Backtrack the alignment achieving (best_k, ni[m][n][best_k]).
    columns = []  # ('match'|'sub'|'ins'|'del', x_index, y_index)
    i, j, k = m, n, best_k
    value = table[m][n][best_k]
    while i > 0 or j > 0:
        if i > 0 and j > 0 and x[i - 1] == y[j - 1] \
                and table[i - 1][j - 1][k] == value:
            columns.append(("match", i - 1, j - 1))
            i -= 1
            j -= 1
        elif (
            i > 0 and j > 0 and k > 0 and x[i - 1] != y[j - 1]
            and table[i - 1][j - 1][k - 1] == value
        ):
            columns.append(("sub", i - 1, j - 1))
            i -= 1
            j -= 1
            k -= 1
        elif i > 0 and k > 0 and table[i - 1][j][k - 1] == value:
            columns.append(("del", i - 1, -1))
            i -= 1
            k -= 1
        elif j > 0 and k > 0 and table[i][j - 1][k - 1] == value - 1:
            columns.append(("ins", -1, j - 1))
            j -= 1
            k -= 1
            value -= 1
        else:  # pragma: no cover - the DP guarantees a predecessor
            raise AssertionError(
                f"backtrack stuck at ({i}, {j}, {k}) for {x!r} -> {y!r}"
            )
    columns.reverse()
    # Emit in canonical temporal order.  ``tokens`` models the current
    # string as a list of column ids; positions are looked up live.
    ops = []
    token_cols = [idx for idx, (kind, _, _) in enumerate(columns)
                  if kind != "ins"]

    def position_of(col_idx: int) -> int:
        return token_cols.index(col_idx)

    for idx, (kind, _, yj) in enumerate(columns):  # 1) insertions
        if kind == "ins":
            pos = sum(1 for c in token_cols if c < idx)
            token_cols.insert(pos, idx)
            ops.append(EditOp("insert", pos, None, y[yj]))
    for idx, (kind, xi, yj) in enumerate(columns):  # 2) substitutions
        if kind == "sub":
            ops.append(EditOp("substitute", position_of(idx), x[xi], y[yj]))
    for idx, (kind, xi, yj) in enumerate(columns):  # 3) matches (free)
        if kind == "match":
            ops.append(EditOp("match", position_of(idx), x[xi], y[yj]))
    for idx, (kind, xi, _) in enumerate(columns):  # 4) deletions
        if kind == "del":
            pos = position_of(idx)
            token_cols.pop(pos)
            ops.append(EditOp("delete", pos, x[xi], None))
    return EditPath(tuple(ops), source=x, target=y)


def _heuristic_tables(x: str, y: str) -> Tuple[int, int]:
    """Return ``(d_E(x, y), Ni)`` where ``Ni`` is the maximum insertion
    count over *minimum-cost* internal edit paths.

    Pure-Python two-row DP.  A transition into ``(i, j)`` is considered
    only when it is *tight* (it achieves ``d[i][j]``), which restricts the
    search to minimum-cost paths -- precisely the paper's heuristic of
    evaluating ``ni[i][j][k]`` at the least feasible ``k`` only.
    """
    m, n = len(x), len(y)
    prev_d = list(range(n + 1))
    prev_ni = list(range(n + 1))  # ni[0][j] = j
    for i in range(1, m + 1):
        xi = x[i - 1]
        cur_d = [i] + [0] * n
        cur_ni = [0] + [0] * n  # ni[i][0] = 0
        for j in range(1, n + 1):
            if xi == y[j - 1]:
                diag = prev_d[j - 1]
            else:
                diag = prev_d[j - 1] + 1
            up = prev_d[j] + 1
            left = cur_d[j - 1] + 1
            d = diag if diag < up else up
            if left < d:
                d = left
            cur_d[j] = d
            best = _NEG
            if diag == d and prev_ni[j - 1] > best:
                best = prev_ni[j - 1]
            if up == d and prev_ni[j] > best:
                best = prev_ni[j]
            if left == d and cur_ni[j - 1] + 1 > best:
                best = cur_ni[j - 1] + 1
            cur_ni[j] = best
        prev_d, prev_ni = cur_d, cur_ni
    return prev_d[n], prev_ni[n]


def contextual_distance_heuristic(x: StringLike, y: StringLike) -> float:
    """Quadratic heuristic ``d_C,h(x, y)`` (Section 4.1).

    Evaluates the canonical cost only at ``k = d_E(x, y)`` (the least
    feasible paid-operation count) with the maximum insertion count among
    minimum-cost paths.  Always ``>= contextual_distance(x, y)``, equal in
    the vast majority of cases.
    """
    x, y = require_strings(x, y)
    if x == y:
        return 0.0
    k, ni = _heuristic_pair(x, y)
    cost = canonical_cost(len(x), len(y), k, ni)
    if cost is None:  # pragma: no cover - the DP guarantees feasibility
        raise AssertionError(
            f"heuristic produced infeasible (k={k}, ni={ni}) for {x!r}, {y!r}"
        )
    return cost
