"""Pair-batched anti-diagonal kernels.

The kernels in :mod:`repro.core._kernels` vectorise the Wagner–Fischer
recurrence *within* one pair of strings by walking the DP table
anti-diagonal by anti-diagonal.  This module lifts the same recurrences to
a whole *batch* of pairs at once: the per-pair diagonal vectors are stacked
into a ``(P, size)`` matrix and every diagonal step becomes a handful of
2-D slice operations shared by all ``P`` pairs.

Correctness with padding
------------------------
Pairs in a batch are padded to the longest ``(|x|, |y|)`` of the batch
with sentinel symbols that never compare equal (``-1`` for ``x``, ``-2``
for ``y``).  A Wagner–Fischer cell ``(i, j)`` depends only on the prefixes
``x[:i]`` and ``y[:j]``, so the sub-table ``i <= |x_p|, j <= |y_p|`` of
the padded table is *exactly* the table of the real pair -- the padded
cells beyond it are computed but never read.  Each pair's answer lives on
anti-diagonal ``t = |x_p| + |y_p|`` and is harvested when the sweep passes
it.

Encoded inputs
--------------
Every batch kernel has an ``*_encoded`` twin taking pre-encoded
``(X, Y, mx, my)`` matrices directly -- the interned-corpus runtime
(:mod:`repro.batch.corpus`) gathers those out of a database encoded once
at index-build time, so repeated bulk queries skip ``encode_batch``
entirely.  The pair-list entry points are thin ``encode_batch`` +
``*_encoded`` compositions.

Length bucketing (so that short pairs do not pay for the padding of long
ones) lives in :mod:`repro.batch.engine`; these kernels assume the caller
already grouped pairs of broadly similar length.

Both kernels are cross-checked against their scalar twins by the
test-suite on randomised inputs, including empty strings and duplicates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..core._kernels import jit_backend as _jit_backend
from ..core.types import Symbols

#: Encoded kernel-input aliases (the ``(X, Y, mx, my)`` contract of
#: :func:`encode_batch` / :meth:`~repro.batch.corpus.PairStore.gather`):
#: ``IntMatrix`` holds padded per-pair symbol codes, ``IntVector`` the
#: true lengths (or integer budgets), ``FloatVector`` per-pair reals.
IntMatrix = npt.NDArray[np.integer]
IntVector = npt.NDArray[np.integer]
FloatVector = npt.NDArray[np.floating]
BoolVector = npt.NDArray[np.bool_]

__all__ = [
    "encode_batch",
    "levenshtein_batch",
    "levenshtein_batch_encoded",
    "levenshtein_batch_numpy",
    "levenshtein_batch_bounded",
    "levenshtein_batch_bounded_encoded",
    "levenshtein_batch_bounded_numpy",
    "contextual_heuristic_batch",
    "contextual_heuristic_batch_encoded",
    "contextual_heuristic_batch_numpy",
    "contextual_heuristic_batch_bounded",
    "contextual_heuristic_batch_bounded_encoded",
    "contextual_heuristic_batch_bounded_numpy",
    "mv_banded_probe_batch",
    "mv_banded_probe_batch_encoded",
    "mv_banded_probe_batch_encoded_numpy",
]

_NEG = -(1 << 30)

#: Padding sentinels; negative so they never collide with real codes and
#: distinct from each other so padded x never matches padded y.
_PAD_X = -1
_PAD_Y = -2

#: Retirement-sampling cadence for the banded bounded sweeps: per-pair
#: window minima (the retirement test) are computed every this many
#: diagonals instead of every diagonal.  Retirement is purely an
#: optimisation -- a pair that retires a few diagonals later produces the
#: identical ``(value, exact)`` output -- so any cadence is bit-identical
#: to cadence 1 (asserted by the tests); sampling just shaves the two
#: window reductions per diagonal on buckets that rarely retire.
_RETIRE_CADENCE = 4


def _encode_one(seq: Symbols, codes: Dict[Hashable, int]) -> np.ndarray:
    """Encode one symbol sequence with the shared code dictionary."""
    if isinstance(seq, str):
        # Code points preserve equality and need no dictionary.  Codes only
        # have to be consistent *within* a pair (rows never compare across
        # pairs), so code points and dictionary codes may coexist in one
        # batch as long as both sides of a pair use the same scheme.
        return np.frombuffer(seq.encode("utf-32-le"), dtype=np.uint32).astype(
            np.int64
        )
    arr = np.empty(len(seq), dtype=np.int64)
    for idx, symbol in enumerate(seq):
        code = codes.get(symbol)
        if code is None:
            code = len(codes)
            codes[symbol] = code
        arr[idx] = code
    return arr


def encode_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode and pad *pairs* into ``(X, Y, mx, my)``.

    ``X`` is ``(P, M)`` with ``M = max |x_p|`` (padded with ``_PAD_X``),
    ``Y`` likewise with ``_PAD_Y``; ``mx``/``my`` hold the true lengths.
    Symbols are mapped to integers that preserve equality *within each
    pair*: pure-``str`` pairs use raw code points, anything else goes
    through one shared code dictionary.  Mixed pairs (``str`` vs tuple)
    use the dictionary for both sides so cross-representation equality
    (``"ab"`` vs ``("a", "b")``) survives encoding.
    """
    P = len(pairs)
    codes: Dict[Hashable, int] = {}
    xs_enc: List[np.ndarray] = []
    ys_enc: List[np.ndarray] = []
    for x, y in pairs:
        if isinstance(x, str) and isinstance(y, str):
            xs_enc.append(_encode_one(x, codes))
            ys_enc.append(_encode_one(y, codes))
        else:
            xs_enc.append(_encode_one(tuple(x), codes))
            ys_enc.append(_encode_one(tuple(y), codes))
    mx = np.fromiter((len(a) for a in xs_enc), dtype=np.int64, count=P)
    my = np.fromiter((len(a) for a in ys_enc), dtype=np.int64, count=P)
    M = int(mx.max()) if P else 0
    N = int(my.max()) if P else 0
    X = np.full((P, M), _PAD_X, dtype=np.int64)
    Y = np.full((P, N), _PAD_Y, dtype=np.int64)
    for p in range(P):
        X[p, : mx[p]] = xs_enc[p]
        Y[p, : my[p]] = ys_enc[p]
    return X, Y, mx, my


# ---------------------------------------------------------------------------
# backend dispatchers
# ---------------------------------------------------------------------------


def levenshtein_batch(pairs: Sequence[Tuple[Symbols, Symbols]]) -> np.ndarray:
    """Levenshtein distance of every pair (backend-dispatched).

    Routes to the compiled kernels of :mod:`repro.batch.jit` when numba
    is available, and to :func:`levenshtein_batch_numpy` otherwise; the
    two backends return identical ``int64`` values (same integer DP).
    """
    jit = _jit_backend()
    if jit is not None:
        return jit.levenshtein_batch(pairs)
    return levenshtein_batch_numpy(pairs)


def levenshtein_batch_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> np.ndarray:
    """:func:`levenshtein_batch` over pre-encoded matrices."""
    jit = _jit_backend()
    if jit is not None:
        return jit.levenshtein_batch_encoded(X, Y, mx, my)
    return _levenshtein_swept(X, Y, mx, my)


def contextual_heuristic_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(d_E, Ni)`` twin tables of every pair (backend-dispatched).

    Same dispatch rule as :func:`levenshtein_batch`; both backends
    compute the identical integer twin-table recurrence.
    """
    jit = _jit_backend()
    if jit is not None:
        return jit.contextual_heuristic_batch(pairs)
    return contextual_heuristic_batch_numpy(pairs)


def contextual_heuristic_batch_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`contextual_heuristic_batch` over pre-encoded matrices."""
    jit = _jit_backend()
    if jit is not None:
        return jit.contextual_heuristic_batch_encoded(X, Y, mx, my)
    return _contextual_swept(X, Y, mx, my)


def levenshtein_batch_bounded(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Banded bounded ``d_E`` of every pair (backend-dispatched).

    ``bounds[p]`` is pair ``p``'s edit budget.  Returns ``(values,
    exact)``: ``exact[p]`` is True iff the true distance is at most the
    budget, in which case ``values[p]`` is that exact distance; pruned
    pairs hold ``bounds[p] + 1`` (any value above the budget would do --
    callers replay their own closed-form pruned values).  The two
    backends agree bit for bit: exactness below the budget is a property
    of Ukkonen's band, not of the sweep order.
    """
    jit = _jit_backend()
    if jit is not None:
        return jit.levenshtein_batch_bounded(pairs, bounds)
    return levenshtein_batch_bounded_numpy(pairs, bounds)


def levenshtein_batch_bounded_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`levenshtein_batch_bounded` over pre-encoded matrices."""
    jit = _jit_backend()
    if jit is not None:
        return jit.levenshtein_batch_bounded_encoded(X, Y, mx, my, bounds)
    return _levenshtein_swept_bounded(X, Y, mx, my, bounds)


def contextual_heuristic_batch_bounded(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded bounded twin tables of every pair (backend-dispatched).

    Returns ``(d_e, ni, exact)`` with the same contract as
    :func:`levenshtein_batch_bounded`: exact ``(d_E, Ni)`` whenever
    ``d_E <= bounds[p]``, a pruned sentinel (``bounds[p] + 1``, ``0``)
    otherwise.
    """
    jit = _jit_backend()
    if jit is not None:
        return jit.contextual_heuristic_batch_bounded(pairs, bounds)
    return contextual_heuristic_batch_bounded_numpy(pairs, bounds)


def contextual_heuristic_batch_bounded_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`contextual_heuristic_batch_bounded` over pre-encoded
    matrices."""
    jit = _jit_backend()
    if jit is not None:
        return jit.contextual_heuristic_batch_bounded_encoded(
            X, Y, mx, my, bounds
        )
    return _contextual_swept_bounded(X, Y, mx, my, bounds)


def mv_banded_probe_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
    lams: Sequence[float],
    bands: Sequence[int],
) -> np.ndarray:
    """Banded parametric probe scores of every pair (backend-dispatched).

    ``scores[p]`` is the minimum of ``W(pi) - lams[p] * L(pi)`` over
    alignment paths of pair ``p`` staying inside the band
    ``|i - j| <= bands[p]`` -- bit-identical, per pair, to the scalar
    probe ``repro.core.bounded._banded_parametric`` (and to its compiled
    twin on the numba backend).  ``+inf`` when the band excludes the
    final cell (``|len(x)-len(y)| > bands[p]``), exactly like the scalar
    probe.  This is the decision kernel of the batched bounded ``d_MV``
    path: a strictly positive score proves ``d_MV > lam``.
    """
    X, Y, mx, my = encode_batch(pairs)
    return mv_banded_probe_batch_encoded(X, Y, mx, my, lams, bands)


def mv_banded_probe_batch_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    lams: Sequence[float],
    bands: Sequence[int],
) -> np.ndarray:
    """:func:`mv_banded_probe_batch` over pre-encoded matrices."""
    jit = _jit_backend()
    if jit is not None:
        return jit.mv_banded_probe_batch_encoded(X, Y, mx, my, lams, bands)
    return mv_banded_probe_batch_encoded_numpy(X, Y, mx, my, lams, bands)


# ---------------------------------------------------------------------------
# numpy sweeps (full tables)
# ---------------------------------------------------------------------------


def levenshtein_batch_numpy(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> np.ndarray:
    """Levenshtein distance of every pair, swept diagonal-by-diagonal.

    Returns an ``int64`` array aligned with *pairs*.  Equivalent to
    ``[levenshtein_distance(x, y) for x, y in pairs]`` (the tests verify
    this), but every anti-diagonal step runs once for the whole batch.
    """
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.int64)
    return _levenshtein_swept(*encode_batch(pairs))


def _levenshtein_swept(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> np.ndarray:
    P = len(mx)
    out = np.zeros(P, dtype=np.int64)
    if P == 0:
        return out
    # Empty-sided pairs are pure insertions/deletions; exclude them from
    # the sweep (whose t=0/1 seed diagonals assume both sides non-empty).
    trivial = (mx == 0) | (my == 0)
    out[trivial] = np.maximum(mx, my)[trivial]
    if trivial.all():
        return out
    M, N = X.shape[1], Y.shape[1]
    size = M + 1
    inf = M + N + 1
    # pair rows harvested per diagonal, computed once up front
    done_at: Dict[int, List[int]] = {}
    for p in range(P):
        if not (mx[p] and my[p]):
            continue  # empty-sided pairs were answered above
        done_at.setdefault(int(mx[p] + my[p]), []).append(p)
    prev2 = np.full((P, size), inf, dtype=np.int64)  # diagonal t-2
    prev = np.full((P, size), inf, dtype=np.int64)  # diagonal t-1
    prev2[:, 0] = 0  # cell (0, 0)
    prev[:, 0] = 1  # cell (0, 1)
    prev[:, 1] = 1  # cell (1, 0)
    cur = np.empty((P, size), dtype=np.int64)
    for t in range(2, M + N + 1):
        lo = max(0, t - N)
        hi = min(M, t)
        a = max(1, lo)
        b = min(hi, t - 1)
        # sentinel columns just outside the written window; later
        # diagonals read at most one cell beyond it, so a full-row fill
        # is unnecessary
        cur[:, a - 1] = inf
        if b + 1 <= M:
            cur[:, b + 1] = inf
        if lo == 0:
            cur[:, 0] = t  # cell (0, t): t insertions
        if hi == t:
            cur[:, t] = t  # cell (t, 0): t deletions
        if a <= b:
            xs = X[:, a - 1 : b]  # x[i-1]
            ys = Y[:, t - b - 1 : t - a][:, ::-1]  # y[j-1] = y[t-i-1]
            sub = prev2[:, a - 1 : b] + (xs != ys)
            step = np.minimum(prev[:, a - 1 : b], prev[:, a : b + 1]) + 1
            np.minimum(sub, step, out=cur[:, a : b + 1])
        ready = done_at.get(t)
        if ready is not None:
            idx = np.asarray(ready, dtype=np.int64)
            out[idx] = cur[idx, mx[idx]]
        prev2, prev, cur = prev, cur, prev2
    return out


def contextual_heuristic_batch_numpy(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Twin tables of the contextual heuristic for every pair.

    Returns ``(d_e, ni)`` arrays aligned with *pairs*: the Levenshtein
    distance and the maximum insertion count over minimum-cost internal
    edit paths -- the two inputs of one
    :func:`~repro.core.contextual.canonical_cost` evaluation.  Matches
    :func:`~repro.core._kernels.contextual_heuristic_numpy` pair by pair.

    The twin tables are carried as ONE packed integer per cell,
    ``pack = d * K - ni`` with ``K`` larger than any feasible ``ni``:
    minimising ``pack`` is exactly the lexicographic (minimise ``d``,
    then maximise ``ni``) rule of the heuristic, so the whole tight-
    transition ``where``/``maximum`` chain of the two-array formulation
    collapses into one 3-way ``minimum`` -- half the numpy dispatches
    per anti-diagonal, which is where the batched sweep's time goes.
    The transition deltas follow directly: a match adds ``0``, a
    substitution ``K`` (``d+1``, ``ni`` kept), a deletion ``K`` and an
    insertion ``K - 1`` (``d+1``, ``ni+1``).  ``ni <= d`` always
    (insertions are paid operations), so packs stay non-negative and
    decode as ``d = ceil(pack / K)``, ``ni = d * K - pack``.
    """
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return _contextual_swept(*encode_batch(pairs))


def _contextual_swept(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> Tuple[np.ndarray, np.ndarray]:
    P = len(mx)
    out_d = np.zeros(P, dtype=np.int64)
    out_ni = np.zeros(P, dtype=np.int64)
    if P == 0:
        return out_d, out_ni
    x_empty = mx == 0
    y_empty = (my == 0) & ~x_empty
    out_d[x_empty] = my[x_empty]
    out_ni[x_empty] = my[x_empty]  # pure insertions
    out_d[y_empty] = mx[y_empty]
    out_ni[y_empty] = 0  # pure deletions
    if (x_empty | y_empty).all():
        return out_d, out_ni
    M, N = X.shape[1], Y.shape[1]
    size = M + 1
    K = M + N + 2  # strictly above any feasible ni
    inf = (M + N + 1) * K  # above any feasible pack, overflow-safe
    # pair rows harvested per diagonal, computed once up front
    done_at: Dict[int, List[int]] = {}
    for p in range(P):
        if not (mx[p] and my[p]):
            continue  # empty-sided pairs were answered above
        done_at.setdefault(int(mx[p] + my[p]), []).append(p)
    prev2 = np.full((P, size), inf, dtype=np.int64)
    prev = np.full((P, size), inf, dtype=np.int64)
    prev2[:, 0] = 0  # (0, 0): d=0, ni=0
    prev[:, 0] = K - 1  # (0, 1): d=1, ni=1 (one insertion)
    prev[:, 1] = K  # (1, 0): d=1, ni=0 (one deletion)
    cur = np.empty((P, size), dtype=np.int64)
    for t in range(2, M + N + 1):
        lo = max(0, t - N)
        hi = min(M, t)
        a = max(1, lo)
        b = min(hi, t - 1)
        # sentinel columns just outside the written window: later
        # diagonals read at most one cell beyond it, so a full-row fill
        # is unnecessary
        if a >= 1:
            cur[:, a - 1] = inf
        if b + 1 <= M:
            cur[:, b + 1] = inf
        if lo == 0:
            cur[:, 0] = t * K - t  # (0, t): d=t, ni=t insertions
        if hi == t:
            cur[:, t] = t * K  # (t, 0): d=t, ni=0
        if a <= b:
            xs = X[:, a - 1 : b]
            ys = Y[:, t - b - 1 : t - a][:, ::-1]
            diag = prev2[:, a - 1 : b] + (xs != ys) * K
            step = np.minimum(
                prev[:, a - 1 : b] + K,  # deletion of x[i-1]
                prev[:, a : b + 1] + (K - 1),  # insertion of y[j-1]
            )
            np.minimum(diag, step, out=cur[:, a : b + 1])
        ready = done_at.get(t)
        if ready is not None:
            idx = np.asarray(ready, dtype=np.int64)
            pack = cur[idx, mx[idx]]
            d = -(-pack // K)  # ceil: ni = 0 packs sit exactly on d * K
            out_d[idx] = d
            out_ni[idx] = d * K - pack
        prev2, prev, cur = prev, cur, prev2
    return out_d, out_ni


# ---------------------------------------------------------------------------
# banded bounded batch sweeps
# ---------------------------------------------------------------------------
#
# The bounded twins only need the exact DP result when it fits the pair's
# edit budget; above the budget any witness value ``> budget`` suffices
# (the engine replays each request's closed-form pruned value itself).
# Carrying the budgets through the batch sweep therefore allows three
# savings over the full-table kernels:
#
# * the active window of each anti-diagonal is clamped to the *widest
#   surviving band* in the bucket (``|2i - t| <= B`` with
#   ``B = max(bounds[live])``), so tight-radius buckets touch a thin
#   stripe of the padded table instead of all of it;
# * per-pair minima of the last two diagonals are sampled every
#   ``_RETIRE_CADENCE`` diagonals, and a
#   pair whose minima both exceed its own budget is *retired* (all later
#   cells derive from those diagonals by non-negative increments, so its
#   final value provably busts the budget) -- the anti-diagonal analogue
#   of the scalar twins' row-abort.  Sampling cannot change any output:
#   a pair that retires a few diagonals late still reports the same
#   pruned sentinel, and harvest (which runs every diagonal) compares
#   the final cell against the budget either way;
# * once at least half a bucket has retired or harvested, the matrices
#   are compacted to the surviving rows, so the bucket physically shrinks
#   mid-sweep.
#
# Exactness inside the band is Ukkonen's argument per pair: the computed
# window always contains the pair's own band (the shared clamp uses
# ``B >= bounds[p]``), any min-cost path of cost ``<= bounds[p]`` stays
# inside that band, and a final value ``<= bounds[p]`` is therefore the
# true one -- so ``exact[p]`` iff the true distance fits the budget, with
# the exact value (and, for the twin tables, the exact ``Ni``) in that
# case.  Out-of-window neighbours are sentinel-infinity, which only makes
# band-edge cells *larger*, never smaller, preserving both directions.


def levenshtein_batch_bounded_numpy(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Banded bounded ``d_E`` sweep (see the block comment above).

    Returns ``(values, exact)``: exact distances where they fit the
    per-pair budgets, ``bounds[p] + 1`` where they provably do not.
    """
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    X, Y, mx, my = encode_batch(pairs)
    return _levenshtein_swept_bounded(X, Y, mx, my, bounds)


def _levenshtein_swept_bounded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    P = len(mx)
    out = np.zeros(P, dtype=np.int64)
    exact = np.zeros(P, dtype=bool)
    if P == 0:
        return out, exact
    b_all = np.minimum(
        np.maximum(np.asarray(bounds, dtype=np.int64), 0), mx + my
    )
    gap = np.abs(mx - my)
    pruned = gap > b_all  # d_E >= |m - n| already busts the budget
    trivial = ((mx == 0) | (my == 0)) & ~pruned
    out[trivial] = np.maximum(mx, my)[trivial]
    exact[trivial] = True  # gap <= budget and d_E == gap for empty sides
    out[pruned] = b_all[pruned] + 1
    rows = np.nonzero(~trivial & ~pruned)[0]
    if len(rows) == 0:
        return out, exact
    X, Y = X[rows], Y[rows]
    mx, my, b = mx[rows], my[rows], b_all[rows]
    M, N = X.shape[1], Y.shape[1]
    size = M + 1
    inf = M + N + 2
    final = mx + my
    cadence = _RETIRE_CADENCE
    since_check = 0
    prev_win = (0, min(M, 1))  # written window of diagonal 1
    live = np.ones(len(rows), dtype=bool)
    prev2 = np.full((len(rows), size), inf, dtype=np.int64)
    prev = np.full((len(rows), size), inf, dtype=np.int64)
    prev2[:, 0] = 0  # cell (0, 0)
    prev[:, 0] = 1  # cell (0, 1)
    prev[:, 1] = 1  # cell (1, 0)
    cur = np.empty((len(rows), size), dtype=np.int64)
    for t in range(2, M + N + 1):
        if not live.any():
            break
        # widest surviving band; >= 1 so the window never goes empty and
        # its edges move by at most one column per diagonal (the sweep's
        # sentinel bookkeeping relies on that, exactly like the full
        # kernels' one-cell-beyond-the-window reads)
        B = max(int(b[live].max()), 1)
        lo = max(0, t - N)
        hi = min(M, t)
        L = max(lo, (t - B + 1) // 2)  # ceil((t - B) / 2)
        H = min(hi, (t + B) // 2)
        a = max(1, L)
        bb = min(H, t - 1)
        cur[:, a - 1] = inf
        if bb + 1 <= M:
            cur[:, bb + 1] = inf
        if L == 0:
            cur[:, 0] = t  # cell (0, t): t insertions
        if H == t:
            cur[:, t] = t  # cell (t, 0): t deletions
        if a <= bb:
            xs = X[:, a - 1 : bb]
            ys = Y[:, t - bb - 1 : t - a][:, ::-1]
            sub = prev2[:, a - 1 : bb] + (xs != ys)
            step = np.minimum(prev[:, a - 1 : bb], prev[:, a : bb + 1]) + 1
            np.minimum(sub, step, out=cur[:, a : bb + 1])
        ready = live & (final == t)
        if ready.any():
            idx = np.nonzero(ready)[0]
            vals = cur[idx, mx[idx]]
            ok = vals <= b[idx]
            out[rows[idx]] = np.where(ok, vals, b[idx] + 1)
            exact[rows[idx]] = ok
            live[idx] = False
        since_check += 1
        if since_check >= cadence and live.any():
            # retirement check, sampled: minima of the last two diagonals
            # over their written windows (all later cells derive from
            # them by non-negative increments)
            since_check = 0
            min_cur = cur[:, L : H + 1].min(axis=1)
            min_prev = prev[:, prev_win[0] : prev_win[1] + 1].min(axis=1)
            dead = live & (min_cur > b) & (min_prev > b)
            if dead.any():
                idx = np.nonzero(dead)[0]
                out[rows[idx]] = b[idx] + 1
                live[idx] = False
        prev2, prev, cur = prev, cur, prev2
        prev_win = (L, H)
        n_live = int(live.sum())
        if n_live and n_live * 2 <= len(rows):
            keep = np.nonzero(live)[0]
            rows, X, Y = rows[keep], X[keep], Y[keep]
            mx, my, b, final = mx[keep], my[keep], b[keep], final[keep]
            prev2, prev, cur = prev2[keep], prev[keep], cur[keep]
            live = np.ones(n_live, dtype=bool)
    return out, exact


def contextual_heuristic_batch_bounded_numpy(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded bounded twin-table sweep (packed cells, see block comment).

    Returns ``(d_e, ni, exact)``: the exact twin values where ``d_E``
    fits the per-pair budgets, the pruned sentinel ``(bounds[p] + 1, 0)``
    where it provably does not.  Retirement compares the packed minima
    against ``bounds[p] * K``: ``pack = d * K - ni`` with ``ni <= d``
    keeps ``pack > b * K`` equivalent to ``d > b``.
    """
    if len(pairs) == 0:
        zeros = np.zeros(0, dtype=np.int64)
        return zeros, zeros.copy(), np.zeros(0, dtype=bool)
    X, Y, mx, my = encode_batch(pairs)
    return _contextual_swept_bounded(X, Y, mx, my, bounds)


def _contextual_swept_bounded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    P = len(mx)
    out_d = np.zeros(P, dtype=np.int64)
    out_ni = np.zeros(P, dtype=np.int64)
    exact = np.zeros(P, dtype=bool)
    if P == 0:
        return out_d, out_ni, exact
    b_all = np.minimum(
        np.maximum(np.asarray(bounds, dtype=np.int64), 0), mx + my
    )
    gap = np.abs(mx - my)
    pruned = gap > b_all
    x_empty = (mx == 0) & ~pruned
    y_empty = (my == 0) & ~x_empty & ~pruned
    out_d[x_empty] = my[x_empty]
    out_ni[x_empty] = my[x_empty]  # pure insertions
    out_d[y_empty] = mx[y_empty]
    out_ni[y_empty] = 0  # pure deletions
    exact[x_empty | y_empty] = True
    out_d[pruned] = b_all[pruned] + 1
    rows = np.nonzero(~x_empty & ~y_empty & ~pruned)[0]
    if len(rows) == 0:
        return out_d, out_ni, exact
    X, Y = X[rows], Y[rows]
    mx, my, b = mx[rows], my[rows], b_all[rows]
    M, N = X.shape[1], Y.shape[1]
    size = M + 1
    K = M + N + 2  # strictly above any feasible ni
    inf = (M + N + 1) * K
    final = mx + my
    cadence = _RETIRE_CADENCE
    since_check = 0
    prev_win = (0, min(M, 1))  # written window of diagonal 1
    live = np.ones(len(rows), dtype=bool)
    prev2 = np.full((len(rows), size), inf, dtype=np.int64)
    prev = np.full((len(rows), size), inf, dtype=np.int64)
    prev2[:, 0] = 0  # (0, 0): d=0, ni=0
    prev[:, 0] = K - 1  # (0, 1): d=1, ni=1 (one insertion)
    prev[:, 1] = K  # (1, 0): d=1, ni=0 (one deletion)
    cur = np.empty((len(rows), size), dtype=np.int64)
    for t in range(2, M + N + 1):
        if not live.any():
            break
        B = max(int(b[live].max()), 1)
        lo = max(0, t - N)
        hi = min(M, t)
        L = max(lo, (t - B + 1) // 2)
        H = min(hi, (t + B) // 2)
        a = max(1, L)
        bb = min(H, t - 1)
        cur[:, a - 1] = inf
        if bb + 1 <= M:
            cur[:, bb + 1] = inf
        if L == 0:
            cur[:, 0] = t * K - t  # (0, t): d=t, ni=t insertions
        if H == t:
            cur[:, t] = t * K  # (t, 0): d=t, ni=0
        if a <= bb:
            xs = X[:, a - 1 : bb]
            ys = Y[:, t - bb - 1 : t - a][:, ::-1]
            diag = prev2[:, a - 1 : bb] + (xs != ys) * K
            step = np.minimum(
                prev[:, a - 1 : bb] + K,  # deletion of x[i-1]
                prev[:, a : bb + 1] + (K - 1),  # insertion of y[j-1]
            )
            np.minimum(diag, step, out=cur[:, a : bb + 1])
        ready = live & (final == t)
        if ready.any():
            idx = np.nonzero(ready)[0]
            pack = cur[idx, mx[idx]]
            d = -(-pack // K)
            ok = d <= b[idx]
            out_d[rows[idx]] = np.where(ok, d, b[idx] + 1)
            out_ni[rows[idx]] = np.where(ok, d * K - pack, 0)
            exact[rows[idx]] = ok
            live[idx] = False
        since_check += 1
        if since_check >= cadence and live.any():
            since_check = 0
            min_cur = cur[:, L : H + 1].min(axis=1)
            min_prev = prev[:, prev_win[0] : prev_win[1] + 1].min(axis=1)
            dead = live & (min_cur > b * K) & (min_prev > b * K)
            if dead.any():
                idx = np.nonzero(dead)[0]
                out_d[rows[idx]] = b[idx] + 1
                live[idx] = False
        prev2, prev, cur = prev, cur, prev2
        prev_win = (L, H)
        n_live = int(live.sum())
        if n_live and n_live * 2 <= len(rows):
            keep = np.nonzero(live)[0]
            rows, X, Y = rows[keep], X[keep], Y[keep]
            mx, my, b, final = mx[keep], my[keep], b[keep], final[keep]
            prev2, prev, cur = prev2[keep], prev[keep], cur[keep]
            live = np.ones(n_live, dtype=bool)
    return out_d, out_ni, exact


# ---------------------------------------------------------------------------
# banded parametric probe batch (the bounded d_MV decision kernel)
# ---------------------------------------------------------------------------
#
# ``d_MV <= lam`` iff some editing path has ``W(pi) - lam * L(pi) <= 0``,
# so one banded alignment DP per pair decides prunability (see
# ``repro.core.bounded.bounded_marzal_vidal``).  This sweep lifts the
# scalar probe to a batch:
#
# * the anti-diagonal window is clamped to the widest band among pairs
#   still awaiting their final diagonal, like the integer bounded sweeps;
# * bands are enforced **per pair**: cells with ``|i - j| > bands[p]``
#   are forced to ``+inf`` for pair ``p`` even when the shared window
#   computed them, because the probe's *score itself* is the result (the
#   engine turns it into the pruned value ``lam + slack / total``) -- a
#   wider-than-requested band would admit more paths and change the
#   score, unlike the integer kernels whose out-of-band values are
#   discarded by the exactness test;
# * pairs retire at harvest (their final diagonal).  There is no
#   value-based early retirement: parametric steps can be *negative*
#   (a match adds ``-lam``), so diagonal minima are not lower bounds of
#   later cells -- the scalar probe has no row-abort either;
# * the bucket compacts once at least half its pairs have harvested.
#
# Per-cell arithmetic replays the scalar probe's expressions exactly
# (same two-operand sums, same 3-way minimum), so scores are
# bit-identical to ``_banded_parametric`` -- asserted by the tests.


def mv_banded_probe_batch_encoded_numpy(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    lams: Sequence[float],
    bands: Sequence[int],
) -> np.ndarray:
    """Banded parametric probe scores (numpy sweep; see block comment)."""
    P = len(mx)
    scores = np.zeros(P, dtype=np.float64)
    if P == 0:
        return scores
    lams = np.asarray(lams, dtype=np.float64)
    bands = np.asarray(bands, dtype=np.int64)
    paid = 1.0 - lams
    inf = np.inf
    final = mx + my
    # the band must reach the final cell at all; otherwise the scalar
    # probe returns +inf (its final cell is never written)
    unreachable = np.abs(mx - my) > bands
    scores[unreachable] = inf
    # diagonals 0 and 1 are the sweep's seeds; answer them directly
    f1 = (final == 1) & ~unreachable
    scores[f1] = paid[f1]  # one indel; |m-n| = 1 <= band here
    sweep = (final >= 2) & ~unreachable
    rows = np.nonzero(sweep)[0]
    if len(rows) == 0:
        return scores  # final == 0 pairs keep score 0.0 (the empty path)
    X, Y = X[rows], Y[rows]
    mx, my = mx[rows], my[rows]
    lams, paid, bands, final = lams[rows], paid[rows], bands[rows], final[rows]
    M, N = X.shape[1], Y.shape[1]
    size = M + 1
    live = np.ones(len(rows), dtype=bool)
    prev2 = np.full((len(rows), size), inf, dtype=np.float64)
    prev = np.full((len(rows), size), inf, dtype=np.float64)
    prev2[:, 0] = 0.0  # cell (0, 0): the empty path
    in_band = bands >= 1
    prev[:, 0] = np.where(in_band, paid, inf)  # cell (0, 1): one insertion
    if size > 1:
        prev[:, 1] = np.where(in_band, paid, inf)  # cell (1, 0): one deletion
    cur = np.empty((len(rows), size), dtype=np.float64)
    for t in range(2, M + N + 1):
        if not live.any():
            break
        B = max(int(bands[live].max()), 1)
        lo = max(0, t - N)
        hi = min(M, t)
        L = max(lo, (t - B + 1) // 2)
        H = min(hi, (t + B) // 2)
        a = max(1, L)
        bb = min(H, t - 1)
        cur[:, a - 1] = inf
        if bb + 1 <= M:
            cur[:, bb + 1] = inf
        if L == 0:
            # cell (0, t): t insertions, in-band only while t <= band
            cur[:, 0] = np.where(t <= bands, t * paid, inf)
        if H == t:
            # cell (t, 0): t deletions
            cur[:, t] = np.where(t <= bands, t * paid, inf)
        if a <= bb:
            xs = X[:, a - 1 : bb]
            ys = Y[:, t - bb - 1 : t - a][:, ::-1]
            # -lam on a match, (1 - lam) on a substitution: `(xs != ys)
            # - lam` lands on exactly the scalar probe's two step values
            step = (xs != ys) - lams[:, None]
            diag = prev2[:, a - 1 : bb] + step
            gap = (
                np.minimum(prev[:, a - 1 : bb], prev[:, a : bb + 1])
                + paid[:, None]
            )
            block = np.minimum(diag, gap)
            # per-pair band enforcement (see block comment)
            cols = np.arange(a, bb + 1)
            off = np.abs(2 * cols - t)[None, :] > bands[:, None]
            cur[:, a : bb + 1] = np.where(off, inf, block)
        ready = live & (final == t)
        if ready.any():
            idx = np.nonzero(ready)[0]
            scores[rows[idx]] = cur[idx, mx[idx]]
            live[idx] = False
        prev2, prev, cur = prev, cur, prev2
        n_live = int(live.sum())
        if n_live and n_live * 2 <= len(rows):
            keep = np.nonzero(live)[0]
            rows, X, Y = rows[keep], X[keep], Y[keep]
            mx, my, final = mx[keep], my[keep], final[keep]
            lams, paid, bands = lams[keep], paid[keep], bands[keep]
            prev2, prev, cur = prev2[keep], prev[keep], cur[keep]
            live = np.ones(n_live, dtype=bool)
    return scores
