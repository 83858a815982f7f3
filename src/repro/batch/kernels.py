"""Pair-batched kernels: bit-parallel ``d_E`` and anti-diagonal sweeps.

The full ``d_E`` runs Myers' bit-vector DP over numpy ``uint64`` lanes
(see the block comment above :func:`levenshtein_lanes_encoded`), either
one lane per pair or a grid of patterns against texts.  The other kernels
lift the anti-diagonal recurrences of :mod:`repro.core._kernels` to a
whole *batch* of pairs at once: the per-pair diagonal vectors are stacked
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

Every kernel is cross-checked against its scalar twin by the test-suite
on randomised inputs, including empty strings and duplicates.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Sequence,
    Tuple,
    Type,
    cast,
)

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
    "levenshtein_lanes_encoded",
    "levenshtein_grid_encoded",
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


def _cells(width: int, packed: bool) -> Tuple[Type[np.integer], int, int]:
    """``(cell type, K, inf)`` of an integer anti-diagonal sweep over a
    bucket whose padded widths sum to ``M + N = width``.

    ``K`` is the cost of one paid step and ``inf`` the sentinel above
    every real cell.  The packed twin tables (``packed``) use
    ``K = M + N + 2``, strictly above any feasible ``Ni``, and ``inf =
    (M + N + 1) * K``, above any feasible pack; the ``d_E`` sweep uses
    ``K = 1`` and ``inf = M + N + 2``.  No cell ever exceeds ``inf + K``
    (a sentinel plus one step), so the cells take the narrowest of
    ``uint16``, ``int32`` and ``int64`` holding it: ``uint16`` up to
    ``M + N = 253`` for the twin tables and ``65,532`` for ``d_E``.
    Fewer bytes per cell is what every per-diagonal numpy pass moves.
    """
    K = width + 2 if packed else 1
    inf = (width + 1) * K if packed else width + 2
    top = inf + K
    for cell in (np.uint16, np.int32):
        if top <= np.iinfo(cell).max:
            return cell, K, inf
    return np.int64, K, inf


def _harvest_schedule(final: np.ndarray) -> Dict[int, np.ndarray]:
    """Row positions grouped by the anti-diagonal ``final[row]`` on
    which each pair's answer is harvested."""
    order = np.argsort(final, kind="stable")
    diagonals, starts = np.unique(final[order], return_index=True)
    return dict(zip(diagonals.tolist(), np.split(order, starts[1:])))


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
    return levenshtein_lanes_encoded(X, Y, mx, my)


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
    return _swept_bounded(X, Y, mx, my, bounds, packed=True)


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
# bit-parallel d_E (full tables)
# ---------------------------------------------------------------------------
#
# Myers' (1999) bit-vector DP in Hyyrö's (2003) formulation -- the scalar
# core of :mod:`repro.core.levenshtein` -- over numpy ``uint64`` lanes.  A
# lane is one (pattern, text) pair.  Column ``j`` of its Wagner--Fischer
# table (one text symbol) is held as vertical delta vectors ``pv`` / ``mv``
# with bit ``i - 1`` for pattern row ``i``, and one column step is a dozen
# word operations shared by every live lane:
#
# * patterns past 64 symbols take several words (Myers' blocks), one
#   wide integer as in the scalar core: the addition's carry and the
#   one-row shifts of the horizontal deltas cross word boundaries;
# * bits above a pattern's last row hold garbage that never reaches the
#   real rows (shifts and carries only move upwards) and are masked off;
# * lanes are sorted by text length, longest first, so the lanes still
#   live at column ``j`` are a prefix; a lane's vectors freeze when its
#   text ends, and its distance is read off after the sweep as ``D[m][n]
#   = D[0][n] + sum of column n's vertical deltas``.
#
# Two layouts feed the sweep.  Pair lanes (:func:`levenshtein_lanes_encoded`)
# carry one pattern each, the longer side of the pair, with its match masks
# in a table keyed by ``(lane, symbol)``.  A grid of patterns against texts
# (:func:`levenshtein_grid_encoded`) builds one mask table per pattern and
# lays the lanes out texts x patterns, so each column reads each text's
# symbol once and looks up every pattern's mask in one row.

_WORD = 64
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Lanes (texts x patterns) per grid sweep: larger grids run in pattern
#: chunks so the sweep's state stays small.
_GRID_LANES = 1 << 16


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per ``uint64`` entry, as ``int64``."""
    count = getattr(np, "bitwise_count", None)
    if count is not None:
        return cast(np.ndarray, count(words)).astype(np.int64)
    v = words - ((words >> 1) & np.uint64(0x5555_5555_5555_5555))  # numpy < 2
    v = (v & np.uint64(0x3333_3333_3333_3333)) + (
        (v >> 2) & np.uint64(0x3333_3333_3333_3333)
    )
    v = (v + (v >> 4)) & np.uint64(0x0F0F_0F0F_0F0F_0F0F)
    return ((v * np.uint64(0x0101_0101_0101_0101)) >> 56).astype(np.int64)


def _row_masks(lengths: np.ndarray, words: int) -> np.ndarray:
    """``(words, len(lengths))`` masks of each pattern's rows."""
    bits = np.clip(
        lengths[None, :] - _WORD * np.arange(words)[:, None], 0, _WORD
    ).astype(np.uint64)
    partial = (np.uint64(1) << np.minimum(bits, np.uint64(63))) - np.uint64(1)
    return np.where(bits == _WORD, _ONES, partial)


def _bit_parallel_sweep(
    eq_at: Callable[[int, int], np.ndarray],
    ends: np.ndarray,
    rows: np.ndarray,
    shape: Tuple[int, ...],
) -> np.ndarray:
    """``d_E`` of every lane of *shape* (lanes on axis 0, longest text
    first; see the block comment above).

    ``eq_at(j, live)`` returns the ``(words, live, ...)`` match masks of
    column ``j``'s text symbols for the first *live* lanes; *ends* holds
    the text lengths (non-increasing) and *rows* the ``(words,) + shape``
    masks of every lane's pattern rows.
    """
    words = rows.shape[0]
    pv = np.full((words,) + shape, _ONES)
    mv = np.zeros((words,) + shape, dtype=np.uint64)
    columns = int(ends[0]) if shape[0] else 0
    # live[j]: the lanes whose text is longer than j symbols
    live = np.searchsorted(-ends, -np.arange(columns)).tolist()
    for j in range(columns):
        L = live[j]
        eq = eq_at(j, L)
        p = pv[:, :L]
        m = mv[:, :L]
        xv = eq | m
        xh = eq & p
        xh += p
        if words > 1:  # carry the addition across words
            carry = xh[0] < p[0]
            for w in range(1, words):
                xh[w] += carry
                carry = (xh[w] < p[w]) | ((xh[w] == p[w]) & carry)
        xh ^= p
        xh |= eq
        ph = xh | p
        np.invert(ph, out=ph)
        ph |= m
        mh = p & xh
        if words > 1:  # shifting up a row crosses word boundaries
            top_p, top_m = ph[:-1] >> 63, mh[:-1] >> 63
        ph <<= 1
        ph[0] |= 1  # row 0 grows by one per column
        mh <<= 1
        if words > 1:
            ph[1:] |= top_p
            mh[1:] |= top_m
        np.bitwise_or(xv, ph, out=p)
        np.invert(p, out=p)
        p |= mh
        np.bitwise_and(ph, xv, out=m)
    # a lane's vectors stop changing once its text ends
    up: np.ndarray = _popcount(pv & rows).sum(axis=0)
    down: np.ndarray = _popcount(mv & rows).sum(axis=0)
    return ends.reshape(ends.shape + (1,) * (len(shape) - 1)) + up - down


def levenshtein_lanes_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> np.ndarray:
    """``d_E`` of every pair of pre-encoded matrices, bit-parallel (the
    numpy body of :func:`levenshtein_batch_encoded`).

    Each lane's pattern is the longer side of its pair, so the sweep
    runs one column per symbol of the shorter side.  Codes need only be
    consistent within a pair (the mask table is keyed by lane).
    """
    mx = np.asarray(mx, dtype=np.int64)
    my = np.asarray(my, dtype=np.int64)
    P = len(mx)
    swap = mx < my
    pattern_len = np.where(swap, my, mx)
    text_len = np.where(swap, mx, my)
    if P == 0 or not pattern_len.max():
        return np.zeros(P, dtype=np.int64)  # only empty pairs
    words = -(-int(pattern_len.max()) // _WORD)
    x_lane, x_pos = np.nonzero(
        (np.arange(X.shape[1]) < mx[:, None]) & ~swap[:, None]
    )
    y_lane, y_pos = np.nonzero(
        (np.arange(Y.shape[1]) < my[:, None]) & swap[:, None]
    )
    lane = np.concatenate([x_lane, y_lane])
    pos = np.concatenate([x_pos, y_pos])
    symbol = np.concatenate([X[x_lane, x_pos], Y[y_lane, y_pos]]).astype(
        np.int64
    )
    C = int(text_len.max())
    text = np.where(swap[:, None], X[:, :C], Y[:, :C]).astype(np.int64)
    span = int(max(symbol.max(), text.max(initial=0))) + 1
    keys, slot = np.unique(lane * span + symbol, return_inverse=True)
    absent = len(keys)  # the all-zero mask of symbols a pattern lacks
    table = np.zeros((words, absent + 1), dtype=np.uint64)
    np.bitwise_or.at(
        table,
        (pos // _WORD, slot),
        np.uint64(1) << (pos % _WORD).astype(np.uint64),
    )
    # text symbols past a lane's end are never read (the lane is dead)
    text_keys = np.arange(P)[:, None] * span + text
    found = np.searchsorted(keys, text_keys)
    hit = keys[np.minimum(found, absent - 1)] == text_keys
    order = np.argsort(-text_len, kind="stable")
    columns = np.ascontiguousarray(np.where(hit, found, absent)[order].T)
    d = _bit_parallel_sweep(
        lambda j, live: table[:, columns[j, :live]],
        text_len[order],
        _row_masks(pattern_len[order], words),
        (P,),
    )
    out = np.empty(P, dtype=np.int64)
    out[order] = d
    return out


def levenshtein_grid_encoded(
    Xq: IntMatrix, mq: IntVector, T: IntMatrix, mt: IntVector
) -> np.ndarray:
    """``d_E`` of every pattern row of *Xq* (lengths *mq*) against every
    text row of *T* (lengths *mt*): a ``(len(mq), len(mt))`` matrix.

    Codes are one shared alphabet of small non-negative integers (an
    interned corpus' codes) and index the mask tables directly; padding
    may be negative.  Lanes run texts x patterns (see the block comment
    above), with at most ``_GRID_LANES`` lanes and mask-table rows per
    sweep.
    """
    mq = np.asarray(mq, dtype=np.int64)
    mt = np.asarray(mt, dtype=np.int64)
    Q, n = len(mq), len(mt)
    out = np.empty((Q, n), dtype=np.int64)
    if Q == 0 or n == 0:
        return out
    order = np.argsort(-mt, kind="stable")
    ends = mt[order]
    columns = T[:, : int(ends[0])].T[:, order]  # (C, n), longest text first
    q_row, q_pos = np.nonzero(np.arange(Xq.shape[1]) < mq[:, None])
    q_code = Xq[q_row, q_pos]
    # two spare rows past the alphabet: the padding codes -1 and -2 land
    # there, and no pattern sets a bit in them
    size = int(max(q_code.max(initial=0), columns.max(initial=0))) + 3
    step = max(1, _GRID_LANES // max(n, size))
    for lo in range(0, Q, step):
        hi = min(Q, lo + step)
        lengths = mq[lo:hi]
        words = max(1, -(-int(lengths.max()) // _WORD))
        peq = np.zeros((words, size, hi - lo), dtype=np.uint64)
        sel = (q_row >= lo) & (q_row < hi)
        pos = q_pos[sel]
        np.bitwise_or.at(
            peq,
            (pos // _WORD, q_code[sel], q_row[sel] - lo),
            np.uint64(1) << (pos % _WORD).astype(np.uint64),
        )
        rows = np.broadcast_to(
            _row_masks(lengths, words)[:, None, :], (words, n, hi - lo)
        )
        d = _bit_parallel_sweep(
            lambda j, live: peq[:, columns[j, :live]], ends, rows, (n, hi - lo)
        )
        out[lo:hi, order] = d.T
    return out


# ---------------------------------------------------------------------------
# numpy sweeps (full tables)
# ---------------------------------------------------------------------------


def levenshtein_batch_numpy(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> np.ndarray:
    """Levenshtein distance of every pair on the numpy backend.

    Returns an ``int64`` array aligned with *pairs*, equal to
    ``[levenshtein_distance(x, y) for x, y in pairs]`` (the tests verify
    this): :func:`encode_batch` plus the bit-parallel pair lanes of
    :func:`levenshtein_lanes_encoded`.
    """
    return levenshtein_lanes_encoded(*encode_batch(pairs))


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

    Cells take the narrowest type holding the sentinel plus one step,
    ``(M + N + 2) ** 2`` for padded widths ``M`` and ``N`` (see
    :func:`_cells`): ``uint16`` up to ``M + N = 253``, then ``int32``.
    Every op stays in that type -- the mismatch mask is multiplied by a
    typed ``K``, and a cell's deletion and insertion are compared as
    ``min(up + 1, left) + (K - 1)``, so nothing is subtracted from an
    unsigned cell -- and harvested packs turn ``int64`` before the
    negating ceiling division.
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
    cell, K, inf = _cells(M + N, packed=True)
    paid = cell(K)  # typed: a Python int would widen the mask to int64
    # empty-sided pairs were answered above: they come due on no diagonal
    done_at = _harvest_schedule(np.where(x_empty | y_empty, 0, mx + my))
    prev2 = np.full((P, size), inf, dtype=cell)
    prev = np.full((P, size), inf, dtype=cell)
    prev2[:, 0] = 0  # (0, 0): d=0, ni=0
    prev[:, 0] = K - 1  # (0, 1): d=1, ni=1 (one insertion)
    prev[:, 1] = K  # (1, 0): d=1, ni=0 (one deletion)
    cur = np.empty((P, size), dtype=cell)
    Yr = np.ascontiguousarray(Y[:, ::-1])  # each diagonal reads y backwards
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
            ys = Yr[:, N - t + a : N - t + b + 1]  # y[t-a-1], ..., y[t-b-1]
            diag = (xs != ys) * paid
            diag += prev2[:, a - 1 : b]
            # deletion of x[i-1] (+K) or insertion of y[j-1] (+K-1),
            # with no subtraction from an unsigned cell
            step = np.minimum(prev[:, a - 1 : b] + 1, prev[:, a : b + 1])
            step += K - 1
            np.minimum(diag, step, out=cur[:, a : b + 1])
        idx = done_at.get(t)
        if idx is not None:
            pack = cur[idx, mx[idx]].astype(np.int64)  # negated below
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
#   pruned sentinel, and harvest (on the pair's final diagonal) compares
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
#
# Cells are as narrow as the full sweeps' (:func:`_cells`): a band-edge
# cell adds one step to a sentinel, so ``inf + K`` -- ``M + N + 3`` for
# ``d_E``, ``(M + N + 2) ** 2`` for the packed twin tables -- must fit,
# which keeps ``d_E`` buckets in ``uint16`` up to ``M + N = 65,532`` and
# twin-table buckets up to 253.  Retirement compares the narrow window
# minima against the ``int64`` budgets, and harvested packs turn
# ``int64`` before they are decoded.


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
    values, _, exact = _swept_bounded(X, Y, mx, my, bounds, packed=False)
    return values, exact


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
    return _swept_bounded(X, Y, mx, my, bounds, packed=True)


def _swept_bounded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
    packed: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The banded bounded sweep of both bounded kernels (see the block
    comment above): ``(d_e, ni, exact)``, with ``ni`` the exact ``Ni``
    of the packed twin tables (``packed``) and 0 for plain ``d_E``.

    Both recurrences take a paid step of ``K`` and differ only in the
    insertion, which costs ``K - 1`` in the packed tables (``d + 1``,
    ``ni + 1``) and ``K = 1`` in ``d_E``.  The sweep's bookkeeping --
    the widest surviving band, the live count, the pairs due on each
    diagonal -- changes only when a pair is harvested or retired, so it
    is recomputed then rather than on every diagonal.
    """
    P = len(mx)
    out_d = np.zeros(P, dtype=np.int64)
    out_ni = np.zeros(P, dtype=np.int64)
    exact = np.zeros(P, dtype=bool)
    if P == 0:
        return out_d, out_ni, exact
    b_all = np.minimum(
        np.maximum(np.asarray(bounds, dtype=np.int64), 0), mx + my
    )
    pruned = np.abs(mx - my) > b_all  # d_E >= |m - n| busts the budget
    trivial = ((mx == 0) | (my == 0)) & ~pruned
    out_d[trivial] = np.maximum(mx, my)[trivial]  # d_E == |m - n|
    x_empty = trivial & (mx == 0)
    out_ni[x_empty] = my[x_empty]  # pure insertions
    exact[trivial] = True
    out_d[pruned] = b_all[pruned] + 1
    rows = np.nonzero(~trivial & ~pruned)[0]
    if len(rows) == 0:
        return out_d, out_ni, exact
    X, Yr = X[rows], Y[rows, ::-1]  # each diagonal reads y backwards
    mx, b = mx[rows], b_all[rows]
    final = mx + my[rows]
    M, N = X.shape[1], Yr.shape[1]
    size = M + 1
    cell, K, inf = _cells(M + N, packed)
    paid = cell(K)  # typed: a Python int would widen the mask to int64
    insertion = K - 1 if packed else K
    cadence = _RETIRE_CADENCE
    since_check = 0
    prev_win = (0, min(M, 1))  # written window of diagonal 1
    live = np.ones(len(rows), dtype=bool)
    n_live = len(rows)
    due = _harvest_schedule(final)
    # widest surviving band; >= 1 so the window never goes empty and its
    # edges move by at most one column per diagonal (the sweep's sentinel
    # bookkeeping relies on that, exactly like the full kernels'
    # one-cell-beyond-the-window reads)
    B = max(int(b.max()), 1)
    prev2 = np.full((len(rows), size), inf, dtype=cell)
    prev = np.full((len(rows), size), inf, dtype=cell)
    prev2[:, 0] = 0  # (0, 0)
    prev[:, 0] = insertion  # (0, 1): one insertion
    prev[:, 1] = K  # (1, 0): one deletion
    cur = np.empty((len(rows), size), dtype=cell)
    for t in range(2, M + N + 1):
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
            cur[:, 0] = t * insertion  # (0, t): t insertions
        if H == t:
            cur[:, t] = t * K  # (t, 0): t deletions
        if a <= bb:
            xs = X[:, a - 1 : bb]
            ys = Yr[:, N - t + a : N - t + bb + 1]  # y[t-a-1], ..., y[t-bb-1]
            mismatch = xs != ys
            diag = prev2[:, a - 1 : bb] + (mismatch * paid if packed else mismatch)
            # min(del + K, ins + insertion) as min(del + K - insertion,
            # ins) + insertion: K - insertion is 1 or 0, and no unsigned
            # cell is ever subtracted from
            up = prev[:, a - 1 : bb]  # deletion of x[i-1]
            step = np.minimum(up + 1 if packed else up, prev[:, a : bb + 1])
            step += insertion
            np.minimum(diag, step, out=cur[:, a : bb + 1])
        changed = False
        ready = due.get(t)
        if ready is not None:
            idx = ready[live[ready]]
            if len(idx):
                pack = cur[idx, mx[idx]].astype(np.int64)  # negated below
                d = -(-pack // K)  # ceil: ni = 0 packs sit exactly on d * K
                ok = d <= b[idx]
                out_d[rows[idx]] = np.where(ok, d, b[idx] + 1)
                out_ni[rows[idx]] = np.where(ok, d * K - pack, 0)
                exact[rows[idx]] = ok
                live[idx] = False
                n_live -= len(idx)
                changed = True
        since_check += 1
        if since_check >= cadence and n_live:
            # retirement check, sampled: minima of the last two diagonals
            # over their written windows (all later cells derive from
            # them by non-negative increments); packs above b * K hold
            # d_E > b, because ni <= d
            since_check = 0
            min_cur = cur[:, L : H + 1].min(axis=1)
            min_prev = prev[:, prev_win[0] : prev_win[1] + 1].min(axis=1)
            dead = live & (min_cur > b * K) & (min_prev > b * K)
            if dead.any():
                idx = np.nonzero(dead)[0]
                out_d[rows[idx]] = b[idx] + 1
                live[idx] = False
                n_live -= len(idx)
                changed = True
        prev2, prev, cur = prev, cur, prev2
        prev_win = (L, H)
        if not n_live:
            break
        if changed:
            if n_live * 2 <= len(rows):
                keep = np.nonzero(live)[0]
                rows, X, Yr = rows[keep], X[keep], Yr[keep]
                mx, b, final = mx[keep], b[keep], final[keep]
                prev2, prev, cur = prev2[keep], prev[keep], cur[keep]
                live = np.ones(n_live, dtype=bool)
                due = _harvest_schedule(final)
            B = max(int(b[live].max()), 1)
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
