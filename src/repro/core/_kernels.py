"""Numpy anti-diagonal kernels for long strings.

The Wagner–Fischer recurrence has a left-neighbour dependency that defeats
row-wise vectorisation, but every dependency of a cell on anti-diagonal
``t = i + j`` lies on diagonals ``t-1`` and ``t-2``, so processing the
table diagonal-by-diagonal turns each step into a handful of slice
operations.  This pays off once strings are a few dozen symbols long (DNA
sequences and digit contours in the paper's datasets are hundreds of
symbols), while the pure-Python kernels in :mod:`.contextual` stay
faster for short words.  (Plain ``d_E`` needs no kernel here: its
bit-parallel DP in :mod:`.levenshtein` beats the anti-diagonal sweep at
every length.)

The kernels are cross-checked against their pure-Python twins by the
test-suite on randomised inputs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

from .types import Symbols

__all__ = [
    "encode_pair",
    "jit_backend",
    "contextual_heuristic_numpy",
    "parametric_alignment_numpy",
]

_NEG = -(1 << 30)

#: Cached reference to the optional compiled backend; "unresolved" until
#: the first kernel-threshold decision asks for it.
_JIT_BACKEND = "unresolved"


def jit_backend():
    """The active numba backend (:mod:`repro.batch.jit`) or None.

    When this returns a module, the scalar distance entry points use
    its compiled kernels at every length: ``levenshtein_distance``
    instead of its bit-parallel DP, and the contextual heuristic with
    its ``_NUMPY_THRESHOLD`` as zero (the compiled kernel replaces both
    the pure-Python and the numpy anti-diagonal paths).
    Resolved lazily (and only once) so importing :mod:`repro.core` never
    pays for a numba probe.
    """
    global _JIT_BACKEND
    if _JIT_BACKEND == "unresolved":
        try:
            from ..batch import jit

            _JIT_BACKEND = jit if jit.active() else None
        except Exception:  # pragma: no cover - defensive import guard
            _JIT_BACKEND = None
    return _JIT_BACKEND


def encode_pair(x: Symbols, y: Symbols) -> Tuple[np.ndarray, np.ndarray]:
    """Map the symbols of *x* and *y* to small ints for vector comparison."""
    codes: Dict[Hashable, int] = {}
    out = []
    for s in (x, y):
        arr = np.empty(len(s), dtype=np.int64)
        for idx, symbol in enumerate(s):
            code = codes.get(symbol)
            if code is None:
                code = len(codes)
                codes[symbol] = code
            arr[idx] = code
        out.append(arr)
    return out[0], out[1]


def contextual_heuristic_numpy(x: Symbols, y: Symbols) -> Tuple[int, int]:
    """Anti-diagonal version of the contextual heuristic's twin tables.

    Returns ``(d_E(x, y), Ni)`` where ``Ni`` is the maximum number of
    insertions over minimum-cost internal edit paths -- the inputs of the
    heuristic's single :func:`~repro.core.contextual.canonical_cost`
    evaluation.
    """
    cx, cy = encode_pair(x, y)
    m, n = len(cx), len(cy)
    if m == 0:
        return n, n
    if n == 0:
        return m, 0
    size = m + 1
    inf = m + n + 1
    prev2_d = np.full(size, inf, dtype=np.int64)
    prev_d = np.full(size, inf, dtype=np.int64)
    prev2_ni = np.full(size, _NEG, dtype=np.int64)
    prev_ni = np.full(size, _NEG, dtype=np.int64)
    prev2_d[0] = 0
    prev2_ni[0] = 0  # ni[0][0] = 0
    prev_d[0] = 1
    prev_ni[0] = 1  # ni[0][1] = 1 (one insertion)
    prev_d[1] = 1
    prev_ni[1] = 0  # ni[1][0] = 0 (one deletion)
    for t in range(2, m + n + 1):
        cur_d = np.full(size, inf, dtype=np.int64)
        cur_ni = np.full(size, _NEG, dtype=np.int64)
        lo = max(0, t - n)
        hi = min(m, t)
        if lo == 0:
            cur_d[0] = t
            cur_ni[0] = t  # ni[0][t] = t insertions
        if hi == t:
            cur_d[t] = t
            cur_ni[t] = 0  # ni[t][0] = 0 insertions
        a = max(1, lo)
        b = min(hi, t - 1)
        if a <= b:
            xs = cx[a - 1 : b]
            ys = cy[t - b - 1 : t - a][::-1]
            diag = prev2_d[a - 1 : b] + (xs != ys)
            up = prev_d[a - 1 : b] + 1  # deletion of x[i-1]
            left = prev_d[a : b + 1] + 1  # insertion of y[j-1]
            d = np.minimum(np.minimum(diag, up), left)
            cur_d[a : b + 1] = d
            # max insertions over tight transitions only
            ni = np.where(diag == d, prev2_ni[a - 1 : b], _NEG)
            np.maximum(ni, np.where(up == d, prev_ni[a - 1 : b], _NEG), out=ni)
            np.maximum(
                ni, np.where(left == d, prev_ni[a : b + 1] + 1, _NEG), out=ni
            )
            cur_ni[a : b + 1] = ni
        prev2_d, prev_d = prev_d, cur_d
        prev2_ni, prev_ni = prev_ni, cur_ni
    return int(prev_d[m]), int(prev_ni[m])


def parametric_alignment_numpy(
    x: Symbols, y: Symbols, lam: float
) -> Tuple[float, int]:
    """Unit-cost parametric alignment: solve ``min_pi W(pi) - lam * L(pi)``.

    The inner step of the Dinkelbach solver for the Marzal–Vidal
    normalised distance (:mod:`.marzal_vidal`), vectorised over
    anti-diagonals.  Matches cost ``-lam``; paid operations ``1 - lam``.
    Returns ``(W, L)`` of the minimising path (W = paid operations).
    """
    cx, cy = encode_pair(x, y)
    m, n = len(cx), len(cy)
    if m == 0:
        return float(n), n
    if n == 0:
        return float(m), m
    size = m + 1
    inf = float("inf")
    paid = 1.0 - lam
    free = -lam
    # score / weight / length per diagonal
    prev2_s = np.full(size, inf)
    prev_s = np.full(size, inf)
    prev2_w = np.zeros(size)
    prev_w = np.zeros(size)
    prev2_l = np.zeros(size, dtype=np.int64)
    prev_l = np.zeros(size, dtype=np.int64)
    prev2_s[0] = 0.0
    prev_s[0] = paid  # cell (0,1): one insertion
    prev_w[0] = 1.0
    prev_l[0] = 1
    prev_s[1] = paid  # cell (1,0): one deletion
    prev_w[1] = 1.0
    prev_l[1] = 1
    for t in range(2, m + n + 1):
        cur_s = np.full(size, inf)
        cur_w = np.zeros(size)
        cur_l = np.zeros(size, dtype=np.int64)
        lo = max(0, t - n)
        hi = min(m, t)
        if lo == 0:
            cur_s[0] = t * paid
            cur_w[0] = float(t)
            cur_l[0] = t
        if hi == t:
            cur_s[t] = t * paid
            cur_w[t] = float(t)
            cur_l[t] = t
        a = max(1, lo)
        b = min(hi, t - 1)
        if a <= b:
            xs = cx[a - 1 : b]
            ys = cy[t - b - 1 : t - a][::-1]
            match = xs == ys
            diag_step_w = np.where(match, 0.0, 1.0)
            diag_step_s = np.where(match, free, paid)
            diag_s = prev2_s[a - 1 : b] + diag_step_s
            up_s = prev_s[a - 1 : b] + paid
            left_s = prev_s[a : b + 1] + paid
            best = np.minimum(np.minimum(diag_s, up_s), left_s)
            cur_s[a : b + 1] = best
            # carry (W, L) of whichever candidate achieved the best score
            w = np.where(
                left_s == best,
                prev_w[a : b + 1] + 1.0,
                np.where(
                    up_s == best,
                    prev_w[a - 1 : b] + 1.0,
                    prev2_w[a - 1 : b] + diag_step_w,
                ),
            )
            ln = np.where(
                left_s == best,
                prev_l[a : b + 1] + 1,
                np.where(
                    up_s == best, prev_l[a - 1 : b] + 1, prev2_l[a - 1 : b] + 1
                ),
            )
            cur_w[a : b + 1] = w
            cur_l[a : b + 1] = ln
        prev2_s, prev_s = prev_s, cur_s
        prev2_w, prev_w = prev_w, cur_w
        prev2_l, prev_l = prev_l, cur_l
    return float(prev_w[m]), int(prev_l[m])
