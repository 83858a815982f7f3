"""Optional numba-JIT kernel backend for the DP sweeps.

The numpy anti-diagonal kernels (:mod:`repro.core._kernels`,
:mod:`repro.batch.kernels`) pay one interpreter dispatch per diagonal;
a compiled kernel pays one dispatch per *call* and then runs the whole
Wagner--Fischer table at machine speed.  This module provides that
backend as a strictly optional dependency:

* when :mod:`numba` is importable (``pip install repro[jit]``) and not
  disabled via ``REPRO_JIT=0``, :func:`active` returns True, the public
  batch kernels in :mod:`repro.batch.kernels` dispatch here, and the
  scalar entry points in :mod:`repro.core` run their compiled twins at
  every length (``levenshtein_distance`` instead of its bit-parallel
  DP; the contextual heuristic's ``_NUMPY_THRESHOLD`` drops to zero, so
  its pure-Python/numpy crossover disappears);
* when numba is absent, nothing changes: every caller falls back to the
  existing numpy/pure-Python kernels, **bit-identically** -- all kernels
  here are integer DPs computing the same recurrences, so the returned
  ``(d_E, Ni)`` values are equal by construction and the test-suite
  cross-checks them whenever numba happens to be installed.

The compiled functions deliberately use plain two-row DP loops rather
than the anti-diagonal form: vectorisation is what the anti-diagonal
trick buys *numpy*, while compiled code is fastest walking rows with
scalar arithmetic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from ..core.harmonic import harmonic_prefix
from ..core.types import Symbols
from ..tools import knobs

#: Encoded kernel-input aliases, matching :mod:`repro.batch.kernels`
#: (the two backends share the ``(X, Y, mx, my)`` contract).
IntMatrix = npt.NDArray[np.integer]
IntVector = npt.NDArray[np.integer]
FloatVector = npt.NDArray[np.floating]

__all__ = [
    "available",
    "active",
    "backend_name",
    "levenshtein_batch",
    "levenshtein_batch_encoded",
    "levenshtein_batch_bounded",
    "levenshtein_batch_bounded_encoded",
    "contextual_heuristic_batch",
    "contextual_heuristic_batch_encoded",
    "contextual_heuristic_batch_bounded",
    "contextual_heuristic_batch_bounded_encoded",
    "levenshtein_single",
    "contextual_heuristic_single",
    "parametric_alignment",
    "banded_parametric",
    "mv_banded_probe_batch_encoded",
    "mv_distance",
    "mv_distance_batch",
    "mv_distance_batch_encoded",
    "insertion_table_final",
    "contextual_distance",
    "contextual_distance_batch",
    "contextual_distance_batch_encoded",
]

#: Max-insertion sentinel, matching the numpy kernels.
_NEG = -(1 << 30)


def _jit_disabled() -> bool:
    """True when the operator opted out via the environment."""
    return not knobs.get_flag("REPRO_JIT")


try:  # pragma: no cover - exercised only where numba is installed
    if _jit_disabled():
        raise ImportError("JIT disabled via REPRO_JIT")
    from numba import njit as _njit

    _HAVE_NUMBA = True
except Exception:  # numba absent (or disabled): keep the module importable
    _HAVE_NUMBA = False

    def _njit(*args: Any, **kwargs: Any) -> Any:  # no-op decorator stand-in
        if args and callable(args[0]):
            return args[0]

        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            return fn

        return wrap


def available() -> bool:
    """True when numba is importable, even if disabled via ``REPRO_JIT``."""
    if _HAVE_NUMBA:
        return True
    try:  # pragma: no cover - depends on the host environment
        import numba  # noqa: F401

        return True
    except Exception:
        return False


def active() -> bool:
    """True when the JIT backend should serve kernel dispatch."""
    return _HAVE_NUMBA


def backend_name() -> str:
    """``"numba"`` or ``"numpy"`` -- recorded by the benchmarks."""
    return "numba" if active() else "numpy"


# ---------------------------------------------------------------------------
# compiled kernels (integer DP over encoded symbol arrays)
# ---------------------------------------------------------------------------


@_njit(cache=True)
def _lev_pair(cx: IntVector, cy: IntVector) -> int:  # pragma: no cover - compiled path
    """Two-row Wagner--Fischer over encoded arrays; returns ``d_E``."""
    m, n = cx.shape[0], cy.shape[0]
    if m == 0:
        return n
    if n == 0:
        return m
    prev = np.empty(n + 1, dtype=np.int64)
    cur = np.empty(n + 1, dtype=np.int64)
    for j in range(n + 1):
        prev[j] = j
    for i in range(1, m + 1):
        xi = cx[i - 1]
        cur[0] = i
        for j in range(1, n + 1):
            best = prev[j - 1] if xi == cy[j - 1] else prev[j - 1] + 1
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            cur[j] = best
        prev, cur = cur, prev
    return prev[n]


@_njit(cache=True)
def _ctx_pair(cx: IntVector, cy: IntVector) -> Tuple[int, int]:  # pragma: no cover - compiled path
    """Twin-table heuristic DP; returns ``(d_E, Ni)``.

    ``Ni`` is the maximum insertion count over minimum-cost internal edit
    paths -- identical to ``repro.core.contextual._heuristic_tables``.
    """
    m, n = cx.shape[0], cy.shape[0]
    if m == 0:
        return n, n
    if n == 0:
        return m, 0
    prev_d = np.empty(n + 1, dtype=np.int64)
    prev_ni = np.empty(n + 1, dtype=np.int64)
    cur_d = np.empty(n + 1, dtype=np.int64)
    cur_ni = np.empty(n + 1, dtype=np.int64)
    for j in range(n + 1):
        prev_d[j] = j
        prev_ni[j] = j  # ni[0][j] = j insertions
    for i in range(1, m + 1):
        xi = cx[i - 1]
        cur_d[0] = i
        cur_ni[0] = 0  # ni[i][0] = 0 (pure deletions)
        for j in range(1, n + 1):
            diag = prev_d[j - 1] if xi == cy[j - 1] else prev_d[j - 1] + 1
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
        prev_d, cur_d = cur_d, prev_d
        prev_ni, cur_ni = cur_ni, prev_ni
    return prev_d[n], prev_ni[n]


@_njit(cache=True)
def _lev_batch(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, out: IntVector) -> None:  # pragma: no cover - compiled path
    for p in range(X.shape[0]):
        out[p] = _lev_pair(X[p, : mx[p]], Y[p, : my[p]])


@_njit(cache=True)
def _ctx_batch(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, out_d: IntVector, out_ni: IntVector) -> None:  # pragma: no cover
    for p in range(X.shape[0]):
        d, ni = _ctx_pair(X[p, : mx[p]], Y[p, : my[p]])
        out_d[p] = d
        out_ni[p] = ni


@_njit(cache=True)
def _lev_pair_bounded(cx: IntVector, cy: IntVector, bound: int) -> Tuple[int, bool]:  # pragma: no cover - compiled path
    """Ukkonen-banded two-row ``d_E`` with row abort.

    Returns ``(value, exact)``: the exact distance and True when it is
    at most *bound*, else ``(bound + 1, False)``.  The compiled twin of
    ``repro.core.levenshtein.levenshtein_within`` (with the pruned case
    folded into the return value instead of None).
    """
    m, n = cx.shape[0], cy.shape[0]
    gap = m - n if m > n else n - m
    if gap > bound:
        return bound + 1, False
    if n == 0:
        return m, True  # m == gap <= bound
    if m == 0:
        return n, True
    infinity = bound + 1
    prev = np.empty(n + 1, dtype=np.int64)
    cur = np.empty(n + 1, dtype=np.int64)
    for j in range(n + 1):
        prev[j] = j if j <= bound else infinity
    for i in range(1, m + 1):
        xi = cx[i - 1]
        lo = i - bound if i - bound > 1 else 1
        hi = i + bound if i + bound < n else n
        # sentinels just outside the band; the next row reads at most
        # one cell beyond it, so a full-row fill is unnecessary
        cur[lo - 1] = infinity
        if hi + 1 <= n:
            cur[hi + 1] = infinity
        if i <= bound:
            cur[0] = i
            row_min = cur[0]
        else:
            row_min = infinity
        for j in range(lo, hi + 1):
            best = prev[j - 1] + (0 if xi == cy[j - 1] else 1)
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            if best > infinity:
                best = infinity
            cur[j] = best
            if best < row_min:
                row_min = best
        if row_min > bound:
            return bound + 1, False
        prev, cur = cur, prev
    if prev[n] <= bound:
        return prev[n], True
    return bound + 1, False


@_njit(cache=True)
def _ctx_pair_bounded(cx: IntVector, cy: IntVector, bound: int) -> Tuple[int, int, bool]:  # pragma: no cover - compiled path
    """Banded twin tables: ``(d_E, Ni, exact)`` when ``d_E <= bound``.

    The compiled twin of ``repro.core.bounded._banded_heuristic_tables``
    (same recurrence, same row abort); pruned pairs return
    ``(bound + 1, 0, False)``.
    """
    m, n = cx.shape[0], cy.shape[0]
    gap = m - n if m > n else n - m
    if gap > bound:
        return bound + 1, 0, False
    if m == 0:
        return n, n, True  # n == gap <= bound; pure insertions
    if n == 0:
        return m, 0, True  # pure deletions
    infinity = bound + 1
    prev_d = np.empty(n + 1, dtype=np.int64)
    prev_ni = np.empty(n + 1, dtype=np.int64)
    cur_d = np.empty(n + 1, dtype=np.int64)
    cur_ni = np.empty(n + 1, dtype=np.int64)
    for j in range(n + 1):
        prev_d[j] = j if j <= bound else infinity
        prev_ni[j] = j  # ni[0][j] = j insertions
    for i in range(1, m + 1):
        xi = cx[i - 1]
        lo = i - bound if i - bound > 1 else 1
        hi = i + bound if i + bound < n else n
        cur_d[lo - 1] = infinity
        cur_ni[lo - 1] = _NEG
        if hi + 1 <= n:
            cur_d[hi + 1] = infinity
            cur_ni[hi + 1] = _NEG
        if i <= bound:
            cur_d[0] = i
            cur_ni[0] = 0  # ni[i][0] = 0 (pure deletions)
            row_min = cur_d[0]
        else:
            row_min = infinity
        for j in range(lo, hi + 1):
            diag = prev_d[j - 1] + (0 if xi == cy[j - 1] else 1)
            up = prev_d[j] + 1
            left = cur_d[j - 1] + 1
            d = diag if diag < up else up
            if left < d:
                d = left
            if d > infinity:
                d = infinity
            cur_d[j] = d
            best = _NEG
            if diag == d and prev_ni[j - 1] > best:
                best = prev_ni[j - 1]
            if up == d and prev_ni[j] > best:
                best = prev_ni[j]
            if left == d and cur_ni[j - 1] + 1 > best:
                best = cur_ni[j - 1] + 1
            cur_ni[j] = best
            if d < row_min:
                row_min = d
        if row_min > bound:
            return bound + 1, 0, False
        prev_d, cur_d = cur_d, prev_d
        prev_ni, cur_ni = cur_ni, prev_ni
    if prev_d[n] <= bound:
        return prev_d[n], prev_ni[n], True
    return bound + 1, 0, False


@_njit(cache=True)
def _lev_batch_bounded(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, b: IntVector, out: IntVector, exact: npt.NDArray[np.bool_]) -> None:  # pragma: no cover
    for p in range(X.shape[0]):
        d, ok = _lev_pair_bounded(X[p, : mx[p]], Y[p, : my[p]], b[p])
        out[p] = d
        exact[p] = ok


@_njit(cache=True)
def _ctx_batch_bounded(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, b: IntVector, out_d: IntVector, out_ni: IntVector, exact: npt.NDArray[np.bool_]) -> None:  # pragma: no cover
    for p in range(X.shape[0]):
        d, ni, ok = _ctx_pair_bounded(X[p, : mx[p]], Y[p, : my[p]], b[p])
        out_d[p] = d
        out_ni[p] = ni
        exact[p] = ok


@_njit(cache=True)
def _parametric_pair(cx: IntVector, cy: IntVector, lam: float) -> Tuple[float, int]:  # pragma: no cover - compiled path
    """Unit-cost parametric alignment: ``min_pi W(pi) - lam * L(pi)``.

    The compiled twin of
    ``repro.core._kernels.parametric_alignment_numpy``: identical cell
    arithmetic and the identical left/up/diag tie order for the carried
    ``(W, L)``, so the returned pair is bit-for-bit the numpy kernel's.
    Returns ``(W, L)`` of the minimising path.
    """
    m, n = cx.shape[0], cy.shape[0]
    if m == 0:
        return float(n), n
    if n == 0:
        return float(m), m
    paid = 1.0 - lam
    free = -lam
    prev_s = np.empty(n + 1, dtype=np.float64)
    prev_w = np.empty(n + 1, dtype=np.float64)
    prev_l = np.empty(n + 1, dtype=np.int64)
    cur_s = np.empty(n + 1, dtype=np.float64)
    cur_w = np.empty(n + 1, dtype=np.float64)
    cur_l = np.empty(n + 1, dtype=np.int64)
    prev_s[0] = 0.0
    prev_w[0] = 0.0
    prev_l[0] = 0
    for j in range(1, n + 1):  # row 0: j insertions
        prev_s[j] = j * paid
        prev_w[j] = float(j)
        prev_l[j] = j
    for i in range(1, m + 1):
        xi = cx[i - 1]
        cur_s[0] = i * paid  # column 0: i deletions
        cur_w[0] = float(i)
        cur_l[0] = i
        for j in range(1, n + 1):
            match = xi == cy[j - 1]
            diag_s = prev_s[j - 1] + (free if match else paid)
            up_s = prev_s[j] + paid  # deletion of x[i-1]
            left_s = cur_s[j - 1] + paid  # insertion of y[j-1]
            best = diag_s if diag_s < up_s else up_s
            if left_s < best:
                best = left_s
            # carry (W, L) of whichever candidate achieved the best
            # score, in the numpy kernel's where-order: left, up, diag
            if left_s == best:
                cur_w[j] = cur_w[j - 1] + 1.0
                cur_l[j] = cur_l[j - 1] + 1
            elif up_s == best:
                cur_w[j] = prev_w[j] + 1.0
                cur_l[j] = prev_l[j] + 1
            else:
                cur_w[j] = prev_w[j - 1] + (0.0 if match else 1.0)
                cur_l[j] = prev_l[j - 1] + 1
            cur_s[j] = best
        prev_s, cur_s = cur_s, prev_s
        prev_w, cur_w = cur_w, prev_w
        prev_l, cur_l = cur_l, prev_l
    return prev_w[n], prev_l[n]


@_njit(cache=True)
def _banded_parametric_pair(cx: IntVector, cy: IntVector, lam: float, band: int) -> float:  # pragma: no cover
    """Banded parametric probe: minimal ``W - lam * L`` inside the band.

    The compiled twin of ``repro.core.bounded._banded_parametric`` --
    identical float arithmetic and (diag-first) tie order, so the
    returned score matches the pure-Python probe bit for bit.
    """
    m, n = cx.shape[0], cy.shape[0]
    inf = np.inf
    paid = 1.0 - lam
    prev = np.empty(n + 1, dtype=np.float64)
    cur = np.empty(n + 1, dtype=np.float64)
    for j in range(n + 1):
        prev[j] = inf
    prev[0] = 0.0
    top = n if n < band else band
    for j in range(1, top + 1):
        prev[j] = j * paid
    for i in range(1, m + 1):
        xi = cx[i - 1]
        lo = i - band if i - band > 1 else 1
        hi = i + band if i + band < n else n
        for j in range(n + 1):
            cur[j] = inf
        if i <= band:
            cur[0] = i * paid
        for j in range(lo, hi + 1):
            step = -lam if xi == cy[j - 1] else paid
            best = prev[j - 1] + step
            up = prev[j] + paid
            if up < best:
                best = up
            left = cur[j - 1] + paid
            if left < best:
                best = left
            cur[j] = best
        prev, cur = cur, prev
    return prev[n]


@_njit(cache=True)
def _mv_probe_batch(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, lams: FloatVector, bands: IntVector, out: FloatVector) -> None:  # pragma: no cover
    """Compiled batch of banded parametric probes -- one
    ``_banded_parametric_pair`` per pair, all inside a single call.

    Pairs whose band cannot reach the final cell return ``+inf``
    (matching the pure-Python probe, whose final cell is never
    written) -- ``_banded_parametric_pair`` assumes a reachable band,
    so the gap test lives out here."""
    for p in range(X.shape[0]):
        m, n = mx[p], my[p]
        gap = m - n if m > n else n - m
        if gap > bands[p]:
            out[p] = np.inf
        else:
            out[p] = _banded_parametric_pair(
                X[p, : mx[p]], Y[p, : my[p]], lams[p], bands[p]
            )


@_njit(cache=True)
def _mv_pair(cx: IntVector, cy: IntVector, max_iterations: int, tolerance: float) -> float:  # pragma: no cover
    """Dinkelbach iteration over the compiled parametric kernel.

    The compiled twin of the unit-cost
    ``repro.core.marzal_vidal.mv_normalized_distance_fractional`` loop:
    same start, same update, same stopping rule.
    """
    if cx.shape[0] == 0 and cy.shape[0] == 0:
        return 0.0
    lam = 0.0
    for _ in range(max_iterations):
        weight, length = _parametric_pair(cx, cy, lam)
        if length == 0:
            return 0.0
        ratio = weight / length
        if abs(ratio - lam) <= tolerance:
            return ratio
        lam = ratio
    return lam


@_njit(cache=True)
def _mv_batch(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, max_iterations: int, tolerance: float, out: FloatVector) -> None:  # pragma: no cover
    for p in range(X.shape[0]):
        out[p] = _mv_pair(
            X[p, : mx[p]], Y[p, : my[p]], max_iterations, tolerance
        )


@_njit(cache=True)
def _insertion_final(cx: IntVector, cy: IntVector, k_max: int) -> IntVector:  # pragma: no cover - compiled path
    """Algorithm 1's k-axis DP: the final column ``ni[|x|][|y|][:]``.

    The compiled twin of
    ``repro.core.contextual._insertion_table_final`` -- an integer DP,
    so backend values are equal by construction.
    """
    m, n = cx.shape[0], cy.shape[0]
    kk = k_max + 1
    prev = np.full((n + 1, kk), _NEG, dtype=np.int64)
    cur = np.empty((n + 1, kk), dtype=np.int64)
    top = n if n < k_max else k_max
    for j in range(top + 1):
        prev[j, j] = j  # ni[0][j][j] = j insertions
    for i in range(1, m + 1):
        xi = cx[i - 1]
        for k in range(kk):
            cur[0, k] = _NEG
        if i <= k_max:
            cur[0, i] = 0  # only path to the empty prefix: i deletions
        for j in range(1, n + 1):
            eq = xi == cy[j - 1]
            for k in range(kk):
                if eq:
                    best = prev[j - 1, k]  # free match, same k
                elif k:
                    best = prev[j - 1, k - 1]  # paid substitution
                else:
                    best = _NEG
                if k:
                    v = prev[j, k - 1]  # deletion
                    if v > best:
                        best = v
                    v = cur[j - 1, k - 1] + 1  # insertion
                    if v > best:
                        best = v
                cur[j, k] = best
        prev, cur = cur, prev
    return prev[n].copy()


@_njit(cache=True)
def _canonical_cost_h(m: int, n: int, k: int, ni: int, H: FloatVector) -> float:  # pragma: no cover - compiled path
    """``canonical_cost`` over a harmonic prefix table; -1.0 = infeasible.

    Replays ``repro.core.contextual.canonical_cost`` add by add (the
    prefix table holds the exact doubles of the process-wide
    ``HarmonicTable``), so feasible costs are bit-identical.
    """
    if ni < 0:
        return -1.0
    nd = m - n + ni
    ns = k - ni - nd
    if nd < 0 or ns < 0:
        return -1.0
    peak = m + ni
    cost = H[peak] - H[m] if peak > m else 0.0
    if ns != 0:
        cost += ns / peak
    cost += H[n + nd] - H[n] if n + nd > n else 0.0
    return cost


@_njit(cache=True)
def _cdc_pair(cx: IntVector, cy: IntVector, H: FloatVector) -> float:  # pragma: no cover - compiled path
    """Exact ``d_C`` of one pair: heuristic bound, capped k-axis DP,
    cost minimisation -- the compiled mirror of
    ``repro.core.contextual.contextual_distance`` (same float ops in the
    same order, so values agree bit for bit with the scalar path when
    the JIT backend serves it)."""
    m, n = cx.shape[0], cy.shape[0]
    d_e, ni_h = _ctx_pair(cx, cy)
    upper = _canonical_cost_h(m, n, d_e, ni_h, H)
    if upper < 2.0:
        k_max = int((upper * (m + n)) / (2.0 - upper) + 1e-9)
    else:
        k_max = m + n
    if k_max < d_e:
        k_max = d_e
    if k_max > m + n:
        k_max = m + n
    best = upper
    final = _insertion_final(cx, cy, k_max)
    for k in range(k_max + 1):
        ni = final[k]
        if ni < 0:
            continue
        cost = _canonical_cost_h(m, n, k, ni, H)
        if cost >= 0.0 and cost < best:
            best = cost
    return best


@_njit(cache=True)
def _cdc_batch(X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector, H: FloatVector, out: FloatVector) -> None:  # pragma: no cover
    for p in range(X.shape[0]):
        out[p] = _cdc_pair(X[p, : mx[p]], Y[p, : my[p]], H)


# ---------------------------------------------------------------------------
# python-side wrappers (encoding shared with the numpy kernels)
# ---------------------------------------------------------------------------


def _encode_single(x: Symbols, y: Symbols) -> Tuple[np.ndarray, np.ndarray]:
    """Encode one pair with the batch module's scheme (code points for
    pure-``str`` pairs, one shared dictionary otherwise)."""
    from .kernels import _encode_one

    codes: Dict[Hashable, int] = {}
    if isinstance(x, str) and isinstance(y, str):
        return _encode_one(x, codes), _encode_one(y, codes)
    return _encode_one(tuple(x), codes), _encode_one(tuple(y), codes)


def levenshtein_single(x: Symbols, y: Symbols) -> int:
    """Compiled scalar ``d_E`` (the JIT twin of
    ``repro.core.levenshtein.levenshtein_distance``)."""
    cx, cy = _encode_single(x, y)
    return int(_lev_pair(cx, cy))


def contextual_heuristic_single(x: Symbols, y: Symbols) -> Tuple[int, int]:
    """Compiled scalar ``(d_E, Ni)`` twin of ``contextual_heuristic_numpy``."""
    cx, cy = _encode_single(x, y)
    d, ni = _ctx_pair(cx, cy)
    return int(d), int(ni)


def levenshtein_batch(pairs: Sequence[Tuple[Symbols, Symbols]]) -> np.ndarray:
    """Compiled twin of :func:`repro.batch.kernels.levenshtein_batch`."""
    from .kernels import encode_batch

    if not len(pairs):
        return np.zeros(0, dtype=np.int64)
    return levenshtein_batch_encoded(*encode_batch(pairs))


def levenshtein_batch_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> np.ndarray:
    """:func:`levenshtein_batch` over pre-encoded matrices (the
    interned-corpus dispatch path)."""
    out = np.zeros(len(mx), dtype=np.int64)
    if len(mx):
        _lev_batch(X, Y, mx, my, out)
    return out


def contextual_heuristic_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled twin of
    :func:`repro.batch.kernels.contextual_heuristic_batch`."""
    from .kernels import encode_batch

    if not len(pairs):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return contextual_heuristic_batch_encoded(*encode_batch(pairs))


def contextual_heuristic_batch_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`contextual_heuristic_batch` over pre-encoded matrices."""
    out_d = np.zeros(len(mx), dtype=np.int64)
    out_ni = np.zeros(len(mx), dtype=np.int64)
    if len(mx):
        _ctx_batch(X, Y, mx, my, out_d, out_ni)
    return out_d, out_ni


def _clamped_bounds(
    bounds: Sequence[int], mx: np.ndarray, my: np.ndarray
) -> np.ndarray:
    """Per-pair budgets clamped into ``[0, |x| + |y|]`` (shared with the
    numpy banded kernels, which clamp identically)."""
    return np.minimum(
        np.maximum(np.asarray(bounds, dtype=np.int64), 0), mx + my
    )


def levenshtein_batch_bounded(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Compiled twin of
    :func:`repro.batch.kernels.levenshtein_batch_bounded_numpy`."""
    from .kernels import encode_batch

    if not len(pairs):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.bool_)
    X, Y, mx, my = encode_batch(pairs)
    return levenshtein_batch_bounded_encoded(X, Y, mx, my, bounds)


def levenshtein_batch_bounded_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`levenshtein_batch_bounded` over pre-encoded matrices."""
    out = np.zeros(len(mx), dtype=np.int64)
    exact = np.zeros(len(mx), dtype=np.bool_)
    if len(mx):
        _lev_batch_bounded(
            X, Y, mx, my, _clamped_bounds(bounds, mx, my), out, exact
        )
    return out, exact


def contextual_heuristic_batch_bounded(
    pairs: Sequence[Tuple[Symbols, Symbols]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled twin of
    :func:`repro.batch.kernels.contextual_heuristic_batch_bounded_numpy`."""
    from .kernels import encode_batch

    if not len(pairs):
        zeros = np.zeros(0, dtype=np.int64)
        return zeros, zeros.copy(), np.zeros(0, dtype=np.bool_)
    X, Y, mx, my = encode_batch(pairs)
    return contextual_heuristic_batch_bounded_encoded(X, Y, mx, my, bounds)


def contextual_heuristic_batch_bounded_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`contextual_heuristic_batch_bounded` over pre-encoded
    matrices."""
    out_d = np.zeros(len(mx), dtype=np.int64)
    out_ni = np.zeros(len(mx), dtype=np.int64)
    exact = np.zeros(len(mx), dtype=np.bool_)
    if len(mx):
        _ctx_batch_bounded(
            X, Y, mx, my, _clamped_bounds(bounds, mx, my), out_d, out_ni, exact
        )
    return out_d, out_ni, exact


def mv_banded_probe_batch_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    lams: Sequence[float],
    bands: Sequence[int],
) -> np.ndarray:
    """Compiled twin of
    :func:`repro.batch.kernels.mv_banded_probe_batch_encoded_numpy`: one
    banded parametric probe per pair, all inside a single call, each
    bit-identical to :func:`banded_parametric`."""
    out = np.zeros(len(mx), dtype=np.float64)
    if len(mx):
        _mv_probe_batch(
            X,
            Y,
            mx,
            my,
            np.asarray(lams, dtype=np.float64),
            np.asarray(bands, dtype=np.int64),
            out,
        )
    return out


def parametric_alignment(x: Symbols, y: Symbols, lam: float) -> Tuple[float, int]:
    """Compiled twin of
    :func:`repro.core._kernels.parametric_alignment_numpy`."""
    cx, cy = _encode_single(x, y)
    weight, length = _parametric_pair(cx, cy, lam)
    return float(weight), int(length)


def banded_parametric(x: Symbols, y: Symbols, lam: float, band: int) -> float:
    """Compiled twin of ``repro.core.bounded._banded_parametric``."""
    cx, cy = _encode_single(x, y)
    return float(_banded_parametric_pair(cx, cy, lam, band))


def mv_distance(
    x: Symbols,
    y: Symbols,
    max_iterations: int = 64,
    tolerance: float = 1e-12,
) -> float:
    """Compiled unit-cost Marzal--Vidal ``d_MV`` (Dinkelbach, all lengths).

    The compiled twin of
    :func:`repro.core.marzal_vidal.mv_normalized_distance_fractional`
    with unit costs; one encode, all iterations inside the kernel.
    """
    cx, cy = _encode_single(x, y)
    return float(_mv_pair(cx, cy, max_iterations, tolerance))


def mv_distance_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
    max_iterations: int = 64,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Compiled batch of :func:`mv_distance`, one kernel call per bucket."""
    from .kernels import encode_batch

    if not len(pairs):
        return np.zeros(0, dtype=np.float64)
    X, Y, mx, my = encode_batch(pairs)
    return mv_distance_batch_encoded(X, Y, mx, my, max_iterations, tolerance)


def mv_distance_batch_encoded(
    X: IntMatrix,
    Y: IntMatrix,
    mx: IntVector,
    my: IntVector,
    max_iterations: int = 64,
    tolerance: float = 1e-12,
) -> np.ndarray:
    """:func:`mv_distance_batch` over pre-encoded matrices."""
    out = np.zeros(len(mx), dtype=np.float64)
    if len(mx):
        _mv_batch(X, Y, mx, my, max_iterations, tolerance, out)
    return out


def insertion_table_final(x: Symbols, y: Symbols, k_max: int) -> np.ndarray:
    """Compiled twin of
    :func:`repro.core.contextual._insertion_table_final` (the final
    column of Algorithm 1's k-axis DP)."""
    cx, cy = _encode_single(x, y)
    return _insertion_final(cx, cy, k_max)


def contextual_distance(x: Symbols, y: Symbols) -> float:
    """Compiled exact ``d_C`` of one pair (heuristic bound + capped
    k-axis DP, all inside the kernel)."""
    cx, cy = _encode_single(x, y)
    return float(_cdc_pair(cx, cy, harmonic_prefix(len(cx) + len(cy))))


def contextual_distance_batch(
    pairs: Sequence[Tuple[Symbols, Symbols]],
) -> np.ndarray:
    """Compiled batch of exact ``d_C``, one kernel call per bucket."""
    from .kernels import encode_batch

    if not len(pairs):
        return np.zeros(0, dtype=np.float64)
    X, Y, mx, my = encode_batch(pairs)
    return contextual_distance_batch_encoded(X, Y, mx, my)


def contextual_distance_batch_encoded(
    X: IntMatrix, Y: IntMatrix, mx: IntVector, my: IntVector
) -> np.ndarray:
    """:func:`contextual_distance_batch` over pre-encoded matrices."""
    out = np.zeros(len(mx), dtype=np.float64)
    if len(mx):
        _cdc_batch(X, Y, mx, my, harmonic_prefix(int((mx + my).max())), out)
    return out
