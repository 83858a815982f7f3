"""The Levenshtein (edit) distance ``d_E`` and its supporting machinery.

Implements the classic Wagner–Fischer dynamic programme [Wagner & Fisher
1974], plus the pieces the rest of the library builds on:

* :func:`levenshtein_distance` / :func:`levenshtein_within` -- the
  distance itself and its bounded twin, both on one bit-parallel DP
  [Myers 1999] over Python ints;
* :func:`levenshtein_matrix` -- the full ``(|x|+1) x (|y|+1)`` DP table,
  needed by the contextual heuristic and by Marzal--Vidal;
* :func:`edit_script` -- one optimal internal edit path recovered from the
  table (used for alignments and for ``l_E``, the *marked path length* of
  the paper's Example 3);
* :func:`alignment` -- a column-wise alignment view for pretty-printing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, cast

from ._kernels import jit_backend as _jit
from .paths import EditOp, EditPath
from .types import StringLike, Symbols, require_strings

__all__ = [
    "levenshtein_distance",
    "levenshtein_within",
    "levenshtein_bounded",
    "levenshtein_budget",
    "levenshtein_decision",
    "levenshtein_matrix",
    "edit_script",
    "alignment",
    "internal_path_length",
]


def _bit_parallel(x: Symbols, y: Symbols, bound: int) -> Optional[int]:
    """``d_E(x, y)`` if it is at most *bound*, else None, by Myers' (1999)
    bit-vector DP.

    Column ``j`` of the Wagner--Fischer table (one symbol of *y*) is
    held as vertical delta vectors ``pv`` / ``mv`` over Python ints, bit
    ``i - 1`` for row ``i`` (one symbol of *x*), and advanced with a
    dozen word operations (Hyyrö's 2003 formulation of Myers' step).
    Two refinements keep words and columns few:

    * **Lazy band.** Cells with ``i > j + bound`` exceed the bound, so
      column ``j`` carries only rows ``<= j + bound``: the pattern masks
      and the vectors grow by one row per column.  A row entering the
      band gets vertical delta ``+1``, which can only overestimate the
      out-of-band cells, so every cell whose true value is at most
      *bound* is still computed exactly (Ukkonen's band argument).
    * **Diagonal exit.** The cell on the final diagonal ``i - j =
      len(x) - len(y)`` is tracked from its horizontal and vertical
      deltas; values along a diagonal never decrease, so the sweep stops
      as soon as it exceeds *bound*.

    Caller guarantees ``len(x) >= len(y)`` and ``len(x) - len(y) <=
    bound``; unhashable symbols raise ``TypeError`` (see :func:`_within`).
    """
    m = len(x)
    rows = m if bound >= m else bound  # rows in the band at column 0
    masks: Dict[Any, int] = {}
    get = masks.get
    bit = 1
    for i in range(rows):
        symbol = x[i]
        masks[symbol] = get(symbol, 0) | bit
        bit <<= 1
    band = bit - 1
    pv = band  # column 0: d(i, 0) = i, every vertical delta is +1
    mv = 0
    score = m - len(y)  # d(m - n, 0), the final diagonal's first cell
    diag = 1 << score  # the diagonal cell's row bit in the next column
    for symbol in y:
        if rows < m:  # grow the band by one row, vertical delta +1
            grown = x[rows]
            masks[grown] = get(grown, 0) | bit
            pv |= bit
            band |= bit
            bit <<= 1
            rows += 1
        eq = get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) & band ^ band)
        mh = pv & xh
        ph = (ph << 1) | 1  # row 0 grows by one per column
        mh <<= 1
        pv = mh | ((xv | ph) & band ^ band)
        mv = ph & xv
        # horizontal then vertical step onto the diagonal: +1 iff exactly
        # one of them is +1 and neither is -1 (a diagonal never drops)
        if (ph ^ pv) & diag and not (mh | mv) & diag:
            score += 1
            if score > bound:
                return None
        diag <<= 1
    return score


def _equality_codes(
    x: Symbols, y: Symbols
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Small-int codes for unhashable symbols, found by an equality scan
    (the comparison the DP itself makes), so the bit masks can key on
    them."""
    seen: List[Any] = []

    def code(symbol: Any) -> int:
        for c, known in enumerate(seen):
            if known == symbol:
                return c
        seen.append(symbol)
        return len(seen) - 1

    return tuple(code(s) for s in x), tuple(code(s) for s in y)


def _within(x: Symbols, y: Symbols, bound: int) -> Optional[int]:
    """Orient the pair for :func:`_bit_parallel` (longer side on the
    rows) and answer unhashable symbols through equality codes."""
    if len(x) < len(y):
        x, y = y, x
    if len(x) - len(y) > bound:
        return None
    try:
        return _bit_parallel(x, y, bound)
    except TypeError:  # unhashable symbols
        cx, cy = _equality_codes(x, y)
        return _bit_parallel(cx, cy, bound)


def levenshtein_distance(x: StringLike, y: StringLike) -> int:
    """Return ``d_E(x, y)``: the minimum number of single-symbol insertions,
    deletions and substitutions turning *x* into *y*.

    The bit-parallel core of :func:`levenshtein_within` with a bound no
    distance can exceed, at every length (the numba backend, when
    active, runs its compiled two-row DP instead).

    >>> levenshtein_distance("abaa", "aab")
    2
    """
    x, y = require_strings(x, y)
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return len(x)
    jit = _jit()
    if jit is not None:
        try:
            return jit.levenshtein_single(x, y)
        except TypeError:  # unhashable symbols: the core codes them itself
            pass
    # d_E never exceeds the longer length, so this bound never prunes
    return cast(int, _within(x, y, len(x)))


def levenshtein_within(
    x: StringLike, y: StringLike, bound: int
) -> Optional[int]:
    """Return ``d_E(x, y)`` if it is at most *bound*, else ``None``.

    Ukkonen's band in bit-parallel form (:func:`_bit_parallel`): each
    column costs a dozen word operations over at most ``min(|x|, j +
    bound)`` bits, and the sweep stops as soon as the final diagonal
    exceeds *bound* -- the workhorse behind dictionary lookups with a
    small tolerated error (see ``examples/spellcheck.py`` for the
    metric-index alternative).

    >>> levenshtein_within("abaa", "aab", 2)
    2
    >>> levenshtein_within("abaa", "aab", 1) is None
    True
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    x, y = require_strings(x, y)
    return _within(x, y, bound)


def levenshtein_budget(m: int, n: int, limit: float) -> int:
    """The edit budget of :func:`levenshtein_bounded`: ``int(limit)``,
    the whole table ``m + n`` once the limit reaches it, and 0 below a
    limit of 0, where only equal symbols (``d_E = 0``) are exact."""
    total = m + n
    if limit >= total:
        return total
    return int(limit) if limit >= 0 else 0


def levenshtein_decision(m: int, n: int, limit: float, d: Optional[int]) -> int:
    """The :func:`levenshtein_bounded` answer from *d*, the exact
    ``d_E`` when within :func:`levenshtein_budget` (else ``None``): *d*,
    or one edit past the budget -- or the length gap, a lower bound of
    every ``d_E``, when that proves more."""
    if d is not None:
        return d
    over = levenshtein_budget(m, n, limit) + 1
    gap = m - n if m > n else n - m
    return over if over > gap else gap


def levenshtein_bounded(x: StringLike, y: StringLike, limit: float) -> int:
    """Early-exit ``d_E``: exact when ``d_E(x, y) <= limit``, else a lower
    bound that is guaranteed to exceed *limit*.

    The total-order contract metric indexes need: a caller holding a best
    radius ``r`` can call ``levenshtein_bounded(q, u, r)`` and compare the
    result against ``r`` exactly as if it were the true distance -- any
    candidate it discards would also have been discarded by the full
    ``d_E``, at a fraction of the cost (:func:`levenshtein_within`'s
    band and diagonal exit stop the sweep once the budget is passed):
    :func:`levenshtein_budget` and :func:`levenshtein_decision`, which
    the batched replay calls too.

    >>> levenshtein_bounded("abaa", "aab", 2)
    2
    >>> levenshtein_bounded("abaa", "aab", 1) > 1
    True
    """
    x, y = require_strings(x, y)
    m, n = len(x), len(y)
    d = _within(x, y, levenshtein_budget(m, n, limit))
    return levenshtein_decision(m, n, limit, d)


def levenshtein_matrix(x: StringLike, y: StringLike) -> List[List[int]]:
    """Return the full Wagner–Fischer table ``d`` with
    ``d[i][j] = d_E(x[:i], y[:j])``.

    The table is the substrate for path recovery (:func:`edit_script`) and
    for the contextual heuristic's ``ni`` companion table.
    """
    x, y = require_strings(x, y)
    rows = len(x) + 1
    cols = len(y) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        d[i][0] = i
    d[0] = list(range(cols))
    for i in range(1, rows):
        xi = x[i - 1]
        row = d[i]
        above = d[i - 1]
        for j in range(1, cols):
            cost_diag = above[j - 1] + (0 if xi == y[j - 1] else 1)
            row[j] = min(cost_diag, above[j] + 1, row[j - 1] + 1)
    return d


def edit_script(x: StringLike, y: StringLike) -> EditPath:
    """Recover one optimal internal edit path from *x* to *y*.

    Ties are broken to prefer, in order: match/substitution, then
    insertion, then deletion.  Matches are recorded as zero-cost ``match``
    operations so the returned path is the *marked* internal path of the
    paper (its length is ``l_E``).

    Positions refer to the *evolving* string when the operations are
    applied left-to-right: at the step that handles alignment column
    ``(i, j)`` the string is ``y[:j] + x[i:]``, so matches, substitutions
    and insertions act at position ``j`` and deletions at position ``j``
    as well (the first not-yet-processed symbol).  This makes the script
    directly replayable with :func:`repro.core.paths.apply_ops`.
    """
    x, y = require_strings(x, y)
    d = levenshtein_matrix(x, y)
    ops: List[EditOp] = []
    i, j = len(x), len(y)
    while i > 0 or j > 0:
        here = d[i][j]
        if i > 0 and j > 0 and x[i - 1] == y[j - 1] and here == d[i - 1][j - 1]:
            ops.append(EditOp("match", j - 1, x[i - 1], y[j - 1]))
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and here == d[i - 1][j - 1] + 1:
            ops.append(EditOp("substitute", j - 1, x[i - 1], y[j - 1]))
            i -= 1
            j -= 1
        elif j > 0 and here == d[i][j - 1] + 1:
            ops.append(EditOp("insert", j - 1, None, y[j - 1]))
            j -= 1
        else:
            ops.append(EditOp("delete", j, x[i - 1], None))
            i -= 1
    ops.reverse()
    return EditPath(tuple(ops), source=x, target=y)


def internal_path_length(x: StringLike, y: StringLike) -> int:
    """Return ``l_E(pi)`` for an optimal marked path: the number of
    alignment columns (paid operations *plus* zero-cost matches).

    This is the denominator Marzal–Vidal normalise by along a path; for an
    optimal Levenshtein path it equals ``len(edit_script(x, y))``.
    """
    return len(edit_script(x, y).ops)


def alignment(x: StringLike, y: StringLike) -> Tuple[str, str, str]:
    """Return a three-line alignment view ``(top, middle, bottom)``.

    The middle line marks each column: ``|`` match, ``*`` substitution,
    ``+`` insertion, ``-`` deletion.  Symbols are rendered with ``str``;
    gaps with ``.``.  Intended for small demonstrations and doctests:

    >>> alignment("abaa", "aab")
    ('abaa', '|-|*', 'a.ab')
    """
    path = edit_script(x, y)
    top: List[str] = []
    mid: List[str] = []
    bot: List[str] = []
    marks = {"match": "|", "substitute": "*", "insert": "+", "delete": "-"}
    for op in path.ops:
        top.append("." if op.before is None else str(op.before))
        bot.append("." if op.after is None else str(op.after))
        mid.append(marks[op.kind])
    return "".join(top), "".join(mid), "".join(bot)
