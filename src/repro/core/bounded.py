"""Bounded (early-exit) twins of the Levenshtein-backed distances.

A metric index holding a current best radius ``r`` does not need the exact
distance of a candidate that cannot win -- it only needs *some* value
``> r`` to discard it.  Each function here takes ``(x, y, limit)`` and
honours the contract of :func:`~repro.core.levenshtein.levenshtein_bounded`:

* if ``d(x, y) <= limit`` the exact distance is returned;
* otherwise the returned value is guaranteed to exceed ``limit`` (and may
  be an underestimate of the true distance, but never of ``limit``).

The normalised family reduces to a bounded edit distance by inverting the
normalisation: ``d_E / f(|x|, |y|) <= r`` iff ``d_E <= r * f(|x|, |y|)``
(with the Yujian--Bo form solved for ``d_E``), so Ukkonen's band prunes
exactly the right candidates.  The pruned return values replay each
distance's formula at ``k + 1`` (one more edit than the largest feasible
count), which is strictly above ``limit`` by construction.

:func:`bounded_for` maps a registered distance *function* to its bounded
twin, which is how :class:`~repro.index.base.CountingDistance` discovers
early-exit support without the index layer knowing distance names.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple, cast

from .levenshtein import _within, levenshtein_bounded, levenshtein_distance
from .types import DistanceFunction, StringLike, require_strings

__all__ = [
    "BoundedDistanceFunction",
    "bounded_levenshtein",
    "bounded_dmax",
    "bounded_dsum",
    "bounded_dmin",
    "bounded_yujian_bo",
    "bounded_contextual_heuristic",
    "contextual_edit_decision",
    "contextual_heuristic_from_edits",
    "bounded_marzal_vidal",
    "mv_bound_plan",
    "mv_pruned_value",
    "contextual_edit_budget",
    "contextual_pruned_value",
    "register_bounded",
    "bounded_for",
]

#: ``(x, y, limit) -> float`` with the exact-or-above-limit contract.
BoundedDistanceFunction = Callable[[StringLike, StringLike, float], float]

#: A tiny slack so ``r * f`` landing exactly on an integer keeps that
#: integer feasible despite float rounding (overshooting only means the
#: exact distance is computed slightly more often -- never a wrong prune).
_EPS = 1e-9


def _edit_budget(scaled: float) -> int:
    """Largest edit count consistent with a normalised limit ``scaled``."""
    return int(math.floor(scaled + _EPS))


def bounded_levenshtein(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_E`` as a float (the registry's Levenshtein entry)."""
    return float(levenshtein_bounded(x, y, limit))


def bounded_dmax(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_max = d_E / max(|x|, |y|)``."""
    x, y = require_strings(x, y)
    longest = max(len(x), len(y))
    if longest == 0:
        return 0.0
    k = _edit_budget(limit * longest)
    d = levenshtein_bounded(x, y, k)
    if d <= k:
        return d / longest
    return (k + 1) / longest


def bounded_dsum(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_sum = d_E / (|x| + |y|)``."""
    x, y = require_strings(x, y)
    total = len(x) + len(y)
    if total == 0:
        return 0.0
    k = _edit_budget(limit * total)
    d = levenshtein_bounded(x, y, k)
    if d <= k:
        return d / total
    return (k + 1) / total


def bounded_dmin(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_min = d_E / min(|x|, |y|)``."""
    x, y = require_strings(x, y)
    shortest = min(len(x), len(y))
    if shortest == 0:
        return 0.0 if len(x) == len(y) else float("inf")
    k = _edit_budget(limit * shortest)
    d = levenshtein_bounded(x, y, k)
    if d <= k:
        return d / shortest
    return (k + 1) / shortest


def bounded_yujian_bo(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_YB = 2 d_E / (|x| + |y| + d_E)``.

    ``d_YB <= r``  iff  ``d_E <= r (|x| + |y|) / (2 - r)`` for ``r < 2``;
    since ``d_YB <= 1`` always, limits ``>= 1`` cannot prune.
    """
    x, y = require_strings(x, y)
    if not x and not y:
        return 0.0
    total = len(x) + len(y)
    if limit >= 1.0:
        d = levenshtein_distance(x, y)
        return 2.0 * d / (total + d)
    if limit < 0.0:
        # every pair has d_YB >= 0 > limit is impossible to satisfy exactly;
        # x == y was not shortcut by callers, so compute the cheap band-0.
        k = 0
    else:
        k = _edit_budget(limit * total / (2.0 - limit))
    d = levenshtein_bounded(x, y, k)
    if d <= k:
        return 2.0 * d / (total + d)
    return 2.0 * (k + 1) / (total + k + 1)


# ---------------------------------------------------------------------------
# banded twin of the contextual heuristic d_C,h
# ---------------------------------------------------------------------------

#: Sentinel for "no tight path" in the twin-table ni recurrence.
_NEG = -(1 << 30)


def contextual_edit_budget(limit: float, total: int) -> int:
    """Largest ``d_E`` any pair with ``d_C,h <= limit`` can have.

    A path with ``k`` paid operations costs at least ``2k / (total + k)``
    (each operation acts on a string no longer than ``(total + k) / 2``,
    the peak of the canonical path -- the same bound
    :func:`~repro.core.contextual.contextual_distance` uses to cap its
    ``k`` axis).  Inverting: ``d_C,h <= limit`` forces
    ``d_E <= limit * total / (2 - limit)``.  Values ``>= 2`` never prune
    (the bound is always below 2), so they return ``total``: the band
    covers the whole table.
    """
    if limit >= 2.0:
        return total
    if limit < 0.0:
        return -1
    return min(total, _edit_budget(limit * total / (2.0 - limit)))


def contextual_pruned_value(k: int, total: int) -> float:
    """The above-limit value returned when ``d_E`` provably exceeds ``k``:
    the cost lower bound ``2 (k+1) / (total + k + 1)`` of any internal
    path with ``k + 1`` paid operations.  Strictly above any ``limit``
    whose budget (per :func:`contextual_edit_budget`) is ``k``, and a
    lower bound of the true ``d_C,h`` in exact arithmetic (the computed
    heuristic accumulates harmonic sums in floats, so it can land an ulp
    below this directly-rounded closed form -- irrelevant to the within()
    contract, which only compares pruned values against the limit)."""
    return 2.0 * (k + 1) / (total + k + 1)


def _banded_heuristic_tables(
    x: StringLike, y: StringLike, bound: int
) -> Optional[Tuple[int, int]]:
    """Ukkonen-banded twin tables: ``(d_E, Ni)`` when ``d_E <= bound``.

    Only cells with ``|i - j| <= bound`` are evaluated, each row in
    ``O(bound)``; a row whose surviving cells all exceed *bound* aborts
    the sweep (returns None, like
    :func:`~repro.core.levenshtein.levenshtein_within`).

    Exactness inside the band: every minimum-cost edit path of total cost
    ``<= bound`` stays within the band (``|i - j|`` never exceeds the
    cost paid so far), and a tight transition into a cell whose distance
    is ``<= bound`` can only come from an exact in-band predecessor
    (out-of-band or capped cells hold values ``> bound`` and so are never
    tight for such a cell) -- hence both the distance *and* the
    max-insertion count ``Ni`` of the final cell are exact whenever the
    distance is within the bound -- in particular at ``bound = d_E``,
    the narrowest band, which the ``d_E``-checked callers pass.  Caller
    guarantees ``bound >= 0`` and ``abs(len(x) - len(y)) <= bound``.
    """
    m, n = len(x), len(y)
    infinity = bound + 1
    prev_d = [j if j <= bound else infinity for j in range(n + 1)]
    prev_ni = list(range(n + 1))  # ni[0][j] = j (pure insertions)
    for i in range(1, m + 1):
        xi = x[i - 1]
        lo = max(1, i - bound)
        hi = min(n, i + bound)
        cur_d = [infinity] * (n + 1)
        cur_ni = [_NEG] * (n + 1)
        if i <= bound:
            cur_d[0] = i
            cur_ni[0] = 0  # ni[i][0] = 0 (pure deletions)
        row_min = cur_d[0]
        for j in range(lo, hi + 1):
            yj = y[j - 1]
            diag = prev_d[j - 1] + (0 if xi == yj else 1)
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
            return None  # every surviving cell already exceeds the bound
        prev_d, prev_ni = cur_d, cur_ni
    if prev_d[n] <= bound:
        return prev_d[n], prev_ni[n]
    return None


def contextual_edit_decision(
    m: int, n: int, limit: float, d_e: Optional[int]
) -> Optional[float]:
    """The bounded ``d_C,h`` answer that the edit distance of a pair
    with sides *m* and *n* settles alone, or ``None`` when the answer
    is ``canonical_cost(m, n, d_e, Ni)``, ``Ni`` read from the twin
    tables in the band of *d_e*.

    *d_e* is the pair's exact ``d_E``, or ``None`` when it is known only
    to exceed the request's edit budget (:func:`contextual_edit_budget`).
    The heuristic fixes ``k = d_E`` (the paper's Section 4.1), so ``d_E
    = 0`` (equal sides) answers 0.0 at every limit, and a pair over
    budget gets the closed form :func:`contextual_pruned_value` at the
    larger of the budget and ``|m - n| - 1`` (``d_E >= |m - n|``, so a
    length gap past the budget proves more).
    """
    if d_e == 0:
        return 0.0
    total = m + n
    k = contextual_edit_budget(limit, total)
    if d_e is None or d_e > k:
        return contextual_pruned_value(max(k, abs(m - n) - 1), total)
    return None


def contextual_heuristic_from_edits(
    x: StringLike, y: StringLike, limit: float, d_e: Optional[int]
) -> float:
    """One bounded ``d_C,h`` request decided from its edit distance
    *d_e*: the closed form of :func:`contextual_edit_decision`, or the
    twin tables filled in the Ukkonen band of the exact ``d_E`` -- whose
    integers are those of the full tables -- and one
    :func:`~repro.core.contextual.canonical_cost` evaluation.

    The value is :func:`bounded_contextual_heuristic`'s, bit for bit,
    whichever way *d_e* was found: by that twin's own bit-parallel
    check, or read from an exact ``d_E`` row (the lockstep driver's
    check rows).
    """
    x, y = require_strings(x, y)
    m, n = len(x), len(y)
    decided = contextual_edit_decision(m, n, limit, d_e)
    if decided is not None:
        return decided
    d_e, ni = cast(Tuple[int, int], _banded_heuristic_tables(x, y, cast(int, d_e)))
    from .contextual import canonical_cost

    cost = canonical_cost(m, n, d_e, ni)
    if cost is None:  # pragma: no cover - the DP guarantees feasibility
        raise AssertionError(f"infeasible heuristic for {x!r}, {y!r}")
    return cost


def bounded_contextual_heuristic(
    x: StringLike, y: StringLike, limit: float
) -> float:
    """Early-exit contextual heuristic ``d_C,h`` (``d_E`` check, then
    banded twin tables).

    Exact whenever ``d_C,h(x, y) <= limit``; otherwise returns a value
    guaranteed to exceed *limit* (a lower bound of the true distance, up
    to float rounding of the harmonic sums on the exact side).  The
    heuristic fixes ``k = d_E``, so ``d_C,h <= limit`` forces ``d_E``
    under the edit budget of :func:`contextual_edit_budget`.  The
    bit-parallel ``d_E`` check of
    :func:`~repro.core.levenshtein.levenshtein_within` decides that
    first, in at most ``min(|x|, |y|)`` word-operation columns (none
    when ``|m - n|`` already busts the budget), and
    :func:`contextual_heuristic_from_edits` answers from its result: a
    pair over budget gets the closed-form pruned value with no table at
    all, and a pair within it fills the twin tables only in the band of
    its exact ``d_E``.
    """
    x, y = require_strings(x, y)
    if x == y:
        return 0.0
    total = len(x) + len(y)
    k = contextual_edit_budget(limit, total)
    if k >= total:
        # the band covers the whole table: nothing to prune
        from .contextual import contextual_distance_heuristic

        return contextual_distance_heuristic(x, y)
    return contextual_heuristic_from_edits(x, y, limit, _within(x, y, k))


# ---------------------------------------------------------------------------
# banded twin of the Marzal--Vidal normalised distance d_MV
# ---------------------------------------------------------------------------

#: Float-noise margin for the parametric prune test: scores this close to
#: zero fall through to the exact computation (never a wrong prune, only
#: an occasional unnecessary full evaluation).
_MV_EPS = 1e-9

#: Above this (len(x)+len(y)) the probe may use the numpy anti-diagonal
#: parametric kernel (same crossover as the Dinkelbach solver itself).
_MV_NUMPY_PROBE_THRESHOLD = 80

#: Banded-cell budget under which the pure-Python banded probe beats the
#: full-table numpy sweep even for long strings (narrow bands are the
#: common case late in a k-NN search, when the radius is small).
_MV_BANDED_CELL_LIMIT = 4096


def _banded_parametric(
    x: StringLike, y: StringLike, lam: float, band: int
) -> float:
    """Minimum of ``W(pi) - lam * L(pi)`` over paths inside the band.

    The banded variant of
    :func:`~repro.core.marzal_vidal._parametric_best_path` (unit costs):
    cells with ``|i - j| > band`` are treated as unreachable, which is
    sound for the pruning probe because every out-of-band path performs
    more than *band* indels.  Returns only the minimal score (the probe
    does not need the witness path).
    """
    m, n = len(x), len(y)
    inf = float("inf")
    paid = 1.0 - lam
    prev = [inf] * (n + 1)
    prev[0] = 0.0
    for j in range(1, min(n, band) + 1):
        prev[j] = j * paid
    for i in range(1, m + 1):
        xi = x[i - 1]
        lo = max(1, i - band)
        hi = min(n, i + band)
        cur = [inf] * (n + 1)
        if i <= band:
            cur[0] = i * paid
        for j in range(lo, hi + 1):
            step = -lam if xi == y[j - 1] else paid
            best = prev[j - 1] + step
            up = prev[j] + paid
            if up < best:
                best = up
            left = cur[j - 1] + paid
            if left < best:
                best = left
            cur[j] = best
        prev = cur
    return prev[n]


def mv_bound_plan(m: int, n: int, limit: float) -> Tuple[str, float]:
    """Classify one bounded ``d_MV`` request from lengths and limit only.

    The single source of truth for the regime selection of
    :func:`bounded_marzal_vidal` *and* of the batched bounded path in
    :mod:`repro.batch.engine` (which must replay the scalar twin bit for
    bit, so the two may never drift).  Returns ``(tag, aux)``:

    * ``("exact", 0)`` -- the limit cannot prune (``limit >= 1``, the
      unit-cost ``d_MV`` ceiling): compute the full distance;
    * ``("pruned", value)`` -- a closed form already decides the request
      (negative limits, or ``|m - n|`` busting the band): return *value*;
    * ``("full", band)`` -- probe with the full-table parametric kernel
      (wide band on long strings; the pruned value uses the full score
      as its slack, so this branch changes the *value*, not just the
      speed);
    * ``("banded", band)`` -- probe with the banded parametric DP at
      ``lam = limit`` inside ``|i - j| <= band``.

    Caller guarantees ``x != y`` (the zero case never reaches a probe).
    """
    total = m + n
    if limit >= 1.0:
        # unit-cost d_MV never exceeds 1: the limit cannot prune
        return "exact", 0
    if limit < 0.0:
        # any x != y pays >= 1 weight over <= total columns
        return "pruned", 1.0 / total
    band = _edit_budget(limit * total)
    if abs(m - n) > band:
        # every path performs >= |m - n| indels over <= total columns
        return "pruned", abs(m - n) / total
    if (
        total >= _MV_NUMPY_PROBE_THRESHOLD
        and (2 * band + 1) * min(m, n) >= _MV_BANDED_CELL_LIMIT
    ):
        return "full", band
    return "banded", band


def mv_pruned_value(limit: float, total: int, band: int, score: float) -> float:
    """The above-limit value a *banded* probe with a positive *score*
    proves: out-of-band paths pay more than *band* indels, so their
    score is at least ``band + 1 - limit * total > 0`` and the global
    parametric minimum is bounded below by the smaller of the two."""
    slack = min(score, band + 1 - limit * total)
    return limit + slack / total


def bounded_marzal_vidal(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit Marzal--Vidal ``d_MV`` via a banded parametric probe.

    ``d_MV <= r`` iff some editing path has ``W(pi) - r * L(pi) <= 0``,
    which is exactly the Dinkelbach parametric problem evaluated at
    ``lam = r``.  One banded alignment DP therefore decides prunability:

    * a strictly positive minimum proves every path's ratio exceeds
      *limit* -- return ``limit + slack / (|x| + |y|)``, a true lower
      bound of ``d_MV`` that exceeds *limit*;
    * otherwise the exact distance is at most *limit*: compute and
      return it via :func:`~repro.core.marzal_vidal.mv_normalized_distance`
      (bit-identical to the full evaluation by construction).

    The band is sound because any path with ``W <= limit * L`` performs
    at most ``limit * (|x| + |y|)`` indels; wider excursions pay more
    weight than the ratio allows, so they can only make the probe's
    minimum larger.  Regime selection lives in :func:`mv_bound_plan`,
    shared with the batched bounded path.
    """
    x, y = require_strings(x, y)
    # equal symbols, whatever the representation (``x == y`` would tell
    # a str from the tuple of its characters, and prune it below 0)
    if len(x) == len(y) and all(a == b for a, b in zip(x, y)):
        return 0.0
    from .marzal_vidal import mv_normalized_distance

    m, n = len(x), len(y)
    total = m + n
    tag, aux = mv_bound_plan(m, n, limit)
    if tag == "exact":
        return mv_normalized_distance(x, y)
    if tag == "pruned":
        return aux
    band = int(aux)
    # Probe selection is identical on every kernel backend (the branch
    # changes the pruned *value*, not just the speed); the JIT backend
    # merely swaps each probe for its compiled bit-identical twin.
    from ._kernels import jit_backend

    jit = jit_backend()
    if tag == "full":
        # wide band on long strings: the full-table anti-diagonal kernel
        # is cheaper than banded Python; a full-table minimum is a valid
        # (indeed stronger) probe, and its slack needs no band term
        if jit is not None:
            weight, length = jit.parametric_alignment(x, y, limit)
        else:
            from ._kernels import parametric_alignment_numpy

            weight, length = parametric_alignment_numpy(x, y, limit)
        score = weight - limit * length
        if score <= _MV_EPS:
            return mv_normalized_distance(x, y)
        return limit + score / total
    if jit is not None:
        score = jit.banded_parametric(x, y, limit, band)
    else:
        score = _banded_parametric(x, y, limit, band)
    if score <= _MV_EPS:
        return mv_normalized_distance(x, y)
    return mv_pruned_value(limit, total, band, score)


_BOUNDED: Dict[DistanceFunction, BoundedDistanceFunction] = {}


def register_bounded(
    function: DistanceFunction, bounded: BoundedDistanceFunction
) -> None:
    """Associate a distance function with its early-exit twin."""
    _BOUNDED[function] = bounded


def bounded_for(
    function: DistanceFunction,
) -> Optional[BoundedDistanceFunction]:
    """The bounded twin registered for *function*, or None."""
    return _BOUNDED.get(function)


# The raw integer Levenshtein gets its twin here; the registry wires the
# float-valued registered functions as it builds its specs.
register_bounded(levenshtein_distance, levenshtein_bounded)
