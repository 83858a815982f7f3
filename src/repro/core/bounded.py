"""Bounded (early-exit) twins of the Levenshtein-backed distances.

A metric index holding a current best radius ``r`` does not need the exact
distance of a candidate that cannot win -- it only needs *some* value
``> r`` to discard it.  Each function here takes ``(x, y, limit)`` and
honours the contract of :func:`~repro.core.levenshtein.levenshtein_bounded`:

* if ``d(x, y) <= limit`` the exact distance is returned;
* otherwise the returned value is guaranteed to exceed ``limit`` (and may
  be an underestimate of the true distance, but never of ``limit``).

The ``d_E`` family reduces to a bounded edit distance by inverting the
normalisation: ``d_E / f(|x|, |y|) <= r`` iff ``d_E <= r * f(|x|, |y|)``
(with the Yujian--Bo form solved for ``d_E``), so Ukkonen's band prunes
exactly the right candidates.  Each twin is two functions of the
lengths (:data:`EDIT_RULES`): an edit **budget** ``(m, n, limit) -> k``,
the whole table ``m + n`` once the scaled limit reaches it (huge and
infinite limits too), and a **decision** ``(m, n, limit, d) -> value``
on the exact ``d_E`` when within the budget (else ``None``): the
distance's formula at ``d``, or at ``k + 1`` (one more edit than the
largest feasible count, strictly above ``limit`` by construction).  The
scalar twins and the batched replay of :mod:`repro.batch.engine` call
the same functions, as do the ``d_C,h`` and ``d_MV`` twins with theirs,
so the two paths cannot drift apart.

:func:`bounded_for` maps a registered distance *function* to its bounded
twin, which is how :class:`~repro.index.base.CountingDistance` discovers
early-exit support without the index layer knowing distance names.
"""

from __future__ import annotations

import math
from functools import partial
from operator import add
from typing import Callable, Dict, Optional, Tuple, cast

from .levenshtein import (
    _within,
    levenshtein_bounded,
    levenshtein_budget,
    levenshtein_decision,
    levenshtein_distance,
)
from .types import DistanceFunction, StringLike, require_strings

__all__ = [
    "BoundedDistanceFunction",
    "EDIT_RULES",
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
    "mv_probe_decision",
    "contextual_edit_budget",
    "contextual_pruned_value",
    "register_bounded",
    "bounded_for",
]

#: ``(x, y, limit) -> float`` with the exact-or-above-limit contract.
BoundedDistanceFunction = Callable[[StringLike, StringLike, float], float]

#: A ``d_E``-family twin's edit budget ``(m, n, limit) -> k`` and its
#: decision ``(m, n, limit, d) -> value``.
EditBudget = Callable[[int, int, float], int]
EditDecision = Callable[[int, int, float, Optional[int]], float]

#: The denominator of a ratio twin, from the two lengths.
_Scale = Callable[[int, int], int]

#: A tiny slack so ``r * f`` landing exactly on an integer keeps that
#: integer feasible despite float rounding (overshooting only means the
#: exact distance is computed slightly more often -- never a wrong prune).
_EPS = 1e-9


def _edit_budget(scaled: float) -> int:
    """Largest edit count consistent with a normalised limit ``scaled``."""
    return math.floor(scaled + _EPS)


def _ratio_budget(scale_of: _Scale, m: int, n: int, limit: float) -> int:
    """The edit budget of the ratio ``d_E / scale_of(m, n)``: the largest
    count ``k`` with ``k / scale <= limit`` (negative below a limit of
    0), or the whole table ``m + n`` once the scaled limit reaches it,
    so an infinite product never reaches the floor; 0 for a zero scale
    (an empty side)."""
    scale, total = scale_of(m, n), m + n
    if scale == 0:
        return 0
    scaled = limit * scale
    return total if scaled >= total else _edit_budget(scaled)


def _ratio_decision(
    scale_of: _Scale, m: int, n: int, limit: float, d: Optional[int]
) -> float:
    """The bounded ratio ``d_E / scale_of(m, n)``: at *d*, or at one edit
    past :func:`_ratio_budget`.  A zero scale is 0.0 between two empty
    sides (``d_E = 0``) and infinite otherwise -- the ``d_min``
    convention; ``d_max`` and ``d_sum`` reach it only with both empty."""
    scale = scale_of(m, n)
    if scale == 0:
        return 0.0 if d == 0 else float("inf")
    if d is None:
        d = _ratio_budget(scale_of, m, n, limit) + 1
    return d / scale


#: The budgets and decisions of ``d_max``, ``d_sum`` and ``d_min``.
dmax_budget, dmax_decision = partial(_ratio_budget, max), partial(_ratio_decision, max)
dsum_budget, dsum_decision = partial(_ratio_budget, add), partial(_ratio_decision, add)
dmin_budget, dmin_decision = partial(_ratio_budget, min), partial(_ratio_decision, min)


def yujian_bo_budget(m: int, n: int, limit: float) -> int:
    """The edit budget of ``d_YB = 2 d_E / (|x| + |y| + d_E)``:
    ``d_YB <= r``  iff  ``d_E <= r (|x| + |y|) / (2 - r)`` for ``r < 2``;
    since ``d_YB <= 1``, limits ``>= 1`` cannot prune (the whole table),
    and below 0 only equal sides (``d_E = 0``) escape the pruned value."""
    total = m + n
    if limit >= 1.0:
        return total
    if limit < 0.0:
        return 0
    return _edit_budget(limit * total / (2.0 - limit))


def yujian_bo_decision(m: int, n: int, limit: float, d: Optional[int]) -> float:
    """The bounded ``d_YB`` answer (see :data:`EditDecision`)."""
    total = m + n
    if total == 0:
        return 0.0
    if d is None:
        d = yujian_bo_budget(m, n, limit) + 1
    return 2.0 * d / (total + d)


def _bounded_edits(
    budget: EditBudget,
    decision: EditDecision,
    x: StringLike,
    y: StringLike,
    limit: float,
) -> float:
    """The one body of every normalised ``d_E``-family twin: the
    bit-parallel ``d_E`` check at the twin's budget, then its decision."""
    x, y = require_strings(x, y)
    m, n = len(x), len(y)
    return decision(m, n, limit, _within(x, y, budget(m, n, limit)))


def bounded_levenshtein(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_E`` as a float (the registry's Levenshtein entry)."""
    return float(levenshtein_bounded(x, y, limit))


def bounded_dmax(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_max = d_E / max(|x|, |y|)``."""
    return _bounded_edits(dmax_budget, dmax_decision, x, y, limit)


def bounded_dsum(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_sum = d_E / (|x| + |y|)``."""
    return _bounded_edits(dsum_budget, dsum_decision, x, y, limit)


def bounded_dmin(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_min = d_E / min(|x|, |y|)``."""
    return _bounded_edits(dmin_budget, dmin_decision, x, y, limit)


def bounded_yujian_bo(x: StringLike, y: StringLike, limit: float) -> float:
    """Early-exit ``d_YB = 2 d_E / (|x| + |y| + d_E)``."""
    return _bounded_edits(yujian_bo_budget, yujian_bo_decision, x, y, limit)


#: Each ``d_E``-family twin's edit budget and decision, keyed by the twin
#: (the raw integer :func:`~repro.core.levenshtein.levenshtein_bounded`
#: included): the batched replay answers each request with the pair of
#: the twin ``within`` would call.
EDIT_RULES: Dict[BoundedDistanceFunction, Tuple[EditBudget, EditDecision]] = {
    levenshtein_bounded: (levenshtein_budget, levenshtein_decision),
    bounded_levenshtein: (levenshtein_budget, levenshtein_decision),
    bounded_dmax: (dmax_budget, dmax_decision),
    bounded_dsum: (dsum_budget, dsum_decision),
    bounded_dmin: (dmin_budget, dmin_decision),
    bounded_yujian_bo: (yujian_bo_budget, yujian_bo_decision),
}


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
    # check d_E = 0 below a limit of 0 too: equal content in two forms
    # (a str and its tuple) escapes ``x == y`` and answers 0.0 all the same
    return contextual_heuristic_from_edits(x, y, limit, _within(x, y, max(k, 0)))


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


def mv_probe_decision(
    x: StringLike,
    y: StringLike,
    limit: float,
    score: float,
    band: Optional[int] = None,
) -> float:
    """The bounded ``d_MV`` answer that a parametric probe at ``lam =
    limit`` settles, from its minimal *score* -- the tail of
    :func:`bounded_marzal_vidal` and of the batched banded probes of
    :mod:`repro.batch.engine` alike.

    A score at or below ``_MV_EPS`` (zero up to float noise) leaves the
    exact distance :func:`~repro.core.marzal_vidal.mv_normalized_distance`
    to compute; a positive one proves ``limit + slack / (|x| + |y|)``,
    a lower bound above *limit*.  The slack is the score of a full-table
    probe, or, for a probe inside *band*, the smaller of its score and
    ``band + 1 - limit * (|x| + |y|) > 0``, the least score of any path
    outside the band (it pays more than *band* indels).
    """
    if score <= _MV_EPS:
        from .marzal_vidal import mv_normalized_distance

        return mv_normalized_distance(x, y)
    total = len(x) + len(y)
    slack = score if band is None else min(score, band + 1 - limit * total)
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
    tag, aux = mv_bound_plan(len(x), len(y), limit)
    if tag == "exact":
        from .marzal_vidal import mv_normalized_distance

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
        return mv_probe_decision(x, y, limit, weight - limit * length)
    if jit is not None:
        score = jit.banded_parametric(x, y, limit, band)
    else:
        score = _banded_parametric(x, y, limit, band)
    return mv_probe_decision(x, y, limit, score, band)


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
