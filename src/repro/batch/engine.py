"""The pair-batched distance engine.

Every consumer in the library used to compute distances one Python call at
a time.  This module is the bulk entry point they now share:

* :func:`pairwise_values` -- evaluate a distance over an explicit list of
  ``(x, y)`` pairs, deduplicating repeated pairs, shortcutting ``x == y``
  for registered distances, length-bucketing the rest and running the
  pair-batched anti-diagonal kernels of :mod:`repro.batch.kernels` over
  each bucket (with optional :mod:`multiprocessing` fan-out);
* :func:`pairwise_matrix` -- a full distance matrix; when ``ys is None``
  only the upper triangle is computed and mirrored (the symmetric case);
* :func:`pairwise_matrix_blocks` -- the same matrix as a stream of
  row-block shards, so consumers can fold over matrices that would not
  fit in memory (paper-scale gene sets);
* :func:`pairwise_matrix_memmap` -- the streaming evaluation written
  straight into an on-disk ``.npy`` memmap;
* :func:`distances_from` -- one item against many (pivot rows, linear
  scans).

Sharding is automatic: every entry point defaults to ``workers="auto"``,
which fans unique-pair chunks over a process pool whenever the machine
has more than one core and every worker would receive at least
``_MIN_PAIRS_PER_WORKER`` pairs -- big consumers (Table 2 trials, AESA
preprocessing, histogram sweeps, bulk query phases) parallelise without
opting in pair-list by pair-list.  Pass an integer to force a pool size,
or ``None``/``0``/``1`` to force serial evaluation.  The pool is the
**persistent** one of :mod:`repro.batch.runtime` (spawned once, reused
across calls); ``REPRO_PERSISTENT_POOL=0`` keeps every call in-process
(same values).

Interned dispatch
-----------------
Every entry point runs on interned ids.  :func:`pairwise_values_ids` and
:func:`pairwise_values_bounded_ids` take ``(id, id)`` pairs of a
:class:`~repro.batch.corpus.PairStore`: the indexes dispatch them
against matrices encoded once at index-build time, so repeated bulk
queries skip normalisation, content hashing and encoding entirely, and
sharded fan-out sends workers only id arrays against a shared-memory
publication of the corpus.  The pair-list and matrix entry points are
adapters: they intern the call's distinct items (keyed by their
normalised symbols) into a throwaway corpus once per call and dispatch
id arrays against it -- built per block or strip in the streaming
calls, so those keep their memory bound.  Values are bit-identical to
the scalar functions either way (same kernels, same replay arithmetic
-- asserted by the tests).

Which distances are batched
---------------------------
``levenshtein`` and the length-ratio family (``dmax``, ``dsum``,
``dmin``, ``yujian_bo``) reduce to one batched ``d_E`` sweep plus a
closed-form per-pair normalisation; ``contextual_heuristic`` reduces to
the batched twin-table sweep plus ``canonical_cost`` replayed over the
bucket's arrays.  The final per-pair arithmetic replays the *scalar*
implementations' expressions so batch results are bit-identical to the
scalar ones (asserted by the tests); bounded requests call the scalar
twins' own edit budgets and decisions (:data:`~repro.core.bounded.
EDIT_RULES`), so the two cannot drift apart.  Exact ``d_C`` and ``d_MV``
fall back to one scalar call per *unique* id pair -- on the normalised
symbols in-process, on the published code rows in a pool worker (every
registered distance compares symbols only for equality, so the two give
the same floats) -- and arbitrary user callables to one call per unique
id pair on the stored raw items; the dedupe savings still apply.
"""

from __future__ import annotations

import os
from operator import add
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from ..core import registry
from ..core._kernels import jit_backend
from ..tools import knobs
from ..core.bounded import (
    EDIT_RULES,
    _banded_heuristic_tables,
    bounded_for,
    contextual_edit_budget,
    contextual_edit_decision,
    mv_bound_plan,
    mv_probe_decision,
)
from ..core.contextual import canonical_cost
from ..core.harmonic import harmonic_prefix
from ..core.levenshtein import _within, levenshtein_distance
from ..core.marzal_vidal import mv_normalized_distance
from ..core.types import Symbols, as_symbols
from .corpus import PairStore, intern_corpus
from .kernels import (
    contextual_heuristic_batch_bounded_encoded,
    contextual_heuristic_batch_encoded,
    levenshtein_batch_bounded_encoded,
    levenshtein_batch_encoded,
    levenshtein_grid_encoded,
    mv_banded_probe_batch_encoded,
)

# The pair-list kernels are unused here, but perfbench/tracing.py wraps
# every kernel under this module's namespace and fails on a missing name.
from .kernels import (  # noqa: F401
    contextual_heuristic_batch,
    contextual_heuristic_batch_bounded,
    levenshtein_batch,
    levenshtein_batch_bounded,
    mv_banded_probe_batch,
)

__all__ = [
    "pairwise_values",
    "pairwise_values_ids",
    "pairwise_rows_ids",
    "pairwise_values_bounded",
    "pairwise_values_bounded_ids",
    "pairwise_matrix",
    "pairwise_matrix_blocks",
    "pairwise_matrix_memmap",
    "distances_from",
]

_INF = float("inf")

DistanceLike = Union[str, Callable[[Any, Any], float]]

#: ``workers`` accepted by every entry point: ``"auto"`` (default),
#: a pool size, or ``None``/``0``/``1`` for serial evaluation.
Workers = Union[int, str, None]

#: Internal name for the raw (int-valued) Levenshtein function.
_LEV_INT = "__levenshtein_int__"

#: Registered names whose value is a closed form of ``d_E`` and lengths.
_LEV_FAMILY = ("levenshtein", "dmax", "dsum", "dmin", "yujian_bo", _LEV_INT)

#: Default number of pairs per kernel bucket: large enough to amortise the
#: per-diagonal numpy dispatch over many pairs, small enough that padding
#: (pairs are sorted by combined length first) stays modest.
_BUCKET_SIZE = 256

#: Minimum unique-pair count before a process pool is worth its start-up.
#: Overridable fleet-wide via the ``REPRO_MIN_PAIRS_PER_WORKER``
#: environment variable (read per call, see :func:`_min_pairs_per_worker`).
_MIN_PAIRS_PER_WORKER = 512


def _min_pairs_per_worker() -> int:
    """The sharding threshold, honouring ``REPRO_MIN_PAIRS_PER_WORKER``.

    The module constant stays the authoritative (and monkeypatchable)
    default; the registry accessor only overrides it when the variable
    is set."""
    value = knobs.get_int("REPRO_MIN_PAIRS_PER_WORKER")
    if value is not None:
        return value
    return _MIN_PAIRS_PER_WORKER


def _is_batched(name: Optional[str]) -> bool:
    """Whether *name* has a batched kernel path in :func:`_evaluate_ids`.

    The Levenshtein family and the contextual heuristic always do; exact
    ``d_C`` and ``d_MV`` gain one when the numba backend is active (their
    compiled per-pair kernels run a whole bucket per call)."""
    if name in _LEV_FAMILY or name == "contextual_heuristic":
        return True
    return name in ("marzal_vidal", "contextual") and jit_backend() is not None


#: Default row-block height for the streaming matrix entry points.
_BLOCK_ROWS = 256


def _cpu_count() -> int:
    """Worker budget for ``workers="auto"`` (monkeypatched in tests)."""
    return os.cpu_count() or 1


def _resolve_workers(workers: Workers, n_unique: int, registered: bool) -> int:
    """Turn the ``workers`` argument into a concrete pool size (<2 = serial).

    ``"auto"`` shards over all cores when the distance is resolvable by
    registry name (a prerequisite for crossing the process boundary), the
    process may fork (not already a pool worker), and every worker would
    receive at least ``_MIN_PAIRS_PER_WORKER`` unique pairs -- i.e. when
    ``n_unique // cpu_count >= _MIN_PAIRS_PER_WORKER``.
    """
    if not registered or n_unique == 0:
        return 0
    if workers == "auto":
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 0  # pool workers cannot spawn nested pools
        cpus = _cpu_count()
        if cpus >= 2 and n_unique // cpus >= _min_pairs_per_worker():
            return cpus
        return 0
    if workers is None:
        return 0
    return int(workers)


def _resolve(distance: DistanceLike) -> Tuple[Optional[str], Callable]:
    """Map *distance* to ``(batch_name, scalar_fn)``.

    ``batch_name`` is the registry name driving the batched fast path, or
    ``None`` for unregistered callables (scalar fallback).
    """
    if isinstance(distance, str):
        return distance, registry.get_distance(distance)
    if distance is levenshtein_distance:
        return _LEV_INT, distance
    for spec in registry.list_distances():
        if spec.function is distance:
            return spec.name, distance
    return None, distance


def _lev_finalize(
    name: str, mx: np.ndarray, my: np.ndarray, d_e: np.ndarray
) -> np.ndarray:
    """The ``d_E`` family's exact values over arrays of lengths and
    exact ``d_E``: each twin's decision of :mod:`repro.core.bounded` at
    limit ``inf`` (the full distance), as numpy arrays.

    Each branch evaluates the scalar expression elementwise in the same
    operation order (int64 operands convert to float64 exactly, and one
    IEEE division of exact operands is the correctly rounded quotient,
    as in Python), so every float is bit-identical to the scalar one.
    """
    d = np.asarray(d_e, dtype=np.int64)
    if name == _LEV_INT:
        return d.copy()
    if name == "levenshtein":
        return d.astype(float)
    m = np.asarray(mx, dtype=np.int64)
    n = np.asarray(my, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        if name == "dmax":
            longest = np.maximum(m, n)
            return np.where(longest > 0, d / longest, 0.0)
        if name == "dsum":
            total = m + n
            return np.where(total > 0, d / total, 0.0)
        if name == "dmin":
            shortest = np.minimum(m, n)
            empty = np.where(d == 0, 0.0, np.inf)
            return np.where(shortest > 0, d / shortest, empty)
        if name == "yujian_bo":
            total = m + n
            return np.where(total > 0, 2.0 * d / (total + d), 0.0)
    raise AssertionError(  # pragma: no cover - guarded by _LEV_FAMILY
        f"not a levenshtein-family name: {name}"
    )


def _canonical_finalize(
    mx: np.ndarray, my: np.ndarray, d_e: np.ndarray, ni: np.ndarray
) -> np.ndarray:
    """:func:`~repro.core.contextual.canonical_cost` over arrays of
    lengths and twin-table integers ``(d_E, Ni)``.

    ``H`` is read from the process-wide prefix table, grown to the
    largest peak first, and the scalar expression's operation order is
    kept: ``harmonic_range(m, peak)``, then ``+ ns / peak`` only where
    ``ns > 0``, then ``+ harmonic_range(n, n + nd)``.  An empty range
    reads ``H(a) - H(a) == 0.0``, the scalar's own value, so every float
    is bit-identical to the scalar one.
    """
    m = np.asarray(mx, dtype=np.int64)
    n = np.asarray(my, dtype=np.int64)
    ni = np.asarray(ni, dtype=np.int64)
    nd = m - n + ni
    ns = np.asarray(d_e, dtype=np.int64) - ni - nd
    infeasible = (ni < 0) | (nd < 0) | (ns < 0)
    if infeasible.any():  # pragma: no cover - DP guarantees feasibility
        slot = int(np.argmax(infeasible))
        raise AssertionError(f"infeasible heuristic at slot {slot}")
    peak = m + ni  # == n + nd
    H = harmonic_prefix(int(peak.max(initial=0)))
    cost = H[peak] - H[m]
    cost = np.where(ns > 0, cost + ns / np.maximum(peak, 1), cost)
    cost += H[peak] - H[n]
    return cost


def _sizes_buckets(sizes: Sequence[int], bucket_size: int) -> List[List[int]]:
    """Group indices by size to keep kernel padding low.

    Indices are sorted by size and chunked; a chunk also closes early
    when the next entry is much longer than the chunk's first (so one
    gene never drags a bucket of words up to its padding).
    """
    order = sorted(range(len(sizes)), key=lambda p: sizes[p])
    buckets: List[List[int]] = []
    current: List[int] = []
    first_size = 0
    for p in order:
        size = sizes[p]
        if current and (
            len(current) >= bucket_size or size > 2 * first_size + 16
        ):
            buckets.append(current)
            current = []
        if not current:
            first_size = size
        current.append(p)
    if current:
        buckets.append(current)
    return buckets


def _evaluate_encoded(
    name: str,
    X: np.ndarray,
    Y: np.ndarray,
    mx: np.ndarray,
    my: np.ndarray,
) -> np.ndarray:
    """One kernel sweep over an already-gathered (single-bucket) chunk.

    Everything downstream of the gather works from the code matrices and
    lengths alone (``d_C,h``'s ``canonical_cost`` replay included --
    equal pairs recover ``(d_E, Ni) = (0, 0)`` from the DP, so their
    cost is 0.0 without a symbol comparison).
    """
    if name == "contextual_heuristic":
        d_e, ni = contextual_heuristic_batch_encoded(X, Y, mx, my)
        return _canonical_finalize(mx, my, d_e, ni)
    if name == "marzal_vidal":  # jit-only: gated by _is_batched
        return jit_backend().mv_distance_batch_encoded(X, Y, mx, my)
    if name == "contextual":  # jit-only: gated by _is_batched
        return jit_backend().contextual_distance_batch_encoded(X, Y, mx, my)
    return _lev_finalize(name, mx, my, levenshtein_batch_encoded(X, Y, mx, my))


def _evaluate_ids(
    name: str, store: "PairStore", x_ids: np.ndarray, y_ids: np.ndarray
) -> np.ndarray:
    """Evaluate a registered distance over unique, ``x != y`` store id
    pairs -- in-process on a :class:`~repro.batch.corpus.PairStore`, or
    in a pool worker on the shared-memory store of
    :func:`~repro.batch.runtime.attach_store`.

    Kernel-backed distances bucket by combined length, *gather* (never
    re-encode) each bucket's kernel inputs out of the store's matrices
    and sweep; on the numpy backend the ``d_E`` family first takes every
    grid row it can (:func:`_evaluate_grid`).  The rest (exact ``d_C``
    and ``d_MV`` on numpy) call the scalar function per pair on
    ``store.sym`` -- the normalised symbols in-process, the code rows in
    a worker, which every registered distance scores alike because it
    compares symbols only for equality.
    """
    if not _is_batched(name):
        fn, pairs = _worker_fn(name), zip(x_ids.tolist(), y_ids.tolist())
        values = [fn(store.sym(i), store.sym(j)) for i, j in pairs]
        return np.asarray(values, dtype=float)
    out = np.empty(len(x_ids), dtype=np.int64 if name == _LEV_INT else float)
    rest = np.arange(len(x_ids))
    if name in _LEV_FAMILY and jit_backend() is None:
        rest = _evaluate_grid(name, store, x_ids, y_ids, out)
    sizes = store.lengths[x_ids[rest]] + store.lengths[y_ids[rest]]
    for bucket in _sizes_buckets(sizes.tolist(), _BUCKET_SIZE):
        idx = rest[bucket]
        X, Y, mx, my = store.gather(x_ids[idx], y_ids[idx])
        out[idx] = _evaluate_encoded(name, X, Y, mx, my)
    return out


def _evaluate_grid(
    name: str,
    store: "PairStore",
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Answer the grid rows among the unique, ``x != y`` id pairs
    ``zip(x_ids, y_ids)`` into *out*; return the positions left over.

    An x id paired with every y id of the call (its own id aside) is a
    grid row: all such rows run as one bit-parallel grid of patterns
    against texts (:func:`~repro.batch.kernels.levenshtein_grid_encoded`)
    -- a bulk call's queries x items, a pivot row, a pivot sweep.
    """
    ux, x_of = np.unique(x_ids, return_inverse=True)
    uy, y_of = np.unique(y_ids, return_inverse=True)
    per_x = np.bincount(x_of, minlength=len(ux))
    full = (per_x == len(uy)) | ((per_x == len(uy) - 1) & np.isin(ux, uy))
    if not full.any():
        return np.arange(len(x_ids))
    patterns = ux[full]
    T, Xq, mt, mq = store.gather(uy, patterns)
    d = levenshtein_grid_encoded(Xq, mq, T, mt)
    in_grid = full[x_of]
    sel = np.flatnonzero(in_grid)
    row_of = np.cumsum(full) - 1
    lengths = store.lengths
    out[sel] = _lev_finalize(
        name,
        lengths[x_ids[sel]],
        lengths[y_ids[sel]],
        d[row_of[x_of[sel]], y_of[sel]],
    )
    return np.flatnonzero(~in_grid)


#: Worker-lifetime memo of registry resolutions: a persistent-pool
#: worker serves many task shards over its life, and resolving the
#: distance (a registry scan) per shard was pure overhead.
_WORKER_FNS: Dict[str, Callable] = {}


def _worker_fn(name: str) -> Callable:
    """Resolve *name* once per worker lifetime."""
    fn = _WORKER_FNS.get(name)
    if fn is None:
        fn = registry.get_distance(name)
        _WORKER_FNS[name] = fn
    return fn


def _mp_evaluate_ids(
    args: Tuple[str, Any, np.ndarray, np.ndarray],
) -> np.ndarray:
    """The engine's pool worker task: evaluate one chunk of *id pairs*
    against a shared-memory store publication -- only the name, the
    token and two id arrays crossed the process boundary."""
    from . import faults
    from . import runtime as _runtime

    faults.worker_task()
    name, token, x_ids, y_ids = args
    store, ephemeral = _runtime.attach_store(token)
    try:
        return _evaluate_ids(name, store, x_ids, y_ids)
    finally:
        _runtime.release_attachment(ephemeral)


def _fan_out_ids(
    name: str,
    store: "PairStore",
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    workers: int,
) -> Optional[np.ndarray]:
    """Evaluate id pairs across the persistent pool via a shared-memory
    publication of *store*; None when anything is unavailable, and under
    ``REPRO_PERSISTENT_POOL=0`` (the caller then evaluates in-process --
    identical values).  Failed chunks walk the runtime's one degradation
    ladder (:meth:`~repro.batch.runtime.EngineRuntime.fan_out`).

    The corpus block is published once per corpus and cached by every
    worker until the master releases it; the per-call query block is
    published ephemerally and released as soon as the call returns.
    Only the id arrays travel per task.
    """
    from . import runtime as _runtime

    if not _runtime.persistent_pool_enabled():
        return None
    chunk_count = min(workers, max(1, len(x_ids) // _min_pairs_per_worker()))
    if chunk_count < 2:
        return None
    rt = _runtime.get_runtime()
    token = rt.publish_store(store)
    if token is None:
        return None
    bounds = np.linspace(0, len(x_ids), chunk_count + 1).astype(int).tolist()
    spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    try:
        parts = rt.fan_out(
            _mp_evaluate_ids,
            [(name, token, x_ids[span], y_ids[span]) for span in spans],
            chunk_count,
            sizes=[span.stop - span.start for span in spans],
            # the in-process rung must not depend on shared memory (the
            # publication may be the very thing that failed): evaluate
            # the chunk's ids against the master-side store instead
            serial=lambda c: _evaluate_ids(
                name, store, x_ids[spans[c]], y_ids[spans[c]]
            ),
            counter="serial_fallbacks",
        )
    finally:
        rt.release_arrays(token.extra)
    if parts is None:
        return None
    return np.concatenate(parts)


def _intern_items(items: Sequence[Any]) -> Tuple["PairStore", np.ndarray]:
    """Intern one call's items into a throwaway store; returns the store
    and each item's id.

    Items are keyed by their normalised symbols
    (:func:`~repro.core.types.as_symbols`), so repeats -- and equal
    content as a tuple or a list -- share the id of the first-seen raw
    item.  Items that cannot be keyed (non-sequences, unhashable
    symbols) get one id per position in a corpus without an encoding,
    which the id entry points answer through their scalar fallbacks.
    The shared front of the pair-list and matrix adapters.
    """
    kept: List[Any] = []
    ids: List[int] = []
    try:
        slot_of: Dict[Symbols, int] = {}
        for item in items:
            key = as_symbols(item)
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = len(kept)
                kept.append(item)
            ids.append(slot)
    except TypeError:
        kept = list(items)
        ids = list(range(len(kept)))
    return intern_corpus(kept).store(), np.asarray(ids, dtype=np.int64)


def pairwise_values(
    distance: DistanceLike,
    pairs: Sequence[Tuple[Any, Any]],
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """Evaluate *distance* over *pairs*, returning an aligned 1-D array.

    ``distance`` is a registry name, a registered distance function, the
    raw :func:`~repro.core.levenshtein.levenshtein_distance` (int64
    values), or any other callable (scalar fallback).  Repeated pairs are
    computed once; for registered distances ``x == y`` pairs are 0
    without computation.  Items are keyed by their normalised symbols
    (:func:`~repro.core.types.as_symbols`), so equal content as a tuple
    or a list also dedupes.

    ``workers`` defaults to ``"auto"``: unique-pair chunks fan out over a
    process pool whenever the machine has more than one core and every
    worker would receive at least ``_MIN_PAIRS_PER_WORKER`` pairs (only
    for registered distances; silently serial when the platform forbids
    subprocesses).  An integer forces the pool size; ``None``/``0``/``1``
    force serial evaluation.

    An adapter over :func:`pairwise_values_ids`: the pairs' distinct
    items are interned into a throwaway corpus once per call.  An
    unregistered callable is called once per distinct normalised pair,
    in first-seen order, on the *first-seen raw item* of each normalised
    key (so a list stays a list), and ``x == y`` pairs are called too.
    Items that are not symbol sequences (or whose symbols are not
    hashable) cannot be keyed; their pairs are evaluated verbatim, one
    call per pair, so arbitrary item types keep working.
    """
    store, ids = _intern_items([item for x, y in pairs for item in (x, y)])
    return pairwise_values_ids(
        distance, store, ids[0::2], ids[1::2], workers=workers
    )


def _scalar_cores_cheaper(m: np.ndarray, n: np.ndarray) -> bool:
    """Whether the ``d_E`` of a few pairs with sides *m* and *n* costs
    less through the scalar bit-parallel core, pair by pair, than any
    kernel call: one call's overhead plus one anti-diagonal per symbol
    of the longest side (the ``_ROUTE_*`` prices)."""
    if len(m) * _ROUTE_PAIR_NS > _ROUTE_ROUND_NS:
        return False
    scalar = len(m) * _ROUTE_PAIR_NS
    scalar += _ROUTE_COLUMN_NS * int(np.minimum(m, n).sum())
    longest = int(max(m.max(), n.max()))
    return scalar <= _ROUTE_ROUND_NS + _ROUTE_DIAGONAL_NS * longest


def _raw_values_ids(
    fn: Callable[[Any, Any], Any],
    registered: bool,
    store: "PairStore",
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    dtype: Any,
) -> np.ndarray:
    """One call of *fn* per unique id pair on the stored raw items, in
    first-seen order -- the path of unregistered callables and of stores
    without an encoding (where an id is the only equality known, so a
    registered distance answers ``i == j`` pairs 0 without a call)."""
    n_store = len(store)
    uniq, first, take = np.unique(
        x_ids * n_store + y_ids, return_index=True, return_inverse=True
    )
    values = np.zeros(len(uniq), dtype=dtype)
    for u in np.argsort(first, kind="stable").tolist():
        i, j = divmod(int(uniq[u]), n_store)
        if not (registered and i == j):
            values[u] = fn(store.raw(i), store.raw(j))
    return values[take]


def pairwise_values_ids(
    distance: DistanceLike,
    store: "PairStore",
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """:func:`pairwise_values` over interned store ids -- the one
    unbounded path every entry point runs.

    ``store`` is a :class:`~repro.batch.corpus.PairStore`; entry ``p``
    equals ``distance(store.raw(x_ids[p]), store.raw(y_ids[p]))`` bit
    for bit.  Kernel inputs are *gathered* from the store's encoded
    matrices, deduplication keys on integer id pairs, and sharded
    fan-out ships only id arrays against a shared-memory publication of
    the store (persistent pool).  Registered distances without a
    batched kernel (exact ``d_C`` and ``d_MV`` on numpy) call the
    scalar function once per unique id pair, fanned out the same way.
    Unregistered callables, and every distance on a store without an
    encoding, are called once per unique id pair on the stored raw
    items, in first-seen order.

    Two deliberate differences from content-keyed dedupe: distinct ids
    holding equal content are evaluated per id pair (their kernel result
    is identical), and the ``x == y`` shortcut of registered distances
    triggers on ``id_x == id_y`` (duplicated items still evaluate to the
    same 0.0 through the kernels).  A bad ``workers`` argument raises
    ``ValueError`` before any evaluation.
    """
    if isinstance(workers, str) and workers != "auto":
        raise ValueError(
            f"workers must be 'auto', an int, or None; got {workers!r}"
        )
    x_ids = np.asarray(x_ids, dtype=np.int64)
    y_ids = np.asarray(y_ids, dtype=np.int64)
    if len(x_ids) != len(y_ids):
        raise ValueError(
            f"{len(x_ids)} x_ids but {len(y_ids)} y_ids; they must align"
        )
    name, fn = _resolve(distance)
    dtype = np.int64 if name == _LEV_INT else float
    if name is None or not store.encoded:
        return _raw_values_ids(fn, name is not None, store, x_ids, y_ids, dtype)
    out = np.zeros(len(x_ids), dtype=dtype)
    if not len(x_ids):
        return out
    if name in _LEV_FAMILY and jit_backend() is None:
        m, n_len = store.lengths[x_ids], store.lengths[y_ids]
        if _scalar_cores_cheaper(m, n_len):
            # a few pairs (a small batch's pivot sweep): the scalar
            # bit-parallel core, pair by pair
            syms = [
                (store.sym(i), store.sym(j))
                for i, j in zip(x_ids.tolist(), y_ids.tolist())
            ]
            d = [_within(x, y, len(x) + len(y)) for x, y in syms]
            return _lev_finalize(name, m, n_len, np.asarray(d, dtype=np.int64))
    # id-level dedupe: one composite key per ordered id pair
    n_store = len(store)
    composite = x_ids * n_store + y_ids
    uniq, take_from = np.unique(composite, return_inverse=True)
    ux = uniq // n_store
    uy = uniq % n_store
    # registered x == y shortcut on ids (values stay 0 either way)
    nonzero = np.nonzero(ux != uy)[0]
    values = np.zeros(len(uniq), dtype=dtype)
    if len(nonzero):
        ux_nz, uy_nz = ux[nonzero], uy[nonzero]
        n_workers = _resolve_workers(workers, len(nonzero), True)
        part: Optional[np.ndarray] = None
        if n_workers > 1:
            part = _fan_out_ids(name, store, ux_nz, uy_nz, n_workers)
        if part is None:
            part = _evaluate_ids(name, store, ux_nz, uy_nz)
        values[nonzero] = part
    out[:] = values[take_from]
    return out


def _replay_bounded_contextual(
    m: int, n: int, limit: float, d_e: int, ni: int, exact: bool
) -> float:
    """Replay ``bounded_contextual_heuristic`` from twin tables: the
    scalar twin's own decision (:func:`~repro.core.bounded.
    contextual_edit_decision`) on ``d_e`` when ``exact`` -- the tables'
    budget covered this request's, or the call held the pair's ``d_E``
    -- and on "over budget" otherwise, then ``canonical_cost`` of the
    tables' integers, which are the twin's whenever ``d_E`` fits the
    budget.  An equal pair reaches here with ``d_e == 0`` and exact, so
    it answers 0.0 like the twin's leading ``x == y`` shortcut.
    """
    decided = contextual_edit_decision(m, n, limit, d_e if exact else None)
    if decided is not None:
        return decided
    cost = canonical_cost(m, n, d_e, ni)
    if cost is None:  # pragma: no cover - DP guarantees feasibility
        raise AssertionError(f"infeasible heuristic ({m}, {n}) slot")
    return cost


#: Route costs of one lockstep round, in nanoseconds, on the numpy
#: backend: a batched bounded sweep costs ``_ROUTE_ROUND_NS`` plus, per
#: anti-diagonal of its padded bucket (max m + max n),
#: ``_ROUTE_DIAGONAL_NS`` and ``_ROUTE_PAIR_DIAGONAL_NS`` per pair; a
#: scalar twin call costs ``_ROUTE_PAIR_NS`` plus ``_ROUTE_COLUMN_NS``
#: per column of the bit-parallel ``d_E`` family or ``_ROUTE_CELL_NS``
#: per band cell of the ``d_C,h`` twin tables.  Measured on a 2-vCPU
#: x86 host (CPython 3.11, numpy 2.4), both routes timed on 2271 real
#: LAESA rounds: 500-word dictionary shards under ``levenshtein``
#: (batches of 4-64), digit contours under ``dmax`` and
#: ``contextual_heuristic`` (batches of 4-32).  A batched round took
#: 0.6-0.9 ms for 4-16 word pairs and 1.6-4.4 ms for 1-16 contour
#: pairs; a scalar ``d_E`` twin about 4.5 us plus 0.66 us per column,
#: and the ``d_C,h`` twin tables about 0.21 us per band cell.  These
#: constants picked the faster route in every word and ``dmax`` round
#: and in 95.5 % of the ``d_C,h`` rounds (0.6 % of the best-route time
#: lost).  They were fitted before either ``d_C,h`` route checked
#: ``d_E`` first, and still price what the check leaves: the twin
#: tables, which both routes now build only for pairs within budget
#: (:func:`_checked_tables` prices its checks and the survivors' tables
#: with them too).  Until a call holds ``d_E`` check rows the round
#: model prices the scalar route by the budget's band, so it sends
#: contour rounds of about 10 pairs or more to the engine, where the
#: two routes now do nearly the same work (a near tie at 16 pairs in
#: ``bench_query_batch.py --mode route``); with them, it prices only the
#: survivors' tables, in the band of their exact ``d_E``.
#:
#: The two diagonal prices were fitted on ``int64`` cells with the
#: sweep's bookkeeping redone on every diagonal.  The bounded sweeps now
#: run ``uint16`` cells on these buckets (``kernels._cells``) and redo
#: that bookkeeping only when a pair leaves: on full-band 90 x 90
#: contour-like buckets of 1-256 pairs (same host, medians of 9
#: interleaved runs, least squares per diagonal, two readings) the
#: fixed share of a diagonal fell by a quarter to two fifths (16-30 us
#: to 10-20 us at one pair) and the per-pair share from 260-485 ns to
#: 80-200 ns.  In ``bench_query_batch.py --mode route`` a batched round
#: of 16 contour pairs took 4.3 ms against 5.2 on the old sweeps, and
#: 64 pairs 10.2 against 14.0; the model picks the measured winner in
#: 12 of 12 cells (11 of 12 before: the 16-pair near tie is now a clear
#: batched win), so the prices were kept and read high for the batched
#: route.
#:
#: ``_ROUTE_ROW_NS`` prices the bit-parallel grid behind exact rows
#: (:func:`row_price`) per corpus symbol and per ``uint64`` word of each
#: row's pattern; the grid's call overhead and its one column per
#: symbol of the longest item reuse ``_ROUTE_ROUND_NS`` and
#: ``_ROUTE_DIAGONAL_NS``.  Measured on the same host by timing
#: :func:`pairwise_rows_ids` (best of 8-30) on 33 shapes -- 40-2000
#: dictionary words, 40-2000 short words and 40-500 DNA strings of
#: 90-160 symbols (three words), 1, 4 and 16 rows each -- and fitting
#: call + column-word + symbol-word costs by least squares: 0.23-0.31
#: ms per call, 19-20 us per column-word and 14-15 ns per symbol-word
#: (absolute and relative fits).  The existing call and diagonal prices
#: are close to the first two, so only the symbol-word price is new.
#: The model reads low wherever it was checked, so rows are bought
#: early: small word grids by up to a third (0.66 ms against 0.54 for
#: one row of 40 dictionary words), contour grids by more.  On the 500
#: digit contours of perfbench digits-classify (items up to 110
#: symbols, two pattern words; best of 15 on the same host) one row
#: took 2.9 ms against a modelled 2.4 (median 4.2), 8 rows 18.4 ms
#: against 8.4 and 32 rows 39.9 ms against 27.8 -- the ``d_E`` rows
#: ``d_C,h`` buys as check rows cost up to 2.2x their price.
_ROUTE_ROUND_NS = 200_000
_ROUTE_DIAGONAL_NS = 15_000
_ROUTE_PAIR_DIAGONAL_NS = 650
_ROUTE_PAIR_NS = 4_500
_ROUTE_COLUMN_NS = 660
_ROUTE_CELL_NS = 210
_ROUTE_ROW_NS = 16

#: Rounds the measurement does not cover -- the numba backend (not
#: installed where the costs above were measured), distances outside
#: the two twin families, stores without an encoding -- keep the fixed
#: split: scalar only with at most this many pairs.
_ROUTE_UNMEASURED_PAIRS = 2


def scalar_round_cheaper(
    name: Optional[str],
    store: "PairStore",
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    limits: Sequence[float],
    edits: Optional[Sequence[int]] = None,
) -> bool:
    """Whether one lockstep round's bounded requests cost less as
    scalar twin calls than as one batched sweep
    (:func:`pairwise_values_bounded_ids`); values are identical either
    way.

    *name* is the distance's engine name (resolved once per index).
    The batched cost grows with the padded bucket's anti-diagonals and
    only slowly with the pair count; the scalar cost is a sum over
    pairs.  A ``d_E``-family twin sweeps at most one column per symbol
    of the shorter side whatever its budget (the budget only lets it
    stop sooner), so its cost is bounded from the round's longest
    sides; the ``d_C,h`` twin fills the Ukkonen band of its edit budget
    (:func:`~repro.core.bounded.contextual_edit_budget`), the whole
    table when the band covers it,
    nothing when ``|m - n|`` already busts it -- or, when the round
    holds the pairs' exact ``d_E`` (*edits*, read from check rows), the
    band of that ``d_E`` for the pairs within budget and nothing for the
    rest.  O(1) per pair.
    """
    lev = name in _LEV_FAMILY
    if (
        not store.encoded
        or not (lev or name == "contextual_heuristic")
        or jit_backend() is not None
    ):
        return len(x_ids) <= _ROUTE_UNMEASURED_PAIRS
    pairs = len(x_ids)
    if (
        lev
        and pairs * _ROUTE_PAIR_NS <= _ROUTE_ROUND_NS
        and pairs * _ROUTE_COLUMN_NS
        <= 2 * (_ROUTE_DIAGONAL_NS + _ROUTE_PAIR_DIAGONAL_NS * pairs)
    ):
        # since min(m, n) <= (m + n) / 2, scalar wins at every length
        return True
    lengths = store.length_list
    longest_x = max([lengths[x] for x in x_ids])
    longest_y = max([lengths[y] for y in y_ids])
    if lev:
        # every pair sweeps at most the shorter of the two longest sides
        shorter = longest_x if longest_x < longest_y else longest_y
        scalar = pairs * (_ROUTE_PAIR_NS + _ROUTE_COLUMN_NS * shorter)
        return scalar <= _batched_ns(pairs, longest_x + longest_y)
    sides = ([lengths[x] for x in x_ids], [lengths[y] for y in y_ids])
    budgets: Iterable[int] = map(contextual_edit_budget, limits, map(add, *sides))
    if edits is not None:
        budgets = (e if e <= k else -1 for e, k in zip(edits, budgets))
    cells = map(_band_cells, *sides, budgets)
    return _scalar_tables_cheaper(pairs, cells, longest_x + longest_y)


def row_price(name: Optional[str], store: "PairStore") -> Optional[Tuple[int, int]]:
    """The modelled cost of exact ``d_E`` rows against the whole corpus
    (one bit-parallel grid, :func:`pairwise_rows_ids`), as ``(sweep_ns,
    word_ns)``: rows for a set of patterns cost ``sweep_ns`` per
    ``uint64`` word of the longest pattern (one word per 64 symbols)
    plus ``word_ns`` per word of each pattern.  ``None`` when rows are
    not on offer: only the numpy backend over an encoded store runs the
    grid, and only two kinds of distance take its rows -- the ``d_E``
    family, whose values they are, and ``d_C,h``, whose ``d_E`` checks
    they answer (check rows).

    ``sweep_ns`` is one call's overhead, priced like a batched round's,
    plus one column per symbol of the longest item, priced like an
    anti-diagonal; ``word_ns`` touches each item symbol once.
    """
    if (
        name not in _LEV_FAMILY + ("contextual_heuristic",)
        or jit_backend() is not None
        or not store.encoded
    ):
        return None
    items = store.lengths[: store.n_corpus]
    fixed = _ROUTE_ROUND_NS + _ROUTE_DIAGONAL_NS * int(items.max())
    return fixed, _ROUTE_ROW_NS * int(items.sum())


def twin_ns(
    store: "PairStore", x_ids: Sequence[int], y_ids: Sequence[int], scalar: bool
) -> List[int]:
    """The modelled cost of each pair of one lockstep round, by the
    route it took: a scalar ``d_E`` twin call per pair (for ``d_C,h``,
    its ``d_E`` check), or an equal share of one batched sweep -- the
    twin work exact rows would have saved, which the lockstep driver
    adds up against :func:`row_price`."""
    lengths = store.length_list
    if scalar:
        return [
            _ROUTE_PAIR_NS + _ROUTE_COLUMN_NS * min(lengths[x], lengths[y])
            for x, y in zip(x_ids, y_ids)
        ]
    diagonals = max([lengths[x] for x in x_ids]) + max([lengths[y] for y in y_ids])
    return [_batched_ns(len(x_ids), diagonals) // len(x_ids)] * len(x_ids)


def _batched_ns(pairs: int, diagonals: int) -> int:
    """Cost of one batched bounded sweep of *pairs* pairs over a padded
    bucket of *diagonals* anti-diagonals."""
    return _ROUTE_ROUND_NS + diagonals * (
        _ROUTE_DIAGONAL_NS + _ROUTE_PAIR_DIAGONAL_NS * pairs
    )


def _band_cells(m: int, n: int, k: int) -> int:
    """Cells of the ``d_C,h`` twin tables' Ukkonen band ``k`` for sides
    ``m`` and ``n``: the whole table when the band covers it, nothing
    when ``|m - n|`` busts it."""
    if k < abs(m - n):
        return 0
    return min(m * n, (2 * k + 1) * min(m, n))


def _scalar_tables_cheaper(
    pairs: int, cells: Iterable[int], diagonals: int
) -> bool:
    """Whether the ``d_C,h`` twin tables of *pairs* pairs, with *cells*
    band cells each (:func:`_band_cells`), cost less as scalar band DPs
    (``_ROUTE_PAIR_NS`` each plus ``_ROUTE_CELL_NS`` per cell) than as
    one batched sweep over *diagonals* anti-diagonals.  Stops reading
    *cells* once the scalar route is the dearer one."""
    spare = _batched_ns(pairs, diagonals) - pairs * _ROUTE_PAIR_NS
    for count in cells:
        if spare < 0:
            break
        spare -= _ROUTE_CELL_NS * count
    return spare >= 0


def pairwise_rows_ids(
    distance: DistanceLike, store: "PairStore", x_ids: Sequence[int]
) -> np.ndarray:
    """The ``(len(x_ids), n_corpus)`` matrix of distances from each store
    id in *x_ids* to every corpus item, evaluated in-process.

    Entry ``[r, i]`` equals ``pairwise_values_ids(distance, store,
    [x_ids[r]], [i])[0]`` bit for bit.  The ``d_E`` family on the numpy
    backend runs one bit-parallel grid
    (:func:`~repro.batch.kernels.levenshtein_grid_encoded`) straight
    from the store's matrices; everything else is that id grid.
    """
    x_ids = np.asarray(x_ids, dtype=np.int64)
    n = store.n_corpus
    name, _ = _resolve(distance)
    if name in _LEV_FAMILY and jit_backend() is None and store.encoded:
        T, Xq, mt, mq = store.gather(np.arange(n), x_ids)
        d = levenshtein_grid_encoded(Xq, mq, T, mt)
        return _lev_finalize(name, mq[:, None], mt[None, :], d)
    flat = pairwise_values_ids(
        distance,
        store,
        np.repeat(x_ids, n),
        np.tile(np.arange(n, dtype=np.int64), len(x_ids)),
        workers=None,
    )
    return flat.reshape(len(x_ids), n)


def pairwise_values_bounded(
    distance: DistanceLike,
    pairs: Sequence[Tuple[Any, Any]],
    limits: Sequence[float],
) -> np.ndarray:
    """Early-exit twin of :func:`pairwise_values` with per-pair limits.

    Entry ``i`` equals what ``CountingDistance.within(x_i, y_i,
    limits[i])`` returns, bit for bit (see
    :func:`pairwise_values_bounded_ids` for the contract).

    An adapter over :func:`pairwise_values_bounded_ids`, interning the
    pairs' distinct items exactly like :func:`pairwise_values` (items
    that cannot be interned get one id per position in a corpus without
    an encoding, which the id path answers through the scalar twins).
    The bounded path always runs in-process.
    """
    if len(limits) != len(pairs):
        raise ValueError(
            f"{len(pairs)} pairs but {len(limits)} limits; they must align"
        )
    store, ids = _intern_items([item for x, y in pairs for item in (x, y)])
    return pairwise_values_bounded_ids(
        distance, store, ids[0::2], ids[1::2], limits
    )


def _bounded_mv_ids(
    bounded_fn: Callable[..., float],
    store: "PairStore",
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    limits: Sequence[float],
) -> np.ndarray:
    """The ``marzal_vidal`` branch of :func:`pairwise_values_bounded_ids`.

    Requests are deduplicated on ``(id, id, limit)`` and classified by
    :func:`~repro.core.bounded.mv_bound_plan` (the scalar twin's own
    regime selector, so the two can never drift): closed-form regimes
    are answered in place, full-table-probe regimes call the scalar
    twin (*bounded_fn* -- it IS that path), and all banded-regime probes
    join length-bucketed
    :func:`~repro.batch.kernels.mv_banded_probe_batch_encoded` sweeps
    over inputs gathered from the store, whose scores are bit-identical
    to the scalar probe; each score is settled by the twin's own tail,
    :func:`~repro.core.bounded.mv_probe_decision`, so only probes that
    fail to prune pay a full Dinkelbach evaluation, exactly like the
    twin.
    """
    slot_of: Dict[Tuple[int, int, float], int] = {}
    unique: List[Tuple[int, int, float]] = []
    take = np.empty(len(x_ids), dtype=np.int64)
    for p in range(len(x_ids)):
        key = (int(x_ids[p]), int(y_ids[p]), float(limits[p]))
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(unique)
            unique.append(key)
        take[p] = slot
    out = np.empty(len(unique), dtype=float)
    probe: List[int] = []
    probe_band: List[int] = []
    for u, (i, j, limit) in enumerate(unique):
        if store.same(i, j):
            out[u] = 0.0
            continue
        x, y = store.sym(i), store.sym(j)
        tag, aux = mv_bound_plan(len(x), len(y), limit)
        if tag == "exact":
            # the limit cannot prune: within() computes the full distance
            # (the registered d_MV function) at inf and the twin does the
            # same from 1.0 up -- one function either way
            out[u] = mv_normalized_distance(x, y)
        elif tag == "pruned":
            out[u] = aux
        elif tag == "full":
            # wide band on long strings: the scalar twin already probes
            # with the full-table parametric kernel there; calling it is
            # the identity-by-construction path
            out[u] = bounded_fn(x, y, limit)
        else:
            probe.append(u)
            probe_band.append(int(aux))
    syms = [(store.sym(unique[u][0]), store.sym(unique[u][1])) for u in probe]
    sizes = [len(x) + len(y) for x, y in syms]
    for bucket in _sizes_buckets(sizes, _BUCKET_SIZE):
        sel = [probe[k] for k in bucket]
        bands = np.asarray([probe_band[k] for k in bucket], dtype=np.int64)
        lams = np.asarray([unique[u][2] for u in sel], dtype=np.float64)
        X, Y, mx, my = store.gather(
            np.asarray([unique[u][0] for u in sel], dtype=np.int64),
            np.asarray([unique[u][1] for u in sel], dtype=np.int64),
        )
        scores = mv_banded_probe_batch_encoded(X, Y, mx, my, lams, bands)
        for k, b in enumerate(bucket):
            x, y = syms[b]
            out[sel[k]] = mv_probe_decision(
                x, y, unique[sel[k]][2], float(scores[k]), int(bands[k])
            )
    return out[take]


def _checked_tables(
    store: "PairStore",
    ux: np.ndarray,
    uy: np.ndarray,
    bounds: np.ndarray,
    d_out: np.ndarray,
    ni_out: np.ndarray,
    exact: np.ndarray,
    edits: Optional[np.ndarray],
) -> np.ndarray:
    """Check ``d_E`` before building the ``d_C,h`` twin tables of the
    unique pairs ``zip(ux, uy)`` at their edit budgets *bounds*, and
    build tables only where :func:`_replay_bounded_contextual` reads
    them; returns the pairs whose tables are left to the batched sweep.

    The heuristic fixes ``k = d_E``, so a pair whose ``d_E`` exceeds its
    budget replays a closed form and needs no table; neither does a pair
    of equal items (its ``d_E`` is 0) or one whose length gap busts its
    budget.  Every other pair is checked: a failing pair is settled
    (*exact* False), a passing one needs its tables only in the band of
    its exact ``d_E`` (*bounds* is narrowed in place).  When the caller
    holds the pairs' exact ``d_E`` (*edits*, read from check rows) every
    pair is checked, at no cost.  Otherwise the bit-parallel ``d_E``
    core checks them in pair order, like the scalar twin, while the
    checks pay: once their cost (``_ROUTE_PAIR_NS + _ROUTE_COLUMN_NS *
    min(m, n)`` each) exceeds the kernel pair-diagonals the failing
    pairs saved (``_ROUTE_PAIR_DIAGONAL_NS * (m + n)`` each), the rest of
    the call goes unchecked, at its budget (``inf``-limit pairs carry
    the whole table).  The tables left over are built here as scalar
    band DPs (into *d_out*, *ni_out* and *exact*) when
    :func:`_scalar_tables_cheaper` prices them lower than one batched
    sweep, and returned otherwise.
    """
    m_all, n_all = store.lengths[ux], store.lengths[uy]
    exact[np.abs(m_all - n_all) > bounds] = False
    lengths = store.length_list  # cheaper than store.same's own test
    live = exact & ~np.asarray(
        [
            lengths[i] == lengths[j] and store.same(i, j)
            for i, j in zip(ux.tolist(), uy.tolist())
        ],
        dtype=bool,
    )
    if edits is not None:
        over = live & (edits > bounds)
        live[over] = exact[over] = False
        bounds[live] = edits[live]
    else:
        spent = saved = 0
        for u in np.flatnonzero(live & (bounds < m_all + n_all)).tolist():
            if spent > saved:
                break
            m, n = int(m_all[u]), int(n_all[u])
            spent += _ROUTE_PAIR_NS + _ROUTE_COLUMN_NS * min(m, n)
            x, y = store.sym(int(ux[u])), store.sym(int(uy[u]))
            d = _within(x, y, int(bounds[u]))
            if d is None:
                live[u] = exact[u] = False
                saved += _ROUTE_PAIR_DIAGONAL_NS * (m + n)
            else:
                bounds[u] = d
    tables = np.flatnonzero(live)
    sides = (m_all[tables].tolist(), n_all[tables].tolist())
    cells = map(_band_cells, *sides, bounds[tables].tolist())
    diagonals = max(sides[0], default=0) + max(sides[1], default=0)
    if not _scalar_tables_cheaper(len(tables), cells, diagonals):
        return tables
    for u in tables.tolist():
        found = _banded_heuristic_tables(
            store.sym(int(ux[u])), store.sym(int(uy[u])), int(bounds[u])
        )
        if found is None:
            exact[u] = False
        else:
            d_out[u], ni_out[u] = found
    return tables[:0]  # nothing left for the sweep


def pairwise_values_bounded_ids(
    distance: DistanceLike,
    store: "PairStore",
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    limits: Sequence[float],
    edits: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Early-exit twin of :func:`pairwise_values_ids` with per-pair
    limits.

    Entry ``p`` equals what ``CountingDistance.within(
    store.raw(x_ids[p]), store.raw(y_ids[p]), limits[p])`` returns --
    bit for bit -- so a batched candidate phase can group the bounded
    candidate evaluations of many queries into one call without
    perturbing any search result.  This is what each lockstep
    bulk-query round dispatches
    (:meth:`~repro.index.base.NearestNeighborIndex._lockstep_drive`):

    * exact value whenever the true distance is ``<= limits[p]``;
    * some value ``> limits[p]`` otherwise;
    * ``limits[p] == inf`` (or a distance without a registered twin)
      degrades to the full distance, exactly like ``within``.

    Kernel-backed distances (the Levenshtein family and the contextual
    heuristic) run one *banded* batched sweep over the unique id pairs:
    each carries the widest edit budget over its requests into the
    kernels of :mod:`repro.batch.kernels`, which clamp the anti-diagonal
    window to the bucket's widest surviving band and retire pairs whose
    diagonal minima bust their budget -- tight limits touch a thin
    stripe of the padded tables instead of all of them.  Kernel inputs
    are *gathered* from the store's interned matrices, never re-encoded.
    Each request is then answered at its own limit from the ``(value,
    exact)`` kernel result by its scalar twin's own budget and decision
    (:data:`~repro.core.bounded.EDIT_RULES`, or the ``d_C,h`` pair
    :func:`~repro.core.bounded.contextual_edit_budget` /
    :func:`~repro.core.bounded.contextual_edit_decision`); buckets with
    nothing to prune take the full-table kernels, bit-identically.
    ``contextual_heuristic`` first checks ``d_E`` against each unique
    pair's budget on the numpy backend (:func:`_checked_tables`): pairs
    over budget settle without a table, and the survivors' tables, in
    the band of their exact ``d_E``, run as scalar band DPs or the
    batched sweep, whichever is cheaper -- so a contextual call often
    reaches no kernel at all.  A caller that holds each pair's exact
    ``d_E`` (*edits*, aligned with the pairs; the lockstep driver reads
    them from its check rows) has every pair checked from it instead,
    at no cost; other distances, and the numba backend, which checks
    nothing, ignore *edits*.
    ``marzal_vidal`` requests run the batched banded *parametric* kernel
    (:func:`_bounded_mv_ids`).

    Distances without a registered twin degrade to full distances
    (:func:`pairwise_values_ids`); other twins, and every twin on a
    store without an encoding, evaluate the scalar twin per unique
    ``(id pair, limit)`` on the stored raw items, exactly as ``within``
    would.
    """
    x_ids = np.asarray(x_ids, dtype=np.int64)
    y_ids = np.asarray(y_ids, dtype=np.int64)
    n = len(x_ids)
    if len(y_ids) != n or len(limits) != n:
        raise ValueError(
            f"{n} x_ids but {len(y_ids)} y_ids and {len(limits)} limits; "
            "they must align"
        )
    name, fn = _resolve(distance)
    bounded_fn = bounded_for(fn)
    if bounded_fn is None:
        # no early-exit twin: within() computes full distances
        return pairwise_values_ids(distance, store, x_ids, y_ids, workers=None)
    rules = EDIT_RULES.get(bounded_fn)
    if not store.encoded or (
        rules is None and name not in ("contextual_heuristic", "marzal_vidal")
    ):
        # scalar twin: dedupe on (id pair, limit), call the twin on the
        # stored raw items exactly as within() would
        out = np.empty(n, dtype=float)
        cache: Dict[Tuple[int, int, float], float] = {}
        for p in range(n):
            limit = float(limits[p])
            key = (int(x_ids[p]), int(y_ids[p]), limit)
            value = cache.get(key)
            if value is None:
                raw_x, raw_y = store.raw(key[0]), store.raw(key[1])
                if limit == _INF:
                    value = fn(raw_x, raw_y)
                else:
                    value = bounded_fn(raw_x, raw_y, limit)
                cache[key] = value
            out[p] = value
        return out
    if name == "marzal_vidal":
        return _bounded_mv_ids(bounded_fn, store, x_ids, y_ids, limits)
    contextual = rules is None  # the d_C,h twin: d_MV returned above
    lens = store.lengths
    limits_f = [float(limit) for limit in limits]
    ms, ns = lens[x_ids].tolist(), lens[y_ids].tolist()
    # each request's edit budget, by the function its scalar twin calls
    if rules is None:
        budgets = list(map(contextual_edit_budget, limits_f, map(add, ms, ns)))
    else:
        budget, decide = rules
        budgets = list(map(budget, ms, ns, limits_f))
    n_store = len(store)
    composite = x_ids * n_store + y_ids
    uniq, take = np.unique(composite, return_inverse=True)
    ux = uniq // n_store
    uy = uniq % n_store
    # Per-unique-pair kernel budget: the widest budget over that pair's
    # requests (exactness at the widest budget decides every narrower
    # one), and 0 where no edit count fits a negative limit.
    bounds = np.zeros(len(uniq), dtype=np.int64)
    np.maximum.at(bounds, take, np.asarray(budgets, dtype=np.int64))
    d_unique = np.zeros(len(uniq), dtype=np.int64)
    ni_unique = np.zeros(len(uniq), dtype=np.int64)
    exact_unique = np.ones(len(uniq), dtype=bool)
    swept = np.arange(len(uniq))
    # the numba backend, whose costs are unmeasured, sends every d_C,h
    # pair straight to its compiled kernel
    if contextual and jit_backend() is None:
        edits_unique = None
        if edits is not None:
            edits_unique = np.empty(len(uniq), dtype=np.int64)
            edits_unique[take] = edits
        swept = _checked_tables(
            store, ux, uy, bounds, d_unique, ni_unique, exact_unique, edits_unique
        )
    sizes = (lens[ux[swept]] + lens[uy[swept]]).tolist()
    for bucket in _sizes_buckets(sizes, _BUCKET_SIZE):
        idx = swept[bucket]
        X, Y, mx, my = store.gather(ux[idx], uy[idx])
        chunk_bounds = bounds[idx]
        # full-table fallback: when no budget in the bucket is below its
        # pair's combined length the band covers every table anyway, so
        # the plain kernels (no window/retirement bookkeeping) win
        banded = bool((chunk_bounds < mx + my).any())
        if contextual:
            if banded:
                d_chunk, ni_chunk, exact_chunk = (
                    contextual_heuristic_batch_bounded_encoded(
                        X, Y, mx, my, chunk_bounds
                    )
                )
                exact_unique[idx] = exact_chunk
            else:
                d_chunk, ni_chunk = contextual_heuristic_batch_encoded(
                    X, Y, mx, my
                )
            d_unique[idx] = d_chunk
            ni_unique[idx] = ni_chunk
        else:
            if banded:
                d_chunk, exact_chunk = levenshtein_batch_bounded_encoded(
                    X, Y, mx, my, chunk_bounds
                )
                exact_unique[idx] = exact_chunk
            else:
                d_chunk = levenshtein_batch_encoded(X, Y, mx, my)
            d_unique[idx] = d_chunk
    d_list, exact_list = d_unique.tolist(), exact_unique.tolist()
    requests = zip(ms, ns, limits_f, take.tolist(), budgets)
    if contextual:
        ni_list = ni_unique.tolist()
        values = [
            _replay_bounded_contextual(
                m, n_len, limit, d_list[u], ni_list[u], exact_list[u]
            )
            for m, n_len, limit, u, _ in requests
        ]
    else:
        # each request's own decision, on the pair's d_E when the kernel
        # proved it and it is within the request's budget (the kernel's
        # budget covers every request's)
        values = [
            decide(
                m, n_len, limit,
                d_list[u] if exact_list[u] and d_list[u] <= k else None,
            )
            for m, n_len, limit, u, k in requests
        ]
    return np.asarray(values, dtype=np.int64 if name == _LEV_INT else float)


def _upper_triangle(start: int, stop: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` with ``start <= i < stop`` and ``j >= i`` of
    an ``n x n`` matrix's upper triangle (diagonal included), row by
    row."""
    rows, cols = np.triu_indices(stop - start, 0, n - start)
    return rows + start, cols + start


def pairwise_matrix(
    distance: DistanceLike,
    xs: Sequence[Any],
    ys: Optional[Sequence[Any]] = None,
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """Full distance matrix ``D[i, j] = d(xs[i], (ys or xs)[j])``.

    When ``ys is None`` the distance is taken to be symmetric: only the
    upper triangle (including the diagonal) is evaluated and mirrored, so
    an ``n x n`` matrix costs ``C(n, 2) + n`` unique-pair evaluations --
    fewer still after dedupe and the registered ``x == y`` shortcut.
    The items are interned once (see :func:`pairwise_values`) and the
    matrix runs as id arrays through :func:`pairwise_values_ids`.
    """
    if ys is None:
        n = len(xs)
        store, ids = _intern_items(xs)
        rows, cols = _upper_triangle(0, n, n)
        flat = pairwise_values_ids(
            distance, store, ids[rows], ids[cols], workers=workers
        )
        matrix = np.zeros((n, n), dtype=flat.dtype)
        matrix[rows, cols] = flat
        matrix[cols, rows] = flat
        return matrix
    store, ids = _intern_items([*xs, *ys])
    x_ids, y_ids = ids[: len(xs)], ids[len(xs) :]
    flat = pairwise_values_ids(
        distance,
        store,
        np.repeat(x_ids, len(y_ids)),
        np.tile(y_ids, len(x_ids)),
        workers=workers,
    )
    return flat.reshape(len(xs), len(ys))


def pairwise_matrix_blocks(
    distance: DistanceLike,
    xs: Sequence[Any],
    ys: Optional[Sequence[Any]] = None,
    *,
    block_rows: int = _BLOCK_ROWS,
    workers: Workers = "auto",
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Stream the matrix of :func:`pairwise_matrix` as row-block shards.

    Yields ``(start, stop, block)`` where ``block[r]`` holds the distances
    from ``xs[start + r]`` to every column item (``ys``, or ``xs`` itself
    when ``ys is None``).  The items are interned once per call; each
    block's id arrays are built as it is evaluated, so peak memory is
    the interned items plus one ``block_rows x n_cols`` shard and that
    block's pairs -- paper-scale gene sets whose full matrix exceeds
    memory can be folded over (or spilled to disk via
    :func:`pairwise_matrix_memmap`).

    Dedupe, the registered ``x == y`` shortcut and ``workers`` sharding
    all apply per block; the cross-diagonal mirroring of
    :func:`pairwise_matrix` does not (a streamed block cannot reuse rows
    that were never materialised), which is the memory-for-compute
    trade-off this entry point exists to make.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    store, ids = _intern_items([*xs] if ys is None else [*xs, *ys])
    x_ids = ids[: len(xs)]
    col_ids = x_ids if ys is None else ids[len(xs) :]
    for start in range(0, len(xs), block_rows):
        stop = min(start + block_rows, len(xs))
        flat = pairwise_values_ids(
            distance,
            store,
            np.repeat(x_ids[start:stop], len(col_ids)),
            np.tile(col_ids, stop - start),
            workers=workers,
        )
        yield start, stop, flat.reshape(stop - start, len(col_ids))


def pairwise_matrix_memmap(
    distance: DistanceLike,
    xs: Sequence[Any],
    ys: Optional[Sequence[Any]] = None,
    *,
    path: Union[str, "os.PathLike[str]"],
    block_rows: int = _BLOCK_ROWS,
    workers: Workers = "auto",
    close: bool = False,
) -> np.memmap:
    """:func:`pairwise_matrix` streamed into an on-disk ``.npy`` memmap.

    Evaluates the matrix block by block (bounded memory, exactly like
    :func:`pairwise_matrix_blocks`) and writes each shard straight into a
    ``numpy.lib.format`` file at *path*, so the result can be reopened in
    a later process with ``np.load(path, mmap_mode="r")``.  The symmetric
    case (``ys is None``) evaluates only upper-triangle row strips and
    mirrors them through the memmap, keeping :func:`pairwise_matrix`'s
    ``C(n, 2) + n`` evaluation saving without holding the matrix in RAM.

    Returns the still-open *writable* memmap (flushed) by default.  With
    ``close=True`` the writable handle is flushed and **closed** before
    returning a fresh read-only mapping of the same file -- long-lived
    consumers (sweep pools, the artifact store) should prefer this: a
    dangling writable mapping holds the file descriptor hostage and one
    stray ``out[...] =`` from a later bug silently corrupts the matrix
    on disk.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    n_rows = len(xs)
    n_cols = n_rows if ys is None else len(ys)
    out = np.lib.format.open_memmap(
        os.fspath(path), mode="w+", dtype=float, shape=(n_rows, n_cols)
    )
    if ys is None:
        store, ids = _intern_items(xs)
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            rows, cols = _upper_triangle(start, stop, n_rows)
            flat = pairwise_values_ids(
                distance, store, ids[rows], ids[cols], workers=workers
            )
            out[rows, cols] = flat
            out[cols, rows] = flat
    else:
        for start, stop, block in pairwise_matrix_blocks(
            distance, xs, ys, block_rows=block_rows, workers=workers
        ):
            out[start:stop] = block
    out.flush()
    if close:
        mm = out._mmap
        del out  # drop the writable view before closing its buffer
        if mm is not None:
            mm.close()
        readonly = np.load(os.fspath(path), mmap_mode="r", allow_pickle=False)
        return cast(np.memmap, readonly)
    return out


def distances_from(
    distance: DistanceLike,
    source: Any,
    targets: Sequence[Any],
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """Distances from one *source* to every target (one matrix row)."""
    store, ids = _intern_items([source, *targets])
    return pairwise_values_ids(
        distance, store, np.full(len(targets), ids[0]), ids[1:], workers=workers
    )
