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
or ``None``/``0``/``1`` to force serial evaluation.  The pool itself is
the **persistent** one of :mod:`repro.batch.runtime` (spawned once,
reused across calls; ``REPRO_PERSISTENT_POOL=0`` restores the old
one-pool-per-call behaviour bit-identically).

Interned dispatch
-----------------
:func:`pairwise_values_ids` and :func:`pairwise_values_bounded_ids` are
the id-space entry points every index uses: callers holding an interned
corpus (:mod:`repro.batch.corpus`) dispatch ``(id, id)`` pairs against
matrices encoded once at index-build time, so repeated bulk queries skip
normalisation, content hashing and ``encode_batch`` entirely; sharded
fan-out sends workers only id arrays against a shared-memory
publication of the corpus.  The bounded path has one implementation:
:func:`pairwise_values_bounded` interns its pair list into a throwaway
corpus and calls the id twin.  Values are bit-identical to the scalar
functions either way (same kernels, same replay arithmetic -- asserted
by the tests).

Which distances are batched
---------------------------
``levenshtein`` and the length-ratio family (``dmax``, ``dsum``,
``dmin``, ``yujian_bo``) reduce to one batched ``d_E`` sweep plus a
closed-form per-pair normalisation; ``contextual_heuristic`` reduces to
the batched twin-table sweep plus one ``canonical_cost`` evaluation per
pair.  The final per-pair arithmetic deliberately replays the *scalar*
implementations' expressions so batch results are bit-identical to the
scalar ones (asserted by the tests).  Everything else (exact ``d_C``,
``d_MV``, arbitrary user callables) falls back to one scalar call per
*unique* pair -- the dedupe and symmetry savings still apply.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (
    Any,
    Callable,
    Dict,
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
    _MV_EPS,
    _edit_budget,
    bounded_for,
    contextual_edit_budget,
    contextual_pruned_value,
    mv_bound_plan,
    mv_pruned_value,
)
from ..core.contextual import canonical_cost
from ..core.levenshtein import levenshtein_distance
from ..core.marzal_vidal import mv_normalized_distance
from ..core.types import Symbols, as_symbols
from .corpus import PairStore, intern_corpus
from .kernels import (
    contextual_heuristic_batch_bounded_encoded,
    contextual_heuristic_batch_encoded,
    encode_batch,
    levenshtein_batch_bounded_encoded,
    levenshtein_batch_encoded,
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

#: Registered names whose bounded twins the batched kernels replay.
_BOUNDED_KERNELS = _LEV_FAMILY + ("contextual_heuristic", "marzal_vidal")

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
    """Whether *name* has a batched kernel path in `_evaluate_batched`.

    The Levenshtein family and the contextual heuristic always do; exact
    ``d_C`` and ``d_MV`` gain one when the numba backend is active (their
    compiled per-pair kernels run a whole bucket per call)."""
    if name in _LEV_FAMILY or name == "contextual_heuristic":
        return True
    return name in ("marzal_vidal", "contextual") and jit_backend() is not None


def has_batched_kernel(distance: DistanceLike) -> bool:
    """Whether the engine evaluates *distance* through batch kernels --
    consumers whose batching strategy only pays when the per-distance
    cost amortises (AESA's front-loaded grid sweep) consult this instead
    of hard-coding distance names."""
    name, _ = _resolve(distance)
    return _is_batched(name)

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
    if isinstance(workers, str) and workers != "auto":
        raise ValueError(
            f"workers must be 'auto', an int, or None; got {workers!r}"
        )
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


def _lev_value(name: str, m: int, n: int, d: int) -> float:
    """One normalised value from an exact ``d_E``, replaying the scalar
    expressions of :mod:`repro.core.ratios` / :mod:`repro.core.yujian_bo`
    exactly so the floats are bit-identical to the scalar functions.

    Lengths suffice: the only branch that used to inspect the symbols
    (``d_min`` with an empty side) is decided by ``d == 0``, which holds
    iff ``x == y`` for an exact ``d_E``.
    """
    if name == _LEV_INT:
        return d
    if name == "levenshtein":
        return float(d)
    if name == "dmax":
        longest = max(m, n)
        return d / longest if longest else 0.0
    if name == "dsum":
        total = m + n
        return d / total if total else 0.0
    if name == "dmin":
        shortest = min(m, n)
        if shortest == 0:
            return 0.0 if d == 0 else float("inf")
        return d / shortest
    if name == "yujian_bo":
        return 2.0 * d / (m + n + d) if (m or n) else 0.0
    raise AssertionError(  # pragma: no cover - guarded by _LEV_FAMILY
        f"not a levenshtein-family name: {name}"
    )


def _lev_finalize(
    name: str, mx: np.ndarray, my: np.ndarray, d_e: np.ndarray
) -> np.ndarray:
    """Apply the scalar normalisation formulas to batched ``d_E`` values."""
    if name == _LEV_INT:
        return d_e.copy()
    out = np.empty(len(d_e), dtype=float)
    for p in range(len(d_e)):
        out[p] = _lev_value(name, int(mx[p]), int(my[p]), int(d_e[p]))
    return out


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


def _buckets(
    pairs: Sequence[Tuple[Symbols, Symbols]], bucket_size: int
) -> List[List[int]]:
    """Group pair indices by combined length (see :func:`_sizes_buckets`)."""
    return _sizes_buckets(
        [len(x) + len(y) for x, y in pairs], bucket_size
    )


def _evaluate_encoded(
    name: str,
    X: np.ndarray,
    Y: np.ndarray,
    mx: np.ndarray,
    my: np.ndarray,
) -> np.ndarray:
    """One kernel sweep over an already-encoded (single-bucket) chunk.

    The shared back half of :func:`_evaluate_batched` and the interned
    id-dispatch paths: everything downstream of encoding works from the
    code matrices and lengths alone (``d_C,h``'s ``canonical_cost``
    replay included -- equal pairs recover ``(d_E, Ni) = (0, 0)`` from
    the DP, so their cost is 0.0 without a symbol comparison).
    """
    if name == "contextual_heuristic":
        d_e, ni = contextual_heuristic_batch_encoded(X, Y, mx, my)
        out = np.empty(len(mx), dtype=float)
        for p in range(len(mx)):
            cost = canonical_cost(int(mx[p]), int(my[p]), int(d_e[p]), int(ni[p]))
            if cost is None:  # pragma: no cover - DP guarantees feasibility
                raise AssertionError(f"infeasible heuristic at slot {p}")
            out[p] = cost
        return out
    if name == "marzal_vidal":  # jit-only: gated by _is_batched
        return jit_backend().mv_distance_batch_encoded(X, Y, mx, my)
    if name == "contextual":  # jit-only: gated by _is_batched
        return jit_backend().contextual_distance_batch_encoded(X, Y, mx, my)
    return _lev_finalize(name, mx, my, levenshtein_batch_encoded(X, Y, mx, my))


def _evaluate_batched(
    name: str, pairs: Sequence[Tuple[Symbols, Symbols]]
) -> np.ndarray:
    """Batched evaluation of one of the kernel-backed distances."""
    out = np.empty(len(pairs), dtype=np.int64 if name == _LEV_INT else float)
    for bucket in _buckets(pairs, _BUCKET_SIZE):
        chunk = [pairs[p] for p in bucket]
        X, Y, mx, my = encode_batch(chunk)
        out[bucket] = _evaluate_encoded(name, X, Y, mx, my)
    return out


def _evaluate_ids(
    name: str, store: "PairStore", x_ids: np.ndarray, y_ids: np.ndarray
) -> np.ndarray:
    """Batched evaluation of kernel-backed distances over store ids:
    bucket by combined length, *gather* (never re-encode) each bucket's
    kernel inputs out of the store's interned matrices, sweep."""
    sizes = store.lengths[x_ids] + store.lengths[y_ids]
    out = np.empty(len(x_ids), dtype=np.int64 if name == _LEV_INT else float)
    for bucket in _sizes_buckets(sizes.tolist(), _BUCKET_SIZE):
        idx = np.asarray(bucket, dtype=np.int64)
        X, Y, mx, my = store.gather(x_ids[idx], y_ids[idx])
        out[idx] = _evaluate_encoded(name, X, Y, mx, my)
    return out


def _evaluate_unique(
    name: Optional[str],
    fn: Callable,
    pairs: Sequence[Tuple[Symbols, Symbols]],
    raw_pairs: Sequence[Tuple[Any, Any]],
) -> np.ndarray:
    """Evaluate every (already unique) pair, batched when possible.

    Scalar fallbacks are called on ``raw_pairs`` -- each slot's original
    item representations -- so representation-sensitive callables see
    exactly what a plain loop would have handed them; the normalised
    ``pairs`` feed the kernels (and the dedupe that aligned the lists).
    """
    if _is_batched(name):
        return _evaluate_batched(name, pairs)
    return np.asarray([fn(x, y) for x, y in raw_pairs], dtype=float)


#: Worker-lifetime memo of registry resolutions: a persistent-pool
#: worker serves many task shards over its life, and resolving the
#: distance (a registry scan) per shard was pure overhead.  Harmless in
#: per-call pools too (each worker simply resolves once).
_WORKER_FNS: Dict[str, Callable] = {}


def _worker_fn(name: str) -> Callable:
    """Resolve *name* once per worker lifetime."""
    fn = _WORKER_FNS.get(name)
    if fn is None:
        fn = registry.get_distance(name)
        _WORKER_FNS[name] = fn
    return fn


def _mp_evaluate(args: Tuple[str, List[Tuple[Symbols, Symbols]]]) -> np.ndarray:
    """Process-pool worker: evaluate one chunk of pairs by registry name."""
    from . import faults

    faults.worker_task()
    name, chunk = args
    if _is_batched(name):
        return _evaluate_batched(name, chunk)
    fn = _worker_fn(name)
    return np.asarray([fn(x, y) for x, y in chunk], dtype=float)


def _mp_evaluate_ids(
    args: Tuple[str, Any, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Process-pool worker: evaluate one chunk of *id pairs* against a
    shared-memory store publication -- only the name, the token and two
    id arrays crossed the process boundary."""
    from . import faults
    from . import runtime as _runtime

    faults.worker_task()
    name, token, x_ids, y_ids = args
    store, ephemeral = _runtime.attach_store(token)
    try:
        return _evaluate_ids(name, store, x_ids, y_ids)
    finally:
        _runtime.release_attachment(ephemeral)


#: Sentinel for "this chunk failed on this rung" (``None`` is a valid
#: worker return only for broken workers, but keep failure explicit).
_CHUNK_FAILED = object()


def _percall_map(
    worker: Callable[[Any], Any],
    chunks: List[Any],
    sizes: List[Optional[int]],
) -> Optional[List[Any]]:
    """The per-call-pool rung: one disposable pool sized to *chunks*,
    every chunk awaited under its :func:`~repro.batch.runtime.chunk_deadline`
    (all chunks run concurrently, so deadlines are measured from one
    shared submission instant -- a round of failures costs one deadline,
    not one per chunk).  Per-chunk failures come back as
    :data:`_CHUNK_FAILED`; ``None`` when no pool could be created."""
    import multiprocessing

    from . import runtime as _runtime

    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            ctx = multiprocessing.get_context()
        pool = ctx.Pool(processes=len(chunks))
    except Exception:  # pragma: no cover - sandboxed/forbidden fork
        return None
    results: List[Any] = []
    try:
        start = time.monotonic()
        try:
            handles = [pool.apply_async(worker, (chunk,)) for chunk in chunks]
        except Exception:  # pool broke at submit time
            return None
        for handle, size in zip(handles, sizes):
            deadline = _runtime.chunk_deadline(size)
            try:
                if deadline is None:
                    results.append(handle.get())
                else:
                    remaining = start + deadline - time.monotonic()
                    results.append(handle.get(max(0.001, remaining)))
            except Exception:
                results.append(_CHUNK_FAILED)
    finally:
        _runtime.dispose_pool(
            pool, kill=any(r is _CHUNK_FAILED for r in results)
        )
    return results


def _map_chunks(
    worker: Callable[[Any], Any],
    chunks: List[Any],
    workers: int,
    sizes: Optional[List[int]] = None,
    serial: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """Run *chunks* through the degradation ladder.

    Rungs, healthiest first -- every rung computes the very same values
    (same task function, same kernels), so degradation changes latency,
    never results:

    1. the persistent pool under supervision
       (:meth:`~repro.batch.runtime.EngineRuntime.supervised_map`:
       per-chunk deadlines, health-checked pool, fresh-pool retries);
    2. a disposable per-call pool for whatever chunks still failed
       (also the whole path when ``REPRO_PERSISTENT_POOL=0``);
    3. in-process serial evaluation of the stragglers via *serial*
       (defaults to calling *worker* inline) -- cannot fail, so the
       ladder always terminates with complete results.

    Returns the per-chunk results, or ``None`` when pooling was never
    available at all (no fork, no subprocesses) -- the quiet pre-existing
    contract, under which callers evaluate serially themselves.  *sizes*
    (pairs per chunk) scales the supervision deadlines.
    """
    from . import runtime as _runtime

    n = len(chunks)
    all_sizes: List[Optional[int]] = (
        list(sizes) if sizes is not None else [None] * n
    )
    if not _runtime.persistent_pool_enabled():
        parts = _percall_map(worker, chunks, all_sizes)
        if parts is None:
            return None
        if any(r is _CHUNK_FAILED for r in parts):
            # historic contract: a failed per-call pool means the caller
            # re-evaluates serially -- but say so, it's a degradation
            warnings.warn(
                "engine fan-out: per-call pool failed; "
                "falling back to in-process serial evaluation",
                _runtime.DegradedExecutionWarning,
                stacklevel=2,
            )
            _runtime.DEGRADATION.record("serial_fallbacks", n)
            return None
        return parts
    supervised = _runtime.get_runtime().supervised_map(
        worker, chunks, workers, sizes=sizes
    )
    if supervised is None:
        return None  # no pool at all: quiet serial fallback upstream
    results, failed = supervised
    if not failed:
        return results
    _runtime.DEGRADATION.record("percall_fallbacks", len(failed))
    warnings.warn(
        f"engine fan-out: {len(failed)}/{n} chunk(s) still failing after "
        "pool retries; degrading to a per-call pool",
        _runtime.DegradedExecutionWarning,
        stacklevel=2,
    )
    retried = _percall_map(
        worker,
        [chunks[i] for i in failed],
        [all_sizes[i] for i in failed],
    )
    stragglers: List[int] = []
    if retried is None:
        stragglers = failed
    else:
        for part, i in zip(retried, failed):
            if part is _CHUNK_FAILED:
                stragglers.append(i)
            else:
                results[i] = part
    if not stragglers:
        return results
    _runtime.DEGRADATION.record("serial_fallbacks", len(stragglers))
    warnings.warn(
        f"engine fan-out: {len(stragglers)}/{n} chunk(s) degraded to "
        "in-process serial evaluation",
        _runtime.DegradedExecutionWarning,
        stacklevel=2,
    )
    run = serial if serial is not None else worker
    for i in stragglers:
        results[i] = run(chunks[i])
    return results


def _fan_out(
    name: str,
    pairs: List[Tuple[Symbols, Symbols]],
    workers: int,
) -> Optional[np.ndarray]:
    """Evaluate *pairs* across a process pool; None if the pool fails.

    Chunks are contiguous slices of the (caller-sorted) pair list; child
    processes re-resolve the distance from its registry *name*, so only
    strings/tuples cross the process boundary.
    """
    chunk_count = min(workers, max(1, len(pairs) // _min_pairs_per_worker()))
    if chunk_count < 2:
        return None
    bounds = np.linspace(0, len(pairs), chunk_count + 1).astype(int)
    chunks = [
        (name, pairs[bounds[c] : bounds[c + 1]]) for c in range(chunk_count)
    ]
    sizes = [len(chunk[1]) for chunk in chunks]
    parts = _map_chunks(_mp_evaluate, chunks, chunk_count, sizes=sizes)
    if parts is None:
        return None
    return np.concatenate(parts)


def _fan_out_ids(
    name: str,
    store: "PairStore",
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    workers: int,
) -> Optional[np.ndarray]:
    """Evaluate id pairs across the persistent pool via a shared-memory
    publication of *store*; None when anything is unavailable (the
    caller then evaluates serially -- identical values).

    The corpus block is published once per corpus and cached by every
    worker for its lifetime; the per-call query block is published
    ephemerally and unlinked as soon as the call returns.  Only the id
    arrays travel per task.
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
    bounds = np.linspace(0, len(x_ids), chunk_count + 1).astype(int)
    chunks = [
        (name, token, x_ids[bounds[c] : bounds[c + 1]], y_ids[bounds[c] : bounds[c + 1]])
        for c in range(chunk_count)
    ]
    sizes = [int(bounds[c + 1] - bounds[c]) for c in range(chunk_count)]

    def _serial(chunk: Tuple[str, Any, np.ndarray, np.ndarray]) -> np.ndarray:
        # the ladder's last rung must not depend on shared memory (the
        # publication may be the very thing that failed): evaluate the
        # chunk's ids against the master-side store instead
        _name, _token, cx, cy = chunk
        return _evaluate_ids(_name, store, cx, cy)

    try:
        parts = _map_chunks(
            _mp_evaluate_ids, chunks, chunk_count, sizes=sizes, serial=_serial
        )
    finally:
        rt.release_block(token.extra)
    if parts is None:
        return None
    return np.concatenate(parts)


def pairwise_values(
    distance: DistanceLike,
    pairs: Sequence[Tuple[Any, Any]],
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """Evaluate *distance* over *pairs*, returning an aligned 1-D array.

    ``distance`` is a registry name, a registered distance function, the
    raw :func:`~repro.core.levenshtein.levenshtein_distance`, or any other
    callable (scalar fallback).  Repeated pairs are computed once; for
    registered distances ``x == y`` pairs are 0 without computation.
    Inputs are normalised with :func:`~repro.core.types.as_symbols`, so
    equal content in different representations (``"ab"`` vs
    ``("a", "b")``) also dedupes.

    ``workers`` defaults to ``"auto"``: unique-pair chunks fan out over a
    process pool whenever the machine has more than one core and every
    worker would receive at least ``_MIN_PAIRS_PER_WORKER`` pairs (only
    for distances resolvable by registry name; silently serial when the
    platform forbids subprocesses).  An integer forces the pool size;
    ``None``/``0``/``1`` force serial evaluation.

    Unregistered callables are always invoked on the *original* item
    representations (the normalised form only keys the dedupe), so
    representation-sensitive callables behave exactly as in a plain
    loop; note that of several raw pairs sharing one normalised key only
    the first is evaluated.  Items that are not symbol sequences (or
    whose symbols are not hashable) cannot be normalised or deduplicated
    at all; such pairs are evaluated with a plain scalar loop so
    arbitrary item types keep working through the index layer.
    """
    n = len(pairs)
    name, fn = _resolve(distance)
    registered = name is not None
    slot_of: Dict[Tuple[Symbols, Symbols], int] = {}
    unique: List[Tuple[Symbols, Symbols]] = []
    unique_raw: List[Tuple[Any, Any]] = []  # first-seen raw pair per slot
    take_from = np.empty(n, dtype=np.int64)
    zero_mask = np.zeros(n, dtype=bool)
    try:
        for p, (raw_x, raw_y) in enumerate(pairs):
            pair = (as_symbols(raw_x), as_symbols(raw_y))
            if registered and pair[0] == pair[1]:
                zero_mask[p] = True
                take_from[p] = -1
                continue
            slot = slot_of.get(pair)
            if slot is None:
                slot = len(unique)
                slot_of[pair] = slot
                unique.append(pair)
                unique_raw.append((raw_x, raw_y))
            take_from[p] = slot
    except TypeError:
        # non-sequence items or unhashable symbols: registered distances
        # could not have accepted them anyway, so this is the arbitrary-
        # callable case -- evaluate verbatim, pair by pair
        return np.asarray([fn(x, y) for x, y in pairs], dtype=float)
    values: Optional[np.ndarray] = None
    n_workers = _resolve_workers(workers, len(unique), registered)
    if n_workers > 1 and unique:
        values = _fan_out(name, unique, n_workers)
    if values is None:
        values = _evaluate_unique(name, fn, unique, unique_raw)
    if len(unique):
        dtype = values.dtype
    else:
        dtype = np.int64 if name == _LEV_INT else float
    out = np.zeros(n, dtype=dtype)
    filled = ~zero_mask
    if filled.any():
        out[filled] = values[take_from[filled]]
    return out


def pairwise_values_ids(
    distance: DistanceLike,
    store: "PairStore",
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    *,
    workers: Workers = "auto",
) -> np.ndarray:
    """:func:`pairwise_values` over interned store ids.

    ``store`` is a :class:`~repro.batch.corpus.PairStore`; entry ``p``
    equals ``pairwise_values(distance, [(store.raw(x_ids[p]),
    store.raw(y_ids[p]))])[0]`` bit for bit, but kernel inputs are
    *gathered* from the store's encoded matrices instead of re-encoded,
    deduplication keys on integer id pairs instead of content, and
    sharded fan-out ships only id arrays against a shared-memory
    publication of the store (persistent pool).  Distances without a
    batched kernel path, and stores without an encoding, fall back to
    :func:`pairwise_values` on the stored raw items -- identical
    behaviour, including for arbitrary representation-sensitive
    callables.

    Two deliberate differences from content-keyed dedupe: distinct ids
    holding equal content are evaluated per id pair (their kernel result
    is identical), and the ``x == y`` shortcut triggers on ``id_x ==
    id_y`` (duplicated items still evaluate to the same 0.0 through the
    kernels).
    """
    x_ids = np.asarray(x_ids, dtype=np.int64)
    y_ids = np.asarray(y_ids, dtype=np.int64)
    if len(x_ids) != len(y_ids):
        raise ValueError(
            f"{len(x_ids)} x_ids but {len(y_ids)} y_ids; they must align"
        )
    n = len(x_ids)
    name, _ = _resolve(distance)
    if name is None or not _is_batched(name) or not store.encoded:
        pairs = [
            (store.raw(int(i)), store.raw(int(j)))
            for i, j in zip(x_ids, y_ids)
        ]
        return pairwise_values(distance, pairs, workers=workers)
    dtype = np.int64 if name == _LEV_INT else float
    out = np.zeros(n, dtype=dtype)
    if n == 0:
        return out
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


def _lev_bounded_int(
    m: int, n: int, limit: float, d: int, exact: bool
) -> int:
    """Replay :func:`~repro.core.levenshtein.levenshtein_bounded` from a
    banded-kernel result: same exact-below / above-limit values, no DP.

    ``exact`` records whether the kernel proved ``d`` is the true
    distance (its budget always covers this request's, so ``not exact``
    implies the true distance exceeds every bound tested here).
    """
    if limit >= m + n:
        return d  # budget == m + n: the kernel was exact
    bound = int(limit) if limit >= 0 else -1
    if bound < 0:
        return 0 if exact and d == 0 else max(abs(m - n), 1)
    if exact and d <= bound:
        return d
    return max(bound + 1, abs(m - n))


def _replay_bounded_lev(
    name: str, m: int, n: int, limit: float, d: int, exact: bool
) -> float:
    """Replay the Levenshtein-family bounded twin at *limit* from a banded
    batch-kernel result.

    Each branch mirrors the matching function in :mod:`repro.core.bounded`
    expression by expression; the scalar twins decide "exact vs pruned" by
    comparing their banded DP result against the edit budget ``k``, and
    that comparison is equivalent to ``true d_E <= k``.  The batch kernel
    ran with the *maximum* budget over this pair's requests, so ``exact
    and d <= k`` is exactly that test (``not exact`` means the true
    distance exceeds the kernel budget, hence every request's ``k``), and
    replaying reproduces the scalar values bit for bit (asserted by the
    tests against :meth:`CountingDistance.within`).  Lengths suffice:
    the one branch that used to compare symbols (``d_min`` with an empty
    side) holds iff both sides are empty.
    """
    if limit == _INF:  # within() skips the twin entirely at +inf
        return _lev_value(name, m, n, d)  # budget == total: exact
    if name in ("levenshtein", _LEV_INT):
        value = _lev_bounded_int(m, n, limit, d, exact)
        return value if name == _LEV_INT else float(value)
    if name == "dmax":
        longest = max(m, n)
        if longest == 0:
            return 0.0
        k = _edit_budget(limit * longest)
        return d / longest if exact and d <= k else (k + 1) / longest
    if name == "dsum":
        total = m + n
        if total == 0:
            return 0.0
        k = _edit_budget(limit * total)
        return d / total if exact and d <= k else (k + 1) / total
    if name == "dmin":
        shortest = min(m, n)
        if shortest == 0:
            # x == y iff both empty: equal content implies equal lengths
            return 0.0 if m == n else float("inf")
        k = _edit_budget(limit * shortest)
        return d / shortest if exact and d <= k else (k + 1) / shortest
    if name == "yujian_bo":
        total = m + n
        if total == 0:
            return 0.0
        if limit >= 1.0:
            return 2.0 * d / (total + d)  # budget == total: exact
        k = 0 if limit < 0.0 else _edit_budget(limit * total / (2.0 - limit))
        if exact and d <= k:
            return 2.0 * d / (total + d)
        return 2.0 * (k + 1) / (total + k + 1)
    raise AssertionError(  # pragma: no cover - guarded by _LEV_FAMILY
        f"not a levenshtein-family name: {name}"
    )


def _replay_bounded_contextual(
    same: bool, m: int, n: int, limit: float, d_e: int, ni: int, exact: bool
) -> float:
    """Replay ``bounded_contextual_heuristic`` from a banded twin-table
    kernel result.

    The twin's banded DP recovers exactly these integers whenever
    ``d_E`` fits the edit budget (``exact`` from the kernel, whose
    budget covers this request's), so the canonical-cost branch is
    bit-identical; the pruned branches replay the twin's closed forms.
    ``same`` is the twin's leading ``x == y`` shortcut (callers decide
    it from content or from interned encoded rows).
    """
    if same:
        return 0.0
    total = m + n
    k = total if limit == _INF else contextual_edit_budget(limit, total)
    if exact and (k >= total or d_e <= k):
        cost = canonical_cost(m, n, d_e, ni)
        if cost is None:  # pragma: no cover - DP guarantees feasibility
            raise AssertionError(f"infeasible heuristic ({m}, {n}) slot")
        return cost
    if abs(m - n) > k:
        return contextual_pruned_value(max(k, abs(m - n) - 1), total)
    return contextual_pruned_value(k, total)


def _kernel_budget(name: str, m: int, n: int, limit: float) -> int:
    """The edit budget the banded kernel must honour for one request.

    Derived by inverting each twin's normalisation exactly as the scalar
    functions in :mod:`repro.core.bounded` do; the replay needs the true
    ``d_E`` (and ``Ni``) precisely when it is at most this bound, and
    only closed forms of the lengths and the limit otherwise.  Requests
    whose replay always needs the exact value (``inf`` limits, budgets
    past the table) return the pair's combined length, which makes the
    band cover the whole table.
    """
    total = m + n
    if limit == _INF:
        return total
    if name == "contextual_heuristic":
        k = contextual_edit_budget(limit, total)
    elif name in ("levenshtein", _LEV_INT):
        if limit >= total:
            return total
        k = int(limit) if limit >= 0 else -1
    elif name == "dmax":
        longest = max(m, n)
        if longest == 0:
            return 0
        k = _edit_budget(limit * longest)
    elif name == "dsum":
        if total == 0:
            return 0
        k = _edit_budget(limit * total)
    elif name == "dmin":
        shortest = min(m, n)
        if shortest == 0:
            return 0
        k = _edit_budget(limit * shortest)
    elif name == "yujian_bo":
        if limit >= 1.0:
            return total
        k = 0 if limit < 0.0 else _edit_budget(limit * total / (2.0 - limit))
    else:  # pragma: no cover - guarded by the caller
        return total
    return min(max(k, 0), total)


def pairwise_values_bounded(
    distance: DistanceLike,
    pairs: Sequence[Tuple[Any, Any]],
    limits: Sequence[float],
    *,
    workers: Workers = None,
) -> np.ndarray:
    """Early-exit twin of :func:`pairwise_values` with per-pair limits.

    Entry ``i`` equals what ``CountingDistance.within(x_i, y_i,
    limits[i])`` returns, bit for bit (see
    :func:`pairwise_values_bounded_ids` for the contract).

    An adapter over :func:`pairwise_values_bounded_ids`: the distinct
    items of *pairs* (keyed by their normalised symbols) are interned
    into a throwaway corpus, and the pairs dispatch as id pairs against
    it.  Items that cannot be interned (arbitrary objects, unhashable
    symbols) get one id per position in a corpus without an encoding,
    which the id path answers through the scalar twins.  ``workers`` is
    accepted for signature parity; the bounded path always runs
    serially.
    """
    if len(limits) != len(pairs):
        raise ValueError(
            f"{len(pairs)} pairs but {len(limits)} limits; they must align"
        )
    items: List[Any] = []
    ids: List[int] = []
    try:
        slot_of: Dict[Symbols, int] = {}
        for x, y in pairs:
            for item in (x, y):
                key = as_symbols(item)
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(items)
                    items.append(item)
                ids.append(slot)
    except TypeError:
        items = [item for pair in pairs for item in pair]
        ids = list(range(len(items)))
    store = intern_corpus(items).store()
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
    to the scalar probe; only probes that fail to prune pay a full
    Dinkelbach evaluation, exactly like the twin.
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
            score = float(scores[k])
            if score <= _MV_EPS:
                out[sel[k]] = mv_normalized_distance(x, y)
            else:
                out[sel[k]] = mv_pruned_value(
                    unique[sel[k]][2], len(x) + len(y), int(bands[k]), score
                )
    return out[take]


def pairwise_values_bounded_ids(
    distance: DistanceLike,
    store: "PairStore",
    x_ids: Sequence[int],
    y_ids: Sequence[int],
    limits: Sequence[float],
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
    Each request's bounded arithmetic is then replayed at its own limit
    from the ``(value, exact)`` kernel result; buckets with nothing to
    prune take the full-table kernels, bit-identically.
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
    if not store.encoded or name not in _BOUNDED_KERNELS:
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
    contextual = name == "contextual_heuristic"
    lens = store.lengths
    limits_f = [float(limit) for limit in limits]
    n_store = len(store)
    composite = x_ids * n_store + y_ids
    uniq, take = np.unique(composite, return_inverse=True)
    ux = uniq // n_store
    uy = uniq % n_store
    # Per-unique-pair kernel budget: the widest budget over that pair's
    # requests (exactness at the maximum budget decides every smaller one).
    bounds = np.zeros(len(uniq), dtype=np.int64)
    for p in range(n):
        slot = take[p]
        budget = _kernel_budget(
            name, int(lens[x_ids[p]]), int(lens[y_ids[p]]), limits_f[p]
        )
        if budget > bounds[slot]:
            bounds[slot] = budget
    d_unique = np.zeros(len(uniq), dtype=np.int64)
    ni_unique = np.zeros(len(uniq), dtype=np.int64)
    exact_unique = np.ones(len(uniq), dtype=bool)
    sizes = (lens[ux] + lens[uy]).tolist()
    for bucket in _sizes_buckets(sizes, _BUCKET_SIZE):
        idx = np.asarray(bucket, dtype=np.int64)
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
    out = np.empty(n, dtype=np.int64 if name == _LEV_INT else float)
    same_cache: Dict[int, bool] = {}
    for p in range(n):
        slot = int(take[p])
        limit = limits_f[p]
        exact = bool(exact_unique[slot])
        m, n_len = int(lens[x_ids[p]]), int(lens[y_ids[p]])
        if contextual:
            same = same_cache.get(slot)
            if same is None:
                same = store.same(int(ux[slot]), int(uy[slot]))
                same_cache[slot] = same
            out[p] = _replay_bounded_contextual(
                same,
                m,
                n_len,
                limit,
                int(d_unique[slot]),
                int(ni_unique[slot]),
                exact,
            )
        else:
            out[p] = _replay_bounded_lev(
                name, m, n_len, limit, int(d_unique[slot]), exact
            )
    return out


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
    """
    if ys is None:
        n = len(xs)
        flat = pairwise_values(
            distance, _triangle_pairs(xs, 0, n), workers=workers
        )
        matrix = np.zeros((n, n), dtype=flat.dtype)
        _mirror_triangle_strip(matrix, flat, 0, n)
        return matrix
    pairs = [(x, y) for x in xs for y in ys]
    flat = pairwise_values(distance, pairs, workers=workers)
    return flat.reshape(len(xs), len(ys))


def _triangle_pairs(
    xs: Sequence[Any], start: int, stop: int
) -> List[Tuple[Any, Any]]:
    """Upper-triangle pairs (diagonal included) for rows start..stop."""
    n = len(xs)
    return [(xs[i], xs[j]) for i in range(start, stop) for j in range(i, n)]


def _mirror_triangle_strip(
    out: np.ndarray, flat: np.ndarray, start: int, stop: int
) -> None:
    """Write the row strip evaluated by :func:`_triangle_pairs` into
    *out*, mirroring each row's tail into the matching column."""
    n = out.shape[0]
    pos = 0
    for i in range(start, stop):
        row = flat[pos : pos + n - i]
        out[i, i:] = row
        out[i:, i] = row
        pos += n - i


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
    when ``ys is None``).  Peak memory is one ``block_rows x n_cols``
    shard plus that block's unique pairs, so paper-scale gene sets whose
    full matrix exceeds memory can be folded over (or spilled to disk via
    :func:`pairwise_matrix_memmap`).

    Dedupe, the registered ``x == y`` shortcut and ``workers`` sharding
    all apply per block; the cross-diagonal mirroring of
    :func:`pairwise_matrix` does not (a streamed block cannot reuse rows
    that were never materialised), which is the memory-for-compute
    trade-off this entry point exists to make.
    """
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    cols = xs if ys is None else ys
    for start in range(0, len(xs), block_rows):
        stop = min(start + block_rows, len(xs))
        pairs = [(xs[i], c) for i in range(start, stop) for c in cols]
        flat = pairwise_values(distance, pairs, workers=workers)
        yield start, stop, flat.reshape(stop - start, len(cols))


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
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            flat = pairwise_values(
                distance, _triangle_pairs(xs, start, stop), workers=workers
            )
            _mirror_triangle_strip(out, flat, start, stop)
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
    return pairwise_values(
        distance, [(source, t) for t in targets], workers=workers
    )
