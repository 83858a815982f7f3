"""The persistent engine runtime: a reusable worker pool plus
shared-memory corpus publication, supervised against faults.

Before this module, every :func:`~repro.batch.engine.pairwise_values`
fan-out created a fresh ``multiprocessing.Pool`` (fork + import cost per
*call*) and pickled raw string pairs to the workers.  At bulk-query
serving scale both costs dwarf the DP arithmetic, so the runtime makes
them one-time:

* :class:`EngineRuntime` (one per process, via :func:`get_runtime`) owns
  a **lazily spawned, reused** process pool.  The first sharded engine
  call pays the spawn; every later call just maps chunks onto the live
  workers.  ``REPRO_PERSISTENT_POOL=0`` opts out (read per call): every
  engine call and shard scatter then stays in-process -- the pool only
  moves *where* chunks run, never what they compute;
* everything crosses to the workers as one kind of publication, a
  bundle of named arrays in ``multiprocessing.shared_memory``
  (:class:`ArraysToken`; one segment per array).  An interned corpus
  (:mod:`repro.batch.corpus`) is published **once**, as the
  three-array bundle of its encoded block, and the sharded fan-out
  then sends workers only ``(name, token, id-array)`` tuples; the
  shard scatter publishes each shard's index snapshot the same way.
  A worker attaches a persistent bundle on first sight, keeps it in
  its one attachment cache until the master releases it (every token
  lists the keys the master still publishes, and a worker drops the
  rest), and gathers kernel inputs straight out of shared pages.
  Per-call query batches ride along as *ephemeral* bundles, released
  as soon as the call returns into a segment ring that the next
  call's bundles rewrite in place;
* worker-side caches also memoise the distance-function resolution per
  registry name, so a worker resolves each kernel **once per lifetime**
  instead of once per task shard.

A stateful runtime also has stateful failure modes, so everything here
is *supervised*:

* :meth:`EngineRuntime.supervised_map` checks the round's workers for
  life while it waits, so a worker that dies mid-task (SIGKILL, OOM
  kill) ends its round at once, and runs every chunk under a per-chunk
  deadline (``REPRO_POOL_TIMEOUT`` seconds, scaled by chunk size) that
  catches wedged workers -- either surfaces as failed chunks instead of
  a hung call -- then retries *only the failed chunks* on a fresh pool
  (``_POOL_RETRIES`` rounds, exponential backoff).
  :meth:`EngineRuntime.fan_out` is the one degradation
  ladder on top, walked by the engine's chunk fan-out and the sharded
  scatter alike: whatever still failed after the retries runs
  in-process, re-computing the same values;
* cached pools are health-checked before reuse (a dead worker means the
  pool is discarded and respawned, with ``terminate`` + time-bounded
  ``join`` so repeated respawns never accumulate zombie children);
* shared-memory segments carry a session-scoped name prefix
  (``repro-<pid>-<token>-...``), and the first :func:`get_runtime` of a
  process reaps orphaned segments left by dead PIDs (a SIGKILLed master
  whose resource tracker died with it); ``REPRO_SHM_REAPER=0`` opts out;
* worker attachments verify a publication *generation*: a cached bundle
  whose generation lags the token's was unlinked by a runtime shutdown,
  so the worker drops the stale mapping and re-attaches instead of
  silently reading dead pages;
* every degradation event is counted in :data:`DEGRADATION` and
  announced via :class:`DegradedExecutionWarning`, so a degraded run is
  visible, not silent.  :class:`Counters` is the one counter
  implementation behind it and the serving tier's metrics.

Everything still degrades gracefully: platforms without ``fork`` or
shared memory, sandboxes that forbid subprocesses, and broken pools all
return ``None`` from the runtime's entry points, and the callers run
in-process -- same values, no sharing.
:mod:`repro.batch.faults` can inject every failure mode on demand
(``REPRO_FAULTS``), which is how the chaos suite proves the ladder.
"""

from __future__ import annotations

import atexit
import itertools
import os
import re
import threading
import time
import uuid
import warnings
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..tools import knobs

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

    from .corpus import AttachedStore, PairStore, _Block

__all__ = [
    "persistent_pool_enabled",
    "Counters",
    "pool_timeout",
    "chunk_deadline",
    "reaper_enabled",
    "reap_orphaned_segments",
    "DegradedExecutionWarning",
    "DegradationStats",
    "DEGRADATION",
    "dispose_pool",
    "EngineRuntime",
    "get_runtime",
    "ArraysToken",
    "StoreToken",
    "attach_arrays",
    "attach_store",
    "drop_released",
    "publish_generation",
    "register_view_cache",
    "release_attachment",
]



def persistent_pool_enabled() -> bool:
    """Whether engine fan-outs and shard scatters may use the persistent
    pool; ``REPRO_PERSISTENT_POOL=0`` keeps them in-process (read per
    call)."""
    return knobs.get_flag("REPRO_PERSISTENT_POOL")


# ---------------------------------------------------------------------------
# supervision knobs and degradation accounting
# ---------------------------------------------------------------------------

#: Baseline per-chunk deadline in seconds (``REPRO_POOL_TIMEOUT``);
#: generous, because it exists to catch wedged workers (a dead one ends
#: its round at once), not to race healthy ones.  ``<= 0`` disables
#: deadlines entirely (a wedged worker then blocks its call forever).
_POOL_TIMEOUT = 300.0

#: Chunk size (pairs) covered by the baseline deadline; bigger chunks
#: scale the deadline up proportionally.
_DEADLINE_PAIRS = 50_000.0

#: Fresh-pool retry rounds after a failed fan-out (read per call, so
#: tests monkeypatch it).
_POOL_RETRIES = 1

#: First retry backoff in seconds (doubles per round, capped at 2s).
_RETRY_BACKOFF = 0.05


def pool_timeout() -> float:
    """Baseline per-chunk deadline in seconds, honouring
    ``REPRO_POOL_TIMEOUT`` (read per call; ``<= 0`` disables)."""
    value = knobs.get_float("REPRO_POOL_TIMEOUT")
    if value is not None:
        return value
    return _POOL_TIMEOUT


def chunk_deadline(size: Optional[int]) -> Optional[float]:
    """The supervision deadline for one chunk of *size* pairs: the
    ``REPRO_POOL_TIMEOUT`` baseline, scaled up proportionally once a
    chunk exceeds ``_DEADLINE_PAIRS`` pairs.  ``None`` disables."""
    base = pool_timeout()
    if base <= 0:
        return None
    if not size or size <= 0:
        return base
    return base * max(1.0, size / _DEADLINE_PAIRS)


def reaper_enabled() -> bool:
    """Whether the startup orphan reaper runs; ``REPRO_SHM_REAPER=0``
    opts out (e.g. when several unrelated engine processes share a PID
    namespace with aggressive PID reuse)."""
    return knobs.get_flag("REPRO_SHM_REAPER")


class DegradedExecutionWarning(UserWarning):
    """A bulk fan-out degraded down the reliability ladder (a fresh-pool
    retry, or in-process serial) -- results are identical, but the run
    is slower than the healthy path and the operator should know."""


class Counters:
    """A fixed set of named event counters behind one lock.

    All methods hold the lock, so a metrics thread (the serving tier's
    health surface) can :meth:`snapshot`/:meth:`delta_since` while bulk
    calls on worker threads :meth:`record` concurrently -- every
    snapshot is a consistent point-in-time copy, and no increment is
    ever lost to a racing read-modify-write.  Subclasses name their
    counters in ``_FIELDS``: :class:`DegradationStats` and the serving
    tier's :class:`~repro.serve.metrics.ServeMetrics`.
    """

    _FIELDS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {f: 0 for f in self._FIELDS}

    def record(self, event: str, n: int = 1) -> None:
        with self._lock:
            self._counts[event] = self._counts.get(event, 0) + n

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in list(self._counts):
                self._counts[key] = 0

    @staticmethod
    def increases(
        before: Mapping[str, int], after: Mapping[str, int]
    ) -> Dict[str, int]:
        """The counters that grew from snapshot *before* to snapshot
        *after*, as a ``{field: increase}`` dict holding only non-zero
        entries -- the per-interval shape the serving tier's health
        surface exports.  Counters only ever grow between resets, so a
        negative delta (a reset slipped between the snapshots) is
        clamped out rather than reported as garbage."""
        out: Dict[str, int] = {}
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff > 0:
                out[key] = diff
        return out

    def delta_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """:meth:`increases` from *before* (an earlier :meth:`snapshot`)
        to now."""
        return self.increases(before, self.snapshot())


class DegradationStats(Counters):
    """Process-wide counters of every degradation event.

    Bulk drivers take the delta of these around each call
    (:attr:`repro.index.base.NearestNeighborIndex.last_degradation`) so
    serving layers can export them; tests assert on deltas.
    """

    _FIELDS = (
        "pool_timeouts",  # a chunk missed its supervision deadline
        "pool_errors",  # a chunk raised / died inside the pool
        "pool_retries",  # fresh-pool retry rounds taken
        "dead_pools",  # cached pools discarded by the health check
        "serial_fallbacks",  # engine chunks re-run in-process
        "shard_fallbacks",  # shard tasks re-run in the master
        "publish_failures",  # shared-memory publications that failed
        "stale_attachments",  # worker re-attaches forced by generation
        "reaped_segments",  # orphaned /dev/shm segments unlinked
        "store_load_failures",  # artifact snapshots that failed verification
        "store_lock_takeovers",  # store locks taken over from dead holders
    )


#: The process-wide degradation counters.
DEGRADATION = DegradationStats()


# ---------------------------------------------------------------------------
# session-scoped segment naming and the orphan reaper
# ---------------------------------------------------------------------------

#: Where POSIX shared memory lives on Linux; the reaper is a no-op on
#: platforms without it.
_SHM_DIR = "/dev/shm"

#: Session-prefixed segment names: ``repro-<pid>-<token>-<counter>``.
#: The pid makes orphans attributable (the reaper checks it for life);
#: the token keeps two same-pid sessions (PID reuse) from colliding.
_ORPHAN_RE = re.compile(r"^repro-(\d+)-")

_SESSION_TOKEN: Optional[str] = None


def _session_prefix() -> str:
    """This process' segment-name prefix (recomputed after a fork, so a
    forked publisher never masquerades under its parent's pid)."""
    global _SESSION_TOKEN
    pid = os.getpid()
    if _SESSION_TOKEN is None or not _SESSION_TOKEN.startswith(f"repro-{pid}-"):
        _SESSION_TOKEN = f"repro-{pid}-{uuid.uuid4().hex[:6]}"
    return _SESSION_TOKEN


def _pid_alive(pid: int) -> bool:
    """Whether *pid* is a live process (permission errors mean alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def reap_orphaned_segments(directory: str = _SHM_DIR) -> List[str]:
    """Unlink ``repro-<pid>-*`` segments whose owner pid is dead.

    A SIGKILLed master (and its resource tracker, when the whole process
    group died) leaks its published segments until reboot; because every
    segment name carries its publisher's pid, any later engine process
    can attribute and remove them.  Returns the reaped names.  Segments
    of live pids -- including reused pids -- are never touched, and the
    reaper never races itself destructively: a concurrent unlink just
    surfaces as a skipped ``OSError``.
    """
    removed: List[str] = []
    try:
        names = os.listdir(directory)
    except OSError:  # no /dev/shm on this platform
        return removed
    own_pid = os.getpid()
    for name in names:
        match = _ORPHAN_RE.match(name)
        if not match:
            continue
        pid = int(match.group(1))
        if pid == own_pid or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue
        removed.append(name)
    if removed:
        DEGRADATION.record("reaped_segments", len(removed))
        warnings.warn(
            f"reaped {len(removed)} orphaned shared-memory segment(s) "
            "left by dead processes",
            DegradedExecutionWarning,
            stacklevel=2,
        )
    return removed


@dataclass(frozen=True)
class _ArraySpec:
    """One shared-memory segment holding one numpy array."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ArraysToken:
    """A named bundle of arrays in shared memory, one segment each: an
    encoded corpus or query block (:meth:`EngineRuntime.publish_block`)
    or a shard's index snapshot (:mod:`repro.shard.scatter`).

    ``persistent`` bundles (interned corpora, shards) may be cached by
    workers until the master releases them; ephemeral bundles (per-call
    query batches) are attached per task and closed immediately after.
    ``generation`` stamps the publication: persistent bundles keep a
    *stable* key (per corpus, per shard), so a worker holding a cached
    attachment can tell a republication (generation advanced -- the old
    segments were unlinked) from the publication it already mapped.
    """

    key: str
    persistent: bool
    specs: Tuple[Tuple[str, _ArraySpec], ...]
    generation: int = 0


@dataclass(frozen=True)
class StoreToken:
    """A :class:`~repro.batch.corpus.PairStore` published to shared
    memory for one call: the corpus block plus an optional extra (query)
    block.  ``live`` holds the keys of every persistent publication the
    master still holds at call time (:meth:`EngineRuntime.live_keys`),
    so a worker can drop the cached attachments of released ones
    (:func:`drop_released`)."""

    corpus: ArraysToken
    extra: Optional[ArraysToken]
    live: FrozenSet[str] = frozenset()


# ---------------------------------------------------------------------------
# worker-side attachment (runs inside pool processes)
# ---------------------------------------------------------------------------

#: The worker's one cache of attached *persistent* bundles, kept until
#: the master releases them (:func:`drop_released`):
#: key -> (generation, {name: array}, [SharedMemory handles]).
_ATTACHED_ARRAYS: Dict[str, Tuple[int, Dict[str, np.ndarray], List[Any]]] = {}

#: Other worker caches keyed by persistent publication keys whose
#: entries view attached pages (the sharded tier's rebuilt shard
#: indexes), see :func:`register_view_cache`.
_VIEW_CACHES: List[Dict[str, Any]] = []


def _attach_array(spec: _ArraySpec) -> Tuple[np.ndarray, Any]:
    from multiprocessing import shared_memory

    from . import faults

    faults.check("shm_attach_fail")
    # Workers are *forked*, so they share the master's resource tracker:
    # the attach-side registration is an idempotent set-add there, and
    # the master's unlink balances it -- no attach-side unregister (which
    # would steal the master's registration and make the eventual unlink
    # a tracker error).
    shm = shared_memory.SharedMemory(name=spec.shm_name)
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return arr, shm


def attach_arrays(token: ArraysToken) -> Tuple[Dict[str, np.ndarray], List[Any]]:
    """Attach a published bundle inside a worker.

    Returns ``({name: array}, ephemeral_handles)``; the caller must
    close the handles after use when the bundle is not persistent.
    Persistent bundles stay cached until the master releases them, with
    generation verification: a cached bundle whose generation lags the
    token's maps segments a runtime shutdown unlinked, so it is dropped
    and re-attached instead of read as dead pages.
    """
    if token.persistent:
        cached = _ATTACHED_ARRAYS.get(token.key)
        if cached is not None and cached[0] == token.generation:
            return cached[1], []
        if cached is not None:
            # no view of the stale pages may outlive the entry, or the
            # close fails
            del cached
            release_attachment(_ATTACHED_ARRAYS.pop(token.key)[2])
            DEGRADATION.record("stale_attachments")
    arrays: Dict[str, np.ndarray] = {}
    handles: List[Any] = []
    for name, spec in token.specs:
        arr, shm = _attach_array(spec)
        arrays[name] = arr
        handles.append(shm)
    if token.persistent:
        _ATTACHED_ARRAYS[token.key] = (token.generation, arrays, handles)
        return arrays, []
    return arrays, handles


def attach_store(token: StoreToken) -> Tuple["AttachedStore", List[Any]]:
    """Attach a published store inside a worker.  Returns the store and
    the list of *ephemeral* handles the caller must close after use
    (the persistent corpus bundle stays cached until the master
    releases it)."""
    from .corpus import AttachedStore

    drop_released(token.live)
    corpus, _ = attach_arrays(token.corpus)
    if token.extra is None:
        return AttachedStore(corpus, None), []
    extra, ephemeral = attach_arrays(token.extra)
    return AttachedStore(corpus, extra), ephemeral


def register_view_cache(cache: Dict[str, Any]) -> None:
    """Have :func:`drop_released` empty *cache*'s entries of released
    keys before it closes the attachments those entries view."""
    _VIEW_CACHES.append(cache)


def drop_released(live: FrozenSet[str]) -> None:
    """Close every cached persistent attachment whose key is not in
    *live* -- the keys the master still publishes
    (:attr:`StoreToken.live`).  The master unlinks a publication when
    its corpus or index is garbage collected; without this a worker
    would keep the mapping and its handles for its whole life, one per
    dropped index or fanned-out throwaway corpus.  Registered view
    caches go first, so no cached view pins the pages being closed."""
    for cache in _VIEW_CACHES:
        for key in [key for key in cache if key not in live]:
            del cache[key]
    for key in [key for key in _ATTACHED_ARRAYS if key not in live]:
        # pop first: the entry's arrays view the pages, and a segment
        # with a live view cannot be closed
        release_attachment(_ATTACHED_ARRAYS.pop(key)[2])


def release_attachment(handles: Sequence[Any]) -> None:
    """Close ephemeral worker-side attachments after a task."""
    for shm in handles:
        try:
            shm.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


# ---------------------------------------------------------------------------
# master-side runtime
# ---------------------------------------------------------------------------

#: Bumped by every EngineRuntime.shutdown(): corpora cache their
#: publication per generation, so a token whose segments a shutdown
#: already unlinked is never handed out again (it would make every
#: worker attach fail and tear the pool down on each call), and workers
#: holding a pre-shutdown attachment re-attach instead of reading dead
#: pages (see :func:`attach_arrays`).
_PUBLISH_GENERATION = 0


def publish_generation() -> int:
    """The current publication generation.  Callers holding tokens from
    an earlier generation (a runtime shutdown happened in between) must
    republish -- their segments are gone."""
    return _PUBLISH_GENERATION


#: Most free segments the runtime's reuse ring retains; excess releases
#: unlink as before.  Sized for the serving-tier case (a handful of
#: small per-call blocks in flight at once), not for bulk corpora.
_RING_CAPACITY = 12

#: Largest segment (bytes) the ring will retain.  High-frequency small
#: query batches are the win; parking a one-off giant batch would just
#: pin memory.
_RING_SEGMENT_MAX = 4 << 20


def _unlink_segment(shm: Any) -> None:
    """Close and unlink one owned segment, tolerating exactly the
    double-unlink race: a segment already removed (an atexit shutdown
    after an explicit one, a reaper in another process, a manual
    ``rm /dev/shm/...``) raises ``FileNotFoundError``, which means the
    desired state already holds.  Anything else propagates -- broad
    suppression here used to hide genuine teardown bugs."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        # unlink raises before it unregisters, so balance the resource
        # tracker by hand or it reports a phantom leak at exit
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass


#: Seconds between the liveness checks of a round's workers while its
#: chunks are awaited: a worker's death ends the round within this.
_LIVENESS_POLL = 0.05


def _await_chunk(handle: Any, due: Optional[float], procs: Sequence[Any]) -> bool:
    """Wait for *handle* until it is ready, the monotonic instant *due*
    passes (``None``: never), or one of the round's workers *procs* has
    exited -- checked between waits of ``_LIVENESS_POLL`` seconds, which
    a ready result ends at once; returns whether a worker exited."""
    while True:
        wait = _LIVENESS_POLL
        if due is not None:
            wait = min(wait, due - time.monotonic())
        handle.wait(max(0.001, wait))
        if handle.ready():
            return False
        if not all(proc.is_alive() for proc in procs):
            return True
        if due is not None and time.monotonic() >= due:
            return False


def dispose_pool(pool: Any, kill: bool = False, join_timeout: float = 5.0) -> None:
    """Tear a ``multiprocessing.Pool`` down *completely* without ever
    blocking forever, even when its workers are dead or wedged.

    ``Pool.terminate`` can deadlock: it drains the task queue under the
    queue locks, and a worker that died *holding* one (SIGKILLed while
    blocked on the queue) leaves that lock locked forever.  So terminate
    runs on a daemon thread under a time budget; only once it has
    finished (or overrun) are workers SIGKILLed -- killing first is what
    *creates* the deadlock -- and every worker is then joined with a
    deadline (reaping zombies, so repeated respawns never accumulate
    them), with a SIGKILL + final join for stragglers that ignored
    SIGTERM.  *kill* shortens the terminate budget for pools already
    known to hold dead or wedged workers.
    """
    import threading

    procs = list(getattr(pool, "_pool", None) or [])
    done = threading.Event()

    def _terminate() -> None:
        try:
            pool.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        done.set()

    threading.Thread(
        target=_terminate, daemon=True, name="repro-pool-terminate"
    ).start()
    done.wait(min(join_timeout, 1.0) if kill else join_timeout)
    # catch workers the pool's handler thread respawned before terminate
    # flipped its state
    for proc in getattr(pool, "_pool", None) or []:
        if proc not in procs:
            procs.append(proc)
    if not done.is_set() or kill:
        # terminate is stuck (dead worker holding a queue lock, abandoned
        # with its daemon thread) or the pool is known-bad: SIGKILL
        for proc in procs:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
    deadline = time.monotonic() + join_timeout
    for proc in procs:
        try:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:  # pragma: no cover - already reaped
            pass


class EngineRuntime:
    """Process-wide holder of the persistent pool and published corpora.

    Use :func:`get_runtime`; constructing more than one per process
    works but forfeits the sharing this class exists for.
    """

    def __init__(self) -> None:
        self._pool = None
        self._pool_size = 0
        self._published: List[Any] = []  # SharedMemory handles we own
        #: keys of the persistent publications not yet released
        self._live: Set[str] = set()
        self._counter = itertools.count()
        # The segment ring: released *reusable* (ephemeral) segments park
        # here instead of being unlinked, and the next ephemeral publish
        # of equal-or-smaller payload rewrites one in place -- the
        # per-call create/unlink churn of high-frequency small query
        # batches becomes a memcpy.  Safe because ephemeral segments are
        # only released after their fan-out returned (and failed pools
        # are SIGKILL-disposed first), so no worker still reads them.
        self._ring: List[Any] = []  # free segments, FIFO
        self._ring_names: set = set()  # names tagged ring-eligible
        self._ring_stats: Dict[str, int] = {
            "creates": 0,  # ephemeral publishes that had to create
            "reuses": 0,  # ephemeral publishes served from the ring
            "returns": 0,  # releases parked back into the ring
            "evictions": 0,  # releases unlinked (ring full)
        }
        atexit.register(self.shutdown)

    # -- pool ---------------------------------------------------------------

    def _pool_healthy(self) -> bool:
        """Whether every worker of the cached pool is alive.  A dead
        worker means tasks can be lost (``Pool`` replaces the process but
        not its in-flight task), so the caller discards and respawns."""
        procs = getattr(self._pool, "_pool", None)
        if not procs:
            return False
        try:
            return all(p.is_alive() for p in procs)
        except Exception:  # pragma: no cover - pool mid-teardown
            return False

    def pool(self, workers: int) -> Optional["Pool"]:
        """The shared pool with at least *workers* processes, spawning or
        growing it lazily; ``None`` when subprocesses are unavailable.
        A cached pool is health-checked first: one with dead workers
        (SIGKILLed children, OOM kills) is discarded and respawned
        instead of being handed lost-task hangs."""
        if self._pool is not None and self._pool_size >= workers:
            if self._pool_healthy():
                return self._pool
            DEGRADATION.record("dead_pools")
            self._discard_pool(kill=True)
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            ctx = multiprocessing.get_context()
        size = max(workers, self._pool_size, os.cpu_count() or 1)
        try:
            # workers must inherit this process' resource tracker: one
            # forked before it runs starts its own on its first attach,
            # and that tracker unlinks every segment the worker attached
            # -- the master's live corpora too -- when the worker exits
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            pool = ctx.Pool(processes=size)
        except Exception:  # pragma: no cover - sandboxed/forbidden fork
            return None
        self._discard_pool()
        self._pool = pool
        self._pool_size = size
        return pool

    def supervised_map(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        workers: int,
        sizes: Optional[Sequence[int]] = None,
    ) -> Optional[Tuple[List[Any], List[int]]]:
        """Fault-tolerant fan-out: end a round as soon as one of its
        workers dies, or a chunk misses its deadline, and retry failures
        on a fresh pool.

        Each chunk is submitted individually (``apply_async``) and
        awaited by :func:`_await_chunk`.  A worker that died mid-task
        (``os._exit``, SIGKILL, OOM kill) loses its task silently --
        ``Pool`` replaces the process, and the handle never resolves --
        so once a worker of the round has exited, every chunk still
        unresolved fails at once (``pool_errors``); results that arrived
        are kept.  :func:`chunk_deadline` of each *sizes* entry catches
        wedged workers (``pool_timeouts``).  After a failed round the
        pool is discarded (SIGKILL after a death or a deadline miss:
        ``terminate`` can stall on such a pool) and **only the failed
        chunks** are retried on a fresh pool, up to ``_POOL_RETRIES``
        rounds with exponential backoff.

        Returns ``(results, failed_indices)`` -- entries of *results* at
        failed indices are ``None`` and :meth:`fan_out` re-runs them
        in-process -- or ``None`` when no pool could be spawned at all
        (quiet serial fallback, not a degradation)."""
        pool = self.pool(workers)
        if pool is None:
            return None
        n = len(chunks)
        results: List[Any] = [None] * n
        pending = list(range(n))
        retries = _POOL_RETRIES
        attempt = 0
        while True:
            start = time.monotonic()
            procs = list(getattr(pool, "_pool", None) or [])
            handles: List[Tuple[int, Any]] = []
            try:
                for i in pending:
                    handles.append((i, pool.apply_async(fn, (chunks[i],))))
            except Exception:  # pool broke at submit time
                pass
            submitted = {i for i, _ in handles}
            failed: List[int] = [i for i in pending if i not in submitted]
            hit_deadline = died = False
            # Deadlines are measured from the round's shared submission
            # instant, so a round of dead chunks costs one deadline, not
            # one per chunk.  Engine callers always submit at most
            # pool-size chunks (everything runs at once); *waves* covers
            # oversubscribed callers, whose later chunks queue.
            waves = max(
                1, -(-len(pending) // max(1, self._pool_size or len(pending)))
            )
            for i, handle in handles:
                if not died:
                    deadline = chunk_deadline(
                        sizes[i] if sizes is not None else None
                    )
                    due = None if deadline is None else start + deadline * waves
                    died = _await_chunk(handle, due, procs)
                if handle.ready():
                    try:
                        results[i] = handle.get()
                    except Exception:  # the task raised
                        DEGRADATION.record("pool_errors")
                        failed.append(i)
                elif died:  # lost with a dead worker
                    DEGRADATION.record("pool_errors")
                    failed.append(i)
                else:  # past its deadline: a wedged worker
                    hit_deadline = True
                    DEGRADATION.record("pool_timeouts")
                    failed.append(i)
            if not failed:
                return results, []
            failed.sort()
            # A failed round leaves the pool suspect: lost tasks, dead
            # or wedged workers.  Discard before any retry; a dead
            # worker or a deadline miss escalates to SIGKILL.
            self._discard_pool(kill=hit_deadline or died)
            if attempt >= retries:
                return results, failed
            attempt += 1
            DEGRADATION.record("pool_retries")
            warnings.warn(
                f"fan-out: {len(failed)}/{n} chunk(s) failed "
                f"(retry {attempt}/{retries}); respawning the worker pool",
                DegradedExecutionWarning,
                stacklevel=2,
            )
            time.sleep(min(_RETRY_BACKOFF * (2 ** (attempt - 1)), 2.0))
            pending = failed
            pool = self.pool(workers)
            if pool is None:
                return results, pending

    def fan_out(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        workers: int,
        sizes: Sequence[int],
        serial: Callable[[int], Any],
        counter: str,
    ) -> Optional[List[Any]]:
        """Run *chunks* down the degradation ladder -- the one every
        fan-out walks, the engine's chunk fan-out and the sharded
        scatter alike:

        1. the persistent pool under :meth:`supervised_map` (per-chunk
           deadlines, health-checked pool, fresh-pool retries);
        2. ``serial(i)`` in this process for every chunk *i* still
           failing, counted under the *counter* degradation field --
           cannot fail, so the ladder always ends with complete results.

        *serial* runs the same code as the worker task *fn*, so
        degradation changes latency, never results.  Returns the
        per-chunk results, or ``None`` when no pool could be spawned at
        all -- the quiet contract under which the caller runs everything
        in-process itself."""
        supervised = self.supervised_map(fn, chunks, workers, sizes=sizes)
        if supervised is None:
            return None
        results, failed = supervised
        if failed:
            DEGRADATION.record(counter, len(failed))
            warnings.warn(
                f"fan-out: {len(failed)}/{len(chunks)} chunk(s) still "
                "failing after pool retries; re-running them in-process "
                "(results unchanged)",
                DegradedExecutionWarning,
                stacklevel=3,
            )
            for i in failed:
                results[i] = serial(i)
        return results

    def _discard_pool(
        self, kill: bool = False, join_timeout: float = 5.0
    ) -> None:
        """Drop and dispose the cached pool (see :func:`dispose_pool`)."""
        pool, self._pool, self._pool_size = self._pool, None, 0
        if pool is not None:
            dispose_pool(pool, kill=kill, join_timeout=join_timeout)

    # -- shared-memory publication -------------------------------------------

    def _publish_array(
        self, arr: np.ndarray, reusable: bool = False
    ) -> Optional[_ArraySpec]:
        from multiprocessing import shared_memory

        from . import faults

        if faults.fires("publish_fail"):
            DEGRADATION.record("publish_failures")
            return None
        arr = np.ascontiguousarray(arr)
        if reusable:
            # first-fit from the ring: any parked segment big enough
            # carries the payload (the spec's shape/dtype bound what
            # attachers read, so an oversized buffer is harmless)
            for pos, free in enumerate(self._ring):
                if free.size >= max(1, arr.nbytes):
                    shm = self._ring.pop(pos)
                    if arr.nbytes:
                        view = np.ndarray(
                            arr.shape, dtype=arr.dtype, buffer=shm.buf
                        )
                        view[...] = arr
                    self._published.append(shm)
                    self._ring_stats["reuses"] += 1
                    return _ArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)
        name = f"{_session_prefix()}-{next(self._counter)}"
        try:
            shm = shared_memory.SharedMemory(
                create=True, name=name, size=max(1, arr.nbytes)
            )
        except FileExistsError:  # pragma: no cover - stale same-name file
            try:
                shm = shared_memory.SharedMemory(
                    create=True,
                    name=f"{name}-{uuid.uuid4().hex[:8]}",
                    size=max(1, arr.nbytes),
                )
            except Exception:
                DEGRADATION.record("publish_failures")
                return None
        except Exception:  # pragma: no cover - no /dev/shm or similar
            DEGRADATION.record("publish_failures")
            return None
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
        self._published.append(shm)
        if reusable:
            self._ring_stats["creates"] += 1
            if arr.nbytes <= _RING_SEGMENT_MAX:
                self._ring_names.add(shm.name)
        return _ArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)

    def publish_arrays(
        self,
        arrays: Dict[str, np.ndarray],
        persistent: bool,
        key: Optional[str] = None,
    ) -> Optional[ArraysToken]:
        """Copy a named bundle of arrays into shared memory, one segment
        each; ``None`` on failure (callers fall back to in-process
        execution).  A partial failure unlinks the segments already
        created, so a failed publication never leaks.  Ephemeral
        bundles go through the segment ring.  *key* fixes the
        worker-cache key of a persistent bundle (a stable key per corpus
        or shard, so generation verification can catch
        republications)."""
        specs: List[Tuple[str, _ArraySpec]] = []
        for name, arr in arrays.items():
            spec = self._publish_array(arr, reusable=not persistent)
            if spec is None:
                self._release_names({s.shm_name for _, s in specs})
                return None
            specs.append((name, spec))
        if key is None:
            key = f"{_session_prefix()}-arrays-{next(self._counter)}"
        if persistent:
            self._live.add(key)
        return ArraysToken(
            key, persistent, tuple(specs), generation=_PUBLISH_GENERATION
        )

    def publish_block(
        self, block: "_Block", persistent: bool, key: Optional[str] = None
    ) -> Optional[ArraysToken]:
        """Publish one encoded block as its three-array bundle (see
        :meth:`publish_arrays`)."""
        return self.publish_arrays(block.arrays(), persistent, key)

    def live_keys(self) -> FrozenSet[str]:
        """The keys of every persistent publication not yet released --
        the attachments a worker may keep cached; every other cached
        one it drops on its next attach (:func:`drop_released`)."""
        return frozenset(self._live)

    def publish_store(self, store: "PairStore") -> Optional[StoreToken]:
        """Publish a :class:`~repro.batch.corpus.PairStore`: the corpus
        block once per corpus (cached on the corpus object, invalidated
        by any :meth:`shutdown`, released when the corpus is garbage
        collected), the extra block ephemerally per call.  ``None`` for
        a store without an encoding: workers would have nothing to
        sweep."""
        import weakref

        if not store.encoded:
            return None
        corpus = store.corpus
        cached = corpus.shm_token
        token = None
        if cached is not None and cached[0] == _PUBLISH_GENERATION:
            token = cached[1]
        if token is None:
            token = self.publish_block(
                corpus.block, persistent=True, key=f"corpus-{corpus.key}"
            )
            if token is None:
                return None
            corpus.shm_token = (_PUBLISH_GENERATION, token)
            # segments live exactly as long as the corpus (its index):
            # without this, a long-lived process building many indexes
            # would accumulate dead corpora in /dev/shm until exit
            weakref.finalize(corpus, self.release_arrays, token)
        extra_token = None
        if len(store.extra):
            extra_token = self.publish_block(store.extra, persistent=False)
            if extra_token is None:
                return None
        return StoreToken(token, extra_token, self.live_keys())

    def release_arrays(self, token: Optional[ArraysToken]) -> None:
        """Unlink (or return to the ring) a bundle's segments once its
        consumers are done (the master copy; workers closed their
        ephemeral attachments per task).  Idempotent: releasing an
        already-released or externally-unlinked bundle is a no-op, so a
        finalizer and an explicit shutdown can race freely."""
        if token is None:
            return
        self._live.discard(token.key)
        self._release_names({spec.shm_name for _, spec in token.specs})

    def ring_stats(self) -> Dict[str, int]:
        """A copy of the segment-ring traffic counters
        (``creates``/``reuses``/``returns``/``evictions``) -- consumed by
        ``bench_serve.py`` to show how much per-call publish/unlink churn
        the ring absorbed."""
        return dict(self._ring_stats)

    def _release_names(self, names: set) -> None:
        """Unlink the owned segments in *names* (tolerating segments
        already removed by a racing unlink, see :func:`_unlink_segment`)
        and drop them from the ownership list.  Segments tagged
        ring-eligible park in the free ring instead -- still owned, still
        unlinked at :meth:`shutdown` -- unless the ring is full."""
        if not names:
            return
        kept = []
        for shm in self._published:
            if shm.name in names:
                if shm.name in self._ring_names:
                    if len(self._ring) < _RING_CAPACITY:
                        self._ring.append(shm)
                        self._ring_stats["returns"] += 1
                        continue
                    self._ring_names.discard(shm.name)
                    self._ring_stats["evictions"] += 1
                _unlink_segment(shm)
            else:
                kept.append(shm)
        self._published = kept

    def shutdown(self) -> None:
        """Terminate the pool and unlink every published segment (atexit;
        also used by tests to reset process-wide state).  Bumps the
        publication generation so corpora holding a now-unlinked cached
        token republish on their next sharded call instead of handing
        workers dead segment names.  Idempotent, and tolerant of
        segments some other actor already unlinked."""
        global _PUBLISH_GENERATION
        _PUBLISH_GENERATION += 1
        self._discard_pool()
        self._live.clear()
        published, self._published = self._published, []
        ring, self._ring = self._ring, []
        self._ring_names.clear()
        for shm in published + ring:
            _unlink_segment(shm)


_RUNTIME: Optional[EngineRuntime] = None
_REAPER_RAN = False


def get_runtime() -> EngineRuntime:
    """The process-wide :class:`EngineRuntime`, created on first use.
    The first call per process also reaps orphaned ``repro-*`` segments
    left in ``/dev/shm`` by dead processes (``REPRO_SHM_REAPER=0`` opts
    out)."""
    global _RUNTIME, _REAPER_RAN
    if _RUNTIME is None:
        _RUNTIME = EngineRuntime()
    if not _REAPER_RAN:
        _REAPER_RAN = True
        if reaper_enabled():
            try:
                reap_orphaned_segments()
            except Exception:  # pragma: no cover - never block startup
                pass
    return _RUNTIME
