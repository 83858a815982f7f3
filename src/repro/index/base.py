"""Shared interfaces for nearest-neighbour indexes.

The paper's Section 4.3 measures *the number of distance computations* and
the wall-clock time a fast search algorithm spends per query -- so the
central object here is :class:`CountingDistance`, a wrapper that counts
every evaluation, and every index reports a :class:`SearchStats` per query.

All indexes share the same contract:

* built from a list of items and a distance function (plus structure
  parameters);
* ``nearest(query)`` returns ``(SearchResult, SearchStats)``;
* ``knn(query, k)`` returns ``(list[SearchResult], SearchStats)`` with the
  results sorted by distance;
* building may itself compute distances; those are reported separately in
  ``preprocessing_computations`` (LAESA is "linear preprocessing", AESA
  quadratic -- that trade-off is part of what the benchmarks show).
"""

from __future__ import annotations

import numbers
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from ..core.bounded import bounded_for
from ..core.registry import get_distance

if TYPE_CHECKING:
    from pathlib import Path

    from ..batch.corpus import InternedCorpus, PairStore
    from ..store.artifacts import StoreLike

__all__ = [
    "SearchResult",
    "SearchStats",
    "CountingDistance",
    "NearestNeighborIndex",
    "Request",
    "RequestGenerator",
    "canonical_key",
]

Item = TypeVar("Item")
Distance = Callable[[Any, Any], float]

#: ``classmethod`` self-type for the persistence entry points, so
#: ``LaesaIndex.load(...)`` types as a ``LaesaIndex``.
IndexSelf = TypeVar("IndexSelf", bound="NearestNeighborIndex[Any]")

#: One comparison request yielded by a request generator:
#: ``(item_index, limit, cache_pos)`` -- see ``_search_requests``.
Request = Tuple[int, Optional[float], Optional[int]]

#: The request-generator protocol: yields :data:`Request`, receives the
#: distance via ``send`` (``None`` primes the generator), returns the
#: sorted result list via ``StopIteration.value``.
RequestGenerator = Generator[Request, Optional[float], Any]


def _validate_k(k: int, n: int) -> None:
    """Reject a *k* that is not an integer from 1 to *n* (the item count)."""
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} indexed items")


def _validate_radius(radius: float) -> None:
    """Reject a negative or NaN *radius* (NaN fails every comparison)."""
    if not radius >= 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def _tighten_bounds(bounds: np.ndarray, row: np.ndarray, d: float) -> None:
    """Raise the triangle-inequality lower *bounds* in place to
    ``|d - row|``, *row* holding the distances from the item just
    compared (at distance *d* from the query) to every item.

    An infinite *d* against an infinite *row* entry (``d_min`` and an
    empty string) makes that bound NaN; NaN bounds are part of the
    elimination loops' contract, so the ``inf - inf`` warning is
    silenced rather than the value changed.
    """
    with np.errstate(invalid="ignore"):
        np.maximum(bounds, np.abs(row - d), out=bounds)


@dataclass(frozen=True)
class SearchResult:
    """One neighbour: the item, its position in the indexed list, and its
    distance from the query."""

    item: Any
    index: int
    distance: float


def canonical_key(result: "SearchResult") -> Tuple[float, int]:
    """The library-wide result order: ``(distance, index)``.

    Every index breaks distance ties on the smaller item index, so for
    *metric* distances exhaustive and pruned searches return the *same*
    neighbour sets (not merely the same distance profiles) and 1-NN
    labels never flip between structures on ties.  For non-metric
    distances (``d_max``, ``d_MV``) pruning itself may discard a tied
    true neighbour -- canonical ordering removes the tie-breaking noise
    from such comparisons but cannot repair broken triangle bounds.
    """
    return (result.distance, result.index)


@dataclass(frozen=True)
class SearchStats:
    """Per-query accounting: how many distance evaluations the search
    performed and how long it took."""

    distance_computations: int
    elapsed_seconds: float


class CountingDistance:
    """Wrap a distance function, counting every call.

    The counter can be read and reset between queries; indexes use one
    instance per structure so preprocessing and search costs can be
    separated.

    Beyond plain calls, three accelerated entry points share the counter:

    * :meth:`within` consults the distance's early-exit twin (registered
      via :mod:`repro.core.bounded`) so a search holding a best radius can
      abandon hopeless candidates after a banded DP instead of a full one;
    * :meth:`many` / :meth:`many_ids` evaluate a whole pair list (or id
      grid) through the pair-batched engine (:mod:`repro.batch`);
    * :meth:`precompute_ids` / :meth:`precompute_bounded_ids` evaluate id
      grids against an interned corpus *without* counting; batched query
      phases (the lockstep ``bulk_*`` drivers) then :meth:`charge` or
      count individual entries at the moment their elimination loop
      actually demands that distance.  The raw-pair :meth:`precompute`
      and :meth:`precompute_bounded` are the same contract for callers
      without a corpus; the indexes never use them.

    All of them count exactly like the equivalent sequence of plain calls
    -- the paper's "number of distance computations" metric measures what
    the *algorithm* demands, not how cheaply the library satisfies it.

    *distance* is a function or a registry name (resolved here, once, so
    every path -- scalar calls, twins, engine sweeps -- runs the same
    function).
    """

    def __init__(self, distance: Union[Distance, str]) -> None:
        from ..batch.engine import _resolve

        if isinstance(distance, str):
            distance = get_distance(distance)
        self._distance = distance
        self._bounded = bounded_for(distance)
        #: the engine name of the distance (None for unregistered
        #: callables), which routes each lockstep round
        self.name, _ = _resolve(distance)
        self.calls = 0

    def __call__(self, x: Any, y: Any) -> float:
        self.calls += 1
        return self._distance(x, y)

    def within(self, x: Any, y: Any, limit: float) -> float:
        """``d(x, y)`` exactly when it is ``<= limit``; otherwise some
        value ``> limit`` (the bounded twin may stop early).  Falls back
        to the full distance when no twin is registered."""
        self.calls += 1
        if self._bounded is not None and limit != float("inf"):
            return self._bounded(x, y, limit)
        return self._distance(x, y)

    def many(self, pairs: Sequence[Tuple[Any, Any]]) -> np.ndarray:
        """Distances for every pair via the batch engine (one count per
        pair, exactly as if each had been a plain call)."""
        from ..batch import pairwise_values

        self.calls += len(pairs)
        return pairwise_values(self._distance, pairs)

    def peek_within(self, x: Any, y: Any, limit: float) -> float:
        """:meth:`within` without touching the counter.

        Lockstep bulk drivers use this for rounds whose scalar twin
        calls cost less than one batched sweep
        (:func:`~repro.batch.engine.scalar_round_cheaper`); they account
        the computation themselves, like :meth:`charge`.
        """
        if self._bounded is not None and limit != float("inf"):
            return self._bounded(x, y, limit)
        return self._distance(x, y)

    def precompute_bounded(
        self, pairs: Sequence[Tuple[Any, Any]], limits: Sequence[float]
    ) -> np.ndarray:
        """Bounded distances for *pairs* through the batch engine,
        **without** touching the counter.

        Entry ``i`` is bit-identical to ``within(pairs[i][0],
        pairs[i][1], limits[i])`` (the engine replays each twin's
        arithmetic from one batched DP sweep).  The caller accounts per
        request itself, exactly like :meth:`precompute` / :meth:`charge`.
        """
        from ..batch import pairwise_values_bounded

        return pairwise_values_bounded(self._distance, pairs, limits)

    def precompute_bounded_ids(
        self,
        store: "PairStore",
        x_ids: Sequence[int],
        y_ids: Sequence[int],
        limits: Sequence[float],
    ) -> np.ndarray:
        """:meth:`precompute_bounded` over interned store ids: the same
        bit-identical-to-``within`` guarantee, with kernel inputs
        gathered from the index's interned corpus instead of re-encoded
        per round.  Lockstep bulk drivers use this for each round's
        grouped candidate evaluations.  Uncounted, like every
        precompute."""
        from ..batch import pairwise_values_bounded_ids

        return pairwise_values_bounded_ids(
            self._distance, store, x_ids, y_ids, limits
        )

    def precompute_ids(
        self, store: "PairStore", x_ids: Sequence[int], y_ids: Sequence[int]
    ) -> np.ndarray:
        """Full distances over interned store ids, **without** touching
        the counter -- the interned twin of :meth:`precompute` (bulk
        pivot sweeps dispatch id grids instead of item pairs)."""
        from ..batch import pairwise_values_ids

        return pairwise_values_ids(self._distance, store, x_ids, y_ids)

    def many_ids(
        self, store: "PairStore", x_ids: Sequence[int], y_ids: Sequence[int]
    ) -> np.ndarray:
        """Distances over interned store ids via the batch engine, one
        count per pair -- the interned twin of :meth:`many`."""
        from ..batch import pairwise_values_ids

        self.calls += len(x_ids)
        return pairwise_values_ids(self._distance, store, x_ids, y_ids)

    def precompute(
        self, queries: Sequence[Any], references: Sequence[Any]
    ) -> np.ndarray:
        """The ``queries x references`` distance matrix through the batch
        engine, **without** touching the counter.

        The matrix is a cache, not demanded work: a batched query phase
        computes it in one auto-sharded engine sweep, then its per-query
        elimination loop reads entries out of it and accounts for each
        one via :meth:`charge` only when the scalar algorithm would have
        computed that distance -- so reported counts stay identical to
        the scalar search while the wall-clock drops.  Values are
        bit-identical to plain calls: the engine guarantees this for
        registered distances and invokes unregistered callables on the
        raw item representations, exactly like the scalar search path.
        """
        from ..batch import pairwise_matrix

        return pairwise_matrix(self._distance, queries, references)

    def charge(self, n: int = 1) -> None:
        """Count *n* computations satisfied from a :meth:`precompute`
        cache, exactly as if they had been plain calls."""
        self.calls += n

    def take(self) -> int:
        """Return the current count and reset it to zero."""
        calls = self.calls
        self.calls = 0
        return calls


class NearestNeighborIndex(ABC, Generic[Item]):
    """Base class: counted distance, timing, and the k-NN-from-1-NN glue.

    Construction also *interns* the item list
    (:func:`~repro.batch.corpus.intern_corpus`): the database's symbol
    sequences are normalised and encoded into padded code matrices
    exactly once, and every engine call of this index -- build sweeps,
    pivot sweeps, lockstep rounds -- dispatches ``(id, id)`` pairs
    against ``_corpus`` instead of re-encoding the same strings round
    after round.  Items the kernels cannot represent (arbitrary
    objects, unhashable symbols) get a corpus without an encoding, and
    the engine answers its ids through the scalar fallbacks.
    """

    def __init__(self, items: Sequence[Item], distance: Distance) -> None:
        self._init_index(items, distance, None)

    def _init_index(
        self,
        items: Sequence[Item],
        distance: Distance,
        corpus: Optional["InternedCorpus"],
    ) -> None:
        """The shared constructor body.

        ``__init__`` calls it with ``corpus=None`` (interning from
        scratch); the artifact loader's :meth:`_artifact_skeleton` calls
        it with a corpus reconstructed around persisted matrices, so a
        warm start never re-encodes the database.
        """
        if not items:
            raise ValueError("cannot index an empty collection")
        self.items: List[Item] = list(items)
        self._counter = CountingDistance(distance)
        self.preprocessing_computations = 0
        from ..batch import intern_corpus

        self._corpus = corpus if corpus is not None else intern_corpus(self.items)
        #: Degradation events of the *last* bulk call on this index
        #: (``{event: count}``, empty when the call ran on the healthy
        #: path) -- the per-call view of the process-wide
        #: :data:`repro.batch.DEGRADATION` counters, so serving layers
        #: can report that a batch of answers, while bit-identical to
        #: the healthy path's, rode the engine's degradation ladder.
        self.last_degradation: Dict[str, int] = {}

    @contextmanager
    def _track_degradation(self) -> Generator[None, None, None]:
        """Record the engine degradation events that occur inside the
        ``with`` body into :attr:`last_degradation` (delta of the
        process-wide counters, non-zero entries only).  Nests safely:
        the outermost capture wins, and its delta includes the inner's."""
        from ..batch import DEGRADATION

        before = DEGRADATION.snapshot()
        try:
            yield
        finally:
            after = DEGRADATION.snapshot()
            self.last_degradation = {
                event: after[event] - before.get(event, 0)
                for event in after
                if after[event] - before.get(event, 0)
            }

    # -- persistence (repro.store) -----------------------------------------

    def save(self, store: "StoreLike") -> "Path":
        """Snapshot this built index into the artifact *store* (an
        :class:`~repro.store.ArtifactStore` or a root path): corpus
        matrices, structure arrays and a checksummed manifest, written
        crash-safely as a new immutable version.  Returns the snapshot
        directory."""
        from ..store import ArtifactStore

        return ArtifactStore.coerce(store).save(self)

    @classmethod
    def load(
        cls: Type[IndexSelf],
        items: Sequence[Any],
        distance: Distance,
        store: "StoreLike",
        *,
        save_on_miss: bool = False,
        **params: Any,
    ) -> IndexSelf:
        """Load this structure over *items* from *store*, or rebuild.

        *params* are the structure keywords the constructor would take
        (``n_pivots=...`` for LAESA and so on) -- they select the
        artifact key together with the corpus fingerprint and the
        distance identity.  A miss rebuilds silently; a corrupt or
        mismatched artifact rebuilds too, surfaced through
        :class:`~repro.batch.runtime.DegradedExecutionWarning`, the
        ``store_load_failures`` degradation counter and the returned
        index's :attr:`last_degradation`.  Either way the result
        answers every query exactly like a cold build.

        ``save_on_miss=True`` publishes a miss-triggered build back to
        *store* (best effort) so the next process warm-starts -- the
        serving tier's restart path uses this.
        """
        from ..store import load_or_build

        return load_or_build(
            cls, items, distance, store, params, save_on_miss=save_on_miss
        )

    @classmethod
    def _artifact_skeleton(
        cls: Type[IndexSelf],
        items: Sequence[Any],
        distance: Distance,
        corpus: Optional["InternedCorpus"],
    ) -> IndexSelf:
        """A bare instance around *items* that skips the subclass
        constructor (zero distance evaluations); the artifact loader
        attaches the persisted structure via :meth:`_restore_artifact`."""
        index = cls.__new__(cls)
        index._init_index(items, distance, corpus)
        return index

    def _artifact_params(self) -> Dict[str, Any]:
        """Key-relevant structure parameters of this *built* instance
        (the save-side mirror of :meth:`_artifact_key_params`)."""
        return {}

    @classmethod
    def _artifact_key_params(cls, params: Dict[str, Any]) -> Dict[str, Any]:
        """Normalise ``load(**params)`` keywords into the key-relevant
        parameter dict: defaults applied, runtime-only knobs dropped.
        Unknown names raise ``TypeError`` -- a typo'd keyword must not
        silently key-miss forever."""
        if params:
            raise TypeError(
                f"{cls.__name__}.load got unexpected parameters "
                f"{sorted(params)}"
            )
        return {}

    def _artifact_arrays(self) -> Dict[str, np.ndarray]:
        """Structure payload arrays to persist (saved as one ``.npy``
        each, reloaded as read-only maps)."""
        return {}

    def _artifact_meta(self) -> Dict[str, Any]:
        """JSON-serialisable structure scalars for the manifest."""
        return {}

    def _restore_artifact(
        self,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        params: Mapping[str, Any],
    ) -> None:
        """Reattach persisted structure onto a skeleton instance -- the
        inverse of :meth:`_artifact_arrays` / :meth:`_artifact_meta`.
        *params* are the raw ``load`` keywords, for runtime-only options
        that apply to loaded instances as well.  Structures without
        build-time state (exhaustive scan) need nothing."""

    @abstractmethod
    def _search(self, query: Item, k: int) -> List[SearchResult]:
        """Return the k nearest neighbours, sorted by distance."""

    def _range_search(self, query: Item, radius: float) -> List[SearchResult]:
        """Return every item within *radius*; default scans linearly.

        Subclasses with pruning structures implement
        :meth:`_range_requests` instead, which this method then drives
        scalar-style (and :meth:`bulk_range_search` drives in lockstep).
        """
        try:
            gen = self._range_requests(radius)
        except NotImplementedError:
            distance = self._counter
            hits = []
            for idx, item in enumerate(self.items):
                d = distance(query, item)
                if d <= radius:
                    hits.append(SearchResult(item=item, index=idx, distance=d))
            hits.sort(key=canonical_key)
            return hits
        return self._drive_requests(query, gen)

    def range_search(
        self, query: Item, radius: float
    ) -> Tuple[List[SearchResult], SearchStats]:
        """All items with ``d(query, item) <= radius``, closest first."""
        _validate_radius(radius)
        self._counter.take()
        started = time.perf_counter()
        results = self._range_search(query, radius)
        elapsed = time.perf_counter() - started
        stats = SearchStats(
            distance_computations=self._counter.take(),
            elapsed_seconds=elapsed,
        )
        return results, stats

    def nearest(self, query: Item) -> Tuple[SearchResult, SearchStats]:
        """Return the nearest neighbour of *query* with per-query stats."""
        results, stats = self.knn(query, 1)
        return results[0], stats

    def knn(self, query: Item, k: int) -> Tuple[List[SearchResult], SearchStats]:
        """Return the *k* nearest neighbours of *query*, closest first."""
        _validate_k(k, len(self.items))
        self._counter.take()
        started = time.perf_counter()
        results = self._search(query, k)
        elapsed = time.perf_counter() - started
        stats = SearchStats(
            distance_computations=self._counter.take(),
            elapsed_seconds=elapsed,
        )
        return results, stats

    def bulk_knn(
        self, queries: Sequence[Item], k: int
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """k-NN for a whole query batch, one ``(results, stats)`` each.

        The default simply loops :meth:`knn`; structures with a batchable
        phase override it -- exhaustive scans push the whole query grid
        through the pair-batched engine
        (:class:`~repro.index.exhaustive.ExhaustiveIndex`), LAESA and
        AESA fan the batch against their pivots in one sweep and feed the
        per-query elimination loops from the resulting cache
        (:class:`~repro.index.laesa.LaesaIndex`,
        :class:`~repro.index.aesa.AesaIndex`).  Every override returns
        results and per-query ``distance_computations`` identical to this
        loop.
        """
        _validate_k(k, len(self.items))
        with self._track_degradation():
            return [self.knn(query, k) for query in queries]

    def _search_requests(self, k: int) -> RequestGenerator:
        """The request-generator protocol behind the lockstep drivers.

        Subclasses with a batchable query phase (LAESA, AESA) implement
        their elimination loop as a generator that *yields* one
        comparison request at a time and receives the distance via
        ``send``::

            d = yield (item_index, limit, cache_pos)

        ``limit`` is ``None`` when the algorithm needs the exact
        distance (pivot comparisons that feed triangle-inequality
        bounds) and the current early-exit radius otherwise;
        ``cache_pos`` is the column of the bulk pivot cache that holds
        this distance (``None`` when the request is not precomputable).
        The generator never touches the counter -- each driver accounts
        one computation per request, which is exactly what the scalar
        loop would have counted.  The sorted result list is returned via
        ``StopIteration.value``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no request-generator search"
        )

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Range-search twin of :meth:`_search_requests`.

        Same request protocol (yield ``(item_index, limit, cache_pos)``,
        receive the distance, return the sorted hit list via
        ``StopIteration.value``), with the fixed *radius* in place of
        the shrinking k-th-best limit.  Structures that implement it get
        a scalar :meth:`_range_search` and a lockstep
        :meth:`bulk_range_search` for free.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no request-generator range search"
        )

    def _drive_requests(
        self,
        query: Item,
        gen: RequestGenerator,
        pivot_cache: Optional[np.ndarray] = None,
    ) -> Any:
        """Run one request generator scalar-style (k-NN or range).

        Exact requests are answered with a plain counted call (or a
        charged *pivot_cache* read when a bulk driver precomputed them);
        bounded requests go through :meth:`CountingDistance.within`.
        This is behaviour-identical to the pre-generator scalar loops:
        one counted evaluation per request, early exit on candidates.
        """
        distance = self._counter
        items = self.items
        value: Optional[float] = None
        while True:
            try:
                idx, limit, cache_pos = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if limit is None:
                if pivot_cache is not None and cache_pos is not None:
                    distance.charge()
                    value = float(pivot_cache[cache_pos])
                else:
                    value = distance(query, items[idx])
            else:
                value = distance.within(query, items[idx], limit)

    def _drive_search(
        self,
        query: Item,
        k: int,
        pivot_cache: Optional[np.ndarray] = None,
    ) -> List[SearchResult]:
        """Scalar driver for :meth:`_search_requests` (see
        :meth:`_drive_requests`)."""
        return self._drive_requests(query, self._search_requests(k), pivot_cache)

    def _bulk_knn_lockstep(
        self,
        queries: Sequence[Item],
        k: int,
        store: "PairStore",
        pivot_cache: Optional[np.ndarray] = None,
        extra_elapsed: float = 0.0,
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Lockstep driver over :meth:`_search_requests` (see
        :meth:`_lockstep_drive`)."""
        return self._lockstep_drive(
            queries,
            [self._search_requests(k) for _ in queries],
            store,
            pivot_cache=pivot_cache,
            extra_elapsed=extra_elapsed,
        )

    def bulk_range_search(
        self, queries: Sequence[Item], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Range search for a whole query batch, one ``(hits, stats)``
        tuple per query, closest first.

        Structures that implement :meth:`_range_requests` run every
        query's pruning loop in lockstep
        (:meth:`_lockstep_drive`), grouping each round's candidate
        evaluations -- one bounded comparison per still-active query --
        into a single banded
        :func:`~repro.batch.pairwise_values_bounded_ids` engine call;
        hits, order and per-query ``distance_computations`` are
        identical to looping :meth:`range_search` (asserted by the
        tests).  Structures without the generator fall back to exactly
        that loop.  LAESA and AESA override this to also precompute
        their pivot sweeps.
        """
        _validate_radius(radius)
        queries = list(queries)
        if not queries:
            return []
        try:
            generators = [self._range_requests(radius) for _ in queries]
        except NotImplementedError:
            with self._track_degradation():
                return [self.range_search(query, radius) for query in queries]
        return self._lockstep_drive(
            queries, generators, self._corpus.store(queries)
        )

    def _lockstep_drive(
        self,
        queries: Sequence[Item],
        generators: List[RequestGenerator],
        store: "PairStore",
        pivot_cache: Optional[np.ndarray] = None,
        extra_elapsed: float = 0.0,
    ) -> List[Tuple[Any, SearchStats]]:
        """Run every query's request generator in lockstep rounds,
        answering each round's candidate evaluations by whichever route
        is cheaper.

        All query generators advance together: cached pivot requests are
        served inline from *pivot_cache* (row ``qi``), and the remaining
        requests of the round -- one per still-active query -- are
        answered together.  A cost model
        (:func:`~repro.batch.engine.scalar_round_cheaper`, from the
        pairs' lengths and edit budgets) picks the route per round: one
        :meth:`CountingDistance.precompute_bounded_ids` call over
        *store* (the corpus plus *queries*), which runs the banded batch
        DP kernels on ``(query id, item id)`` pairs, or one
        :meth:`CountingDistance.peek_within` scalar twin call per pair.
        Short words always go scalar; long contour rounds with many
        pairs go batched.

        Each query's request stream depends only on its own distances, so
        lockstep scheduling returns bit-identical results, distances
        and per-query ``distance_computations`` to the scalar drivers
        (one count per request; asserted by the tests).  Wall-clock (plus
        *extra_elapsed*, e.g. a pivot sweep) is split evenly across the
        per-query stats.  Engine degradation during the drive lands in
        :attr:`last_degradation`.
        """
        with self._track_degradation():
            return self._lockstep_rounds(
                queries, generators, store, pivot_cache, extra_elapsed
            )

    def _lockstep_rounds(
        self,
        queries: Sequence[Item],
        generators: List[RequestGenerator],
        store: "PairStore",
        pivot_cache: Optional[np.ndarray],
        extra_elapsed: float,
    ) -> List[Tuple[Any, SearchStats]]:
        from ..batch.engine import scalar_round_cheaper

        started = time.perf_counter()
        items = self.items
        counter = self._counter
        peek = counter.peek_within
        query_ids = store.extra_ids().tolist()
        inf = float("inf")
        n_queries = len(queries)
        counts = [0] * n_queries
        results: List[Optional[Any]] = [None] * n_queries
        requests: List[Optional[Request]] = [None] * n_queries
        active: List[int] = []
        sends = [gen.send for gen in generators]
        for qi, send in enumerate(sends):
            try:
                requests[qi] = send(None)
                active.append(qi)
            except StopIteration as stop:  # pragma: no cover - k >= 1 implies
                results[qi] = stop.value  # at least one comparison
        while active:
            parked: List[int] = []
            y_ids: List[int] = []
            limits: List[float] = []
            for qi in active:
                # serve precomputed requests inline until this query
                # either finishes or demands a real evaluation
                while True:
                    idx, limit, cache_pos = requests[qi]
                    if (
                        limit is not None
                        or pivot_cache is None
                        or cache_pos is None
                    ):
                        parked.append(qi)
                        y_ids.append(idx)
                        limits.append(inf if limit is None else limit)
                        break
                    counts[qi] += 1
                    try:
                        requests[qi] = sends[qi](
                            float(pivot_cache[qi][cache_pos])
                        )
                    except StopIteration as stop:
                        results[qi] = stop.value
                        break
            if not parked:
                active = [qi for qi in active if results[qi] is None]
                continue
            x_ids = [query_ids[qi] for qi in parked]
            values: Iterable[float]
            if scalar_round_cheaper(counter.name, store, x_ids, y_ids, limits):
                # peek_within returns the same values by the
                # precompute_bounded_ids contract
                values = [
                    peek(queries[qi], items[y], limit)
                    for qi, y, limit in zip(parked, y_ids, limits)
                ]
            else:
                values = counter.precompute_bounded_ids(
                    store, x_ids, y_ids, limits
                )
            still_active: List[int] = []
            for qi, value in zip(parked, values):
                counts[qi] += 1
                try:
                    requests[qi] = sends[qi](float(value))
                    still_active.append(qi)
                except StopIteration as stop:
                    results[qi] = stop.value
            active = still_active
        share = (time.perf_counter() - started + extra_elapsed) / max(
            n_queries, 1
        )
        return [
            (
                results[qi],
                SearchStats(
                    distance_computations=counts[qi], elapsed_seconds=share
                ),
            )
            for qi in range(n_queries)
        ]
