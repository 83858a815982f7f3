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
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
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

from ..core.bounded import bounded_for, contextual_heuristic_from_edits
from ..core.levenshtein import levenshtein_distance
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
    "row_hits",
]

Item = TypeVar("Item")
Distance = Callable[[Any, Any], float]

#: ``classmethod`` self-type for the persistence entry points, so
#: ``LaesaIndex.load(...)`` types as a ``LaesaIndex``.
IndexSelf = TypeVar("IndexSelf", bound="NearestNeighborIndex[Any]")

#: Name prefix of the corpus block's arrays in an index snapshot (the
#: store's ``corpus_*.npy`` payload files); structure arrays may not
#: use it.
_CORPUS_PREFIX = "corpus_"

#: One comparison request yielded by a request generator:
#: ``(item_index, limit, cache_pos)`` -- see ``_search_requests``.
Request = Tuple[int, Optional[float], Optional[int]]

#: The request-generator protocol: yields :data:`Request`, receives the
#: distance via ``send`` (``None`` primes the generator), returns the
#: sorted result list via ``StopIteration.value``.  A structure that
#: takes the row hand-off may instead receive the query's exact row (a
#: 1-D array over the items) and then returns ``(results, answered)``,
#: *answered* being the requests it answered from the row -- see
#: ``NearestNeighborIndex._search_requests``.
RequestGenerator = Generator[Request, Any, Any]


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


def row_hits(
    items: Sequence[Any],
    row: np.ndarray,
    radius: float,
    ids: Optional[np.ndarray] = None,
) -> List[SearchResult]:
    """The range-search hits read from an exact distance *row*: every
    item with ``row[i] <= radius`` -- among *ids* (ascending) when
    given -- in canonical ``(distance, index)`` order.

    A NaN entry is never a hit, exactly as ``d <= radius`` decides it.
    """
    values = row if ids is None else row[ids]
    hit = values <= radius
    found = np.flatnonzero(hit) if ids is None else ids[hit]
    dist = values[hit]
    order = np.argsort(dist, kind="stable")
    return [
        SearchResult(item=items[idx], index=idx, distance=d)
        for idx, d in zip(found[order].tolist(), dist[order].astype(float).tolist())
    ]


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

    def peek_within(
        self, x: Any, y: Any, limit: float, d_e: Optional[int] = None
    ) -> float:
        """:meth:`within` without touching the counter.

        Lockstep bulk drivers use this for rounds whose scalar twin
        calls cost less than one batched sweep
        (:func:`~repro.batch.engine.scalar_round_cheaper`); they account
        the computation themselves, like :meth:`charge`.  A driver that
        holds the pair's exact ``d_E`` in a check row passes it as
        *d_e* (only under ``d_C,h``), and the twin decides from it
        without its own check
        (:func:`~repro.core.bounded.contextual_heuristic_from_edits`,
        the same value).
        """
        if self._bounded is None or limit == float("inf"):
            return self._distance(x, y)
        if d_e is not None:
            return contextual_heuristic_from_edits(x, y, limit, d_e)
        return self._bounded(x, y, limit)

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
        edits: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """:meth:`precompute_bounded` over interned store ids: the same
        bit-identical-to-``within`` guarantee, with kernel inputs
        gathered from the index's interned corpus instead of re-encoded
        per round.  Lockstep bulk drivers use this for each round's
        grouped candidate evaluations, passing the pairs' exact ``d_E``
        as *edits* once they hold check rows (see
        :func:`~repro.batch.engine.pairwise_values_bounded_ids`).
        Uncounted, like every precompute."""
        from ..batch import pairwise_values_bounded_ids

        return pairwise_values_bounded_ids(
            self._distance, store, x_ids, y_ids, limits, edits
        )

    def precompute_ids(
        self, store: "PairStore", x_ids: Sequence[int], y_ids: Sequence[int]
    ) -> np.ndarray:
        """Full distances over interned store ids, **without** touching
        the counter -- the interned twin of :meth:`precompute` (bulk
        pivot sweeps dispatch id grids instead of item pairs)."""
        from ..batch import pairwise_values_ids

        return pairwise_values_ids(self._distance, store, x_ids, y_ids)

    def rows_ids(self, store: "PairStore", x_ids: Sequence[int]) -> np.ndarray:
        """The exact distances from each store id in *x_ids* to every
        corpus item, in-process and **without** touching the counter --
        the lockstep driver's row cache, charged per entry a search
        reads (:func:`~repro.batch.engine.pairwise_rows_ids`)."""
        from ..batch.engine import pairwise_rows_ids

        return pairwise_rows_ids(self._distance, store, x_ids)

    def check_rows_ids(self, store: "PairStore", x_ids: Sequence[int]) -> np.ndarray:
        """The exact ``d_E`` (integers) from each store id in *x_ids* to
        every corpus item, in-process and uncounted: the check rows
        that answer the ``d_E`` checks of the ``d_C,h`` twin for the
        rest of a lockstep call (:meth:`peek_within`,
        :meth:`precompute_bounded_ids`).  They are no distance the
        search reads, so nothing is charged for them."""
        from ..batch.engine import pairwise_rows_ids

        return pairwise_rows_ids(levenshtein_distance, store, x_ids)

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


class NearestNeighborIndex(Generic[Item]):
    """Base class: counted distance, timing, and the search drivers.

    A pruning structure implements its k-NN and range searches as two
    request generators (:meth:`_search_requests`,
    :meth:`_range_requests`); this class drives them scalar-style for
    ``knn`` / ``range_search`` and in lockstep for ``bulk_knn`` /
    ``bulk_range_search``.  A structure whose bulk calls can precompute
    some requests adds one sweep hook, :meth:`_bulk_cache`.

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
        scratch); :meth:`_from_snapshot` calls it with a corpus
        reconstructed around saved or published matrices, so a warm
        start never re-encodes the database.
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
        ``with`` body into :attr:`last_degradation` (the process-wide
        counters' :meth:`~repro.batch.runtime.Counters.delta_since`).
        Nests safely: the outermost capture wins, and its delta includes
        the inner's."""
        from ..batch import DEGRADATION

        before = DEGRADATION.snapshot()
        try:
            yield
        finally:
            self.last_degradation = DEGRADATION.delta_since(before)

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

    def _snapshot(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """This built index as named arrays plus JSON-serialisable meta:
        the corpus block under ``corpus_*`` names (when encoded), the
        structure's :meth:`_artifact_arrays` and :meth:`_artifact_meta`.
        The artifact store saves it to disk and the shard scatter
        publishes it to shared memory; :meth:`_from_snapshot` is its
        inverse."""
        arrays: Dict[str, np.ndarray] = {}
        if self._corpus.encoded:
            for name, array in self._corpus.block.arrays().items():
                arrays[_CORPUS_PREFIX + name] = array
        for name, array in self._artifact_arrays().items():
            if name.startswith(_CORPUS_PREFIX):
                raise ValueError(f"structure array name {name!r} is reserved")
            arrays[name] = np.asarray(array)
        meta = dict(self._artifact_meta())
        meta["interned"] = self._corpus.encoded
        return arrays, meta

    @classmethod
    def _from_snapshot(
        cls: Type[IndexSelf],
        items: Sequence[Any],
        distance: Distance,
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any],
        preprocessing: int,
    ) -> IndexSelf:
        """The index a :meth:`_snapshot` of a build over *items* holds,
        with zero distance evaluations: the corpus wraps the saved block
        (:meth:`~repro.batch.corpus.InternedCorpus.from_arrays`; a
        snapshot without one interns *items* afresh), the subclass
        constructor is skipped and :meth:`_restore_artifact` attaches
        the structure; *preprocessing* is the build's count."""
        from ..batch.corpus import InternedCorpus

        block = {
            name[len(_CORPUS_PREFIX) :]: array
            for name, array in arrays.items()
            if name.startswith(_CORPUS_PREFIX)
        }
        corpus = InternedCorpus.from_arrays(items, block) if block else None
        index = cls.__new__(cls)
        index._init_index(items, distance, corpus)
        index._restore_artifact(
            {
                name: array
                for name, array in arrays.items()
                if not name.startswith(_CORPUS_PREFIX)
            },
            meta,
        )
        index.preprocessing_computations = int(preprocessing)
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
        self, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
    ) -> None:
        """Reattach persisted structure onto a bare instance -- the
        inverse of :meth:`_artifact_arrays` / :meth:`_artifact_meta`.
        Structures without build-time state (exhaustive scan) need
        nothing."""

    def _search(self, query: Item, k: int) -> List[SearchResult]:
        """Return the k nearest neighbours, sorted by distance: the
        :meth:`_search_requests` generator driven scalar-style."""
        return self._drive_requests(query, self._search_requests(k))

    def _range_search(self, query: Item, radius: float) -> List[SearchResult]:
        """Return every item within *radius*, closest first: the
        :meth:`_range_requests` generator driven scalar-style."""
        return self._drive_requests(query, self._range_requests(radius))

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

        Every query's :meth:`_search_requests` generator runs in
        lockstep (:meth:`_lockstep_drive`), after the structure's
        :meth:`_bulk_cache` sweep.  Results, neighbour order and
        per-query ``distance_computations`` are identical to looping
        :meth:`knn` (asserted by the tests); only the wall-clock drops.
        """
        _validate_k(k, len(self.items))
        queries = list(queries)
        return self._lockstep_drive(
            queries, [self._search_requests(k) for _ in queries]
        )

    def bulk_range_search(
        self, queries: Sequence[Item], radius: float
    ) -> List[Tuple[List[SearchResult], SearchStats]]:
        """Range search for a whole query batch, one ``(hits, stats)``
        tuple per query, closest first: :meth:`_range_requests` in
        lockstep, exactly like :meth:`bulk_knn`.  Hits, order and
        per-query ``distance_computations`` are identical to looping
        :meth:`range_search`.
        """
        _validate_radius(radius)
        queries = list(queries)
        return self._lockstep_drive(
            queries, [self._range_requests(radius) for _ in queries]
        )

    def _search_requests(self, k: int) -> RequestGenerator:
        """The k-NN search as a request generator, the one protocol
        every pruning structure implements.

        The generator *yields* one comparison request at a time and
        receives the distance via ``send``::

            d = yield (item_index, limit, cache_pos)

        ``limit`` is ``None`` when the algorithm needs the exact
        distance (pivot comparisons that feed triangle-inequality
        bounds) and the current early-exit radius otherwise;
        ``cache_pos`` is the column of the :meth:`_bulk_cache` row that
        holds this distance (``None`` when the request is not
        precomputable).  The generator never touches the counter --
        each driver accounts one computation per request, which is
        exactly what a hand-written scalar loop would have counted.
        The sorted result list is returned via ``StopIteration.value``.

        A bounded request's answer is the exact distance when it is at
        most ``limit`` and otherwise *some* value above it, so a
        generator must use a value past its limit only through ``value
        > limit`` (discard it, never record or compare it further).
        Every structure keeps that rule, which is what lets a driver
        answer bounded requests with exact distances from a row cache
        (:meth:`_lockstep_rounds`) without changing any result.

        A bulk call that holds the query's exact row (its distance to
        every item, a 1-D array) may *hand it over* as the value of the
        request the generator is parked on.  A structure that takes the
        hand-off (:meth:`_finish_from_row`; LAESA does) then reads that
        request's distance and every later one from the row without
        yielding, and returns ``(results, answered)``: *answered* is the
        number of requests it answered from the row, the parked one
        included, one computation each -- exactly the requests it would
        have yielded.  The scalar search never hands a row over.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no request-generator search"
        )

    def _range_requests(self, radius: float) -> RequestGenerator:
        """Range-search twin of :meth:`_search_requests`: the same
        request protocol, with the fixed *radius* in place of the
        shrinking k-th-best limit, returning the sorted hit list."""
        raise NotImplementedError(
            f"{type(self).__name__} has no request-generator range search"
        )

    def _bulk_cache(self, store: "PairStore") -> Optional[np.ndarray]:
        """The ``queries x positions`` matrix a bulk call precomputes
        before its lockstep rounds, or ``None`` (the default: no
        request is precomputable).

        *store* holds the corpus plus the batch's queries.  Row ``qi``
        serves query ``qi``'s requests whose ``cache_pos`` is set; the
        values are uncounted, and the lockstep driver charges one
        computation per entry a search actually reads.
        """
        return None

    def _finish_from_row(
        self, send: Callable[[Any], Request], request: Request, row: np.ndarray
    ) -> Tuple[Any, int]:
        """Finish one query's generator (its ``send``, parked on
        *request*) from the query's exact *row*, returning ``(result,
        answered)``, *answered* counting the requests the row answered.

        The default drains the generator request by request, the parked
        one first; a structure that takes the row hand-off (see
        :meth:`_search_requests`) overrides this to pass *row* itself.
        """
        values = row.tolist()
        idx = request[0]
        answered = 0
        while True:
            answered += 1
            try:
                idx = send(values[idx])[0]
            except StopIteration as stop:
                return stop.value, answered

    def _drive_requests(self, query: Item, gen: RequestGenerator) -> Any:
        """Run one request generator scalar-style (k-NN or range).

        Exact requests are answered with a plain counted call; bounded
        requests go through :meth:`CountingDistance.within`, which may
        stop early past the limit.  One counted evaluation per request.
        """
        distance = self._counter
        items = self.items
        value: Optional[float] = None
        while True:
            try:
                idx, limit, _ = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if limit is None:
                value = distance(query, items[idx])
            else:
                value = distance.within(query, items[idx], limit)

    def _lockstep_drive(
        self, queries: List[Item], generators: List[RequestGenerator]
    ) -> List[Tuple[Any, SearchStats]]:
        """Run every query's request generator in lockstep rounds,
        answering each round's candidate evaluations by whichever route
        is cheaper.

        The structure's :meth:`_bulk_cache` sweep runs first.  Then all
        query generators advance together: cached requests are served
        inline (row ``qi`` of the cache), and the remaining requests of
        the round -- one per still-active query -- are answered
        together.  A cost model
        (:func:`~repro.batch.engine.scalar_round_cheaper`, from the
        pairs' lengths and edit budgets) picks the route per round: one
        :meth:`CountingDistance.precompute_bounded_ids` call over the
        store of the corpus plus *queries*, which runs the banded batch
        DP kernels on ``(query id, item id)`` pairs, or one
        :meth:`CountingDistance.peek_within` scalar twin call per pair.
        Short words always go scalar; ``d_C,h`` contour rounds of about
        ten pairs or more go to the engine call, which checks ``d_E``
        before any twin table, as the scalar twin does, so most of
        their pairs never reach a kernel.

        On the numpy backend the rounds also rent before they buy
        exact ``d_E`` rows: they add up the modelled cost of the twin
        work spent on the still-active queries
        (:func:`~repro.batch.engine.twin_ns`), and once it reaches the
        modelled cost of those queries' rows against the whole corpus
        (:func:`~repro.batch.engine.row_price`) the rows are computed in
        one bit-parallel grid, at most once per call; they live for
        this call only.

        * For the ``d_E`` family the rows are the distances
          (:meth:`CountingDistance.rows_ids`): every active query is
          finished on its row at once (:meth:`_finish_from_row`),
          bounded requests included (see :meth:`_search_requests`).
          LAESA's generators take the row and finish their walk on it,
          the other structures are drained from it, and no round runs
          after the purchase.
        * ``d_C,h`` is no closed form of ``d_E``, so its rows are check
          rows (:meth:`CountingDistance.check_rows_ids`), and only its
          bounded requests, whose twin checks ``d_E`` first, pay rent
          (AESA's exact requests never do).  The rounds go on, and
          every later ``d_E`` check of those queries reads the row: the
          scalar route passes it to :meth:`CountingDistance.
          peek_within`, the engine route to :meth:`CountingDistance.
          precompute_bounded_ids`, and either decides each request from
          it (:func:`~repro.core.bounded.
          contextual_heuristic_from_edits`), the same value as the
          twin's own check.

        Each query's request stream depends only on its own distances, so
        lockstep scheduling returns bit-identical results, distances
        and per-query ``distance_computations`` to the scalar drivers
        (one count per request; asserted by the tests).  Wall-clock,
        sweep included, is split evenly across the per-query stats.
        Engine degradation during the call lands in
        :attr:`last_degradation`.
        """
        if not queries:
            return []
        started = time.perf_counter()
        with self._track_degradation():
            store = self._corpus.store(queries)
            return self._lockstep_rounds(
                queries, generators, store, self._bulk_cache(store), started
            )

    def _lockstep_rounds(
        self,
        queries: Sequence[Item],
        generators: List[RequestGenerator],
        store: "PairStore",
        cache: Optional[np.ndarray],
        started: float,
    ) -> List[Tuple[Any, SearchStats]]:
        from ..batch.engine import row_price, scalar_round_cheaper, twin_ns

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
        # the row rule: its price, the twin work spent per query and on
        # the active queries (re-summed, with the rows' cost then due,
        # whenever the active set shrinks) and each query's pattern words
        price = row_price(counter.name, store)
        # d_C,h is no closed form of d_E: its rows answer the d_E checks
        # of its bounded requests (check rows, by query) and the rounds
        # go on
        checks_only = counter.name == "contextual_heuristic"
        check_rows: Dict[int, np.ndarray] = {}
        spent = [0] * n_queries
        spent_active = due = priced_for = 0
        words = [
            (store.length_list[q] + 63) // 64 or 1
            for q in (query_ids if price is not None else ())
        ]
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
                # serve cached requests inline until this query either
                # finishes or demands a real evaluation
                while True:
                    idx, limit, cache_pos = requests[qi]
                    if limit is not None or cache is None or cache_pos is None:
                        parked.append(qi)
                        y_ids.append(idx)
                        limits.append(inf if limit is None else limit)
                        break
                    counts[qi] += 1
                    try:
                        requests[qi] = sends[qi](float(cache.item(qi, cache_pos)))
                    except StopIteration as stop:
                        results[qi] = stop.value
                        break
            if not parked:
                break  # every active query finished on cached requests
            x_ids = [query_ids[qi] for qi in parked]
            edits: Optional[List[int]] = None
            if check_rows:
                edits = [check_rows[qi].item(y) for qi, y in zip(parked, y_ids)]
            values: Iterable[float]
            scalar = scalar_round_cheaper(
                counter.name, store, x_ids, y_ids, limits, edits
            )
            if scalar:
                # peek_within returns the same values by the
                # precompute_bounded_ids contract
                values = [
                    peek(queries[qi], items[y], limit, d_e)
                    for qi, y, limit, d_e in zip(
                        parked, y_ids, limits, edits or repeat(None)
                    )
                ]
            else:
                values = counter.precompute_bounded_ids(
                    store, x_ids, y_ids, limits, edits
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
            if price is None or not active:
                continue
            costs = twin_ns(store, x_ids, y_ids, scalar)
            if checks_only:  # an exact request checks nothing
                costs = [0 if limit == inf else c for c, limit in zip(costs, limits)]
            for qi, cost in zip(parked, costs):
                spent[qi] += cost
            if len(active) == priced_for:  # the same queries as last round
                spent_active += sum(costs)
            else:
                priced_for = len(active)
                spent_active = sum([spent[qi] for qi in active])
                active_words = [words[qi] for qi in active]
                due = price[0] * max(active_words) + price[1] * sum(active_words)
            if spent_active >= due and spent_active:  # no rent, no row
                bought = [query_ids[qi] for qi in active]
                if checks_only:
                    # one purchase per call: every later request of the
                    # call belongs to a query that holds its row
                    rows = counter.check_rows_ids(store, bought)
                    check_rows = dict(zip(active, rows))
                    price = None
                    continue
                # bought: every active query finishes on its row now, read
                # as floats like every answer the rounds send (the integer
                # levenshtein_distance's rows are int64)
                rows = counter.rows_ids(store, bought)
                for qi, row in zip(active, np.asarray(rows, dtype=float)):
                    results[qi], answered = self._finish_from_row(
                        sends[qi], requests[qi], row
                    )
                    counts[qi] += answered
                break
        share = (time.perf_counter() - started) / n_queries
        return [
            (
                results[qi],
                SearchStats(
                    distance_computations=counts[qi], elapsed_seconds=share
                ),
            )
            for qi in range(n_queries)
        ]
