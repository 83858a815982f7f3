"""Interned corpora: encode a fixed database once, dispatch ids.

The kernels sweep encoded symbols.  Encoding per call would be wasteful
for the bulk query paths, which evaluate the *same database* over and
over (a pivot sweep per bulk call, a candidate round per lockstep
iteration), so this module makes the encoding a build-time cost -- and
gives one-off pair lists and matrices the same id space, interned into
a throwaway corpus per call:

* :class:`InternedCorpus` -- the database's sequences normalised with
  :func:`~repro.core.types.as_symbols` and encoded against one **shared
  alphabet table** into padded ``int32`` matrices (one padded with the
  kernels' ``x`` sentinel, one with the ``y`` sentinel, so a row can
  serve either side of a pair) plus a length vector;
* :class:`PairStore` -- the id space the engine's ``*_ids`` entry points
  dispatch against: ids ``[0, n)`` are the corpus items, ids ``[n, n+q)``
  an optional per-call query batch encoded with (and extending) the same
  alphabet.  ``gather`` slices ready-to-sweep ``(X, Y, mx, my)`` kernel
  inputs straight out of the stored matrices -- no per-call
  normalisation, hashing or symbol-by-symbol encoding;
* :class:`AttachedStore` -- the same id space in a pool worker, over
  the block bundles it attached from shared memory;
* :func:`intern_corpus` -- the tolerant constructor the indexes call:
  items that cannot be normalised or hashed (arbitrary user objects)
  get a corpus *without an encoding*.  Its stores hold the raw items
  only (:attr:`PairStore.encoded` is false), and the engine's ``*_ids``
  entry points answer them through their scalar fallbacks.  A store
  whose extra batch cannot be encoded is unencoded the same way.

Encoding is equality-preserving by construction: *all* sequences share
one symbol->code dictionary, so two symbols compare equal after encoding
iff they compared equal before (the DP kernels only ever test equality).
This is the same guarantee :func:`~repro.batch.kernels.encode_batch`
gives per batch, extended to a whole corpus -- cross-representation
equality (``"ab"`` vs ``("a", "b")``) survives because both encode their
*normalised* symbols through the shared table.
"""

from __future__ import annotations

import functools
import uuid
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

import numpy as np

from ..core.types import Symbols, as_symbols
from .kernels import _PAD_X, _PAD_Y

if TYPE_CHECKING:
    from .runtime import ArraysToken

__all__ = [
    "AttachedStore",
    "InternedCorpus",
    "PairStore",
    "gather_rows",
    "intern_corpus",
]


class _Block:
    """One encoded batch of sequences: twin padded matrices + lengths.

    ``rows_x`` is padded with the kernels' ``x`` sentinel, ``rows_y``
    with the ``y`` sentinel, so row ``i`` can serve as either side of a
    pair without re-padding (the sentinels must differ between the two
    sides of a sweep so padding never compares equal).

    A block travels as a bundle of three named arrays (:meth:`arrays`,
    :meth:`from_arrays`): the engine runtime publishes it to shared
    memory that way, and an index snapshot saves it that way.  The
    names are the slot names, spelled here only."""

    __slots__ = ("rows_x", "rows_y", "lengths")

    def __init__(
        self, rows_x: np.ndarray, rows_y: np.ndarray, lengths: np.ndarray
    ) -> None:
        self.rows_x = rows_x
        self.rows_y = rows_y
        self.lengths = lengths

    def arrays(self) -> Dict[str, np.ndarray]:
        """This block as a bundle of named arrays."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "_Block":
        """The block an :meth:`arrays` bundle holds."""
        return cls(*(arrays[name] for name in cls.__slots__))

    @property
    def width(self) -> int:
        return self.rows_x.shape[1]

    def __len__(self) -> int:
        return len(self.lengths)


def _encode_block(
    symbols: Sequence[Symbols], codes: Dict[Hashable, int]
) -> _Block:
    """Encode normalised *symbols* against the shared table *codes*
    (extending it in place) into a :class:`_Block`."""
    P = len(symbols)
    encoded: List[List[int]] = []
    for seq in symbols:
        row: List[int] = []
        for symbol in seq:
            code = codes.get(symbol)
            if code is None:
                code = len(codes)
                codes[symbol] = code
            row.append(code)
        encoded.append(row)
    lengths = np.fromiter((len(r) for r in encoded), dtype=np.int64, count=P)
    width = int(lengths.max()) if P else 0
    rows_x = np.full((P, width), _PAD_X, dtype=np.int32)
    rows_y = np.full((P, width), _PAD_Y, dtype=np.int32)
    for p, row in enumerate(encoded):
        rows_x[p, : len(row)] = row
        rows_y[p, : len(row)] = row
    return _Block(rows_x, rows_y, lengths)


class InternedCorpus:
    """A fixed item list encoded once against a shared alphabet table.

    Raises ``TypeError`` when an item cannot be normalised to a symbol
    sequence or holds unhashable symbols (use :func:`intern_corpus` for
    the tolerant form).
    """

    def __init__(self, items: Sequence[Any]) -> None:
        self.items: List[Any] = list(items)
        self.symbols: List[Symbols] = [as_symbols(item) for item in self.items]
        self.codes: Dict[Hashable, int] = {}
        self._block: Optional[_Block] = _encode_block(self.symbols, self.codes)
        #: Stable identity for shared-memory publication: the runtime
        #: keys worker-side block caches by it, so a *republication*
        #: (same corpus, new segments after a runtime shutdown) lands on
        #: the same cache slot and the publication-generation check can
        #: notice the staleness -- a fresh key per publication would make
        #: that check vacuous.
        self.key: str = uuid.uuid4().hex[:12]
        #: Set by the engine runtime when this corpus has been published
        #: to shared memory: a ``(publication generation, token)`` pair,
        #: revalidated per publish so tokens never outlive a runtime
        #: shutdown (one live publication per corpus per process).
        self.shm_token: Optional[Tuple[int, "ArraysToken"]] = None

    @classmethod
    def unencoded(cls, items: Sequence[Any]) -> "InternedCorpus":
        """A corpus over items the kernels cannot encode: the raw items
        and nothing else, so every engine call on its stores takes the
        scalar fallbacks."""
        corpus = cls.__new__(cls)
        corpus.items = list(items)
        corpus.symbols = []
        corpus.codes = {}
        corpus._block = None
        corpus.key = uuid.uuid4().hex[:12]
        corpus.shm_token = None
        return corpus

    @classmethod
    def from_arrays(
        cls, items: Sequence[Any], arrays: Mapping[str, np.ndarray]
    ) -> "InternedCorpus":
        """Reconstruct a corpus around the encoded block *arrays* of a
        saved or published index snapshot (:meth:`_Block.arrays`).

        The artifact store (:mod:`repro.store`) maps a saved corpus'
        matrices back read-only, and a shard scatter worker attaches
        them from shared memory; this constructor wraps them without
        re-encoding.  The alphabet table is *replayed* -- codes are
        assigned in first-occurrence order over the normalised symbol
        stream, exactly as :func:`_encode_block` assigned them at save
        time -- so later :meth:`encode` calls (query batches) land on
        the same numbering the persisted matrices carry.  Shape or
        dtype drift raises ``ValueError``: a mismatched block must fail
        loudly here, because the kernels would otherwise compare
        queries against the wrong code space.
        """
        corpus = cls.__new__(cls)
        corpus.items = list(items)
        corpus.symbols = [as_symbols(item) for item in corpus.items]
        codes: Dict[Hashable, int] = {}
        for seq in corpus.symbols:
            for symbol in seq:
                if symbol not in codes:
                    codes[symbol] = len(codes)
        corpus.codes = codes
        block = _Block.from_arrays(arrays)
        rows_x = np.asarray(block.rows_x)
        rows_y = np.asarray(block.rows_y)
        lengths = np.asarray(block.lengths)
        if rows_x.dtype != np.int32 or rows_y.dtype != np.int32:
            raise ValueError(
                f"corpus rows must be int32, got {rows_x.dtype}/{rows_y.dtype}"
            )
        if lengths.dtype.kind not in "iu" or lengths.ndim != 1:
            raise ValueError("corpus lengths must be an int vector")
        if rows_x.ndim != 2 or rows_x.shape != rows_y.shape:
            raise ValueError(
                f"corpus row matrices disagree: {rows_x.shape} vs {rows_y.shape}"
            )
        if rows_x.shape[0] != len(corpus.items) or len(lengths) != len(corpus.items):
            raise ValueError(
                f"corpus block holds {rows_x.shape[0]} rows / {len(lengths)} "
                f"lengths for {len(corpus.items)} items"
            )
        for i, seq in enumerate(corpus.symbols):
            if int(lengths[i]) != len(seq):
                raise ValueError(
                    f"item {i} normalises to {len(seq)} symbols but the "
                    f"persisted length vector says {int(lengths[i])}"
                )
        if len(lengths) and rows_x.shape[1] < int(lengths.max()):
            raise ValueError(
                f"corpus rows are {rows_x.shape[1]} wide but the longest "
                f"item needs {int(lengths.max())}"
            )
        corpus._block = _Block(rows_x, rows_y, lengths)
        corpus.key = uuid.uuid4().hex[:12]
        corpus.shm_token = None
        return corpus

    def __len__(self) -> int:
        return len(self.items)

    @property
    def encoded(self) -> bool:
        """Whether the kernels can sweep this corpus (see :meth:`unencoded`)."""
        return self._block is not None

    @property
    def block(self) -> _Block:
        """The encoded matrices; ``TypeError`` on an unencoded corpus."""
        if self._block is None:
            raise TypeError("this corpus holds items the kernels cannot encode")
        return self._block

    @property
    def lengths(self) -> np.ndarray:
        return self.block.lengths

    def encode(self, items: Sequence[Any]) -> Tuple[List[Symbols], _Block]:
        """Encode *items* with (and extending) this corpus' alphabet.

        Raises ``TypeError`` for non-normalisable or unhashable items,
        exactly like construction."""
        symbols = [as_symbols(item) for item in items]
        return symbols, _encode_block(symbols, self.codes)

    def store(self, queries: Sequence[Any] = ()) -> "PairStore":
        """A :class:`PairStore` over this corpus plus an optional query
        batch encoded against the same alphabet."""
        return PairStore(self, queries)


#: Placeholder extra block of unencoded stores (they sweep no matrices).
_NO_BLOCK = _Block(
    np.zeros((0, 0), dtype=np.int32),
    np.zeros((0, 0), dtype=np.int32),
    np.zeros(0, dtype=np.int64),
)


class PairStore:
    """The id space interned engine calls dispatch against.

    Ids ``[0, n_corpus)`` address the corpus, ids ``[n_corpus,
    n_corpus + n_extra)`` the per-call extra batch (queries).  Kernel
    inputs are *gathered* -- row-sliced out of the stored matrices --
    instead of re-encoded.  A store over an unencoded corpus, or with
    extras that cannot be encoded, is not :attr:`encoded`: it serves
    :meth:`raw` items to the engine's scalar fallbacks and nothing else.
    """

    def __init__(self, corpus: InternedCorpus, extras: Sequence[Any] = ()) -> None:
        self.corpus = corpus
        self.raw_items: List[Any] = list(extras)
        self.n_corpus = len(corpus)
        self.encoded = corpus.encoded
        self.extra_symbols: List[Symbols] = []
        self.extra = _NO_BLOCK
        #: lengths over the whole id space (corpus then extras)
        self.lengths = _NO_BLOCK.lengths
        if self.encoded:
            try:
                self.extra_symbols, self.extra = corpus.encode(self.raw_items)
            except TypeError:
                self.encoded = False
                return
            self.lengths = (
                np.concatenate([corpus.lengths, self.extra.lengths])
                if len(self.extra)
                else corpus.lengths
            )

    def __len__(self) -> int:
        return self.n_corpus + len(self.raw_items)

    @functools.cached_property
    def length_list(self) -> List[int]:
        """:attr:`lengths` as Python ints, for per-pair decisions in
        Python loops (indexing the array per pair costs more)."""
        return cast(List[int], self.lengths.tolist())

    def extra_id(self, position: int) -> int:
        """The store id of extra (query) number *position*."""
        return self.n_corpus + position

    def extra_ids(self) -> np.ndarray:
        """The store ids of every extra, in order."""
        return np.arange(self.n_corpus, len(self), dtype=np.int64)

    def raw(self, i: int) -> Any:
        """The original item behind id *i* (for scalar fallbacks)."""
        if i < self.n_corpus:
            return self.corpus.items[i]
        return self.raw_items[i - self.n_corpus]

    def sym(self, i: int) -> Symbols:
        """The normalised symbols behind id *i*."""
        if i < self.n_corpus:
            return self.corpus.symbols[i]
        return self.extra_symbols[i - self.n_corpus]

    def _row(self, i: int) -> np.ndarray:
        """Id *i*'s encoded symbols (unpadded view)."""
        if i < self.n_corpus:
            return self.corpus.block.rows_x[i, : self.lengths[i]]
        j = i - self.n_corpus
        return self.extra.rows_x[j, : self.lengths[i]]

    def same(self, i: int, j: int) -> bool:
        """Exact symbol equality of ids *i* and *j* (the encoding is
        equality-preserving, so encoded rows decide it)."""
        if i == j:
            return True
        if self.lengths[i] != self.lengths[j]:
            return False
        return bool(np.array_equal(self._row(i), self._row(j)))

    def gather(
        self, x_ids: np.ndarray, y_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Ready-to-sweep kernel inputs ``(X, Y, mx, my)`` for the id
        pairs ``zip(x_ids, y_ids)`` -- the zero-(re)encode counterpart of
        :func:`~repro.batch.kernels.encode_batch`."""
        return gather_rows(
            (self.corpus.block.rows_x, self.corpus.block.rows_y),
            (self.extra.rows_x, self.extra.rows_y) if len(self.extra) else None,
            self.lengths,
            self.n_corpus,
            x_ids,
            y_ids,
        )


class AttachedStore:
    """A pool worker's stand-in for a :class:`PairStore`: the corpus
    bundle and an optional extra (query) bundle it attached from shared
    memory (:func:`repro.batch.runtime.attach_store`), with just the
    ``lengths`` vector and the ``gather`` and ``sym`` methods the
    engine's evaluation needs -- the gather is :func:`gather_rows`,
    shared with :class:`PairStore` so the two paths cannot drift."""

    def __init__(
        self,
        corpus: Mapping[str, np.ndarray],
        extra: Optional[Mapping[str, np.ndarray]],
    ) -> None:
        self._corpus = _Block.from_arrays(corpus)
        self.n_corpus = len(self._corpus)
        self._extra = None if extra is None else _Block.from_arrays(extra)
        self.lengths = (
            self._corpus.lengths
            if self._extra is None
            else np.concatenate([self._corpus.lengths, self._extra.lengths])
        )

    def sym(self, i: int) -> Tuple[int, ...]:
        """Id *i*'s symbols as codes of the shared alphabet: equal iff
        the symbols are, which is all a registered distance compares."""
        if i < self.n_corpus:
            row = self._corpus.rows_x[i]
        else:
            assert self._extra is not None
            row = self._extra.rows_x[i - self.n_corpus]
        return tuple(row[: self.lengths[i]].tolist())

    def gather(
        self, x_ids: np.ndarray, y_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return gather_rows(
            (self._corpus.rows_x, self._corpus.rows_y),
            None if self._extra is None else (self._extra.rows_x, self._extra.rows_y),
            self.lengths,
            self.n_corpus,
            x_ids,
            y_ids,
        )


def _take_rows(
    ids: np.ndarray,
    lengths: np.ndarray,
    n_corpus: int,
    corpus_rows: np.ndarray,
    extra_rows: Optional[np.ndarray],
    pad: int,
) -> np.ndarray:
    """Stack the rows of *ids* out of the corpus/extra matrices, padded
    with *pad* to the tightest width for this id set."""
    width = int(lengths[ids].max()) if len(ids) else 0
    out = np.full((len(ids), width), pad, dtype=np.int32)
    corp = ids < n_corpus
    if corp.any():
        w = min(width, corpus_rows.shape[1])
        out[corp, :w] = corpus_rows[ids[corp], :w]
    rest = ~corp
    if rest.any():
        if extra_rows is None:
            # Previously an AttributeError on NoneType deep in the
            # gather; surface the actual contract violation instead.
            bad = ids[rest][0]
            raise IndexError(
                f"id {int(bad)} addresses the extra block but none was "
                f"gathered (corpus ids end at {n_corpus - 1})"
            )
        w = min(width, extra_rows.shape[1])
        out[rest, :w] = extra_rows[ids[rest] - n_corpus, :w]
    return out


def gather_rows(
    corpus_xy: Tuple[np.ndarray, np.ndarray],
    extra_xy: Optional[Tuple[np.ndarray, np.ndarray]],
    lengths: np.ndarray,
    n_corpus: int,
    x_ids: np.ndarray,
    y_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shared gather behind :meth:`PairStore.gather` and
    :meth:`AttachedStore.gather`: one implementation, so the master and
    worker paths cannot drift apart on sentinel, width or id-split
    rules."""
    x_ids = np.asarray(x_ids, dtype=np.int64)
    y_ids = np.asarray(y_ids, dtype=np.int64)
    extra_x = extra_xy[0] if extra_xy is not None else None
    extra_y = extra_xy[1] if extra_xy is not None else None
    return (
        _take_rows(x_ids, lengths, n_corpus, corpus_xy[0], extra_x, _PAD_X),
        _take_rows(y_ids, lengths, n_corpus, corpus_xy[1], extra_y, _PAD_Y),
        lengths[x_ids],
        lengths[y_ids],
    )


def intern_corpus(items: Sequence[Any]) -> InternedCorpus:
    """Intern *items*; items that cannot be encoded (non-sequence items,
    unhashable symbols) get an :meth:`~InternedCorpus.unencoded` corpus."""
    try:
        return InternedCorpus(items)
    except TypeError:
        return InternedCorpus.unencoded(items)
