"""Call-through tracing for the benchmark's traced run.

The traced run installs wrappers around the public entry points of each
layer of ``repro`` -- on the class or module attribute the caller looks
up at call time, so names the engine binds at import (the ``*_encoded``
kernel dispatchers) are wrapped where the engine module holds them.  A
wrapper records one span ``(id, name, start, end, parent, phase,
attrs)`` and calls straight through; the answers are those of the
unwrapped code.  Spans are kept in memory and written out once, at the
end.  Parents come from a context variable, so a bulk call that
``asyncio.to_thread`` moved to a worker thread still nests its engine
and kernel spans under it; forked pool workers inherit the wrappers but
record nothing (they call straight through).

A span's *layer* is its name up to the first dot; a layer's self time
is the time its spans cover minus the part their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The span currently open in this context (its id), or None.
_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: One recorded span.
Span = Tuple[int, str, float, float, Optional[int], str, Any]

AttrFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Any]


class Recorder:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable[..., Any], attrs: Optional[AttrFn]):
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            parent = _CURRENT.get()
            sid = next(recorder._ids)
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            recorder.spans.append(
                (
                    sid,
                    name,
                    start,
                    end,
                    parent,
                    recorder.phase,
                    attrs(args, kwargs, result) if attrs is not None else None,
                )
            )
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`TARGETS` (idempotent)."""
        if self._installed:
            return
        for module_name, owner_name, attr, span_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            if owner_name:
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(span_name, raw.__func__, attrs))
            else:
                wrapped = self._wrap(span_name, raw, attrs)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def phase_spans(self, phase: str) -> List[Span]:
        return [s for s in self.spans if s[5] == phase]

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span (times relative to the first) as JSON."""
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [
            [
                sid,
                name,
                round(start - origin, 9),
                round(end - origin, 9),
                parent,
                phase,
                _jsonable(attrs),
            ]
            for sid, name, start, end, parent, phase, attrs in self.spans
        ]
        payload = {
            "meta": meta,
            "columns": ["id", "name", "start_s", "end_s", "parent", "phase", "attrs"],
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _jsonable(attrs: Any) -> Any:
    if attrs is None or isinstance(attrs, (int, float, str)):
        return attrs
    if isinstance(attrs, dict):
        return {k: v for k, v in attrs.items() if k != "query_ids"}
    return str(attrs)


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _phase, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _name, start, end, _parent, _phase, _attrs in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def tail_rounds(spans: Sequence[Span]) -> Dict[int, int]:
    """Bulk span id -> number of scalar tail rounds it ran.

    A tail round answers each still-active query once with
    ``peek_within``; a new round starts when a query repeats."""
    by_parent: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span[1] == "core.peek" and span[4] is not None:
            by_parent[span[4]].append(span)
    rounds: Dict[int, int] = {}
    for parent, peeks in by_parent.items():
        peeks.sort(key=lambda s: s[2])
        count, seen = 0, set()
        for span in peeks:
            qid = span[6]
            if not seen or qid in seen:
                count += 1
                seen = set()
            seen.add(qid)
        rounds[parent] = count
    return rounds


# -- per-call attributes -------------------------------------------------------


def _batch_attrs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    queries = args[1]
    return {"n": len(queries), "query_ids": [id(q) for q in queries]}


def _id_pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    # (distance, store, x_ids, y_ids, ...) or (self, store, x_ids, y_ids, ...)
    return {"pairs": len(args[2])}


def _raw_pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    return {"pairs": len(args[1])}


def _matrix_pairs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    return {"pairs": int(np.size(result))}


def _peek_query(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    return id(args[1])


def _band_cells(m: np.ndarray, n: np.ndarray, bounds: Optional[Any]) -> int:
    """Nominal DP cells: the full ``m x n`` table, or the band of half
    width ``bound`` around the diagonal when a budget applies."""
    m = np.asarray(m, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    full = m * n
    if bounds is None:
        return int(full.sum())
    band = (2 * np.asarray(bounds, dtype=np.int64) + 1) * np.minimum(m, n)
    return int(np.minimum(full, band).sum())


def _encoded_cells(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    # (X, Y, mx, my[, bounds]) or (X, Y, mx, my, lams, bands)
    bounds = args[-1] if len(args) > 4 else None
    return {"pairs": len(args[2]), "cells": _band_cells(args[2], args[3], bounds)}


def _pair_cells(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    # (pairs[, bounds]) or (pairs, lams, bands)
    pairs = args[0]
    bounds = args[-1] if len(args) > 1 else None
    m = np.asarray([len(x) for x, _ in pairs], dtype=np.int64)
    n = np.asarray([len(y) for _, y in pairs], dtype=np.int64)
    return {"pairs": len(pairs), "cells": _band_cells(m, n, bounds)}


def _saved_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    total = 0
    for entry in os.scandir(result):
        if entry.is_file():
            total += entry.stat().st_size
    return {"bytes": total}


def _file_bytes(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Any:
    return {"bytes": os.path.getsize(args[0])}


_KERNELS = (
    ("levenshtein_batch_encoded", _encoded_cells),
    ("levenshtein_batch_bounded_encoded", _encoded_cells),
    ("contextual_heuristic_batch_encoded", _encoded_cells),
    ("contextual_heuristic_batch_bounded_encoded", _encoded_cells),
    ("mv_banded_probe_batch_encoded", _encoded_cells),
    ("levenshtein_batch", _pair_cells),
    ("levenshtein_batch_bounded", _pair_cells),
    ("contextual_heuristic_batch", _pair_cells),
    ("contextual_heuristic_batch_bounded", _pair_cells),
    ("mv_banded_probe_batch", _pair_cells),
)

_ENGINE = (
    ("pairwise_values_ids", _id_pairs),
    ("pairwise_values_bounded_ids", _id_pairs),
    ("pairwise_matrix", _matrix_pairs),
    ("pairwise_values", _raw_pairs),
    ("pairwise_values_bounded", _raw_pairs),
)

#: ``(module, owner class or None, attribute, span name, attrs)``.
#: Engine entry points are wrapped both where callers import them from
#: (the ``repro.batch`` package) and where the engine calls them itself.
TARGETS: List[Tuple[str, Optional[str], str, str, Optional[AttrFn]]] = [
    # index: the bulk calls, their pivot sweep and lockstep rounds
    ("repro.index.laesa", "LaesaIndex", "bulk_knn", "index.bulk", _batch_attrs),
    ("repro.index.laesa", "LaesaIndex", "bulk_range_search", "index.bulk", _batch_attrs),
    ("repro.index.base", "CountingDistance", "precompute_ids", "index.pivot_sweep", _id_pairs),
    ("repro.index.base", "CountingDistance", "precompute", "index.pivot_sweep", _matrix_pairs),
    ("repro.index.base", "CountingDistance", "precompute_bounded_ids", "index.round", _id_pairs),
    ("repro.index.base", "CountingDistance", "precompute_bounded", "index.round", _raw_pairs),
    # core: scalar twins behind the counted distance
    ("repro.index.base", "CountingDistance", "peek_within", "core.peek", _peek_query),
    ("repro.index.base", "CountingDistance", "within", "core.within", None),
    ("repro.index.base", "CountingDistance", "__call__", "core.call", None),
    # shard: the scatter-gather tier
    ("repro.shard.sharded", "ShardedIndex", "bulk_knn", "shard.bulk", _batch_attrs),
    ("repro.shard.sharded", "ShardedIndex", "bulk_range_search", "shard.bulk", _batch_attrs),
    ("repro.shard.sharded", "ShardedIndex", "_scatter", "shard.scatter", None),
    ("repro.shard.sharded", None, "k_merge", "shard.merge", None),
    ("repro.shard.scatter", None, "run_shard_local", "shard.local", None),
    # corpus: interning and gathers
    ("repro.batch.corpus", "InternedCorpus", "__init__", "corpus.intern", None),
    ("repro.batch.corpus", "InternedCorpus", "from_arrays", "corpus.intern", None),
    ("repro.batch.corpus", "PairStore", "__init__", "corpus.intern", None),
    ("repro.batch.corpus", "PairStore", "gather", "corpus.gather", None),
    # runtime: pool fan-out and shared-memory publication
    ("repro.batch.runtime", "EngineRuntime", "supervised_map", "runtime.pool", None),
    ("repro.batch.runtime", "EngineRuntime", "publish_store", "runtime.publish", None),
    ("repro.batch.runtime", "EngineRuntime", "publish_block", "runtime.publish", None),
    ("repro.batch.runtime", "EngineRuntime", "publish_arrays", "runtime.publish", None),
    # store: snapshot writes, loads and checksum verification
    ("repro.store.artifacts", "ArtifactStore", "save", "store.save", _saved_bytes),
    ("repro.store.artifacts", "ArtifactStore", "load", "store.load", None),
    ("repro.store.artifacts", None, "sha256_file", "store.hash", _file_bytes),
]
TARGETS += [
    (module, None, name, f"engine.{name}", attrs)
    for module in ("repro.batch", "repro.batch.engine")
    for name, attrs in _ENGINE
]
TARGETS += [
    ("repro.batch.engine", None, name, f"kernels.{name}", attrs)
    for name, attrs in _KERNELS
]
