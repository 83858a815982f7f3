"""Per-layer metrics of the traced run, derived from the recorded spans.

Times are per answered query of the traced pass (``*_ms_per_q``) unless
named otherwise; ``store.*`` figures are per set-up.  The layers are
named after repro's modules; ``load`` is the benchmark's own generator
and ``trace`` the tracer itself.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from measure import latency_summary, percentile
from tracing import Span, layer_of, self_times, tail_rounds

#: Per-layer metrics: name -> unit (every workload reports all of them;
#: a layer the workload does not reach reports 0).  Their definitions and
#: the end-to-end metric each layer should move are in ``spec.json``.
PER_LAYER = {
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_tail_ms": "ms",
    "serve.hop_p50_ms": "ms",
    "serve.batch_size": "count",
    "serve.batches": "count",
    "serve.shed": "count",
    "shard.scatter_ms_per_q": "ms",
    "shard.merge_ms_per_q": "ms",
    "shard.self_ms_per_q": "ms",
    "shard.fallbacks": "count",
    "index.pivot_sweep_ms_per_q": "ms",
    "index.rounds_per_call": "count",
    "index.tail_rounds_per_call": "count",
    "index.pairs_per_round": "count",
    "index.self_ms_per_q": "ms",
    "index.loop_ms_per_query": "ms",
    "core.scalar_calls_per_q": "count",
    "core.scalar_ms_per_q": "ms",
    "engine.calls_per_q": "count",
    "engine.pairs_per_q": "count",
    "engine.self_ms_per_q": "ms",
    "corpus.gather_ms_per_q": "ms",
    "corpus.intern_ms_per_q": "ms",
    "kernels.calls_per_q": "count",
    "kernels.ms_per_q": "ms",
    "kernels.cells_per_q": "count",
    "kernels.ns_per_cell": "ns",
    "runtime.pool_ms_per_q": "ms",
    "runtime.publish_ms_per_q": "ms",
    "runtime.self_ms_per_q": "ms",
    "runtime.ring_reuse_frac": "frac",
    "runtime.degraded": "count",
    "store.save_s": "s",
    "store.bytes_written": "B",
    "store.load_s": "s",
    "store.bytes_verified": "B",
    "load.lag_p50_ms": "ms",
    "load.lag_max_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans_per_q": "count",
}

def before_pass() -> Dict[str, Any]:
    from repro.batch import DEGRADATION, get_runtime

    return {"ring": get_runtime().ring_stats(), "degradation": DEGRADATION.snapshot()}


def after_pass(before: Dict[str, Any]) -> Dict[str, Any]:
    from repro.batch import DEGRADATION, get_runtime

    ring = get_runtime().ring_stats()
    after = DEGRADATION.snapshot()
    return {
        "ring": {k: ring[k] - before["ring"].get(k, 0) for k in ring},
        "degradation": {
            k: after[k] - before["degradation"].get(k, 0) for k in after
        },
    }


def _serve_layers(spans: List[Span], traced: Any) -> Dict[str, float]:
    """Queue wait (submit to bulk start) and hop (bulk end to await
    return) per request, matching each bulk call's queries to the
    requests that submitted them."""
    requests = traced.extra.get("requests")
    if not requests:
        return {}
    by_query: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for record in requests:
        by_query[record["query_id"]].append(record)
    waits: List[float] = []
    hops: List[float] = []
    sizes: List[int] = []
    bulk = sorted((s for s in spans if s[1] == "index.bulk"), key=lambda s: s[2])
    for _sid, _name, start, end, _parent, _phase, attrs in bulk:
        sizes.append(attrs["n"])
        for qid in attrs["query_ids"]:
            pending = by_query.get(qid)
            if not pending:
                continue
            record = pending.pop(0)
            waits.append(start - record["sent"])
            if "done" in record:
                hops.append(record["done"] - end)
    out: Dict[str, float] = {
        "serve.batch_size": statistics.mean(sizes) if sizes else 0.0,
        "serve.batches": float(traced.extra["server"]["batches"]),
        "serve.shed": float(traced.extra["server"]["shed"]),
    }
    if len(waits) > 10:
        summary = latency_summary(waits)
        out["serve.queue_wait_p50_ms"] = summary["p50_ms"]
        out["serve.queue_wait_tail_ms"] = summary["tail_ms"]
    if hops:
        out["serve.hop_p50_ms"] = percentile(hops, 50) * 1000.0
    lags = [r["sent"] - r["due"] for r in requests]
    out["load.lag_p50_ms"] = percentile(lags, 50) * 1000.0
    out["load.lag_max_ms"] = max(lags) * 1000.0
    return out


def _setup_layers(spans: List[Span], n_setups: int) -> Dict[str, float]:
    parents = {s[0]: s[4] for s in spans}
    names = {s[0]: s[1] for s in spans}

    def under(sid: Optional[int], name: str) -> bool:
        while sid is not None:
            if names.get(sid) == name:
                return True
            sid = parents.get(sid)
        return False

    totals: Dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent, _phase, attrs in spans:
        if name == "store.save" and not under(parent, "store.save"):
            totals["store.save_s"] += end - start
            totals["store.bytes_written"] += attrs["bytes"]
        elif name == "store.load" and not under(parent, "store.load"):
            totals["store.load_s"] += end - start
        elif name == "store.hash" and under(parent, "store.load"):
            totals["store.bytes_verified"] += attrs["bytes"]
    return {name: value / n_setups for name, value in totals.items()}


def per_layer(m: Any) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``(metric values, layer self-time breakdown)`` of the traced pass."""
    untraced, traced = m.passes
    state = m.layer_state
    spans = m.recorder.phase_spans("timed")
    queries = max(traced.answered, 1)
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    names = {s[0]: s[1] for s in spans}

    def total(prefix: str) -> float:
        return sum(
            s[3] - s[2] for name, group in by_name.items() if name.startswith(prefix)
            for s in group
        )

    def count(prefix: str) -> int:
        return sum(len(g) for name, g in by_name.items() if name.startswith(prefix))

    def attr_sum(prefix: str, key: str) -> float:
        return sum(
            (s[6] or {}).get(key, 0)
            for name, group in by_name.items() if name.startswith(prefix)
            for s in group
        )

    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer_self[layer_of(span[1])] += own[span[0]]

    def per_q_ms(seconds: float) -> float:
        return seconds * 1000.0 / queries

    bulk_calls = len(by_name["index.bulk"])
    tails = tail_rounds(spans)
    n_tail = sum(tails.values())
    batched_rounds = len(by_name["index.round"])
    rounds = batched_rounds + n_tail
    round_pairs = attr_sum("index.round", "pairs") + len(by_name["core.peek"])
    cells = attr_sum("kernels.", "cells")
    kernel_s = total("kernels.")
    engine_top = [
        s for name, g in by_name.items() if name.startswith("engine.") for s in g
        if not names.get(s[4] or -1, "").startswith("engine.")
    ]
    ring = state["ring"]
    publishes = ring.get("creates", 0) + ring.get("reuses", 0)
    degradation = state["degradation"]

    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    values.update(
        {
            "shard.scatter_ms_per_q": per_q_ms(total("shard.scatter")),
            "shard.merge_ms_per_q": per_q_ms(total("shard.merge")),
            "shard.self_ms_per_q": per_q_ms(layer_self["shard"]),
            "shard.fallbacks": float(degradation.get("shard_fallbacks", 0)),
            "index.pivot_sweep_ms_per_q": per_q_ms(total("index.pivot_sweep")),
            "index.rounds_per_call": rounds / bulk_calls if bulk_calls else 0.0,
            "index.tail_rounds_per_call": n_tail / bulk_calls if bulk_calls else 0.0,
            "index.pairs_per_round": round_pairs / rounds if rounds else 0.0,
            "index.self_ms_per_q": per_q_ms(layer_self["index"]),
            "index.loop_ms_per_query": m.ref.loop_ms_per_query,
            "core.scalar_calls_per_q": count("core.") / queries,
            "core.scalar_ms_per_q": per_q_ms(total("core.")),
            "engine.calls_per_q": len(engine_top) / queries,
            "engine.pairs_per_q": sum((s[6] or {}).get("pairs", 0) for s in engine_top) / queries,
            "engine.self_ms_per_q": per_q_ms(layer_self["engine"]),
            "corpus.gather_ms_per_q": per_q_ms(total("corpus.gather")),
            "corpus.intern_ms_per_q": per_q_ms(total("corpus.intern")),
            "kernels.calls_per_q": count("kernels.") / queries,
            "kernels.ms_per_q": per_q_ms(kernel_s),
            "kernels.cells_per_q": cells / queries,
            "kernels.ns_per_cell": kernel_s * 1e9 / cells if cells else 0.0,
            "runtime.pool_ms_per_q": per_q_ms(total("runtime.pool")),
            "runtime.publish_ms_per_q": per_q_ms(total("runtime.publish")),
            "runtime.self_ms_per_q": per_q_ms(layer_self["runtime"]),
            "runtime.ring_reuse_frac": ring.get("reuses", 0) / publishes if publishes else 0.0,
            "runtime.degraded": float(sum(v for v in degradation.values() if v > 0)),
            "trace.spans_per_q": len(spans) / queries,
        }
    )
    values.update(
        _setup_layers(m.recorder.phase_spans("setup"), len(m.setups))
    )
    values.update(_serve_layers(spans, traced))
    base = latency_summary(untraced.latencies)["p50_ms"]
    with_trace = latency_summary(traced.latencies)["p50_ms"]
    values["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    breakdown = {
        "self_ms_per_q": {
            layer: per_q_ms(seconds) for layer, seconds in sorted(layer_self.items())
        },
        "wall_ms_per_q": per_q_ms(traced.wall),
        "machine_slowdown": m.slowdowns,
        "untraced_p50_ms": base,
        "traced_p50_ms": with_trace,
    }
    return values, breakdown
