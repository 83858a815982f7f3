#!/usr/bin/env python
"""Benchmark the pair-batched distance engine against the scalar loop.

Builds an ``n x n`` pairwise matrix over random DNA-length strings (the
regime of the paper's gene experiments) twice:

* **batch**  -- one :func:`repro.batch.pairwise_matrix` call (the upper
  triangle runs through the pair-batched anti-diagonal kernels);
* **scalar** -- the per-pair Python loop every consumer used before the
  engine existed.  At full size the scalar loop takes minutes, so it is
  timed over an evenly strided subset of at least ``--scalar-pairs``
  unique pairs and extrapolated (the per-pair cost is flat across the
  stride; ``--full-scalar`` forces the complete loop).

The batch result is cross-checked cell-by-cell against the scalar values
on the timed subset (bit-identical, not approximately equal).  Results,
including the speedup factor, are appended as one JSON object per run to
``BENCH_batch.json`` so the perf trajectory survives across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_pairwise_batch.py            # full
    PYTHONPATH=src python benchmarks/bench_pairwise_batch.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_pairwise_batch.py --smoke --lengths 90 160

``--lengths`` overrides the string-length range of either run: the
smoke run's 60-110 symbols keep every ``d_C,h`` sweep in ``uint16``
cells, 90-160 also reaches the ``int32`` cells of buckets whose padded
lengths sum past 253.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro.batch import pairwise_matrix
from repro.core import get_distance

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _random_strings(n: int, lo: int, hi: int, seed: int) -> list:
    rng = random.Random(seed)
    return [
        "".join(rng.choice("acgt") for _ in range(rng.randint(lo, hi)))
        for _ in range(n)
    ]


def run_benchmark(
    distance: str,
    n_items: int,
    min_len: int,
    max_len: int,
    scalar_pairs: int,
    full_scalar: bool,
    seed: int = 0xBA7C4,
) -> dict:
    items = _random_strings(n_items, min_len, max_len, seed)
    fn = get_distance(distance)

    started = time.perf_counter()
    matrix = pairwise_matrix(distance, items)
    batch_seconds = time.perf_counter() - started

    unique = [
        (i, j) for i in range(n_items) for j in range(i + 1, n_items)
    ]
    n_unique = len(unique)
    if full_scalar or n_unique <= scalar_pairs:
        subset = unique
    else:
        stride = max(1, n_unique // scalar_pairs)
        subset = unique[::stride]
    started = time.perf_counter()
    scalar_values = [fn(items[i], items[j]) for i, j in subset]
    scalar_subset_seconds = time.perf_counter() - started
    scalar_seconds = scalar_subset_seconds / len(subset) * n_unique

    mismatches = sum(
        1
        for (i, j), value in zip(subset, scalar_values)
        if matrix[i, j] != value
    )
    if mismatches:
        raise AssertionError(
            f"{mismatches}/{len(subset)} batch cells differ from scalar"
        )
    if not np.array_equal(matrix, matrix.T):
        raise AssertionError("pairwise matrix is not symmetric")

    return {
        "bench": "pairwise_batch",
        "distance": distance,
        "n_items": n_items,
        "n_unique_pairs": n_unique,
        "min_len": min_len,
        "max_len": max_len,
        "batch_seconds": round(batch_seconds, 4),
        "scalar_seconds_estimated": round(scalar_seconds, 4),
        "scalar_pairs_timed": len(subset),
        "scalar_extrapolated": len(subset) != n_unique,
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, CI-sized run (~seconds) instead of the full 200x200",
    )
    parser.add_argument(
        "--distance",
        default="contextual_heuristic",
        help="registry name to benchmark (default: contextual_heuristic)",
    )
    parser.add_argument(
        "--items", type=int, default=None, help="override the item count"
    )
    parser.add_argument(
        "--lengths",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        default=None,
        help="override the string-length range (inclusive)",
    )
    parser.add_argument(
        "--scalar-pairs",
        type=int,
        default=500,
        help="minimum unique pairs timed for the scalar estimate",
    )
    parser.add_argument(
        "--full-scalar",
        action="store_true",
        help="time the complete scalar loop instead of extrapolating",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_JSON,
        help=f"JSON-lines results file (default: {DEFAULT_JSON.name})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        n_items = args.items or 40
        min_len, max_len = 60, 110
        scalar_pairs = min(args.scalar_pairs, 120)
    else:
        n_items = args.items or 200
        min_len, max_len = 90, 160  # DNA-length regime
        scalar_pairs = args.scalar_pairs
    if args.lengths is not None:
        min_len, max_len = args.lengths
        if not 0 <= min_len <= max_len:
            parser.error("--lengths needs 0 <= LO <= HI")

    record = run_benchmark(
        args.distance,
        n_items,
        min_len,
        max_len,
        scalar_pairs,
        args.full_scalar,
    )
    from bench_tags import ambient_tags

    record.update(ambient_tags("smoke" if args.smoke else "full"))
    print(json.dumps(record, indent=2))

    with args.json.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"[appended to {args.json}]")

    if record["speedup"] < 5.0 and not args.smoke:
        print(
            f"WARNING: speedup {record['speedup']}x below the 5x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
