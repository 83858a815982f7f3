"""Ablation: pure-Python reference DPs vs the scalar kernels in use.

The Levenshtein half times the bit-parallel ``levenshtein_distance``
(one implementation at every length) against the full Wagner--Fischer
table; the contextual-heuristic half quantifies the dispatch threshold
chosen in repro.core: numpy kernels lose on short words (per-call
overhead) and win on long contours/genes.
"""

import random

import pytest

from repro.core._kernels import contextual_heuristic_numpy
from repro.core.contextual import _heuristic_tables
from repro.core.levenshtein import levenshtein_distance, levenshtein_matrix


def _random_string(rng, length, alphabet="acgt"):
    return "".join(rng.choice(alphabet) for _ in range(length))


@pytest.mark.parametrize("length", [8, 64, 256])
@pytest.mark.parametrize("kernel", ["python", "bit_parallel"])
def test_levenshtein_kernels(benchmark, length, kernel):
    rng = random.Random(length)
    x = _random_string(rng, length)
    y = _random_string(rng, length)
    if kernel == "python":
        benchmark(lambda: levenshtein_matrix(x, y)[len(x)][len(y)])
    else:
        benchmark(levenshtein_distance, x, y)


@pytest.mark.parametrize("length", [8, 64, 256])
@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_contextual_heuristic_kernels(benchmark, length, kernel):
    rng = random.Random(1000 + length)
    x = _random_string(rng, length)
    y = _random_string(rng, length)
    if kernel == "python":
        benchmark(_heuristic_tables, x, y)
    else:
        benchmark(contextual_heuristic_numpy, x, y)
