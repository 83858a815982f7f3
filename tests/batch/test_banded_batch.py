"""Banded bounded batch sweeps must be bit-identical to the full-table
path and to the scalar twins.

The tentpole claim of the banded kernels is that carrying per-pair edit
budgets through the batch sweep changes *work*, never *values*: exactness
below the budget, a witness above it, and the engine's replayed bounded
arithmetic equal to ``CountingDistance.within`` slot by slot.  These
tests pin that across length regimes (words / DNA-like / digit-contour-
like), tight and loose radii, and budgets wide enough that the engine
takes the full-table kernels.
"""

import random

import numpy as np
import pytest

from repro.batch import pairwise_values_bounded
from repro.batch import kernels
from repro.batch.kernels import (
    contextual_heuristic_batch_bounded,
    contextual_heuristic_batch_bounded_numpy,
    contextual_heuristic_batch_numpy,
    levenshtein_batch_bounded,
    levenshtein_batch_bounded_numpy,
    levenshtein_batch_numpy,
)
from repro.core import get_spec
from repro.index.base import CountingDistance

INF = float("inf")

#: (alphabet, min_len, max_len) per length regime of the paper's datasets.
REGIMES = {
    "word": ("abcde", 0, 9),
    "dna": ("acgt", 12, 45),
    "digit": ("01234567", 35, 90),
}

TWINNED = (
    "levenshtein",
    "dmax",
    "dsum",
    "dmin",
    "yujian_bo",
    "contextual_heuristic",
)


def _pairs(seed, regime, count):
    alphabet, lo, hi = REGIMES[regime]
    rng = random.Random(seed)

    def word():
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randint(lo, hi))
        )

    return [(word(), word()) for _ in range(count)], rng


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_banded_kernels_match_scalar_truth(regime):
    """Exact value (and Ni) iff the true distance fits the budget; any
    witness above the budget otherwise -- against the scalar DPs."""
    from repro.core.contextual import _heuristic_tables
    from repro.core.levenshtein import levenshtein_distance

    pairs, rng = _pairs(0xBA0 + len(regime), regime, 80)
    bounds = [rng.choice([0, 1, 2, 4, 8, 15, 1 << 20]) for _ in pairs]
    values, exact = levenshtein_batch_bounded_numpy(pairs, bounds)
    d_e, ni, ctx_exact = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
    for p, (x, y) in enumerate(pairs):
        true = levenshtein_distance(x, y)
        budget = min(max(bounds[p], 0), len(x) + len(y))
        if true <= budget:
            assert exact[p] and values[p] == true, (regime, x, y, bounds[p])
            true_d, true_ni = _heuristic_tables(x, y)
            assert ctx_exact[p] and d_e[p] == true_d and ni[p] == true_ni
        else:
            assert not exact[p] and values[p] > budget, (regime, x, y)
            assert not ctx_exact[p] and d_e[p] > budget


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_banded_dispatch_matches_numpy(regime):
    """The dispatching entry points agree with the numpy banded kernels
    whatever backend is active (compiled kernels are the same DP)."""
    pairs, rng = _pairs(0xD15 + len(regime), regime, 60)
    bounds = [rng.choice([0, 2, 5, 9, 1 << 20]) for _ in pairs]
    v1, e1 = levenshtein_batch_bounded(pairs, bounds)
    v2, e2 = levenshtein_batch_bounded_numpy(pairs, bounds)
    assert v1.tolist() == v2.tolist() and e1.tolist() == e2.tolist()
    a1, b1, c1 = contextual_heuristic_batch_bounded(pairs, bounds)
    a2, b2, c2 = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
    assert a1.tolist() == a2.tolist()
    assert b1.tolist() == b2.tolist()
    assert c1.tolist() == c2.tolist()


def test_full_band_budgets_degenerate_to_full_tables():
    """Budgets covering the whole table reproduce the full kernels."""
    pairs, _ = _pairs(0xF11, "dna", 50)
    bounds = [len(x) + len(y) for x, y in pairs]
    values, exact = levenshtein_batch_bounded_numpy(pairs, bounds)
    assert exact.all()
    assert values.tolist() == levenshtein_batch_numpy(pairs).tolist()
    d_e, ni, ctx_exact = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
    full_d, full_ni = contextual_heuristic_batch_numpy(pairs)
    assert ctx_exact.all()
    assert d_e.tolist() == full_d.tolist()
    assert ni.tolist() == full_ni.tolist()


def test_retirement_and_compaction_paths():
    """A bucket where most budgets are hopeless exercises mid-sweep
    retirement and row compaction without perturbing the survivors."""
    rng = random.Random(0xC0C0)
    base = "".join(rng.choice("01234567") for _ in range(70))
    near = base[:30] + "7" + base[31:]  # distance 1 twin
    far = [
        "".join(rng.choice("01234567") for _ in range(70)) for _ in range(20)
    ]
    pairs = [(base, near)] + [(base, f) for f in far]
    bounds = [3] * len(pairs)
    values, exact = levenshtein_batch_bounded_numpy(pairs, bounds)
    assert exact[0] and values[0] == 1
    from repro.core.levenshtein import levenshtein_distance

    for p, f in enumerate(far, start=1):
        true = levenshtein_distance(base, f)
        if true <= 3:  # pragma: no cover - astronomically unlikely
            assert exact[p] and values[p] == true
        else:
            assert not exact[p] and values[p] == 4


@pytest.mark.parametrize("name", TWINNED)
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_engine_matches_within_across_regimes(name, regime):
    """``pairwise_values_bounded`` equals ``within`` slot by slot at
    tight and loose limits, in every length regime."""
    fn = get_spec(name).function
    counter = CountingDistance(fn)
    pairs, rng = _pairs(0xE9E + hash((name, regime)) % 1000, regime, 60)
    limits = [
        rng.choice([0.0, 0.05, 0.15, 0.4, 0.9, 2.0, 6.0, INF]) for _ in pairs
    ]
    got = pairwise_values_bounded(fn, pairs, limits)
    for p, ((x, y), limit) in enumerate(zip(pairs, limits)):
        assert got[p] == counter.within(x, y, limit), (name, regime, x, y, limit)


def test_mixed_limits_per_duplicate_pair():
    """Duplicated pairs with different limits share one banded DP at the
    widest budget yet each slot replays its own limit."""
    counter = CountingDistance(get_spec("dmax").function)
    x = "0123456701234567012345670123456"
    y = "0123456701234567012345671123456"
    z = "7654321076543210765432107654321"
    pairs = [(x, y), (x, y), (x, z), (x, y), (x, z)]
    limits = [0.01, INF, 0.02, 0.5, INF]
    got = pairwise_values_bounded("dmax", pairs, limits)
    want = [counter.within(a, b, lim) for (a, b), lim in zip(pairs, limits)]
    assert got.tolist() == want


def test_per_query_counts_identical_under_banded_engine():
    """Scalar vs lockstep bulk searches: identical neighbours, prune
    decisions and per-query computation counts with the banded engine
    underneath (the prune outcomes are visible in the counts)."""
    from repro.index import LaesaIndex

    rng = random.Random(0x5EA)
    items = [
        "".join(rng.choice("01234567") for _ in range(rng.randint(35, 70)))
        for _ in range(48)
    ]
    queries = [
        "".join(rng.choice("01234567") for _ in range(rng.randint(35, 70)))
        for _ in range(12)
    ]
    index = LaesaIndex(items, get_spec("contextual_heuristic").function, n_pivots=8)
    scalar = [index.knn(q, 2) for q in queries]
    bulk = index.bulk_knn(queries, 2)
    for (t_res, t_stats), (g_res, g_stats) in zip(scalar, bulk):
        assert [(r.index, r.distance) for r in t_res] == [
            (r.index, r.distance) for r in g_res
        ]
        assert t_stats.distance_computations == g_stats.distance_computations


def test_empty_and_trivial_pairs():
    pairs = [("", ""), ("", "abc"), ("abc", ""), ("a", "a")]
    bounds = [0, 1, 5, 0]
    values, exact = levenshtein_batch_bounded_numpy(pairs, bounds)
    assert values.tolist() == [0, 2, 3, 0]
    assert exact.tolist() == [True, False, True, True]
    got = pairwise_values_bounded("dsum", pairs, [0.0, 0.1, INF, 0.5])
    counter = CountingDistance(get_spec("dsum").function)
    assert got.tolist() == [
        counter.within(x, y, lim)
        for (x, y), lim in zip(pairs, [0.0, 0.1, INF, 0.5])
    ]


def test_bounds_length_mismatch_is_callers_problem():
    # the kernels align bounds positionally; the engine validates sizes
    with pytest.raises(ValueError):
        pairwise_values_bounded("dmax", [("a", "b")], [0.1, 0.2])


def test_numpy_kernel_returns_witness_dtype():
    values, exact = levenshtein_batch_bounded_numpy([("abc", "xyz")], [1])
    assert values.dtype == np.int64
    assert exact.dtype == np.bool_


@pytest.mark.parametrize("cadence", [1, 2, 4, 7, 1000])
def test_retirement_cadence_is_bit_identical(cadence, monkeypatch):
    """Sampling the retirement check every N diagonals only moves *when*
    hopeless pairs stop sweeping -- every (value, exact) output must
    equal the cadence-1 (check-every-diagonal) baseline."""
    pairs, rng = _pairs(0xCAD, "word", 300)
    pairs += _pairs(0xCAD + 1, "dna", 120)[0]
    bounds = [rng.randrange(0, 14) for _ in pairs]
    monkeypatch.setattr(kernels, "_RETIRE_CADENCE", 1)
    base_lev = levenshtein_batch_bounded_numpy(pairs, bounds)
    base_ctx = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
    monkeypatch.setattr(kernels, "_RETIRE_CADENCE", cadence)
    got_lev = levenshtein_batch_bounded_numpy(pairs, bounds)
    got_ctx = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
    assert got_lev[0].tolist() == base_lev[0].tolist()
    assert got_lev[1].tolist() == base_lev[1].tolist()
    for got, base in zip(got_ctx, base_ctx):
        assert got.tolist() == base.tolist()


def test_retirement_cadence_engine_identity(monkeypatch):
    """The engine's bounded values (and hence within()) are cadence-
    independent end to end."""
    pairs, rng = _pairs(0xCAE, "digit", 60)
    limits = [rng.random() * 0.4 for _ in pairs]
    monkeypatch.setattr(kernels, "_RETIRE_CADENCE", 1)
    base = pairwise_values_bounded("dmax", pairs, limits)
    monkeypatch.setattr(kernels, "_RETIRE_CADENCE", 6)
    got = pairwise_values_bounded("dmax", pairs, limits)
    assert got.tolist() == base.tolist()
