"""The batched banded d_MV parametric kernel and its engine wiring.

``pairwise_values_bounded("marzal_vidal", ...)`` must equal
``CountingDistance.within`` slot by slot -- the probe scores feeding the
pruned values are bit-identical to the scalar banded parametric DP, and
the regime selection is shared with the scalar twin (one classifier).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import pairwise_values_bounded, pairwise_values_bounded_ids
from repro.batch import intern_corpus
from repro.batch.kernels import mv_banded_probe_batch
from repro.core import get_distance
from repro.core.bounded import _banded_parametric, _edit_budget, mv_bound_plan
from repro.index.base import CountingDistance

INF = float("inf")

REGIMES = {
    "word": ("abcde", 0, 9),
    "dna": ("acgt", 12, 45),
    "digit": ("01234567", 35, 90),
}


def _pairs(seed, regime, count):
    alphabet, lo, hi = REGIMES[regime]
    rng = random.Random(seed)

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    return [(word(), word()) for _ in range(count)], rng


def _limits(rng, pairs):
    """Limits spanning every regime of mv_bound_plan (zero, negative,
    >= 1, inf, tight and loose bands), plus duplicates."""
    limits = []
    for _ in pairs:
        roll = rng.random()
        if roll < 0.08:
            limits.append(INF)
        elif roll < 0.16:
            limits.append(rng.choice([1.0, 1.5, -0.2, 0.0]))
        else:
            limits.append(rng.random() * 0.9)
    return limits


def test_probe_scores_bit_identical_to_scalar_probe():
    pairs, rng = _pairs(0x51, "word", 300)
    lams, bands = [], []
    for x, y in pairs:
        lam = rng.random()
        band = _edit_budget(lam * (len(x) + len(y)))
        lams.append(lam)
        bands.append(band)
    scores = mv_banded_probe_batch(pairs, lams, bands)
    for p, ((x, y), lam, band) in enumerate(zip(pairs, lams, bands)):
        if abs(len(x) - len(y)) > band:
            assert np.isinf(scores[p])
            continue
        assert float(scores[p]) == _banded_parametric(x, y, lam, band), (
            p,
            x,
            y,
            lam,
            band,
        )


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_bounded_values_match_within(regime):
    pairs, rng = _pairs(0xA3, regime, 120)
    pairs += pairs[:20]  # duplicated requests share one probe
    limits = _limits(rng, pairs)
    counter = CountingDistance(get_distance("marzal_vidal"))
    expected = [
        counter.within(x, y, limit) for (x, y), limit in zip(pairs, limits)
    ]
    got = pairwise_values_bounded("marzal_vidal", pairs, limits)
    assert got.tolist() == expected


def test_bounded_ids_match_within():
    items_pairs, rng = _pairs(0xB4, "word", 0)
    alphabet, lo, hi = REGIMES["word"]
    items = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))
        for _ in range(50)
    ]
    corpus = intern_corpus(items)
    store = corpus.store(["abced", "", "ddddd"])
    counter = CountingDistance(get_distance("marzal_vidal"))
    x_ids = [rng.randrange(len(store)) for _ in range(200)]
    y_ids = [rng.randrange(len(store)) for _ in range(200)]
    limits = _limits(rng, x_ids)
    got = pairwise_values_bounded_ids(
        "marzal_vidal", store, x_ids, y_ids, limits
    )
    expected = [
        counter.within(store.raw(i), store.raw(j), limit)
        for i, j, limit in zip(x_ids, y_ids, limits)
    ]
    assert got.tolist() == expected


def test_plan_matches_twin_regimes():
    # the classifier is the single source of truth: spot-check each tag
    assert mv_bound_plan(4, 4, 1.0) == ("exact", 0)
    assert mv_bound_plan(4, 4, INF) == ("exact", 0)
    tag, value = mv_bound_plan(3, 5, -0.5)
    assert tag == "pruned" and value == 1.0 / 8
    tag, value = mv_bound_plan(2, 9, 0.1)  # gap 7 > band 1
    assert tag == "pruned" and value == 7 / 11
    tag, band = mv_bound_plan(4, 5, 0.3)
    assert tag == "banded" and band == _edit_budget(0.3 * 9)
    tag, band = mv_bound_plan(90, 90, 0.8)  # long strings, wide band
    assert tag == "full"


@settings(max_examples=60, deadline=None)
@given(
    x=st.text(alphabet="abc", max_size=10),
    y=st.text(alphabet="abc", max_size=10),
    limit=st.one_of(
        st.floats(min_value=-0.5, max_value=1.2, allow_nan=False),
        st.just(INF),
    ),
)
def test_bounded_value_property(x, y, limit):
    counter = CountingDistance(get_distance("marzal_vidal"))
    got = pairwise_values_bounded("marzal_vidal", [(x, y)], [limit])[0]
    assert got == counter.within(x, y, limit)
