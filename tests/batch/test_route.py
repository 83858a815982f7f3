"""The per-round lockstep route (``scalar_round_cheaper``) on the
benchmark workloads' own inputs: dictionary words go scalar, a full
round of digit contours under ``d_C,h`` goes batched."""

import random

import pytest

from repro.batch import pairwise_matrix
from repro.batch.corpus import intern_corpus
from repro.batch.engine import scalar_round_cheaper
from repro.core._kernels import jit_backend
from repro.datasets.digits import handwritten_digits
from repro.datasets.perturb import perturbed_queries
from repro.datasets.words import spanish_dictionary

#: the route constants were measured on the numpy backend; the numba
#: backend keeps the two-pair split (last test)
numpy_constants = pytest.mark.skipif(
    jit_backend() is not None, reason="numba backend keeps the two-pair split"
)


def _round(store, n_pairs, first_item=0):
    x_ids = [store.extra_id(i) for i in range(n_pairs)]
    y_ids = list(range(first_item, first_item + n_pairs))
    return x_ids, y_ids


@numpy_constants
def test_dictionary_round_routes_scalar():
    # 16 two-edit perturbed queries against dictionary words at radius 2
    dictionary = spanish_dictionary(1000, seed=2008)
    queries = perturbed_queries(
        dictionary, 16, random.Random(71), operations=2
    )
    store = intern_corpus(list(dictionary.items)).store(queries)
    x_ids, y_ids = _round(store, 16)
    assert scalar_round_cheaper("levenshtein", store, x_ids, y_ids, [2.0] * 16)


@numpy_constants
def test_digit_contour_round_routes_batched():
    # a first candidate round of LAESA: each query's radius is its
    # distance to the nearest of 40 pivots
    train = list(handwritten_digits(per_class=50, seed=1995).items)
    queries = list(handwritten_digits(per_class=10, seed=2008).items[:12])
    radii = pairwise_matrix("contextual_heuristic", queries, train[:40])
    limits = radii.min(axis=1).tolist()
    store = intern_corpus(train).store(queries)
    x_ids, y_ids = _round(store, 12, first_item=40)
    name = "contextual_heuristic"
    assert not scalar_round_cheaper(name, store, x_ids, y_ids, limits)
    # the same round's first few pairs are cheaper one by one
    assert scalar_round_cheaper(name, store, x_ids[:4], y_ids[:4], limits[:4])


def test_unmeasured_rounds_keep_the_two_pair_split():
    store = intern_corpus(["abc", "abd", "bcd", "cde"]).store(["abe"] * 4)
    x_ids, y_ids = _round(store, 4)
    for name in ("marzal_vidal", None):
        assert scalar_round_cheaper(name, store, x_ids[:2], y_ids[:2], [0.5] * 2)
        assert not scalar_round_cheaper(name, store, x_ids[:3], y_ids[:3], [0.5] * 3)
