"""Numpy anti-diagonal kernels vs their pure-Python twins."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core._kernels import (
    contextual_heuristic_numpy,
    encode_pair,
    parametric_alignment_numpy,
)
from repro.core.contextual import _heuristic_tables
from repro.core.levenshtein import levenshtein_matrix
from repro.core.marzal_vidal import _parametric_best_path
from repro.core.generalized import UNIT_COSTS

from ..conftest import small_strings


class TestEncodePair:
    def test_shared_codes(self):
        cx, cy = encode_pair("aba", "bab")
        assert list(cx) == [0, 1, 0]
        assert list(cy) == [1, 0, 1]

    def test_non_string_symbols(self):
        cx, cy = encode_pair((10, 20), (20, 30))
        assert list(cx) == [0, 1]
        assert list(cy) == [1, 2]


class TestContextualHeuristicKernel:
    @given(small_strings, small_strings)
    @settings(max_examples=60, deadline=None)
    def test_matches_pure_python(self, x, y):
        assert contextual_heuristic_numpy(x, y) == _heuristic_tables(x, y)

    def test_long_random_strings(self):
        rng = random.Random(1)
        for _ in range(25):
            x = "".join(rng.choice("01234567") for _ in range(rng.randint(0, 70)))
            y = "".join(rng.choice("01234567") for _ in range(rng.randint(0, 70)))
            assert contextual_heuristic_numpy(x, y) == _heuristic_tables(x, y)

    def test_empty_inputs(self):
        assert contextual_heuristic_numpy("", "") == (0, 0)
        assert contextual_heuristic_numpy("", "ab") == (2, 2)
        assert contextual_heuristic_numpy("ab", "") == (2, 0)


class TestParametricKernel:
    @given(
        small_strings,
        small_strings,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_score_matches_pure_python(self, x, y, lam):
        w_np, l_np = parametric_alignment_numpy(x, y, lam)
        w_py, l_py = _parametric_best_path(x, y, lam, UNIT_COSTS)
        # tie-breaking may pick different optimal paths; the parametric
        # *score* W - lam*L must coincide (that is what Dinkelbach needs)
        assert w_np - lam * l_np == pytest.approx(w_py - lam * l_py, abs=1e-9)

    def test_lambda_zero_gives_levenshtein_weight(self):
        w, _ = parametric_alignment_numpy("abaa", "aab", 0.0)
        assert w == pytest.approx(2.0)
