"""The naive ratio normalisations and the paper's counterexamples."""

import pytest
from hypothesis import given

from repro.core.levenshtein import levenshtein_distance
from repro.core.ratios import (
    TRIANGLE_COUNTEREXAMPLES,
    max_normalized_distance,
    min_normalized_distance,
    sum_normalized_distance,
    triangle_defect,
)
from ..conftest import small_strings

_BY_NAME = {
    "dsum": sum_normalized_distance,
    "dmax": max_normalized_distance,
    "dmin": min_normalized_distance,
}


class TestValues:
    def test_dsum_paper_numbers(self):
        # Section 2.2: d_sum(ab, aba) = 1/5, d_sum(aba, ba) = 1/5,
        # d_sum(ab, ba) = 2/4
        assert sum_normalized_distance("ab", "aba") == pytest.approx(1 / 5)
        assert sum_normalized_distance("aba", "ba") == pytest.approx(1 / 5)
        assert sum_normalized_distance("ab", "ba") == pytest.approx(2 / 4)

    def test_dmax_values(self):
        assert max_normalized_distance("ab", "ba") == pytest.approx(1.0)
        assert max_normalized_distance("ab", "aba") == pytest.approx(1 / 3)

    def test_dmin_counterexample_values(self):
        # x=b, y=ba, z=aa from the paper
        assert min_normalized_distance("b", "ba") == pytest.approx(1.0)
        assert min_normalized_distance("ba", "aa") == pytest.approx(0.5)
        assert min_normalized_distance("b", "aa") == pytest.approx(2.0)

    def test_empty_conventions(self):
        assert sum_normalized_distance("", "") == 0.0
        assert max_normalized_distance("", "") == 0.0
        assert min_normalized_distance("", "") == 0.0
        assert min_normalized_distance("", "a") == float("inf")

    def test_dmin_empty_sides_compare_content(self):
        # "" and () are both the empty sequence, as "ab" and ("a", "b")
        # are one sequence: 0.0, like the batch engine, not inf
        from repro.core.bounded import bounded_dmin

        for x, y in (("", ()), ((), ""), ("", []), ((), [])):
            assert min_normalized_distance(x, y) == 0.0
            assert bounded_dmin(x, y, 0.5) == 0.0
        assert min_normalized_distance((), "a") == float("inf")
        assert bounded_dmin([], ("a",), 0.5) == float("inf")

    @given(small_strings, small_strings)
    def test_dmax_bounded(self, x, y):
        assert 0.0 <= max_normalized_distance(x, y) <= 1.0


class TestCounterexamples:
    def test_all_recorded_counterexamples_violate(self):
        for name, (x, y, z) in TRIANGLE_COUNTEREXAMPLES:
            defect = triangle_defect(_BY_NAME[name], x, y, z)
            assert defect > 0, f"{name} triple {x, y, z} does not violate"

    def test_counterexamples_cover_all_three_ratios(self):
        names = {name for name, _ in TRIANGLE_COUNTEREXAMPLES}
        assert names == {"dsum", "dmax", "dmin"}

    def test_registry_marks_ratios_non_metric(self):
        from repro.core.registry import get_spec

        for name in ("dsum", "dmax", "dmin"):
            assert not get_spec(name).is_metric


class TestConsistencyWithLevenshtein:
    @given(small_strings, small_strings)
    def test_formulas(self, x, y):
        d = levenshtein_distance(x, y)
        if len(x) + len(y) > 0:
            assert sum_normalized_distance(x, y) == pytest.approx(
                d / (len(x) + len(y))
            )
        if max(len(x), len(y)) > 0:
            assert max_normalized_distance(x, y) == pytest.approx(
                d / max(len(x), len(y))
            )
        if min(len(x), len(y)) > 0:
            assert min_normalized_distance(x, y) == pytest.approx(
                d / min(len(x), len(y))
            )

    @given(small_strings, small_strings)
    def test_ordering(self, x, y):
        # d_sum <= d_max <= d_min pointwise (denominators shrink)
        s = sum_normalized_distance(x, y)
        mx = max_normalized_distance(x, y)
        mn = min_normalized_distance(x, y)
        assert s <= mx + 1e-12
        assert mx <= mn + 1e-12
