"""The contextual distance: worked examples, Algorithm 1, the heuristic."""

import pytest
from hypothesis import given, settings

from repro.core.contextual import (
    _heuristic_tables,
    canonical_cost,
    contextual_distance,
    contextual_distance_heuristic,
    contextual_profile,
)
from repro.core.harmonic import harmonic
from repro.core.reference import dijkstra_contextual

from ..conftest import tiny_strings


class TestWorkedExamples:
    def test_paper_example_4(self):
        # d_C(ababa, baab) = 8/15 via insertion-first path
        assert contextual_distance("ababa", "baab") == pytest.approx(8 / 15)

    def test_paper_example_4_upper_path(self):
        # the other path quoted in the example costs 7/10 >= d_C
        assert contextual_distance("ababa", "baab") <= 7 / 10

    def test_identity(self):
        assert contextual_distance("abc", "abc") == 0.0
        assert contextual_distance("", "") == 0.0

    def test_empty_to_string_is_harmonic(self):
        # building y from scratch costs 1/1 + 1/2 + ... + 1/|y| = H(|y|)
        for n in (1, 2, 5, 9):
            y = "a" * n
            assert contextual_distance("", y) == pytest.approx(harmonic(n))
            assert contextual_distance(y, "") == pytest.approx(harmonic(n))

    def test_single_substitution(self):
        # a -> b: substitute at length 1, or insert+delete at 1/2 + 1/2 = 1
        assert contextual_distance("a", "b") == pytest.approx(1.0)

    def test_substitution_dilution(self):
        # in a length-10 string one substitution costs 1/10
        x = "aaaaaaaaaa"
        y = "aaaaabaaaa"
        assert contextual_distance(x, y) == pytest.approx(1 / 10)

    def test_length_sensitivity(self):
        # the same *number* of edits is cheaper on longer strings -- the
        # motivation in the paper's introduction
        short = contextual_distance("ab", "ba")
        long_ = contextual_distance("ab" * 50, "ba" + "ab" * 49)
        assert long_ < short


class TestAgainstOracle:
    @given(tiny_strings, tiny_strings)
    @settings(max_examples=60, deadline=None)
    def test_matches_dijkstra(self, x, y):
        assert contextual_distance(x, y) == pytest.approx(
            dijkstra_contextual(x, y)
        )

    def test_exhaustive_tiny_universe(self):
        universe = ["", "a", "b", "ab", "ba", "aa", "abb", "bab"]
        for x in universe:
            for y in universe:
                assert contextual_distance(x, y) == pytest.approx(
                    dijkstra_contextual(x, y)
                ), (x, y)


class TestCanonicalCost:
    def test_zero_path(self):
        assert canonical_cost(0, 0, 0, 0) == 0.0

    def test_pure_insertions(self):
        # m=0, n=3, k=3, ni=3: H(3)
        assert canonical_cost(0, 3, 3, 3) == pytest.approx(harmonic(3))

    def test_pure_deletions(self):
        assert canonical_cost(3, 0, 3, 0) == pytest.approx(harmonic(3))

    def test_infeasible_combinations(self):
        assert canonical_cost(2, 2, 1, 1) is None  # ns would be negative
        assert canonical_cost(5, 2, 2, 0) is None  # nd negative... (m-n+ni=3>k)
        assert canonical_cost(2, 2, 2, -1) is None

    def test_example4_value(self):
        # ababa -> baab with k=3, ni=1: 1/6 + 0 + (1/6 + 1/5) = 8/15
        assert canonical_cost(5, 4, 3, 1) == pytest.approx(8 / 15)

    def test_monotone_in_ni(self):
        # for fixed k, more insertions never cost more (Lemma 1 rationale)
        m, n, k = 4, 4, 6
        costs = [
            canonical_cost(m, n, k, ni)
            for ni in range(0, 4)
            if canonical_cost(m, n, k, ni) is not None
        ]
        assert costs == sorted(costs, reverse=True)


class TestProfile:
    def test_profile_contains_minimum(self):
        points = contextual_profile("ababa", "baab")
        best = min(p.cost for p in points)
        assert best == pytest.approx(contextual_distance("ababa", "baab"))

    def test_profile_k_values_start_at_edit_distance(self):
        from repro.core.levenshtein import levenshtein_distance

        points = contextual_profile("abaa", "aab")
        assert min(p.k for p in points) == levenshtein_distance("abaa", "aab")

    def test_profile_counts_consistent(self):
        for p in contextual_profile("abc", "cba"):
            assert p.ni + p.ns + p.nd == p.k
            assert p.ni - p.nd == len("cba") - len("abc")

    def test_profile_k_range(self):
        # feasible k runs from d_E up to at most |x| + |y|
        points = contextual_profile("aaa", "bbb")
        ks = sorted(p.k for p in points)
        assert ks[0] == 3  # three substitutions
        assert ks[-1] <= 6
        assert len(ks) == len(set(ks))


class TestHeuristic:
    def test_heuristic_identity(self):
        assert contextual_distance_heuristic("xyz", "xyz") == 0.0

    def test_heuristic_on_example4(self):
        # for this pair the minimum is at k = d_E, so heuristic is exact
        assert contextual_distance_heuristic("ababa", "baab") == pytest.approx(
            8 / 15
        )

    @given(tiny_strings, tiny_strings)
    @settings(max_examples=80, deadline=None)
    def test_heuristic_upper_bounds_exact(self, x, y):
        assert (
            contextual_distance_heuristic(x, y)
            >= contextual_distance(x, y) - 1e-12
        )

    def test_heuristic_tables_edit_distance(self):
        from repro.core.levenshtein import levenshtein_distance

        for x, y in [("abaa", "aab"), ("ababa", "baab"), ("", "abc"), ("a", "")]:
            k, ni = _heuristic_tables(x, y)
            assert k == levenshtein_distance(x, y)
            assert 0 <= ni <= len(y)

    def test_heuristic_max_insertions_among_optimal_paths(self):
        # ab -> ba: two optimal-path shapes; one uses an insertion
        k, ni = _heuristic_tables("ab", "ba")
        assert k == 2
        assert ni == 1  # delete a, match b, insert a

    def test_unhashable_symbols_past_the_numpy_threshold(self):
        # 280 combined symbols take the vectorised kernel, which cannot
        # hash lists; the value must match the string form's
        x, y = "ab" * 70, "ba" * 70
        want = contextual_distance_heuristic(x, y)
        got = contextual_distance_heuristic([[s] for s in x], [[s] for s in y])
        assert got == want

    def test_known_disagreement_possible(self):
        # Over many random pairs the heuristic agrees most of the time but
        # not always (the paper reports ~90%); we assert both directions:
        # high agreement, and >= 0 gap everywhere.
        import random

        rng = random.Random(5)
        total = equal = 0
        for _ in range(300):
            x = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            y = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            e = contextual_distance(x, y)
            h = contextual_distance_heuristic(x, y)
            assert h >= e - 1e-12
            total += 1
            equal += abs(h - e) <= 1e-12
        assert equal / total > 0.7


class TestKBound:
    """The k-axis pruning in contextual_distance must never change values."""

    def test_long_strings_match_unbounded_profile(self):
        import random

        rng = random.Random(17)
        for _ in range(20):
            x = "".join(rng.choice("abc") for _ in range(rng.randint(5, 14)))
            y = "".join(rng.choice("abc") for _ in range(rng.randint(5, 14)))
            via_profile = min(p.cost for p in contextual_profile(x, y))
            assert contextual_distance(x, y) == pytest.approx(via_profile)

    def test_very_unequal_lengths(self):
        # upper bound >= 2 branch: k_max collapses to m+n
        x = ""
        y = "abcdefgh" * 3
        assert contextual_distance(x, y) == pytest.approx(harmonic(len(y)))
