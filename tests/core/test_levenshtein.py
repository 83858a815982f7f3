"""Levenshtein distance, DP matrix, edit scripts and alignments."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.levenshtein import (
    alignment,
    edit_script,
    internal_path_length,
    levenshtein_distance,
    levenshtein_matrix,
    levenshtein_within,
)
from repro.core.paths import apply_ops
from repro.core.reference import dijkstra_edit

from ..conftest import small_strings, tiny_strings


class TestDistanceValues:
    def test_paper_example_1(self):
        # Example 1 of the paper
        assert levenshtein_distance("abaa", "aab") == 2

    def test_paper_example_2_upper_bound(self):
        # Example 2: d_E(abaa, baab) <= 3 (it is exactly 2: delete leading
        # a, append b? abaa -> baa -> baab: 2 operations)
        assert levenshtein_distance("abaa", "baab") <= 3

    def test_identity(self):
        assert levenshtein_distance("kitten", "kitten") == 0

    def test_classic_kitten(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_empty_vs_empty(self):
        assert levenshtein_distance("", "") == 0

    def test_empty_vs_string(self):
        assert levenshtein_distance("", "abcde") == 5
        assert levenshtein_distance("abcde", "") == 5

    def test_single_substitution(self):
        assert levenshtein_distance("a", "b") == 1

    def test_completely_different(self):
        assert levenshtein_distance("aaaa", "bbbb") == 4

    @given(tiny_strings, tiny_strings)
    def test_matches_dijkstra_oracle(self, x, y):
        assert levenshtein_distance(x, y) == pytest.approx(dijkstra_edit(x, y))

    @given(small_strings, small_strings)
    def test_symmetry(self, x, y):
        assert levenshtein_distance(x, y) == levenshtein_distance(y, x)

    @given(small_strings, small_strings, small_strings)
    def test_triangle_inequality(self, x, y, z):
        assert levenshtein_distance(x, z) <= levenshtein_distance(
            x, y
        ) + levenshtein_distance(y, z)

    @given(small_strings, small_strings)
    def test_bounds(self, x, y):
        d = levenshtein_distance(x, y)
        assert abs(len(x) - len(y)) <= d <= max(len(x), len(y))


class TestMatrix:
    def test_corner_values(self):
        d = levenshtein_matrix("abaa", "aab")
        assert d[0][0] == 0
        assert d[4][3] == 2
        assert d[4][0] == 4  # delete everything
        assert d[0][3] == 3  # insert everything

    def test_row_zero_and_column_zero(self):
        d = levenshtein_matrix("xyz", "ab")
        assert [d[i][0] for i in range(4)] == [0, 1, 2, 3]
        assert d[0] == [0, 1, 2]

    @given(small_strings, small_strings)
    def test_matrix_agrees_with_distance(self, x, y):
        d = levenshtein_matrix(x, y)
        assert d[len(x)][len(y)] == levenshtein_distance(x, y)


class TestLevenshteinWithin:
    def test_within_and_beyond(self):
        assert levenshtein_within("abaa", "aab", 2) == 2
        assert levenshtein_within("abaa", "aab", 3) == 2
        assert levenshtein_within("abaa", "aab", 1) is None

    def test_length_difference_shortcut(self):
        assert levenshtein_within("a", "abcdef", 3) is None

    def test_zero_bound(self):
        assert levenshtein_within("same", "same", 0) == 0
        assert levenshtein_within("same", "sane", 0) is None

    def test_empty_strings(self):
        assert levenshtein_within("", "", 0) == 0
        assert levenshtein_within("", "ab", 2) == 2
        assert levenshtein_within("ab", "", 1) is None

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            levenshtein_within("a", "b", -1)

    @given(small_strings, small_strings)
    def test_agrees_with_full_dp(self, x, y):
        d = levenshtein_distance(x, y)
        for bound in range(0, len(x) + len(y) + 1):
            banded = levenshtein_within(x, y, bound)
            if d <= bound:
                assert banded == d
            else:
                assert banded is None

    def test_long_strings_early_exit(self):
        # grossly different long strings: the band dies early
        x = "a" * 400
        y = "b" * 400
        assert levenshtein_within(x, y, 5) is None


def _sequences(symbols, max_size):
    """Lists of *symbols* with a length drawn uniformly-ish from
    [0, max_size] (plain ``st.lists`` favours short lists)."""
    length = st.integers(0, max_size)
    return length.flatmap(
        lambda n: st.lists(symbols, min_size=n, max_size=n)
    )


#: Strings with non-BMP code points (surrogate-free astral symbols).
_ASTRAL_TEXT = _sequences(st.sampled_from("ab\U0001d538\U0001f600"), 200).map(
    "".join
)
_INT_TUPLES = _sequences(st.integers(0, 3), 200).map(tuple)
#: Unhashable symbols: the core codes them by an equality scan.
_LIST_SYMBOLS = _sequences(st.lists(st.integers(0, 1), max_size=1), 60)


class TestBitParallelCore:
    """The bit-parallel core behind ``levenshtein_distance`` and
    ``levenshtein_within`` against the full Wagner--Fischer table, at
    every bound from 0 to ``m + n + 1``."""

    @staticmethod
    def _check(x, y, bounds=None, d=None):
        if d is None:
            d = levenshtein_matrix(x, y)[len(x)][len(y)]
        assert levenshtein_distance(x, y) == d
        for bound in bounds or range(len(x) + len(y) + 2):
            assert levenshtein_within(x, y, bound) == (d if d <= bound else None)

    @given(st.one_of(_ASTRAL_TEXT, _INT_TUPLES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_at_every_bound(self, x, data):
        # the second side shares the first's type and alphabet
        if isinstance(x, str):
            y = data.draw(_ASTRAL_TEXT)
        else:
            y = data.draw(_INT_TUPLES)
        self._check(x, y)

    @given(_LIST_SYMBOLS, _LIST_SYMBOLS)
    @settings(max_examples=40, deadline=None)
    def test_unhashable_symbols_match_matrix(self, x, y):
        self._check(x, y)

    @pytest.mark.parametrize("edits", [3, None])
    def test_long_sequences_span_many_int_digits(self, edits):
        # 1000+ rows: every bit vector spans dozens of 30-bit int digits
        rng = random.Random(edits or 0)
        x = "".join(rng.choice("acgt") for _ in range(1000))
        if edits is None:
            y = "".join(rng.choice("acgt") for _ in range(1040))
        else:
            y = list(x)
            for _ in range(edits):
                y.insert(rng.randrange(len(y)), "n")
            y = "".join(y)
        d = levenshtein_matrix(x, y)[len(x)][len(y)]
        total = len(x) + len(y)
        self._check(x, y, [*range(d + 3), d + 40, total // 2, total + 1], d)


class TestEditScript:
    def test_script_replays_to_target(self):
        path = edit_script("abaa", "aab")
        assert apply_ops("abaa", path.ops) == tuple("aab")

    def test_script_weight_is_distance(self):
        path = edit_script("abaa", "aab")
        assert path.edit_weight == 2

    @given(small_strings, small_strings)
    def test_script_always_valid(self, x, y):
        path = edit_script(x, y)
        assert apply_ops(x, path.ops) == tuple(y)
        assert path.edit_weight == levenshtein_distance(x, y)

    @given(small_strings, small_strings)
    def test_marked_length_bounds(self, x, y):
        # l_E is between max(|x|,|y|) (all columns) and |x|+|y|
        length = internal_path_length(x, y)
        if x or y:
            assert max(len(x), len(y)) <= length <= len(x) + len(y)
        else:
            assert length == 0


class TestAlignment:
    def test_paper_style_alignment(self):
        top, mid, bot = alignment("abaa", "aab")
        assert top.replace(".", "") == "abaa"
        assert bot.replace(".", "") == "aab"
        assert len(top) == len(mid) == len(bot)

    def test_markers_consistent(self):
        _, mid, _ = alignment("abc", "abc")
        assert mid == "|||"

    def test_insert_and_delete_markers(self):
        top, mid, bot = alignment("a", "ab")
        assert "+" in mid
        top, mid, bot = alignment("ab", "a")
        assert "-" in mid
