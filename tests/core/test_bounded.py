"""Early-exit distances: exact under the limit, above it when pruning."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.levenshtein as levenshtein_module
from repro.core import bounded_for, get_spec, levenshtein_bounded
from repro.core.bounded import (
    _banded_heuristic_tables,
    bounded_contextual_heuristic,
    bounded_dmax,
    bounded_dmin,
    bounded_dsum,
    bounded_levenshtein,
    bounded_marzal_vidal,
    bounded_yujian_bo,
    contextual_edit_budget,
    contextual_heuristic_from_edits,
    contextual_pruned_value,
)
from repro.core.contextual import (
    canonical_cost,
    contextual_distance_heuristic,
)
from repro.core.levenshtein import levenshtein_distance
from repro.core.types import require_strings

from ..conftest import small_strings

#: Registry entries that ship an early-exit twin.
BOUNDED_NAMES = ("levenshtein", "dmax", "dsum", "dmin", "yujian_bo")


class TestLevenshteinBounded:
    @given(small_strings, small_strings, st.integers(0, 10))
    @settings(max_examples=300, deadline=None)
    def test_contract(self, x, y, limit):
        d = levenshtein_distance(x, y)
        value = levenshtein_bounded(x, y, limit)
        if d <= limit:
            assert value == d
        else:
            assert value > limit

    def test_exact_below_limit(self):
        assert levenshtein_bounded("abaa", "aab", 2) == 2
        assert levenshtein_bounded("abaa", "aab", 100) == 2

    def test_prunes_above_limit(self):
        assert levenshtein_bounded("aaaa", "bbbb", 1) > 1

    def test_length_gap_lower_bound(self):
        # |x| - |y| = 17 is itself a lower bound and survives the prune
        assert levenshtein_bounded("a" * 20, "abc", 2) >= 17

    def test_negative_limit(self):
        assert levenshtein_bounded("a", "a", -1) == 0
        assert levenshtein_bounded("a", "b", -1) > -1

    def test_float_limit(self):
        assert levenshtein_bounded("abaa", "aab", 2.7) == 2


class TestBoundedTwins:
    @pytest.mark.parametrize("name", BOUNDED_NAMES)
    def test_randomised_contract(self, name):
        spec = get_spec(name)
        bounded = bounded_for(spec.function)
        assert bounded is not None
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(400):
            x = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
            y = "".join(rng.choice("abc") for _ in range(rng.randint(0, 9)))
            limit = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 2.0, 5.0])
            exact = spec.function(x, y)
            value = bounded(x, y, limit)
            if exact <= limit:
                assert value == exact, (name, x, y, limit)
            else:
                assert value > limit, (name, x, y, limit)

    def test_dmin_empty_string_infinity(self):
        assert bounded_dmin("", "abc", 0.5) == float("inf")
        assert bounded_dmin("", "", 0.5) == 0.0

    def test_yujian_bo_saturated_limit_is_exact(self):
        spec = get_spec("yujian_bo")
        assert bounded_yujian_bo("abc", "xyz", 1.0) == spec.function("abc", "xyz")

    def test_registry_wiring(self):
        for name, twin in zip(
            BOUNDED_NAMES,
            (
                bounded_levenshtein,
                bounded_dmax,
                bounded_dsum,
                bounded_dmin,
                bounded_yujian_bo,
            ),
        ):
            spec = get_spec(name)
            assert spec.bounded is twin
            assert bounded_for(spec.function) is twin

    def test_unbounded_distances_have_no_twin(self):
        # exact d_C is the only paper distance without an early-exit twin
        assert get_spec("contextual").bounded is None
        assert bounded_for(get_spec("contextual").function) is None

    def test_normalised_table2_distances_have_twins(self):
        for name in ("contextual_heuristic", "marzal_vidal"):
            spec = get_spec(name)
            assert spec.bounded is not None
            assert bounded_for(spec.function) is spec.bounded


#: (alphabet, max_length, rng seed) regimes matching the paper's three
#: datasets.  Seeds are explicit: ``hash(str)`` is salted per process, so
#: seeding from it would make the sampled pairs differ run to run.
_REGIMES = (
    ("01234567", 12, 0xD161),  # digit-contour chain codes
    ("acgt", 14, 0xD9A),  # DNA
    ("abcde", 10, 0x30BD),  # dictionary words
)

#: Pruned twin values are exact-arithmetic lower bounds of the true
#: distance, but the "exact" side accumulates harmonic sums (d_C,h) or
#: Dinkelbach iterates (d_MV) in floats, so the computed exact value may
#: sit an ulp or two below the bound's directly-rounded closed form.
_LOWER_BOUND_ULPS = 1e-9


def _random_pairs(rng, alphabet, max_len, count):
    for _ in range(count):
        x = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        y = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        yield x, y


class TestBoundedContextualHeuristic:
    """The banded twin-table twin of the paper's best distance d_C,h."""

    @given(small_strings, small_strings, st.floats(0.0, 2.2))
    @settings(max_examples=250, deadline=None)
    def test_contract(self, x, y, limit):
        exact = get_spec("contextual_heuristic").function(x, y)
        value = bounded_contextual_heuristic(x, y, limit)
        if exact <= limit:
            assert value == exact
        else:
            assert value > limit
            # pruned values are lower bounds (up to harmonic-sum rounding)
            assert value <= exact + _LOWER_BOUND_ULPS

    @pytest.mark.parametrize("alphabet,max_len,seed", _REGIMES)
    def test_randomised_regimes(self, alphabet, max_len, seed):
        fn = get_spec("contextual_heuristic").function
        rng = random.Random(seed)
        for x, y in _random_pairs(rng, alphabet, max_len, 300):
            limit = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9, 1.3, 2.0, 5.0])
            exact = fn(x, y)
            value = bounded_contextual_heuristic(x, y, limit)
            if exact <= limit:
                assert value == exact, (x, y, limit)
            else:
                assert exact + _LOWER_BOUND_ULPS >= value > limit, (x, y, limit)

    def test_equal_strings_are_zero(self):
        assert bounded_contextual_heuristic("abc", "abc", 0.0) == 0.0
        assert bounded_contextual_heuristic("", "", 0.5) == 0.0

    def test_saturated_limit_is_exact(self):
        fn = get_spec("contextual_heuristic").function
        assert bounded_contextual_heuristic("abc", "xyz", 2.0) == fn("abc", "xyz")

    def test_length_gap_prunes_without_dp(self):
        # |x| - |y| = 17 busts any small budget before a single DP row
        value = bounded_contextual_heuristic("a" * 20, "abc", 0.1)
        assert value > 0.1

    def test_budget_inversion(self):
        # the pruned value at budget k is strictly above any limit whose
        # budget is k -- the inversion bounded dispatch relies on
        for total in (2, 7, 31, 200):
            for limit in (0.0, 0.05, 0.3, 0.9, 1.7):
                k = contextual_edit_budget(limit, total)
                if k < total:
                    assert contextual_pruned_value(k, total) > limit


def _reference_bounded_contextual_heuristic(x, y, limit):
    """``bounded_contextual_heuristic`` before its ``d_E`` check: the
    twin tables fill the band of the whole edit budget to find out
    whether ``d_E`` fits it."""
    x, y = require_strings(x, y)
    if x == y:
        return 0.0
    m, n = len(x), len(y)
    total = m + n
    k = contextual_edit_budget(limit, total)
    if k >= total:
        return contextual_distance_heuristic(x, y)
    if k < 0 or abs(m - n) > k:
        return contextual_pruned_value(max(k, abs(m - n) - 1), total)
    tables = _banded_heuristic_tables(x, y, k)
    if tables is None:
        return contextual_pruned_value(k, total)
    d_e, ni = tables
    cost = canonical_cost(m, n, d_e, ni)
    assert cost is not None
    return cost


@st.composite
def _twin_requests(draw):
    """``(x, y, limit)`` over 1-8 symbols and lengths 0-150, the limit
    aimed at an edit budget drawn from ``[-1, |x| + |y|]`` or next to
    ``d_E`` so every branch is reached: ``k < 0``, ``|m - n| > k``, the
    band (``d_E`` within or over budget) and ``k >= total``."""
    symbols = st.sampled_from("abcdefgh"[: draw(st.integers(1, 8))])

    def text(length):
        return "".join(draw(st.lists(symbols, min_size=length, max_size=length)))

    x = text(draw(st.integers(0, 150)))
    if draw(st.booleans()):
        y = text(draw(st.integers(0, 150)))
    else:  # a few edits away, so d_E often fits a small budget
        chars = list(x)
        edits = st.tuples(st.integers(0, 150), symbols, st.integers(0, 2))
        for position, symbol, op in draw(st.lists(edits, min_size=1, max_size=12)):
            at = position % (len(chars) + 1)
            if op == 0:
                chars.insert(at, symbol)
            elif at < len(chars):
                if op == 1:
                    del chars[at]
                else:
                    chars[at] = symbol
        y = "".join(chars)
    total = len(x) + len(y)
    d_e = levenshtein_distance(x, y)
    k = draw(
        st.one_of(
            st.integers(-1, total),
            # budgets either side of d_E: the check's pass/fail boundary
            st.integers(max(-1, d_e - 3), min(total, d_e + 2)),
        )
    )
    if k < 0:
        limit = -draw(st.floats(1e-6, 2.0))
    elif k >= total:
        limit = draw(st.floats(1.0, 3.0))
    else:
        # d_C,h <= limit forces d_E <= limit * total / (2 - limit)
        budget = k + draw(st.floats(0.0, 0.99))
        limit = 2.0 * budget / (total + budget)
    return x, y, limit


class TestGatedContextualTwin:
    """The ``d_E``-checked twin returns the pre-check twin's floats, bit
    for bit: the check is the twin's own ``d_E <= k`` test made cheaper,
    and the band of the exact ``d_E`` yields the budget band's integers."""

    @given(_twin_requests())
    @example(("abc", "abd", -0.5))  # k < 0
    @example(("a" * 20, "abc", 0.1))  # |m - n| > k
    @example(("abcabc", "abcbbc", 0.3))  # band, d_E within budget
    @example(("aaaaaa", "bbbbbb", 0.3))  # band, d_E over budget
    @example(("abc", "xyz", 2.0))  # k >= total
    @example(("", "abc", 1.5))  # empty side
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, request):
        x, y, limit = request
        got = bounded_contextual_heuristic(x, y, limit)
        want = _reference_bounded_contextual_heuristic(x, y, limit)
        assert got.hex() == want.hex(), (x, y, limit)

    @given(_twin_requests())
    @example(("abcabc", "abcbbc", 0.3))
    @example(("aaaaaa", "bbbbbb", 0.3))
    @example(("ab" * 70, "ba" * 70, 1.5))  # k >= total past numpy's threshold
    @settings(max_examples=100, deadline=None)
    def test_list_symbols_bit_identical(self, request):
        # lists of lists are unhashable: the check codes them by equality
        x, y, limit = request
        lx, ly = [[s] for s in x], [[s] for s in y]
        got = bounded_contextual_heuristic(lx, ly, limit)
        want = _reference_bounded_contextual_heuristic(lx, ly, limit)
        assert got.hex() == want.hex(), (x, y, limit)
        assert got.hex() == bounded_contextual_heuristic(x, y, limit).hex()

    def test_list_symbols_take_the_equality_code_path(self, monkeypatch):
        calls = []
        codes = levenshtein_module._equality_codes

        def spy(x, y):
            calls.append((x, y))
            return codes(x, y)

        monkeypatch.setattr(levenshtein_module, "_equality_codes", spy)
        x, y = [[1], [2], [3], [4]], [[1], [2], [5], [4]]
        want = _reference_bounded_contextual_heuristic(x, y, 0.6)
        assert bounded_contextual_heuristic(x, y, 0.6).hex() == want.hex()
        assert len(calls) == 1


class TestBoundedMarzalVidal:
    """The banded parametric-probe twin of d_MV."""

    @given(small_strings, small_strings, st.floats(0.0, 1.1))
    @settings(max_examples=150, deadline=None)
    def test_contract(self, x, y, limit):
        exact = get_spec("marzal_vidal").function(x, y)
        value = bounded_marzal_vidal(x, y, limit)
        if exact <= limit:
            assert value == exact
        else:
            assert value > limit
            assert value <= exact + _LOWER_BOUND_ULPS

    @pytest.mark.parametrize("alphabet,max_len,seed", _REGIMES)
    def test_randomised_regimes(self, alphabet, max_len, seed):
        fn = get_spec("marzal_vidal").function
        rng = random.Random(seed ^ 0x5A5A)
        for x, y in _random_pairs(rng, alphabet, max_len, 200):
            limit = rng.choice([0.0, 0.1, 0.25, 0.4, 0.6, 0.9, 1.0])
            exact = fn(x, y)
            value = bounded_marzal_vidal(x, y, limit)
            if exact <= limit:
                assert value == exact, (x, y, limit)
            else:
                assert exact + _LOWER_BOUND_ULPS >= value > limit, (x, y, limit)

    def test_long_strings_numpy_probe(self):
        # wide-band long pairs route through the anti-diagonal parametric
        # kernel; the contract must be indistinguishable
        fn = get_spec("marzal_vidal").function
        rng = random.Random(0xD0)
        for _ in range(8):
            x = "".join(rng.choice("acgt") for _ in range(rng.randint(60, 90)))
            y = "".join(rng.choice("acgt") for _ in range(rng.randint(60, 90)))
            for limit in (0.2, 0.5, 0.8):
                exact = fn(x, y)
                value = bounded_marzal_vidal(x, y, limit)
                if exact <= limit:
                    assert value == exact
                else:
                    assert exact + _LOWER_BOUND_ULPS >= value > limit

    def test_saturated_limit_is_exact(self):
        fn = get_spec("marzal_vidal").function
        assert bounded_marzal_vidal("abc", "xyz", 1.0) == fn("abc", "xyz")

    def test_equal_strings_are_zero(self):
        assert bounded_marzal_vidal("abab", "abab", 0.0) == 0.0


@st.composite
def _edit_decided_requests(draw):
    """``(x, y, limit)`` over 1-3 symbols, empty and equal pairs
    included, with a length gap past any small budget a quarter of the
    time; the limit below 0, at ``inf``, at or above 2, equal to an
    attainable value (the pair's own ``d_C,h``, or a pruned value of its
    length total) or anywhere in ``[0, 2)``."""
    text = st.text(alphabet=draw(st.sampled_from(["a", "ab", "abc"])), max_size=40)
    x = draw(text)
    y = draw(
        st.one_of(
            text,
            st.just(x),
            st.integers(0, len(x) // 4).map(lambda cut: x[:cut]),
        )
    )
    total = len(x) + len(y)
    limit = draw(
        st.one_of(
            st.floats(-3.0, -1e-9),
            st.just(float("inf")),
            st.floats(2.0, 8.0),
            st.just(contextual_distance_heuristic(x, y)),
            st.integers(0, total).map(lambda k: contextual_pruned_value(k, total)),
            st.floats(0.0, 2.0, exclude_max=True),
        )
    )
    return x, y, limit


class TestDecidedFromEdits:
    """A request decided from the pair's exact ``d_E`` -- as the lockstep
    driver's check rows hand it over -- returns the twin's float, bit
    for bit; so does one whose ``d_E`` is known only to bust the
    budget."""

    @given(_edit_decided_requests())
    @example(("", "", -1.0))  # equal and empty, below 0
    @example(("abc", "abc", -0.5))  # equal, below 0
    @example(("aaaaaaaaaaaa", "a", 0.2))  # length gap past the budget
    @example(("abab", "baba", float("inf")))
    @example(("abab", "baba", 2.0))
    @example(("ab", "ba", contextual_distance_heuristic("ab", "ba")))
    @example(("aabb", "abab", contextual_pruned_value(1, 8)))
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_the_twin(self, request):
        x, y, limit = request
        d_e = levenshtein_distance(x, y)
        want = bounded_contextual_heuristic(x, y, limit)
        got = contextual_heuristic_from_edits(x, y, limit, d_e)
        assert got.hex() == want.hex(), (x, y, limit)
        if x != y and d_e > contextual_edit_budget(limit, len(x) + len(y)):
            unknown = contextual_heuristic_from_edits(x, y, limit, None)
            assert unknown.hex() == want.hex(), (x, y, limit)
