"""LAESA: correctness vs exhaustive search, pruning power, pivot reuse,
and the request stream of the sorted candidate walk."""

import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import get_distance
from repro.index import AesaIndex, ExhaustiveIndex, LaesaIndex, select_pivots
from repro.index.base import SearchResult
from repro.shard import ShardedIndex

INF = float("inf")


@pytest.fixture
def metric_distance():
    return get_distance("contextual_heuristic")


class TestCorrectness:
    @pytest.mark.parametrize("n_pivots", [0, 1, 5, 20])
    def test_matches_exhaustive(self, small_word_list, n_pivots):
        distance = get_distance("levenshtein")
        exhaustive = ExhaustiveIndex(small_word_list, distance)
        laesa = LaesaIndex(small_word_list, distance, n_pivots=n_pivots)
        rng = random.Random(0)
        for _ in range(30):
            q = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
            truth, _ = exhaustive.nearest(q)
            found, _ = laesa.nearest(q)
            assert found.distance == pytest.approx(truth.distance), q

    def test_metric_normalised_distance(self, small_word_list, metric_distance):
        exhaustive = ExhaustiveIndex(small_word_list, metric_distance)
        laesa = LaesaIndex(small_word_list, metric_distance, n_pivots=10)
        rng = random.Random(1)
        for _ in range(20):
            q = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8)))
            truth, _ = exhaustive.nearest(q)
            found, _ = laesa.nearest(q)
            assert found.distance == pytest.approx(truth.distance), q

    def test_knn_matches_exhaustive(self, small_word_list):
        distance = get_distance("levenshtein")
        exhaustive = ExhaustiveIndex(small_word_list, distance)
        laesa = LaesaIndex(small_word_list, distance, n_pivots=8)
        truths, _ = exhaustive.knn("abde", 5)
        found, _ = laesa.knn("abde", 5)
        assert [r.distance for r in found] == pytest.approx(
            [r.distance for r in truths]
        )

    def test_query_in_database(self, small_word_list):
        distance = get_distance("levenshtein")
        laesa = LaesaIndex(small_word_list, distance, n_pivots=6)
        result, _ = laesa.nearest(small_word_list[17])
        assert result.distance == 0.0


class TestEfficiency:
    def test_pivots_reduce_computations(self, small_word_list):
        distance = get_distance("levenshtein")
        rng = random.Random(2)
        queries = [
            "".join(rng.choice("abcde") for _ in range(rng.randint(2, 8)))
            for _ in range(40)
        ]

        def average_computations(n_pivots):
            index = LaesaIndex(small_word_list, distance, n_pivots=n_pivots)
            total = 0
            for q in queries:
                _, stats = index.nearest(q)
                total += stats.distance_computations
            return total / len(queries)

        no_pivots = average_computations(0)
        with_pivots = average_computations(15)
        assert no_pivots == len(small_word_list)  # degenerates to a scan
        assert with_pivots < 0.7 * no_pivots

    def test_preprocessing_cost_is_linear_in_pivots(self, small_word_list):
        distance = get_distance("levenshtein")
        index = LaesaIndex(small_word_list, distance, n_pivots=7)
        # selection reuses the matrix rows: exactly n_pivots * n distances
        assert index.preprocessing_computations == 7 * len(small_word_list)


class TestFromPivots:
    def test_sliced_pivots_equivalent(self, small_word_list):
        distance = get_distance("levenshtein")
        indices, rows = select_pivots(
            small_word_list, distance, 12, rng=random.Random(3)
        )
        sliced = LaesaIndex.from_pivots(
            small_word_list, distance, indices[:5], rows[:5]
        )
        direct = LaesaIndex(
            small_word_list, distance, n_pivots=5, rng=random.Random(3)
        )
        rng = random.Random(4)
        for _ in range(15):
            q = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 7)))
            a, _ = sliced.nearest(q)
            b, _ = direct.nearest(q)
            assert a.distance == pytest.approx(b.distance)

    def test_mismatched_rows_rejected(self, small_word_list):
        distance = get_distance("levenshtein")
        indices, rows = select_pivots(
            small_word_list, distance, 4, rng=random.Random(5)
        )
        with pytest.raises(ValueError):
            LaesaIndex.from_pivots(small_word_list, distance, indices[:3], rows)

    def test_wrong_width_rows_rejected(self, small_word_list):
        # right row *count*, wrong row *width*: would silently broadcast
        # (or crash deep inside _search) without the shape validation
        distance = get_distance("levenshtein")
        indices, rows = select_pivots(
            small_word_list, distance, 4, rng=random.Random(6)
        )
        with pytest.raises(ValueError, match="shape"):
            LaesaIndex.from_pivots(
                small_word_list, distance, indices, rows[:, :-1]
            )

    def test_transposed_rows_rejected(self, small_word_list):
        distance = get_distance("levenshtein")
        indices, rows = select_pivots(
            small_word_list, distance, 4, rng=random.Random(7)
        )
        square = rows[:, : len(indices)]  # 4 x 4: transposed-shape trap
        with pytest.raises(ValueError, match="shape"):
            LaesaIndex.from_pivots(small_word_list, distance, indices, square)

    def test_zero_pivots_accepted(self, small_word_list):
        distance = get_distance("levenshtein")
        index = LaesaIndex.from_pivots(
            small_word_list, distance, [], np.zeros((0, len(small_word_list)))
        )
        result, stats = index.nearest("abc")
        assert stats.distance_computations == len(small_word_list)


def _reference_search_requests(index, k):
    """The elimination loop ``LaesaIndex._search_requests`` ran before the
    sorted candidate walk -- an ``alive`` mask, ``np.nonzero`` and
    ``argmin`` per comparison -- kept statement for statement (with
    ``self`` -> *index*, and the ``errstate`` this suite's
    warnings-as-errors needs) as the oracle for the new request
    stream."""
    items = index.items
    n = len(items)
    alive = np.ones(n, dtype=bool)
    bounds = np.zeros(n, dtype=float)
    pending = list(index.pivot_indices)  # alive, not-yet-compared pivots
    best = []

    def kth_best():
        return -best[0][0] if len(best) == k else float("inf")

    def record(idx, d):
        entry = (-d, -idx)
        if len(best) < k:
            heapq.heappush(best, entry)
        elif entry > best[0]:
            heapq.heapreplace(best, entry)

    current = pending[0] if pending else 0
    while True:
        alive[current] = False
        row_pos = index._pivot_position.get(current)
        if row_pos is None:
            d = yield (current, kth_best(), None)
        else:
            d = yield (current, None, row_pos)
            with np.errstate(invalid="ignore"):
                np.maximum(
                    bounds,
                    np.abs(index.pivot_rows[row_pos] - d),
                    out=bounds,
                )
        record(current, d)
        radius = kth_best()
        if radius < float("inf"):
            alive &= bounds <= radius
        next_pivot = None
        if pending:
            pending = [p for p in pending if alive[p]]
            best_bound = float("inf")
            for p in pending:
                if bounds[p] < best_bound:
                    best_bound = bounds[p]
                    next_pivot = p
        if next_pivot is not None:
            current = next_pivot
            continue
        candidates = np.nonzero(alive)[0]
        if len(candidates) == 0:
            break
        current = int(candidates[np.argmin(bounds[candidates])])
    ordered = sorted((-nd, -nidx) for nd, nidx in best)
    return [
        SearchResult(item=items[idx], index=idx, distance=d)
        for d, idx in ordered
    ]


def _stream(index, generator, query):
    """Drive *generator* as the scalar search does (exact calls for
    ``limit=None``, the early-exit twin otherwise); return every request
    it yielded and its answers as ``(index, distance)`` pairs."""
    requests = []
    value = None
    while True:
        try:
            request = generator.send(value)
        except StopIteration as stop:
            return requests, [(r.index, r.distance) for r in stop.value]
        requests.append(request)
        idx, limit, _ = request
        item = index.items[idx]
        if limit is None:
            value = index._counter(query, item)
        else:
            value = index._counter.within(query, item, limit)


def _assert_matches_reference(index, query, k):
    new = _stream(index, index._search_requests(k), query)
    assert new == _stream(index, _reference_search_requests(index, k), query)
    return new


_stream_word = st.text(alphabet="abc", max_size=5)  # empty strings included


class TestRequestStream:
    """The sorted walk yields exactly the requests, in exactly the order,
    of the per-comparison ``alive`` / ``argmin`` loop it replaced."""

    @given(
        data=st.data(),
        items=st.lists(_stream_word, min_size=1, max_size=14),
        query=_stream_word,
        name=st.sampled_from(
            ["levenshtein", "dmax", "dmin", "contextual_heuristic"]
        ),
        n_pivots=st.sampled_from([0, 1, 3, 8, "n"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, data, items, query, name, n_pivots):
        n = len(items)
        pivots = n if n_pivots == "n" else min(n_pivots, n)
        k = data.draw(st.integers(1, n), label="k")
        index = LaesaIndex(items, name, n_pivots=pivots)
        _assert_matches_reference(index, query, k)

    def test_nan_bounds_come_first_while_radius_is_infinite(self):
        # d_min(q, "ab") = inf and d_min("ab", "") = inf, so the empty
        # items get the bound |inf - inf| = NaN: the argmin the walk
        # replaces picks them before any finite or infinite bound, but
        # only while the radius is infinite -- the third empty item is
        # eliminated once two zeros have made it finite
        items = ["ab", "ba", "", "abc", "", "b", ""]
        distance = get_distance("dmin")
        row = np.array([[distance(items[0], u) for u in items]])
        index = LaesaIndex.from_pivots(items, distance, [0], row)
        requests, answers = _assert_matches_reference(index, "", 2)
        assert requests == [(0, None, 0), (2, INF, None), (4, INF, None)]
        assert answers == [(2, 0.0), (4, 0.0)]

    def test_pivot_reached_through_the_candidate_path(self):
        # Pivot "r" has an infinite bound after pivot "p", so the pivot
        # rule never picks it; the candidate walk reaches it by index
        # while the radius is infinite.  Its comparison turns c's bound
        # into NaN, which must move c ahead of a and b.
        far = {
            ("q", "p"): INF, ("q", "r"): INF,
            ("q", "a"): 2.0, ("q", "b"): 3.0, ("q", "c"): 4.0,
            ("r", "c"): INF,
        }

        def table(x, y):
            if x == y:
                return 0.0
            return far.get((x, y), far.get((y, x), 1.0))

        items = ["p", "r", "a", "b", "c"]
        rows = np.array([[table(p, u) for u in items] for p in "pr"])
        index = LaesaIndex.from_pivots(items, table, [0, 1], rows)
        requests, answers = _assert_matches_reference(index, "q", 3)
        assert requests == [
            (0, None, 0),
            (1, None, 1),
            (4, INF, None),
            (2, INF, None),
            (3, INF, None),
        ]
        assert answers == [(2, 2.0), (3, 3.0), (4, 4.0)]


def _answers(rows):
    return [
        ([(r.index, r.distance) for r in results], stats.distance_computations)
        for results, stats in rows
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dmin_with_empty_strings_agrees_across_entry_points():
    """d_min is infinite between an empty and a non-empty string, so
    bounds hit ``inf - inf``: no warning escapes, and the scalar loops,
    the lockstep bulk calls and the sharded tier agree on answers and
    counts, for k-NN and range search (AESA's bounds hit the same
    ``inf - inf``)."""
    words = ["", "ab", "abc", "b", "", "ca", "abcd", "bca", "x", "cab", "a", "bb"]
    queries = ["", "ab", "c", "abca", "", "bb"]
    flat = LaesaIndex(words, "dmin", n_pivots=4)
    sharded = ShardedIndex(
        words, "dmin", shards=2, structure="laesa",
        structure_params={"n_pivots": 3},
    )
    # the empty words' bounds are NaN against the empty query; NaN proves
    # nothing, so range search must still compare (and find) them
    hits, _ = flat.range_search("", 0.5)
    assert [r.index for r in hits] == [0, 4]
    aesa = AesaIndex(words, "dmin")
    for index in (flat, sharded, aesa):
        for k in (1, 3, len(words)):
            loop = [index.knn(q, k) for q in queries]
            assert _answers(index.bulk_knn(queries, k)) == _answers(loop)
        for radius in (0.5, 1.0, INF):
            loop = [index.range_search(q, radius) for q in queries]
            bulk = index.bulk_range_search(queries, radius)
            assert _answers(bulk) == _answers(loop)
    # AESA's elimination keeps NaN bounds too, so its range hits are the
    # exhaustive scan's ("ab" at 0.5 finds 1, 2, 9 and 11)
    exhaustive = ExhaustiveIndex(words, "dmin")
    for q in queries:
        for radius in (0.5, 1.0, INF):
            want = [(r.index, r.distance) for r in exhaustive.range_search(q, radius)[0]]
            got = [(r.index, r.distance) for r in aesa.range_search(q, radius)[0]]
            assert got == want, (q, radius)


def _hex(results):
    return [(r.index, float(r.distance).hex()) for r in results]


def _hand_off_after(index, generator, query, j):
    """Drive *generator* as the scalar search does (exact calls for
    ``limit=None``, the early-exit twin otherwise) for its first *j*
    requests, then hand over the query's exact row as the value of the
    next one.  Returns the answers as ``(index, distance.hex())`` and the
    requests answered, before and from the row."""
    counter = index._counter
    row = np.array([counter._distance(query, item) for item in index.items])
    value = None
    count = 0
    while True:
        try:
            idx, limit, _ = generator.send(value)
        except StopIteration as stop:  # finished before the hand-off
            return _hex(stop.value), count
        if count == j:
            try:
                generator.send(row)
            except StopIteration as stop:
                results, answered = stop.value
                return _hex(results), count + answered
            raise AssertionError("the generator kept requesting after its row")
        count += 1
        item = index.items[idx]
        if limit is None:
            value = counter._distance(query, item)
        else:
            value = counter.peek_within(query, item, limit)


#: short words over two symbols: duplicates (ties) and empty strings
_tie_word = st.text(alphabet="ab", max_size=4)


class TestRowHandOff:
    """A row handed over after any number of requests finishes the
    search exactly as the scalar search does: the same answers, bit for
    bit, and the same count."""

    @given(
        data=st.data(),
        items=st.lists(_tie_word, min_size=1, max_size=12),
        query=_tie_word,
        name=st.sampled_from(["levenshtein", "dmax", "dmin"]),
        pivots=st.sampled_from(["0", "1", "k", "n"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_knn_matches_scalar_search_at_every_request(
        self, data, items, query, name, pivots
    ):
        n = len(items)
        k = data.draw(st.integers(1, n), label="k")
        n_pivots = {"0": 0, "1": 1, "k": k, "n": n}[pivots]
        index = LaesaIndex(items, name, n_pivots=n_pivots)
        want, stats = index.knn(query, k)
        for j in range(stats.distance_computations + 1):
            got = _hand_off_after(index, index._search_requests(k), query, j)
            assert got == (_hex(want), stats.distance_computations), j

    @given(
        data=st.data(),
        items=st.lists(_tie_word, min_size=1, max_size=12),
        query=_tie_word,
        name=st.sampled_from(["levenshtein", "dmax", "dmin"]),
        pivots=st.sampled_from(["0", "1", "2", "n"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_matches_scalar_search_at_every_request(
        self, data, items, query, name, pivots
    ):
        n = len(items)
        n_pivots = {"0": 0, "1": 1, "2": min(2, n), "n": n}[pivots]
        index = LaesaIndex(items, name, n_pivots=n_pivots)
        distance = get_distance(name)
        # a radius equal to one of the query's distances
        radius = data.draw(
            st.sampled_from(sorted({distance(query, u) for u in items})),
            label="radius",
        )
        want, stats = index.range_search(query, radius)
        for j in range(stats.distance_computations + 1):
            got = _hand_off_after(
                index, index._range_requests(radius), query, j
            )
            assert got == (_hex(want), stats.distance_computations), j

    def test_dmin_empty_strings_step_from_the_row(self, monkeypatch):
        # the example of test_nan_bounds_come_first_while_radius_is_infinite:
        # the empty items' bounds are NaN and the others' infinite, so no
        # live slice is finite and the walk steps from the row to its end
        import repro.index.laesa as laesa

        calls = []
        real = laesa._walk_on_row

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(laesa, "_walk_on_row", spy)
        items = ["ab", "ba", "", "abc", "", "b", ""]
        distance = get_distance("dmin")
        row = np.array([[distance(items[0], u) for u in items]])
        index = LaesaIndex.from_pivots(items, distance, [0], row)
        want, stats = index.knn("", 2)
        for j in range(stats.distance_computations):
            got = _hand_off_after(index, index._search_requests(2), "", j)
            assert got == (_hex(want), stats.distance_computations), j
        assert not calls

    def test_finite_slice_finishes_in_one_pass(self, monkeypatch):
        import repro.index.laesa as laesa

        calls = []
        real = laesa._walk_on_row

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(laesa, "_walk_on_row", spy)
        items = ["abab", "ab", "ba", "aab", "abb", "b", "ab", "bba", "aaa"]
        index = LaesaIndex(items, "levenshtein", n_pivots=2)
        want, stats = index.knn("abb", 3)
        got = _hand_off_after(index, index._search_requests(3), "abb", 2)
        assert got == (_hex(want), stats.distance_computations)
        assert len(calls) == 1
