"""Narrow cells of the integer anti-diagonal sweeps.

Each sweep stores its cells in the narrowest dtype holding ``inf + K``
(:func:`repro.batch.kernels._cells`).  The twin tables switch from
``uint16`` to ``int32`` where the padded widths reach ``M + N = 254``, so
the sweeps run on buckets of exactly 253 and 254, with the largest packs
there are: disjoint alphabets (``d_E = max(m, n)``), one-symbol
alphabets, empty sides and equal pairs.  A decode that negates an
unsigned pack fails there.  The largest value the sweeps actually
compute is ``inf + K - 1`` (a sentinel's step is added after the
minimum with a real neighbour), so only the pinned choices of the
helper show a ``uint16`` limit one step too high.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.kernels import (
    _cells,
    _contextual_swept,
    _levenshtein_swept_bounded,
    _swept_bounded,
    encode_batch,
)
from repro.core.bounded import _banded_heuristic_tables
from repro.core.contextual import _heuristic_tables
from repro.core.levenshtein import levenshtein_distance, levenshtein_within


class TestCellType:
    def test_twin_tables_switch_after_253(self):
        assert _cells(253, packed=True) == (np.uint16, 255, 254 * 255)
        assert _cells(254, packed=True)[0] is np.int32

    def test_contour_bucket_is_uint16(self):
        # perfbench digits-classify: contours of 40-110 symbols, so no
        # bucket pads past 110 + 110
        assert _cells(110 + 110, packed=True)[0] is np.uint16

    def test_dna_bucket_is_int32(self):
        # bench_pairwise_batch.py full run: DNA of 90-160 symbols
        assert _cells(160 + 160, packed=True)[0] is np.int32
        assert _cells(90 + 164, packed=True)[0] is np.int32

    def test_twin_tables_int64_once_the_square_passes_2_31(self):
        assert (46338 + 2) ** 2 < 2**31 <= (46339 + 2) ** 2
        assert _cells(46338, packed=True)[0] is np.int32
        assert _cells(46339, packed=True)[0] is np.int64

    def test_levenshtein_switches_at_65533(self):
        assert _cells(65532, packed=False) == (np.uint16, 1, 65534)
        assert _cells(65533, packed=False)[0] is np.int32
        assert _cells(2**31 - 4, packed=False)[0] is np.int32
        assert _cells(2**31 - 3, packed=False)[0] is np.int64

    def test_every_cell_fits(self):
        for width in (0, 1, 200, 253, 254, 4000, 46338, 46339, 65533):
            for packed in (True, False):
                cell, K, inf = _cells(width, packed)
                assert inf + K <= np.iinfo(cell).max


def _word(rng, alphabet, length):
    return "".join(rng.choice(alphabet) for _ in range(length))


@st.composite
def boundary_buckets(draw):
    """Pairs whose padded widths sum to 253 or 254."""
    width = draw(st.sampled_from([253, 254]))
    M = draw(st.integers(1, width - 1))
    N = width - M
    rng = random.Random(draw(st.integers(0, 2**32)))

    def pair(m, n):
        kind = draw(st.sampled_from(["disjoint", "one", "mixed"]))
        if kind == "disjoint":
            return _word(rng, "ab", m), _word(rng, "cd", n)
        if kind == "one":
            return "a" * m, "a" * n
        return _word(rng, "ab", m), _word(rng, "ab", n)

    lengths = st.integers(0, M), st.integers(0, N)
    pairs = [pair(M, N)]  # pins the padding to (M, N)
    pairs.append(("", _word(rng, "cd", draw(lengths[1]))))
    pairs.append((_word(rng, "ab", draw(lengths[0])), ""))
    same = _word(rng, "ab", draw(st.integers(0, min(M, N))))
    pairs.append((same, same))
    for _ in range(draw(st.integers(0, 3))):
        pairs.append(pair(draw(lengths[0]), draw(lengths[1])))
    rng.shuffle(pairs)
    return pairs


_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _encoded(pairs):
    X, Y, mx, my = encode_batch(pairs)
    assert X.shape[1] + Y.shape[1] in (253, 254)
    return X, Y, mx, my


@_SETTINGS
@given(boundary_buckets())
def test_exact_sweep_matches_heuristic_tables(pairs):
    d_e, ni = _contextual_swept(*_encoded(pairs))
    got = list(zip(d_e.tolist(), ni.tolist()))
    assert got == [_heuristic_tables(x, y) for x, y in pairs]


#: Each bounded call gives every pair of a bucket the same kind of
#: bound, so the tight kinds clamp the shared band and read the
#: sentinels at its edges.
_BOUND_KINDS = {
    "gap": lambda m, n, d: abs(m - n),
    "below": lambda m, n, d: d - 1,
    "at": lambda m, n, d: d,
    "above": lambda m, n, d: d + 1,
    "full": lambda m, n, d: m + n,
}


@_SETTINGS
@given(boundary_buckets())
def test_bounded_sweeps_match_scalar_twins(pairs):
    X, Y, mx, my = _encoded(pairs)
    d_true = [levenshtein_distance(x, y) for x, y in pairs]
    for kind, bound_of in _BOUND_KINDS.items():
        bounds = [
            bound_of(len(x), len(y), d) for (x, y), d in zip(pairs, d_true)
        ]
        values, exact = _levenshtein_swept_bounded(X, Y, mx, my, bounds)
        d_e, ni, ctx_exact = _swept_bounded(X, Y, mx, my, bounds, True)
        for p, ((x, y), bound) in enumerate(zip(pairs, bounds)):
            budget = min(max(bound, 0), len(x) + len(y))
            within = levenshtein_within(x, y, budget)
            if within is None:
                assert (values[p], exact[p]) == (budget + 1, False), kind
            else:
                assert (values[p], exact[p]) == (within, True), kind
            tables = (
                _banded_heuristic_tables(x, y, budget)
                if abs(len(x) - len(y)) <= budget
                else None
            )
            if tables is None:
                want = (budget + 1, 0, False)
            else:
                want = tables + (True,)
            assert (d_e[p], ni[p], ctx_exact[p]) == want, kind
