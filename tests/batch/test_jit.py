"""The optional numba kernel backend and its dispatch plumbing.

Without numba installed the backend must stay dormant (numpy kernels
serve every call, bit-identically to before); with numba installed the
compiled kernels must agree with the numpy twins on randomised inputs.
Both CI legs run this file, so each branch is exercised somewhere.
"""

import random

import pytest

import repro.batch.kernels as kernels
from repro.batch import jit
from repro.batch.kernels import (
    contextual_heuristic_batch,
    contextual_heuristic_batch_numpy,
    levenshtein_batch,
    levenshtein_batch_numpy,
)
from repro.core.contextual import _heuristic_tables
from repro.core.levenshtein import levenshtein_distance


def _random_pairs(seed, count=200, alphabet="abc", max_len=10):
    rng = random.Random(seed)
    return [
        (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len))),
        )
        for _ in range(count)
    ]


def test_backend_name_is_consistent():
    assert jit.backend_name() == ("numba" if jit.active() else "numpy")


def test_dispatch_targets_the_active_backend():
    # the cached resolver must agree with the jit module's own state
    backend = kernels._jit_backend()
    if jit.active():
        assert backend is jit
    else:
        assert backend is None


def test_public_kernels_match_numpy_twins():
    """Whatever backend is active, the public names must return exactly
    the numpy kernels' values (the JIT kernels are the same integer DP)."""
    pairs = _random_pairs(0x11)
    assert levenshtein_batch(pairs).tolist() == levenshtein_batch_numpy(
        pairs
    ).tolist()
    d, ni = contextual_heuristic_batch(pairs)
    d_np, ni_np = contextual_heuristic_batch_numpy(pairs)
    assert d.tolist() == d_np.tolist()
    assert ni.tolist() == ni_np.tolist()


@pytest.mark.skipif(not jit.active(), reason="numba not installed")
class TestCompiledKernels:
    """Exercised only on the with-numba CI leg."""

    def test_batch_kernels_match_numpy(self):
        pairs = _random_pairs(0x22, count=300)
        assert jit.levenshtein_batch(pairs).tolist() == (
            levenshtein_batch_numpy(pairs).tolist()
        )
        d, ni = jit.contextual_heuristic_batch(pairs)
        d_np, ni_np = contextual_heuristic_batch_numpy(pairs)
        assert d.tolist() == d_np.tolist()
        assert ni.tolist() == ni_np.tolist()

    def test_scalar_kernels_match_python(self):
        for x, y in _random_pairs(0x33, count=120):
            assert jit.levenshtein_single(x, y) == levenshtein_distance(x, y)
            assert jit.contextual_heuristic_single(x, y) == _heuristic_tables(
                x, y
            )

    def test_scalar_entry_points_use_threshold_zero(self):
        # short strings (where the bit-parallel DP is cheapest) must
        # still route through the compiled kernel when it is active
        from repro.core import levenshtein as lev_mod

        assert lev_mod._jit() is jit

    def test_tuple_items(self):
        pairs = [((1, 2, 3), (2, 1, 3)), (("a",), ("a", "b"))]
        assert jit.levenshtein_batch(pairs).tolist() == (
            levenshtein_batch_numpy(pairs).tolist()
        )


class TestNewKernelTwins:
    """The PR-4 kernels (bounded batch, d_MV parametric, Algorithm 1's
    k-axis DP, exact d_C) against their numpy/pure-Python twins.

    Without numba these exercise the jit module's plain-Python bodies
    (the decorator is a no-op), so the *logic* is verified everywhere;
    the with-numba CI leg runs the same assertions against the compiled
    code.
    """

    def test_bounded_batch_kernels_match_numpy(self):
        from repro.batch.kernels import (
            contextual_heuristic_batch_bounded_numpy,
            levenshtein_batch_bounded_numpy,
        )

        import random as _random

        pairs = _random_pairs(0x44, count=250, max_len=14)
        rng = _random.Random(0x45)
        bounds = [rng.choice([0, 1, 2, 4, 7, 1 << 20]) for _ in pairs]
        d1, e1 = jit.levenshtein_batch_bounded(pairs, bounds)
        d2, e2 = levenshtein_batch_bounded_numpy(pairs, bounds)
        assert d1.tolist() == d2.tolist()
        assert e1.tolist() == e2.tolist()
        a1, b1, c1 = jit.contextual_heuristic_batch_bounded(pairs, bounds)
        a2, b2, c2 = contextual_heuristic_batch_bounded_numpy(pairs, bounds)
        assert a1.tolist() == a2.tolist()
        assert b1.tolist() == b2.tolist()
        assert c1.tolist() == c2.tolist()

    def test_parametric_alignment_matches_numpy(self):
        from repro.core._kernels import parametric_alignment_numpy

        for x, y in _random_pairs(0x55, count=120, alphabet="abcd", max_len=20):
            for lam in (0.0, 0.2, 0.45, 0.8):
                assert jit.parametric_alignment(x, y, lam) == tuple(
                    parametric_alignment_numpy(x, y, lam)
                ), (x, y, lam)

    def test_banded_parametric_matches_python(self):
        import random as _random

        from repro.core.bounded import _banded_parametric

        rng = _random.Random(0x66)
        for x, y in _random_pairs(0x66, count=120, alphabet="abcd", max_len=20):
            if not x or not y:
                continue
            band = rng.randint(max(abs(len(x) - len(y)), 1), len(x) + len(y))
            lam = rng.choice([0.1, 0.3, 0.6])
            assert jit.banded_parametric(x, y, lam, band) == _banded_parametric(
                x, y, lam, band
            ), (x, y, lam, band)

    def test_mv_distance_matches_fractional(self):
        from repro.core.marzal_vidal import mv_normalized_distance

        pairs = _random_pairs(0x77, count=150, alphabet="ab", max_len=25)
        batch = jit.mv_distance_batch(pairs)
        for p, (x, y) in enumerate(pairs):
            want = mv_normalized_distance(x, y)
            assert jit.mv_distance(x, y) == want, (x, y)
            assert batch[p] == want, (x, y)

    def test_insertion_table_matches_scalar(self):
        import random as _random

        from repro.core.contextual import _insertion_table_final

        rng = _random.Random(0x88)
        for x, y in _random_pairs(0x88, count=80, max_len=30):
            k_max = rng.randint(0, len(x) + len(y))
            got = jit.insertion_table_final(x, y, k_max)
            want = _insertion_table_final(x, y, k_max)
            # sentinel (< 0) entries may differ between backends (the
            # numpy twin leaks +1 chains into them); feasibility and
            # every feasible value must agree
            assert [int(v) if v >= 0 else -1 for v in got] == [
                int(v) if v >= 0 else -1 for v in want
            ], (x, y, k_max)

    def test_exact_contextual_matches_scalar(self):
        from repro.core.contextual import contextual_distance

        pairs = _random_pairs(0x99, count=120, max_len=18)
        batch = jit.contextual_distance_batch(pairs)
        for p, (x, y) in enumerate(pairs):
            want = contextual_distance(x, y)
            assert jit.contextual_distance(x, y) == want, (x, y)
            assert batch[p] == want, (x, y)


def test_engine_batches_mv_and_exact_dc_under_jit():
    """pairwise_values must stay bit-identical to the scalar loop for
    d_MV and exact d_C whichever backend serves them (scalar fallback on
    numpy, compiled batch kernels on numba)."""
    from repro.batch import pairwise_values
    from repro.core import get_distance

    pairs = _random_pairs(0xAA, count=40, max_len=12)
    for name in ("marzal_vidal", "contextual"):
        fn = get_distance(name)
        got = pairwise_values(name, pairs)
        want = [fn(x, y) for x, y in pairs]
        assert got.tolist() == want, name


def test_env_gate_disables_numba(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    assert jit._jit_disabled()
    monkeypatch.setenv("REPRO_JIT", "off")
    assert jit._jit_disabled()
    monkeypatch.delenv("REPRO_JIT")
    assert not jit._jit_disabled()
