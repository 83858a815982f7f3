"""Partition layout: size balance, determinism, clamping, identity."""

import numpy as np
import pytest

from repro.shard import partition_indices, resolve_shard_count
import repro.shard.sharded as sharded
from repro.shard.sharded import _resolve_structure


@pytest.mark.parametrize("n, shards", [(10, 1), (10, 3), (100, 4), (7, 7)])
def test_partition_is_balanced_and_covers(n, shards):
    layout = partition_indices(n, shards)
    sizes = [len(ids) for ids in layout]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    union = np.concatenate(layout)
    assert sorted(union.tolist()) == list(range(n))


def test_partition_slices_are_sorted_int64():
    for ids in partition_indices(50, 4, seed=9):
        assert ids.dtype == np.int64
        assert (np.diff(ids) > 0).all()


def test_partition_deterministic_under_seed():
    a = partition_indices(200, 8, seed=42)
    b = partition_indices(200, 8, seed=42)
    assert all((x == y).all() for x, y in zip(a, b))
    c = partition_indices(200, 8, seed=43)
    assert any((x != y).any() for x, y in zip(a, c))


def test_single_shard_is_identity_layout():
    (ids,) = partition_indices(64, 1, seed=123)
    assert ids.tolist() == list(range(64))


def test_partition_rejects_bad_counts():
    with pytest.raises(ValueError):
        partition_indices(10, 0)
    with pytest.raises(ValueError):
        partition_indices(3, 4)


def test_resolve_shard_count_explicit_wins(monkeypatch):
    monkeypatch.setattr(sharded, "_DEFAULT_SHARDS", 8)
    assert resolve_shard_count(1000, shards=2) == 2
    # explicit counts clamp to the corpus but ignore the min-items floor
    assert resolve_shard_count(3, shards=8) == 3


def test_resolve_shard_count_default_and_min_items(monkeypatch):
    assert resolve_shard_count(1000, None) == 4
    assert resolve_shard_count(100, None) == 3  # 32 items per shard at least
    assert resolve_shard_count(1000, None, min_shard_items=400) == 2
    monkeypatch.setattr(sharded, "_DEFAULT_SHARDS", 8)
    monkeypatch.setattr(sharded, "_DEFAULT_MIN_ITEMS", 100)
    assert resolve_shard_count(1000, None) == 8
    assert resolve_shard_count(250, None) == 2
    # tiny corpora collapse to one shard instead of paying scatter cost
    assert resolve_shard_count(40, None) == 1


def test_resolve_shard_count_rejects_degenerate():
    with pytest.raises(ValueError):
        resolve_shard_count(0, None)
    with pytest.raises(ValueError):
        resolve_shard_count(10, 0)


def test_auto_structure_follows_size_rule(monkeypatch):
    import repro.shard.sharded as sharded
    from repro.index import AesaIndex, LaesaIndex

    assert sharded._AUTO_AESA_MAX_ITEMS == 512
    monkeypatch.setattr(sharded, "_AUTO_AESA_MAX_ITEMS", 100)
    cls, kwargs = _resolve_structure("auto", 100, {"n_pivots": 5})
    assert cls is AesaIndex and "n_pivots" not in kwargs
    cls, kwargs = _resolve_structure("auto", 101, {"n_pivots": 5})
    assert cls is LaesaIndex and kwargs["n_pivots"] == 5


def test_laesa_default_pivots_clamp_to_shard_size():
    from repro.index import LaesaIndex

    cls, kwargs = _resolve_structure("laesa", 5, {})
    assert cls is LaesaIndex and kwargs["n_pivots"] == 5


def test_unknown_structure_rejected():
    with pytest.raises(ValueError):
        _resolve_structure("kdtree", 100, {})
