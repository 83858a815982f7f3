"""Snapshots written by an earlier release still load.

``fixtures/format_v1`` is a store written at ``FORMAT_VERSION`` 1: a
LAESA index (two pivots) and a VP-tree over twelve words under
Levenshtein.  Each must load from a copy of the fixture with zero
distance evaluations, onto its persisted corpus matrices, and answer
``bulk_knn`` exactly like a cold build -- answers, distances and
per-query counts.  A fresh save must write the same payload file
names, so a renamed payload or a bumped format version fails here
instead of turning every existing store into a silent rebuild.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core import get_distance
from repro.index import LaesaIndex, VPTreeIndex
from repro.store import MANIFEST_NAME, ArtifactStore
from repro.store.manifest import FORMAT_VERSION

FIXTURE = Path(__file__).parent / "fixtures" / "format_v1"

WORDS = [
    "cat", "cart", "dog", "dodge", "mart", "smart", "art", "car",
    "tars", "rats", "star", "tsar",
]

QUERIES = ["cast", "dot", "start", "at", "", "rat", "dodger", "tart"]

LEV = get_distance("levenshtein")

CASES = [(LaesaIndex, {"n_pivots": 2}), (VPTreeIndex, {})]


def _answers(results):
    return [
        ([(r.index, r.distance) for r in hits], stats.distance_computations)
        for hits, stats in results
    ]


def _payload_names(snapshot: Path):
    manifest = json.loads((snapshot / MANIFEST_NAME).read_text(encoding="utf-8"))
    return sorted(manifest["files"])


def test_fixture_is_format_v1():
    assert FORMAT_VERSION == 1
    manifests = sorted(FIXTURE.glob(f"*/v*/{MANIFEST_NAME}"))
    assert len(manifests) == len(CASES)
    for path in manifests:
        assert json.loads(path.read_text(encoding="utf-8"))["format_version"] == 1


@pytest.mark.parametrize("cls, params", CASES, ids=["laesa", "vptree"])
def test_v1_snapshot_loads_like_a_cold_build(cls, params, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    # ArtifactStore.load raises on a miss instead of rebuilding
    loaded = ArtifactStore(root).load(cls, WORDS, LEV, params)
    assert loaded._counter.calls == 0
    # the corpus is the persisted block, mapped read-only, not re-interned
    assert not loaded._corpus.block.rows_x.flags.writeable

    cold = cls(WORDS, LEV, **params)
    assert loaded.preprocessing_computations == cold.preprocessing_computations
    assert _answers(loaded.bulk_knn(QUERIES, 3)) == _answers(
        cold.bulk_knn(QUERIES, 3)
    )

    (fixture_snapshot,) = root.glob(f"{cls.__name__.lower()}-*/v*")
    fresh = ArtifactStore(tmp_path / "fresh").save(cold)
    assert _payload_names(fresh) == _payload_names(fixture_snapshot)
    assert fresh.parent.name == fixture_snapshot.parent.name  # same key
