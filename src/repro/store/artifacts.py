"""The versioned artifact store: save built indexes, load them safely.

Layout (one *key directory* per distinct index identity)::

    <root>/
      laesaindex-levenshtein-<digest16>/     key: class + distance +
        LOCK                                 params + corpus fingerprint
        v000001-9f2c1a/                      one immutable snapshot
          manifest.json                      written last; defines validity
          corpus_rows_x.npy  ...             payload, all ``.npy``
        v000002-03ab7e/                      a later save of the same key

The key digest covers ``(format version, class, distance identity,
normalised structure params, corpus fingerprint)`` -- any drift lands on
a *different* key, so a changed corpus is a clean miss, never a stale
hit.  Snapshots are immutable: a save builds a ``tmp-<pid>-<token>``
directory file by file (each through :mod:`repro.store.atomic`), writes
the manifest last, and renames the directory into its versioned name --
readers see finished snapshots or nothing.  Writers are serialized per
key by :class:`repro.store.lock.ArtifactLock`; loaders are lock-free
(they read immutable snapshots, newest first, falling back a version on
any verification failure).

:func:`load_or_build` is the graceful front door the index classes use:
a miss rebuilds silently; a corrupt store rebuilds *loudly* --
``DegradedExecutionWarning``, the ``store_load_failures`` counter, and
``index.last_degradation`` -- but never crashes and never serves a
result a cold rebuild would not.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import uuid
import warnings
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

import numpy as np

from ..batch import faults
from ..batch.corpus import InternedCorpus
from ..batch.runtime import DEGRADATION, DegradedExecutionWarning
from ..core.types import as_symbols
from ..tools import knobs
from .atomic import fsync_dir, write_array, write_text
from .errors import StoreError, StoreLoadError, StoreMiss
from .lock import ArtifactLock
from .manifest import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    FileDigest,
    Manifest,
    ManifestError,
    sha256_file,
)

if TYPE_CHECKING:
    from ..index.base import NearestNeighborIndex

__all__ = [
    "ArtifactStore",
    "corpus_fingerprint",
    "distance_token",
    "load_or_build",
]

IndexT = TypeVar("IndexT", bound="NearestNeighborIndex[Any]")

StoreLike = Union["ArtifactStore", str, "os.PathLike[str]"]

#: Snapshot directory names: ``v<6-digit version>-<6-hex token>``.
_SNAPSHOT_RE = re.compile(r"^v(\d{6})-[0-9a-f]{6}$")

#: In-flight save directories: ``tmp-<pid>-<token>`` (reaped under the
#: key lock once their writer pid is dead, like orphaned shm segments).
_TMP_RE = re.compile(r"^tmp-(\d+)-[0-9a-f]{6}$")

#: Reserved payload names for the interned-corpus block; structure
#: arrays must not collide with them.
_CORPUS_FILES = ("corpus_rows_x", "corpus_rows_y", "corpus_lengths")


def distance_token(distance: Any) -> str:
    """A stable string identity for *distance* in keys and manifests.

    Registry names pass through (and registered callables reverse-map to
    their name, so ``"levenshtein"`` and the function it resolves to
    share artifacts); unregistered callables fall back to
    ``module:qualname`` -- stable across processes, which is all the key
    needs.
    """
    if isinstance(distance, str):
        return distance
    from ..core.registry import list_distances

    for spec in list_distances():
        if spec.function is distance:
            return spec.name
    module = getattr(distance, "__module__", None) or "<unknown>"
    qualname = (
        getattr(distance, "__qualname__", None)
        or getattr(distance, "__name__", None)
        or type(distance).__name__
    )
    return f"{module}:{qualname}"


def corpus_fingerprint(items: Sequence[Any]) -> str:
    """Hex SHA-256 over the *normalised* item sequences.

    Hashing :func:`~repro.core.types.as_symbols` output (not raw reprs)
    keeps the fingerprint aligned with what the indexes actually
    compare: ``"ab"`` and ``("a", "b")`` normalise identically, so they
    fingerprint identically too.  Items that cannot be normalised hash
    their ``repr`` -- same rule the scalar distance paths live by.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-corpus-fingerprint-v1")
    for item in items:
        try:
            # tuple() canonicalises the container: as_symbols passes
            # strings through but tuples stay tuples, and the two must
            # fingerprint identically because every metric treats them
            # identically
            token = repr(tuple(as_symbols(item)))
        except TypeError:
            token = repr(item)
        data = token.encode("utf-8", "backslashreplace")
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


class ArtifactStore:
    """A directory of versioned, checksummed index snapshots."""

    def __init__(self, root: Optional[Union[str, "os.PathLike[str]"]] = None) -> None:
        if root is None:
            root = knobs.get_str("REPRO_STORE_DIR")
        if root is None:
            raise ValueError(
                "no artifact-store root: pass one or set REPRO_STORE_DIR"
            )
        self.root = Path(os.fspath(root))

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"

    @classmethod
    def coerce(cls, store: StoreLike) -> "ArtifactStore":
        """*store* itself when it already is one, else a store rooted at
        the given path."""
        if isinstance(store, ArtifactStore):
            return store
        return cls(store)

    # -- keys --------------------------------------------------------------

    def key_for(
        self,
        class_name: str,
        distance: str,
        params: Mapping[str, Any],
        fingerprint: str,
    ) -> str:
        """The key-directory name for one index identity."""
        payload = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "class": class_name,
                "distance": distance,
                "params": dict(params),
                "corpus_fingerprint": fingerprint,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        slug = re.sub(
            r"[^a-z0-9]+", "-", f"{class_name}-{distance}".lower()
        ).strip("-")[:48]
        return f"{slug}-{digest}"

    # -- saving ------------------------------------------------------------

    def save(self, index: "NearestNeighborIndex[Any]") -> Path:
        """Snapshot *index* into a new immutable version; returns its
        directory.  Serialized per key; prunes old versions down to
        ``REPRO_STORE_KEEP`` afterwards."""
        cls = type(index)
        params = index._artifact_params()
        dist = distance_token(index._counter._distance)
        fingerprint = corpus_fingerprint(index.items)
        arrays: Dict[str, np.ndarray] = {}
        if index._corpus.encoded:
            block = index._corpus.block
            arrays["corpus_rows_x"] = block.rows_x
            arrays["corpus_rows_y"] = block.rows_y
            arrays["corpus_lengths"] = block.lengths
        for name, array in index._artifact_arrays().items():
            if name in _CORPUS_FILES:
                raise ValueError(f"structure array name {name!r} is reserved")
            arrays[name] = np.asarray(array)
        meta = dict(index._artifact_meta())
        meta["interned"] = index._corpus.encoded

        key_dir = self.root / self.key_for(cls.__name__, dist, params, fingerprint)
        key_dir.mkdir(parents=True, exist_ok=True)
        with ArtifactLock(key_dir / "LOCK"):
            self._reap_dead_tmp(key_dir)
            version = self._next_version(key_dir)
            token = uuid.uuid4().hex[:6]
            tmp = key_dir / f"tmp-{os.getpid()}-{token}"
            tmp.mkdir()
            files: Dict[str, FileDigest] = {}
            for name, array in arrays.items():
                filename = f"{name}.npy"
                write_array(tmp / filename, array)
                files[filename] = FileDigest(
                    sha256=sha256_file(tmp / filename),
                    size=os.path.getsize(tmp / filename),
                )
            manifest = Manifest(
                format_version=FORMAT_VERSION,
                class_name=cls.__name__,
                distance=dist,
                params=dict(params),
                corpus_fingerprint=fingerprint,
                n_items=len(index.items),
                preprocessing_computations=index.preprocessing_computations,
                meta=meta,
                files=files,
            )
            text = manifest.to_json()
            if faults.fires("store_corrupt_manifest"):
                text = text[: len(text) // 2]  # a torn/corrupt manifest
            write_text(tmp / MANIFEST_NAME, text)
            final = key_dir / f"v{version:06d}-{token}"
            os.rename(tmp, final)
            fsync_dir(key_dir)
            self._prune(key_dir)
        return final

    def _reap_dead_tmp(self, key_dir: Path) -> None:
        """Remove ``tmp-<pid>-*`` debris whose writer pid is dead (the
        lock-file analogue of ``reap_orphaned_segments``; called under
        the key lock, so no live writer races us)."""
        from ..batch.runtime import _pid_alive

        for entry in key_dir.iterdir():
            match = _TMP_RE.match(entry.name)
            if match is None or not entry.is_dir():
                continue
            pid = int(match.group(1))
            if pid != os.getpid() and _pid_alive(pid):
                continue
            shutil.rmtree(entry, ignore_errors=True)

    def _versions(self, key_dir: Path) -> List[Tuple[int, Path]]:
        """Finished snapshots of *key_dir*, oldest first."""
        found: List[Tuple[int, Path]] = []
        try:
            entries = list(key_dir.iterdir())
        except OSError:
            return found
        for entry in entries:
            match = _SNAPSHOT_RE.match(entry.name)
            if match is not None and entry.is_dir():
                found.append((int(match.group(1)), entry))
        found.sort()
        return found

    def _next_version(self, key_dir: Path) -> int:
        versions = self._versions(key_dir)
        return versions[-1][0] + 1 if versions else 1

    def _prune(self, key_dir: Path) -> None:
        """Drop the oldest snapshots beyond ``REPRO_STORE_KEEP``.

        The manifest is unlinked *first* (atomically, via the directory
        entry) -- a concurrent loader then sees an invalid snapshot and
        falls back a version, never a half-deleted payload it trusts.
        """
        keep = knobs.get_int("REPRO_STORE_KEEP", default=2, minimum=1)
        keep = keep if keep is not None else 2
        versions = self._versions(key_dir)
        for _, snapshot in versions[: max(0, len(versions) - keep)]:
            try:
                (snapshot / MANIFEST_NAME).unlink()
            except FileNotFoundError:
                pass
            fsync_dir(snapshot)
            shutil.rmtree(snapshot, ignore_errors=True)

    # -- loading -----------------------------------------------------------

    def load(
        self,
        cls: Type[IndexT],
        items: Sequence[Any],
        distance: Any,
        params: Optional[Mapping[str, Any]] = None,
    ) -> IndexT:
        """Rebuild-free load of the newest valid snapshot for this
        identity.  Raises :class:`StoreMiss` when the key has no
        snapshots at all, :class:`StoreLoadError` when snapshots exist
        but none verifies."""
        raw_params = dict(params or {})
        key_params = cls._artifact_key_params(dict(raw_params))
        dist = distance_token(distance)
        fingerprint = corpus_fingerprint(items)
        key_dir = self.root / self.key_for(
            cls.__name__, dist, key_params, fingerprint
        )
        versions = self._versions(key_dir)
        if not versions:
            raise StoreMiss(f"no snapshot under {key_dir}")
        failures: List[str] = []
        for _, snapshot in reversed(versions):
            try:
                return self._load_snapshot(
                    cls, items, distance, key_params, raw_params, dist,
                    fingerprint, snapshot,
                )
            except Exception as exc:  # any failure: fall back a version
                failures.append(f"{snapshot.name}: {exc}")
        raise StoreLoadError(
            f"{len(failures)} snapshot(s) under {key_dir.name} failed "
            f"verification: {'; '.join(failures)}"
        )

    def _load_snapshot(
        self,
        cls: Type[IndexT],
        items: Sequence[Any],
        distance: Any,
        key_params: Dict[str, Any],
        raw_params: Dict[str, Any],
        dist: str,
        fingerprint: str,
        snapshot: Path,
    ) -> IndexT:
        try:
            text = (snapshot / MANIFEST_NAME).read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreLoadError(f"unreadable manifest: {exc}") from exc
        try:
            manifest = Manifest.from_json(text)
        except ManifestError as exc:
            raise StoreLoadError(str(exc)) from exc
        self._verify_identity(manifest, cls.__name__, dist, key_params,
                              fingerprint, len(items))
        if knobs.get_flag("REPRO_STORE_VERIFY"):
            self._verify_checksums(snapshot, manifest)
        arrays: Dict[str, np.ndarray] = {}
        for filename in manifest.files:
            if not filename.endswith(".npy"):
                raise StoreLoadError(f"unexpected payload file {filename!r}")
            arrays[filename[: -len(".npy")]] = np.load(
                snapshot / filename, mmap_mode="r", allow_pickle=False
            )
        corpus: Optional[InternedCorpus] = None
        if all(name in arrays for name in _CORPUS_FILES):
            corpus = InternedCorpus.from_arrays(
                items,
                arrays["corpus_rows_x"],
                arrays["corpus_rows_y"],
                arrays["corpus_lengths"],
            )
        structure = {
            name: array
            for name, array in arrays.items()
            if name not in _CORPUS_FILES
        }
        index = cls._artifact_skeleton(items, distance, corpus)
        index._restore_artifact(structure, manifest.meta, raw_params)
        index.preprocessing_computations = manifest.preprocessing_computations
        return index

    @staticmethod
    def _verify_identity(
        manifest: Manifest,
        class_name: str,
        dist: str,
        key_params: Dict[str, Any],
        fingerprint: str,
        n_items: int,
    ) -> None:
        """Defence in depth: the key digest already encodes all of this,
        but a manifest that disagrees with its own directory means the
        store was tampered with or mis-copied -- reject it."""
        checks = (
            ("format_version", manifest.format_version, FORMAT_VERSION),
            ("class", manifest.class_name, class_name),
            ("distance", manifest.distance, dist),
            ("params", manifest.params, key_params),
            ("corpus_fingerprint", manifest.corpus_fingerprint, fingerprint),
            ("n_items", manifest.n_items, n_items),
        )
        for field, got, expected in checks:
            if got != expected:
                raise StoreLoadError(
                    f"manifest {field} mismatch: {got!r} != {expected!r}"
                )

    @staticmethod
    def _verify_checksums(snapshot: Path, manifest: Manifest) -> None:
        for filename, digest in manifest.files.items():
            path = snapshot / filename
            try:
                size = os.path.getsize(path)
            except OSError as exc:
                raise StoreLoadError(f"missing payload {filename!r}: {exc}")
            if size != digest.size:
                raise StoreLoadError(
                    f"payload {filename!r} is {size} bytes, "
                    f"manifest says {digest.size}"
                )
            actual = sha256_file(path)
            if actual != digest.sha256:
                raise StoreLoadError(
                    f"payload {filename!r} checksum mismatch "
                    f"({actual[:12]}... != {digest.sha256[:12]}...)"
                )


def load_or_build(
    cls: Type[IndexT],
    items: Sequence[Any],
    distance: Any,
    store: StoreLike,
    params: Optional[Mapping[str, Any]] = None,
    *,
    save_on_miss: bool = False,
) -> IndexT:
    """Load *cls* from *store*, or rebuild in process -- never crash.

    A :class:`StoreMiss` (first run, changed corpus or params) rebuilds
    silently.  A :class:`StoreLoadError` (artifacts present but corrupt)
    rebuilds too, surfacing the event through
    :class:`~repro.batch.runtime.DegradedExecutionWarning`, the
    ``store_load_failures`` degradation counter, and the rebuilt index's
    ``last_degradation`` -- the same ladder discipline as the engine
    runtime.  The rebuilt structure is bit-identical to a cold build:
    nothing from the rejected artifact is reused.

    With ``save_on_miss=True`` a miss-triggered build is published back
    to the store (best effort: a failed save warns and returns the
    freshly built index anyway), so the next process warm-starts -- the
    serving tier's restart path.  Corruption-triggered rebuilds are
    *not* re-saved: overwriting a snapshot that just failed verification
    would hide the fault from the operator.
    """
    params = dict(params or {})
    artifact_store = ArtifactStore.coerce(store)
    # Composite structures (the sharded tier) persist as several child
    # snapshots rather than one, so they take over the whole
    # load-or-rebuild decision: each child gets its own miss-vs-corrupt
    # treatment and only the affected child rebuilds.
    override = getattr(cls, "_load_or_build_override", None)
    if override is not None:
        return cast(
            IndexT,
            override(
                items,
                distance,
                artifact_store,
                params,
                save_on_miss=save_on_miss,
            ),
        )
    factory = cast(Callable[..., IndexT], cls)
    try:
        return artifact_store.load(cls, items, distance, params)
    except StoreMiss:
        index = factory(items, distance, **params)
        if save_on_miss:
            try:
                artifact_store.save(index)
            except (OSError, StoreError) as exc:
                warnings.warn(
                    f"could not persist freshly built {cls.__name__} "
                    f"({exc}); serving from the in-process build",
                    DegradedExecutionWarning,
                    stacklevel=3,
                )
        return index
    except StoreLoadError as exc:
        DEGRADATION.record("store_load_failures")
        warnings.warn(
            f"artifact load failed for {cls.__name__} ({exc}); rebuilding "
            "in process",
            DegradedExecutionWarning,
            stacklevel=3,
        )
        index = factory(items, distance, **params)
        index.last_degradation = dict(index.last_degradation)
        index.last_degradation["store_load_failures"] = (
            index.last_degradation.get("store_load_failures", 0) + 1
        )
        return index
