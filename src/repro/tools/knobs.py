"""The declarative registry of every ``REPRO_*`` environment knob.

Every runtime-tunable surface of the engine is an environment variable
prefixed ``REPRO_``; this module is the single place they are declared
(name, type, default, consuming module) and the single place the
environment is actually read.  Consuming modules go through the typed
accessors -- :func:`get_flag`, :func:`get_int`, :func:`get_float`,
:func:`get_str` -- so the invariant linter (rule R1 in
:mod:`repro.tools.check`) can mechanically reject any raw ``os.environ``
read of a ``REPRO_*`` name elsewhere in the tree, and the README's knob
table is generated from the same specs (``python -m repro.tools.knobs
--markdown``; ``--check README.md`` verifies the committed copy).

Accessor semantics match the pre-registry readers bit-for-bit:

* flags are *enabled unless* the value is one of ``0/off/false/no``
  (case-insensitive, surrounding whitespace ignored) -- so unset and
  unrecognised values both mean "on", and ``REPRO_JIT`` expresses its
  opt-out as ``not get_flag("REPRO_JIT")``;
* numeric knobs fall back to the caller-supplied default when the
  variable is unset or blank, and apply the caller's clamp *only* to
  environment-supplied values (defaults are trusted);
* values are re-read per call -- no import-time caching -- so tests and
  operators can flip a knob at any point (``REPRO_JIT`` alone is
  consumed at import, by the backend selection in
  :mod:`repro.batch.jit`).

Defaults recorded in the registry are documentation: several consumers
keep the authoritative default as a monkeypatchable module constant
(e.g. ``repro.batch.engine._MIN_PAIRS_PER_WORKER``) and pass it to the
accessor, so patching the constant keeps working.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

__all__ = [
    "REGISTRY",
    "KnobSpec",
    "get_flag",
    "get_float",
    "get_int",
    "get_str",
    "markdown_table",
    "raw",
]

#: Values that turn a flag knob off (everything else, including unset,
#: means enabled).  Shared by every boolean knob in the fleet.
_OFF_VALUES = frozenset({"0", "off", "false", "no"})

KnobDefault = Union[bool, int, float, str, None]


@dataclass(frozen=True)
class KnobSpec:
    """One declared environment knob.

    ``default`` is the documented effective default (``None`` when the
    knob is an optional override with no standalone default); ``module``
    names the consuming module, for the README table and for humans
    hunting a knob's effect.
    """

    name: str
    type: str  # "flag" | "int" | "float" | "str"
    default: KnobDefault
    description: str
    module: str


def _spec(*specs: KnobSpec) -> Dict[str, KnobSpec]:
    return {spec.name: spec for spec in specs}


#: Every ``REPRO_*`` knob the tree consumes, keyed by name.  Adding an
#: env read anywhere else trips linter rule R1; adding one here without
#: a consumer is harmless but shows up in the README table, so prune.
REGISTRY: Dict[str, KnobSpec] = _spec(
    KnobSpec(
        name="REPRO_MIN_PAIRS_PER_WORKER",
        type="int",
        default=512,
        description=(
            "Minimum unique-pair count before a bulk call fans out over "
            "a process pool (read per call; smaller batches run in-process)."
        ),
        module="repro.batch.engine",
    ),
    KnobSpec(
        name="REPRO_PERSISTENT_POOL",
        type="flag",
        default=True,
        description=(
            "Reuse the persistent supervised process pool across fan-outs; "
            "`0` falls back to a fresh pool per call."
        ),
        module="repro.batch.runtime",
    ),
    KnobSpec(
        name="REPRO_POOL_TIMEOUT",
        type="float",
        default=300.0,
        description=(
            "Baseline per-chunk supervision deadline in seconds, scaled up "
            "for oversized chunks; `<= 0` disables deadlines."
        ),
        module="repro.batch.runtime",
    ),
    KnobSpec(
        name="REPRO_POOL_RETRIES",
        type="int",
        default=1,
        description=(
            "Fresh-pool retry rounds after a failed fan-out before degrading "
            "to the per-call pool (clamped to >= 0)."
        ),
        module="repro.batch.runtime",
    ),
    KnobSpec(
        name="REPRO_SHM_REAPER",
        type="flag",
        default=True,
        description=(
            "Run the startup reaper that unlinks shared-memory segments "
            "orphaned by dead engine processes."
        ),
        module="repro.batch.runtime",
    ),
    KnobSpec(
        name="REPRO_JIT",
        type="flag",
        default=True,
        description=(
            "Use the numba JIT kernel backend when numba is installed "
            "(consumed once at import of `repro.batch.jit`)."
        ),
        module="repro.batch.jit",
    ),
    KnobSpec(
        name="REPRO_FAULTS",
        type="str",
        default=None,
        description=(
            "Fault-injection spec, e.g. `worker_crash:p=0.5,seed=1`; unset "
            "or blank disarms every site (the zero-overhead default)."
        ),
        module="repro.batch.faults",
    ),
    KnobSpec(
        name="REPRO_AESA_BULK_MAX_ITEMS",
        type="int",
        default=None,
        description=(
            "Largest AESA database for which bulk queries front-load the "
            "full `queries x items` sweep (unset: the class default, 512)."
        ),
        module="repro.index.aesa",
    ),
    KnobSpec(
        name="REPRO_SERVE_WINDOW_MS",
        type="float",
        default=2.0,
        description=(
            "Serving-tier coalescing window in milliseconds: requests "
            "arriving within it merge into one bulk call (halved while "
            "the circuit breaker is tripped; `0` batches only what is "
            "already queued)."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_SERVE_MAX_BATCH",
        type="int",
        default=64,
        description=(
            "Most requests one coalesced bulk call may carry; a window "
            "that fills early flushes immediately (clamped to >= 1)."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_SERVE_QUEUE_MAX",
        type="int",
        default=1024,
        description=(
            "Bounded admission queue of the serving tier: submissions "
            "beyond it are shed with `ServerOverloaded` (halved while the "
            "circuit breaker is tripped; clamped to >= 1)."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_SERVE_DEADLINE_MS",
        type="float",
        default=None,
        description=(
            "Default per-request deadline in milliseconds for served "
            "queries (unset: requests without an explicit timeout wait "
            "indefinitely)."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_SERVE_BREAKER_AFTER",
        type="int",
        default=3,
        description=(
            "Consecutive degraded batches before the serving circuit "
            "breaker trips -- window halves and shedding starts earlier; "
            "clean batches recover it (clamped to >= 1)."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_SERVE_MAX_INFLIGHT",
        type="int",
        default=1,
        description=(
            "Coalesced batches allowed to execute concurrently on worker "
            "threads; `1` (the default) serialises index access so "
            "per-batch degradation attribution stays exact."
        ),
        module="repro.serve.config",
    ),
    KnobSpec(
        name="REPRO_STORE_DIR",
        type="str",
        default=None,
        description=(
            "Default root directory for the versioned index artifact "
            "store; `ArtifactStore()` without an explicit root reads it."
        ),
        module="repro.store.artifacts",
    ),
    KnobSpec(
        name="REPRO_STORE_KEEP",
        type="int",
        default=2,
        description=(
            "Snapshot versions retained per store key after a save "
            "(clamped to >= 1; older versions are pruned manifest-first)."
        ),
        module="repro.store.artifacts",
    ),
    KnobSpec(
        name="REPRO_STORE_LOCK_TIMEOUT",
        type="float",
        default=30.0,
        description=(
            "Seconds a saver waits for the per-key store lock before "
            "raising `StoreLockTimeout` (dead holders are taken over "
            "immediately)."
        ),
        module="repro.store.lock",
    ),
    KnobSpec(
        name="REPRO_STORE_VERIFY",
        type="flag",
        default=True,
        description=(
            "Verify per-file SHA-256 checksums before trusting a stored "
            "snapshot; `0` skips hashing (size and identity checks remain)."
        ),
        module="repro.store.artifacts",
    ),
    KnobSpec(
        name="REPRO_SHARD_COUNT",
        type="int",
        default=4,
        description=(
            "Default shard count for `ShardedIndex` when the constructor "
            "is not given an explicit `shards=`; clamped by corpus size "
            "and `REPRO_SHARD_MIN_ITEMS`."
        ),
        module="repro.shard.sharded",
    ),
    KnobSpec(
        name="REPRO_SHARD_MIN_ITEMS",
        type="int",
        default=32,
        description=(
            "Smallest corpus slice worth an independent shard; the "
            "effective shard count is reduced until every shard holds at "
            "least this many items (tiny corpora collapse to one shard)."
        ),
        module="repro.shard.sharded",
    ),
    KnobSpec(
        name="REPRO_SHARD_PARALLEL",
        type="flag",
        default=True,
        description=(
            "Scatter per-shard bulk searches across the persistent worker "
            "pool; `0` runs every shard serially in the master process "
            "(bit-identical, used as the comparison baseline)."
        ),
        module="repro.shard.scatter",
    ),
    KnobSpec(
        name="REPRO_SHM_RING",
        type="flag",
        default=True,
        description=(
            "Recycle released ephemeral shared-memory segments through "
            "the runtime's segment ring so high-frequency small query "
            "batches skip per-call create/unlink churn; `0` restores "
            "unlink-per-call."
        ),
        module="repro.batch.runtime",
    ),
)


def raw(name: str) -> Optional[str]:
    """The raw environment value of registered knob *name* (or ``None``).

    The single point where the fleet touches ``os.environ`` for a
    ``REPRO_*`` variable; unregistered names raise ``KeyError`` so a
    typo cannot silently read an undeclared knob.
    """
    if name not in REGISTRY:
        raise KeyError(
            f"{name} is not a registered knob; declare it in "
            "repro.tools.knobs.REGISTRY first"
        )
    return os.environ.get(name)


def _present(value: Optional[str]) -> bool:
    return value is not None and bool(value.strip())


def get_flag(name: str) -> bool:
    """Flag knob *name*: ``True`` unless set to one of ``0/off/false/no``."""
    return (raw(name) or "").strip().lower() not in _OFF_VALUES


def get_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    """Integer knob *name*, or *default* when unset/blank.

    *minimum* clamps environment-supplied values only; the caller's
    default is trusted as-is (it is a module constant, not user input).
    """
    value = raw(name)
    if _present(value):
        parsed = int(value)  # type: ignore[arg-type]
        if minimum is not None:
            parsed = max(minimum, parsed)
        return parsed
    return default


def get_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """Float knob *name*, or *default* when unset/blank."""
    value = raw(name)
    if _present(value):
        return float(value)  # type: ignore[arg-type]
    return default


def get_str(name: str) -> Optional[str]:
    """String knob *name* verbatim, or ``None`` when unset or blank.

    Blank-is-unset matches the flag/numeric accessors, and the verbatim
    value (no strip) preserves spec-string cache keys downstream."""
    value = raw(name)
    if _present(value):
        return value
    return None


# ---------------------------------------------------------------------------
# documentation generation
# ---------------------------------------------------------------------------

def _default_cell(spec: KnobSpec) -> str:
    if spec.default is None:
        return "*(unset)*"
    if spec.type == "flag":
        return "on" if spec.default else "off"
    return f"`{spec.default}`"


def markdown_table() -> str:
    """The README env-knob table, generated from :data:`REGISTRY`."""
    lines = [
        "| Knob | Type | Default | Consumed by | Effect |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        lines.append(
            f"| `{spec.name}` | {spec.type} | {_default_cell(spec)} "
            f"| `{spec.module}` | {spec.description} |"
        )
    return "\n".join(lines)


_TABLE_START = "<!-- knob-table:start (generated by repro.tools.knobs) -->"
_TABLE_END = "<!-- knob-table:end -->"


def _check_readme(path: str) -> List[str]:
    """Problems with the committed knob table in *path* (empty = in sync)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if _TABLE_START not in text or _TABLE_END not in text:
        return [
            f"{path} is missing the knob-table markers "
            f"{_TABLE_START!r} / {_TABLE_END!r}"
        ]
    committed = (
        text.split(_TABLE_START, 1)[1].split(_TABLE_END, 1)[0].strip()
    )
    expected = markdown_table()
    if committed != expected:
        return [
            f"{path} knob table is stale; regenerate with "
            "`python -m repro.tools.knobs --markdown` and paste between "
            "the markers"
        ]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.knobs",
        description="Inspect the REPRO_* environment-knob registry.",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print the README knob table and exit",
    )
    parser.add_argument(
        "--check",
        metavar="README",
        help="verify the committed knob table in README is in sync "
        "(exit 1 when stale)",
    )
    options = parser.parse_args(argv)
    if options.markdown:
        print(markdown_table())
        return 0
    if options.check:
        problems = _check_readme(options.check)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print(f"{options.check}: knob table in sync ({len(REGISTRY)} knobs)")
        return 0
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
