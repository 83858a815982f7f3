"""AST-based invariant linter for the engine's cross-module contracts.

Six PRs of optimisation accumulated invariants that exist only by
convention; this checker makes them mechanical.  Run it on a tree::

    python -m repro.tools.check src/

Rules (each reports ``path:line: Rn message``; a trailing
``# repro: noqa[Rn]`` comment on the reported line suppresses that rule,
bare ``# repro: noqa`` suppresses all of them):

R1  no raw ``os.environ`` / ``os.getenv`` read of a ``REPRO_*`` name
    outside :mod:`repro.tools.knobs` -- every knob goes through the
    registry's typed accessors;
R2  twin parity: every batch kernel in ``kernels.py`` that dispatches to
    the JIT backend (``jit.<own name>(...)``) has a top-level twin of the
    same name in the sibling ``jit.py`` with identical parameter names
    and order;
R3  shm lifecycle: every class that creates a shared-memory segment
    (``SharedMemory(..., create=True)``) also releases it -- a call whose
    name mentions ``unlink``/``release``/``close`` somewhere in the same
    class -- and the module guards unlink races with an
    ``except FileNotFoundError`` handler;
R4  degradation coverage: every public ``bulk_*`` method on an ``index``
    or ``shard`` class reports degradation -- its body references
    ``_track_degradation`` or delegates to the lockstep driver
    (``_lockstep_drive``);
R5  fault-site registration: every string literal passed to
    ``faults.check`` / ``faults.fires`` / ``should_fire`` names a site
    declared in ``faults.py``'s ``SITES`` tuple;
R6  atomic store writes: inside ``repro/store/`` every file write goes
    through the crash-safe helpers in :mod:`repro.store.atomic` -- a
    bare ``open(path, "wb")`` / ``open_memmap(..., mode="w+")`` could
    leave a torn artifact visible; ``atomic.py`` itself is the one
    sanctioned writer.

The checker is pure stdlib ``ast`` -- no imports of the checked code, no
third-party dependencies -- so it runs anywhere the test-suite runs.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["RULES", "Violation", "check_paths", "check_tree", "main"]

#: Rule code -> one-line summary (the linter's public contract).
RULES: Dict[str, str] = {
    "R1": "raw os.environ read of a REPRO_* knob outside repro.tools.knobs",
    "R2": "batch kernel without a matching numba twin in jit.py",
    "R3": "shared-memory creation without paired release/unlink guard",
    "R4": "public bulk_* index/shard method not reporting degradation",
    "R5": "fault site not declared in faults.SITES",
    "R6": "non-atomic file write inside repro/store (use repro.store.atomic)",
}

_NOQA = re.compile(r"#\s*repro:\s*noqa(?:\[([^\]]*)\])?", re.IGNORECASE)


@dataclass(frozen=True)
class Violation:
    """One rule hit, pointing at ``path:line``."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class _Source:
    """A parsed file plus its per-line noqa suppressions."""

    path: Path
    tree: ast.Module
    #: line -> None (suppress every rule) or the set of suppressed codes
    noqa: Dict[int, Optional[Set[str]]]


def _parse_noqa(text: str) -> Dict[int, Optional[Set[str]]]:
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None:
            table[lineno] = None  # bare noqa: everything
        else:
            table[lineno] = {
                code.strip().upper() for code in codes.split(",") if code.strip()
            }
    return table


def _load(path: Path) -> Tuple[Optional[_Source], List[Violation]]:
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError) as exc:
        return None, [
            Violation(str(path), getattr(exc, "lineno", 1) or 1, "E0", str(exc))
        ]
    return _Source(path, tree, _parse_noqa(text)), []


# ---------------------------------------------------------------------------
# R1: no raw REPRO_* environment reads outside the registry
# ---------------------------------------------------------------------------

def _is_environ_ref(node: ast.expr) -> bool:
    """``os.environ`` or a bare ``environ`` name."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return True
    return isinstance(node, ast.Name) and node.id == "environ"


def _is_getenv_ref(node: ast.expr) -> bool:
    """``os.getenv`` or a bare ``getenv`` name."""
    if isinstance(node, ast.Attribute) and node.attr == "getenv":
        return True
    return isinstance(node, ast.Name) and node.id == "getenv"


def _repro_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


def _env_read(node: ast.AST) -> Optional[str]:
    """The REPRO_* name *node* reads from the environment, if any."""
    if isinstance(node, ast.Subscript) and _is_environ_ref(node.value):
        return _repro_name(node.slice)
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if _is_getenv_ref(func):
            return _repro_name(node.args[0])
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "setdefault", "pop")
            and _is_environ_ref(func.value)
        ):
            return _repro_name(node.args[0])
    return None


def _rule_r1(source: _Source) -> List[Violation]:
    if source.path.name == "knobs.py" and source.path.parent.name == "tools":
        return []  # the registry is the one sanctioned reader
    found = []
    for node in ast.walk(source.tree):
        name = _env_read(node)
        if name is not None:
            found.append(
                Violation(
                    str(source.path),
                    node.lineno,
                    "R1",
                    f"raw environment read of {name}; use the typed "
                    "accessors in repro.tools.knobs",
                )
            )
    return found


# ---------------------------------------------------------------------------
# R2: numpy/numba kernel twin parity
# ---------------------------------------------------------------------------

def _arg_names(fn: ast.FunctionDef) -> List[str]:
    args = fn.args
    return (
        [a.arg for a in args.posonlyargs]
        + [a.arg for a in args.args]
        + [a.arg for a in args.kwonlyargs]
    )


def _dispatches_to_twin(fn: ast.FunctionDef) -> bool:
    """Whether *fn* forwards to ``<backend>.<own name>(...)`` somewhere."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == fn.name
        ):
            return True
    return False


def _rule_r2(sources: Sequence[_Source]) -> List[Violation]:
    by_dir: Dict[Path, Dict[str, _Source]] = {}
    for source in sources:
        if source.path.name in ("kernels.py", "jit.py"):
            by_dir.setdefault(source.path.parent, {})[source.path.name] = source
    found = []
    for members in by_dir.values():
        kernels, jit = members.get("kernels.py"), members.get("jit.py")
        if kernels is None or jit is None:
            continue  # nothing to pair against in this directory
        twins = {
            node.name: node
            for node in jit.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in kernels.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _dispatches_to_twin(node):
                continue
            twin = twins.get(node.name)
            if twin is None:
                found.append(
                    Violation(
                        str(kernels.path),
                        node.lineno,
                        "R2",
                        f"kernel {node.name} dispatches to the JIT backend "
                        f"but {jit.path.name} defines no twin of that name",
                    )
                )
                continue
            ours, theirs = _arg_names(node), _arg_names(twin)
            if ours != theirs:
                found.append(
                    Violation(
                        str(kernels.path),
                        node.lineno,
                        "R2",
                        f"kernel {node.name} parameters {ours} do not match "
                        f"its JIT twin's {theirs}",
                    )
                )
    return found


# ---------------------------------------------------------------------------
# R3: shared-memory lifecycle pairing
# ---------------------------------------------------------------------------

def _creates_shm(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name != "SharedMemory":
        return False
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


_RELEASE_MARKERS = ("unlink", "release", "close", "shutdown")


def _names_release(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name is None:
        return False
    lowered = name.lower()
    return any(marker in lowered for marker in _RELEASE_MARKERS)


def _guards_file_not_found(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        exceptions = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for exc in exceptions:
            if isinstance(exc, ast.Name) and exc.id == "FileNotFoundError":
                return True
            if isinstance(exc, ast.Attribute) and exc.attr == "FileNotFoundError":
                return True
    return False


def _rule_r3(source: _Source) -> List[Violation]:
    found = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        creation = next(
            (n for n in ast.walk(node) if _creates_shm(n)), None
        )
        if creation is None:
            continue
        if not any(_names_release(n) for n in ast.walk(node)):
            found.append(
                Violation(
                    str(source.path),
                    creation.lineno,
                    "R3",
                    f"class {node.name} creates shared memory but never "
                    "releases it (no unlink/release/close call in the class)",
                )
            )
        if not _guards_file_not_found(source.tree):
            found.append(
                Violation(
                    str(source.path),
                    creation.lineno,
                    "R3",
                    f"class {node.name} creates shared memory but the module "
                    "has no FileNotFoundError guard on the unlink path",
                )
            )
    return found


# ---------------------------------------------------------------------------
# R4: degradation coverage of index bulk paths
# ---------------------------------------------------------------------------

_DEGRADATION_MARKERS = {"_track_degradation", "_lockstep_drive"}


def _references_degradation(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr in _DEGRADATION_MARKERS:
            return True
        if isinstance(node, ast.Name) and node.id in _DEGRADATION_MARKERS:
            return True
    return False


def _rule_r4(source: _Source) -> List[Violation]:
    if not {"index", "shard"} & set(source.path.parts):
        return []
    found = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if not item.name.startswith("bulk_"):
                continue
            if not _references_degradation(item):
                found.append(
                    Violation(
                        str(source.path),
                        item.lineno,
                        "R4",
                        f"{node.name}.{item.name} neither wraps its body in "
                        "_track_degradation nor delegates to a lockstep "
                        "driver; bulk degradation would go unreported",
                    )
                )
    return found


# ---------------------------------------------------------------------------
# R5: fault-site registration
# ---------------------------------------------------------------------------

def _declared_sites(sources: Sequence[_Source]) -> Optional[Set[str]]:
    for source in sources:
        if source.path.name != "faults.py":
            continue
        for node in source.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "SITES" not in targets:
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                sites = set()
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        sites.add(element.value)
                return sites
    return None


_FAULT_HOOKS = ("check", "fires", "should_fire")


def _rule_r5(sources: Sequence[_Source]) -> List[Violation]:
    sites = _declared_sites(sources)
    if sites is None:
        return []  # no faults.py in the scanned tree: nothing to check
    found = []
    for source in sources:
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FAULT_HOOKS
                and node.args
            ):
                continue
            literal = node.args[0]
            if not (
                isinstance(literal, ast.Constant)
                and isinstance(literal.value, str)
            ):
                continue
            if literal.value not in sites:
                found.append(
                    Violation(
                        str(source.path),
                        node.lineno,
                        "R5",
                        f"fault site {literal.value!r} is not declared in "
                        f"faults.SITES (known: {', '.join(sorted(sites))})",
                    )
                )
    return found


# ---------------------------------------------------------------------------
# R6: atomic writes inside the artifact store
# ---------------------------------------------------------------------------

#: ``open``-style mode literals: short strings over the mode alphabet.
#: Anything longer or with foreign characters is a path or some other
#: argument, not a mode.
_MODE_LITERAL = re.compile(r"^[rwxab+tU]{1,3}$")

#: Mode characters that make a handle writable (truncate, create,
#: append, or update) -- the ones a crash can tear.
_WRITE_CHARS = frozenset("wax+")

_OPENERS = ("open", "open_memmap")


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _write_mode(node: ast.Call) -> Optional[str]:
    """The write-mode literal *node* opens with, if any."""
    candidates: List[ast.expr] = [
        keyword.value for keyword in node.keywords if keyword.arg == "mode"
    ]
    # positional mode: open(path, "wb") / open_memmap(path, "w+", ...)
    candidates.extend(node.args[1:2])
    for candidate in candidates:
        if not (
            isinstance(candidate, ast.Constant)
            and isinstance(candidate.value, str)
        ):
            continue
        mode = candidate.value
        if _MODE_LITERAL.match(mode) and _WRITE_CHARS & set(mode):
            return mode
    return None


def _rule_r6(source: _Source) -> List[Violation]:
    if "store" not in source.path.parts:
        return []
    if source.path.name == "atomic.py":
        return []  # the sanctioned writer: tmp + fsync + rename lives here
    found = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _OPENERS:
            continue
        mode = _write_mode(node)
        if mode is None:
            continue
        found.append(
            Violation(
                str(source.path),
                node.lineno,
                "R6",
                f"{name}(..., {mode!r}) writes non-atomically inside the "
                "artifact store; route it through repro.store.atomic "
                "(tmp + fsync + rename)",
            )
        )
    return found


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _suppressed(violation: Violation, source: _Source) -> bool:
    codes = source.noqa.get(violation.line, "missing")
    if codes == "missing":
        return False
    return codes is None or violation.code in codes


def check_paths(paths: Iterable[Path]) -> List[Violation]:
    """Lint every ``.py`` file under *paths*; returns surviving violations."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    sources: List[_Source] = []
    violations: List[Violation] = []
    by_path: Dict[str, _Source] = {}
    for path in files:
        source, errors = _load(path)
        violations.extend(errors)
        if source is not None:
            sources.append(source)
            by_path[str(path)] = source
    for source in sources:
        violations.extend(_rule_r1(source))
        violations.extend(_rule_r3(source))
        violations.extend(_rule_r4(source))
        violations.extend(_rule_r6(source))
    violations.extend(_rule_r2(sources))
    violations.extend(_rule_r5(sources))
    kept = []
    for violation in violations:
        source = by_path.get(violation.path)
        if source is not None and _suppressed(violation, source):
            continue
        kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.code))
    return kept


def check_tree(root: str) -> List[Violation]:
    """:func:`check_paths` over a single root (string convenience)."""
    return check_paths([Path(root)])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check",
        description="Run the project invariant linter (rules R1-R6).",
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to lint"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table first"
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
    violations = check_paths([Path(p) for p in options.paths])
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
