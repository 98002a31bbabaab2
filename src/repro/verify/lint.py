"""Determinism lint: an AST checker for the simulator's own code.

Reproducible simulation is a *code* property, not just a seed: one call
to ``time.time()`` or ``np.random.rand()`` in a hot path silently
breaks run-for-run determinism, and a broad ``except`` in the
localization core can swallow the very model-drift errors static
verification exists to surface.  This linter walks the AST of
``src/repro`` and enforces:

``wall-clock``
    No ``time.time``/``time.time_ns`` and no ``datetime.now`` /
    ``utcnow`` / ``today`` anywhere in sim code.  Monotonic timers
    (``time.perf_counter``, ``time.monotonic``) stay allowed — the
    observability layer measures wall *durations* with them, which
    never feeds back into simulated behaviour.

``unseeded-random``
    No stdlib ``random`` at all, and no ``np.random.<fn>`` module-level
    calls outside ``sim/rng.py`` (the one place seeded generators are
    minted).  Passing ``np.random.Generator`` objects around is fine —
    the rule targets the *global* generators.

``broad-except``
    No bare ``except:`` and no ``except Exception/BaseException`` in
    ``core/`` — handlers there must name the failure they expect and
    let everything else propagate.

``mutable-default``
    No list/dict/set literals (or ``list()``/``dict()``/``set()``
    calls) as default argument values.

``shared-instance-default``
    No constructor call (``Name(...)`` with a capitalized name, e.g.
    ``AgentResourceModel()``) as a default argument value.  Like a
    mutable literal, the instance is built once at ``def`` time and
    shared by every call — two agents handed the same default resource
    model mutate each other's state.

``retry-without-backoff``
    A loop that visibly retries (its loop variable or ``while`` test
    names an ``attempt``/``retry`` counter) must space its attempts:
    somewhere in the body a call whose name mentions ``backoff``,
    ``sleep``, ``delay``, or ``wait`` must appear (e.g.
    ``RetryPolicy.backoff_s``).  A bare retry loop hammers the failing
    dependency and, in sim code, collapses every attempt onto one
    timestamp.

``telemetry-write``
    Telemetry must flow through the bus recorder, not ad-hoc files: a
    write-mode ``open()`` inside the observability/bus layers
    (``obs/``, ``bus/``), or an ``open()`` anywhere whose literal path
    ends in ``.jsonl``, is flagged.  The sanctioned writers — the
    JSONL recorder (``bus/recorder.py``) and the trace exporter
    (``obs/export.py``) — are exempted by name, the same mechanism as
    the RNG exemption for ``sim/rng.py``.  Side-channel telemetry
    files bypass the recording's sequencing, fingerprint, and footer,
    so a replay can never prove it saw everything the run emitted.

``worker-determinism``
    Functions handed to ``multiprocessing`` as worker entry points
    (the ``target=`` of a ``Process(...)`` call, or the function
    argument of a pool ``map``/``starmap``/``apply``/``apply_async``/
    ``imap``) must not call a monotonic timer (``time.perf_counter``,
    ``time.monotonic``) or read process identity (``os.getpid``,
    ``os.urandom``, ``uuid.uuid4``, ``socket.gethostname`` and kin).
    In single-process code monotonic timers are harmless
    observability; inside a forked worker any of these is a covert
    per-process input that makes shard results depend on which process
    ran them.

Spelled names are canonicalized through the shared
:class:`~repro.verify.resolver.ImportTable` before any rule matches,
so ``from time import time``, ``import numpy.random as npr``, and
``from datetime import datetime as dt`` are caught the same as their
fully-spelled forms — the alias gray zone the PR-2 lint left open.
What the call rules forbid is the catalogue in
:mod:`repro.verify.resolver`, which the taint sources also default to.

There is no suppression syntax: the shipped tree has zero violations
(``tests/verify/test_lint.py`` keeps it that way), and an exception is
an edit to the catalogue or to the exempt-file constants below.  Run
standalone with ``python -m repro.verify --lint [paths...]``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.verify.resolver import (
    DISPATCH_METHODS,
    GLOBAL_RNG_PREFIXES,
    MONOTONIC_TIMERS,
    PROCESS_IDENTITY,
    WALL_CLOCK,
    ImportTable,
    dotted_name as _dotted_name,
    names,
    package_root,
    python_files,
)

__all__ = [
    "DeterminismLinter",
    "LintViolation",
    "lint_paths",
]

_WALL_CLOCK = "wall-clock"
_UNSEEDED = "unseeded-random"
_BROAD_EXCEPT = "broad-except"
_MUTABLE_DEFAULT = "mutable-default"
_SHARED_DEFAULT = "shared-instance-default"
_WORKER_DETERMINISM = "worker-determinism"
_RETRY_NO_BACKOFF = "retry-without-backoff"
_TELEMETRY_WRITE = "telemetry-write"

#: Files (relative, ``/``-separated suffixes) allowed to touch the
#: global numpy RNG machinery: the seeded-stream registry itself.
_RNG_EXEMPT_SUFFIXES = ("sim/rng.py",)

#: Directories (path fragments) where broad excepts are forbidden.
_BROAD_EXCEPT_SCOPE = ("core",)

_MUTABLE_CALLS = ("list", "dict", "set", "bytearray")

#: Directories (path fragments) whose write-mode ``open()`` calls are
#: telemetry writes by construction.
_TELEMETRY_SCOPE = ("obs", "bus")

#: Files (relative, ``/``-separated suffixes) allowed to open telemetry
#: files for writing: the recorder and the trace exporter.
_TELEMETRY_EXEMPT_SUFFIXES = ("bus/recorder.py", "obs/export.py")

#: Loop-variable / test-name fragments that mark a loop as a retry loop.
_RETRY_NAME_FRAGMENTS = ("attempt", "retry", "retries")

#: Call-name fragments that count as spacing the attempts out.
_BACKOFF_NAME_FRAGMENTS = ("backoff", "sleep", "delay", "wait")


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a precise source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """The ``path:line:col: rule: message`` display form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}"


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _constructor_name(node: ast.AST) -> Optional[str]:
    """The dotted name of a constructor-style call (``Class(...)`` or
    ``pkg.Class(...)``), identified by a capitalized final segment."""
    if not isinstance(node, ast.Call):
        return None
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    if last[:1].isupper():
        return dotted
    return None


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of a write-capable ``open()`` call.

    ``None`` for read-only opens and for dynamic (non-literal) modes —
    the rule only fires on provable writes.
    """
    mode = "r"
    if len(node.args) >= 2:
        arg = node.args[1]
        if not (isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)):
            return None
        mode = arg.value
    for keyword in node.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            if not (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                return None
            mode = value.value
    if any(flag in mode for flag in "wax+"):
        return mode
    return None


def _opens_jsonl_literal(node: ast.Call) -> bool:
    """Whether the ``open()`` call's literal path ends in ``.jsonl``."""
    if not node.args:
        return False
    arg = node.args[0]
    return (isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
            and arg.value.endswith(".jsonl"))


class _Visitor(ast.NodeVisitor):
    """Collects violations for one module."""

    def __init__(
        self,
        path: str,
        rng_exempt: bool,
        broad_except_scoped: bool,
        telemetry_scoped: bool = False,
        telemetry_exempt: bool = False,
        imports: Optional[ImportTable] = None,
    ) -> None:
        self.path = path
        self.rng_exempt = rng_exempt
        self.broad_except_scoped = broad_except_scoped
        self.telemetry_scoped = telemetry_scoped
        self.telemetry_exempt = telemetry_exempt
        self.imports = imports if imports is not None else ImportTable()
        self.violations: List[LintViolation] = []
        #: Simple names handed to multiprocessing as entry points.
        self.worker_names: set = set()
        #: Every function definition in the module, by simple name.
        self.function_defs: Dict[str, List[ast.AST]] = {}

    # -- helpers -------------------------------------------------------

    def _emit(
        self, node: ast.AST, rule: str, message: str
    ) -> None:
        self.violations.append(LintViolation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        ))

    # -- calls: wall clock and randomness ------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        spelled = _dotted_name(node.func)
        resolved = None
        if spelled is not None:
            resolved = self.imports.resolve(spelled)
            self._check_call(node, resolved, spelled)
        self._check_telemetry_write(node)
        self._collect_worker_targets(node, resolved)
        self.generic_visit(node)

    def _spell(self, spelled: str, resolved: str) -> str:
        """Display form: the spelled name, plus what it resolves to
        when an import alias hides the canonical path."""
        if resolved == spelled:
            return spelled
        return f"{spelled} (= {resolved})"

    def _check_telemetry_write(self, node: ast.Call) -> None:
        """Direct ``open(..., "w")`` telemetry writes bypass the bus
        recorder; fires in obs/bus-scoped files and, anywhere, on a
        write-mode open of a literal ``*.jsonl`` path."""
        if self.telemetry_exempt:
            return
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            return
        mode = _open_write_mode(node)
        if mode is None:
            return
        if self.telemetry_scoped or _opens_jsonl_literal(node):
            self._emit(
                node, _TELEMETRY_WRITE,
                f"direct open(..., {mode!r}) writes telemetry outside "
                "the recorder; publish on the TelemetryBus and let "
                "JsonlRecorder persist it",
            )

    def _collect_worker_targets(
        self, node: ast.Call, dotted: Optional[str]
    ) -> None:
        """Remember functions dispatched as multiprocessing workers."""
        if dotted is None:
            return
        last = dotted.rsplit(".", 1)[-1]
        if last.endswith("Process"):
            for keyword in node.keywords:
                if keyword.arg == "target" and isinstance(
                    keyword.value, ast.Name
                ):
                    self.worker_names.add(keyword.value.id)
        elif last in DISPATCH_METHODS and "." in dotted:
            if node.args and isinstance(node.args[0], ast.Name):
                self.worker_names.add(node.args[0].id)

    def _check_call(
        self, node: ast.Call, dotted: str, spelled: str
    ) -> None:
        label = self._spell(spelled, dotted)
        if names(dotted, WALL_CLOCK):
            self._emit(
                node, _WALL_CLOCK,
                f"call to {label}() reads the wall clock; sim "
                "code must take time from the simulation engine",
            )
            return
        if not dotted.startswith(GLOBAL_RNG_PREFIXES):
            return
        if not dotted.startswith("numpy."):
            self._emit(
                node, _UNSEEDED,
                f"call to {label}() uses the global stdlib RNG; "
                "draw from a named RngRegistry stream instead",
            )
        elif not self.rng_exempt:
            self._emit(
                node, _UNSEEDED,
                f"call to {label}() touches numpy's global "
                "RNG machinery outside sim/rng.py; draw from "
                "a named RngRegistry stream instead",
            )

    # -- stdlib random imports -----------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    node, _UNSEEDED,
                    "stdlib 'random' imported; sim code must use "
                    "seeded RngRegistry streams",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._emit(
                node, _UNSEEDED,
                "stdlib 'random' imported; sim code must use seeded "
                "RngRegistry streams",
            )
        self.generic_visit(node)

    # -- broad except --------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.broad_except_scoped:
            broad = self._broad_name(node.type)
            if broad is not None:
                self._emit(
                    node, _BROAD_EXCEPT,
                    f"{broad} swallows unexpected failures; catch the "
                    "narrow exception the callee actually raises",
                )
        self.generic_visit(node)

    @staticmethod
    def _broad_name(node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return "bare 'except:'"
        caught: Iterable[ast.AST]
        if isinstance(node, ast.Tuple):
            caught = node.elts
        else:
            caught = (node,)
        for element in caught:
            dotted = _dotted_name(element)
            if dotted in ("Exception", "BaseException"):
                return f"'except {dotted}'"
        return None

    # -- mutable defaults ----------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.function_defs.setdefault(node.name, []).append(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.function_defs.setdefault(node.name, []).append(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self._emit(
                    default, _MUTABLE_DEFAULT,
                    "mutable default argument is shared across calls; "
                    "use None plus an in-body fallback",
                )
                continue
            constructor = _constructor_name(default)
            if constructor is not None:
                self._emit(
                    default, _SHARED_DEFAULT,
                    f"default {constructor}(...) builds one instance "
                    "at def time, shared by every call; default to "
                    "None and construct per call in the body",
                )

    # -- retry loops without backoff -----------------------------------

    def visit_For(self, node: ast.For) -> None:
        targets = {
            n.id.lower()
            for n in ast.walk(node.target)
            if isinstance(n, ast.Name)
        }
        if self._names_look_like_retry(targets):
            self._check_retry_loop(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        tested = set()
        for sub in ast.walk(node.test):
            if isinstance(sub, ast.Name):
                tested.add(sub.id.lower())
            elif isinstance(sub, ast.Attribute):
                tested.add(sub.attr.lower())
        if self._names_look_like_retry(tested):
            self._check_retry_loop(node)
        self.generic_visit(node)

    @staticmethod
    def _names_look_like_retry(candidates: Iterable[str]) -> bool:
        return any(
            fragment in name
            for name in candidates
            for fragment in _RETRY_NAME_FRAGMENTS
        )

    def _check_retry_loop(self, node) -> None:
        """A retry loop must space attempts via a backoff/sleep call."""
        calls = [
            sub for stmt in node.body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call)
        ]
        if not calls:
            return
        for call in calls:
            dotted = _dotted_name(call.func)
            if dotted is None:
                continue
            last = dotted.rsplit(".", 1)[-1].lower()
            if any(f in last for f in _BACKOFF_NAME_FRAGMENTS):
                return
        self._emit(
            node, _RETRY_NO_BACKOFF,
            "retry loop without backoff hammers the failing "
            "dependency; space attempts with a backoff/sleep/delay "
            "call (e.g. RetryPolicy.backoff_s)",
        )

    # -- worker determinism (post-pass) --------------------------------

    def check_workers(self) -> None:
        """Scan multiprocessing worker entry points for per-process
        inputs.  Runs after the main visit, once all ``Process(...)``
        dispatch sites and function definitions have been collected.
        The check is direct (the entry point's own body), not
        transitive through its callees.  Forbidden there: process
        identity, plus the timers that are only harmless while there
        is one process."""
        forbidden = MONOTONIC_TIMERS + PROCESS_IDENTITY
        for name in sorted(self.worker_names):
            for definition in self.function_defs.get(name, []):
                for sub in ast.walk(definition):
                    if not isinstance(sub, ast.Call):
                        continue
                    spelled = _dotted_name(sub.func)
                    if spelled is None:
                        continue
                    dotted = self.imports.resolve(spelled)
                    if names(dotted, forbidden):
                        self._emit(
                            sub, _WORKER_DETERMINISM,
                            f"worker entry point '{name}' calls "
                            f"{self._spell(spelled, dotted)}(); "
                            "per-process inputs make shard results "
                            "depend on which process ran them",
                        )


class DeterminismLinter:
    """Walks python sources and applies the determinism rules."""

    def lint_source(self, source: str, path: str) -> List[LintViolation]:
        """Lint one module's source text."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [LintViolation(
                path=path, line=error.lineno or 0,
                col=error.offset or 0, rule="syntax-error",
                message=str(error.msg),
            )]
        normalized = path.replace(os.sep, "/")
        visitor = _Visitor(
            path=path,
            rng_exempt=normalized.endswith(_RNG_EXEMPT_SUFFIXES),
            broad_except_scoped=any(
                f"/{scope}/" in normalized
                for scope in _BROAD_EXCEPT_SCOPE
            ),
            telemetry_scoped=any(
                f"/{scope}/" in normalized
                for scope in _TELEMETRY_SCOPE
            ),
            telemetry_exempt=normalized.endswith(
                _TELEMETRY_EXEMPT_SUFFIXES
            ),
            imports=ImportTable.from_tree(tree),
        )
        visitor.visit(tree)
        visitor.check_workers()
        return sorted(
            visitor.violations, key=lambda v: (v.line, v.col, v.rule)
        )

    def lint_file(self, path: str) -> List[LintViolation]:
        """Lint one file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.lint_source(handle.read(), path)

    def lint_paths(
        self, paths: Iterable[str]
    ) -> Tuple[List[LintViolation], int]:
        """Lint files and/or directory trees; returns (violations,
        files linted)."""
        violations: List[LintViolation] = []
        count = 0
        for path in paths:
            files = python_files(path) if os.path.isdir(path) else [path]
            for name in files:
                violations.extend(self.lint_file(name))
            count += len(files)
        return violations, count


def lint_paths(
    paths: Optional[Sequence[str]] = None,
) -> Tuple[List[LintViolation], int]:
    """Module-level convenience: lint ``paths`` (default: the package)."""
    linter = DeterminismLinter()
    return linter.lint_paths(list(paths) if paths else [package_root()])
