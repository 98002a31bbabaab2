"""What the lint and the flow analyzer share: names, policy, files.

Both static passes need the same primitive: given the dotted name a
call site *spells* (``dt.now``, ``npr.rand``, ``time``), recover the
name it *means* (``datetime.datetime.now``, ``numpy.random.rand``,
``time.time``).  The PR-2 lint matched spelled names only, so
``from time import time`` and ``import numpy.random as npr`` walked
straight past the ``wall-clock``/``unseeded-random`` rules — exactly
the indirection gray failures hide behind.  One :class:`ImportTable`
per module now feeds both passes, so an alias that evades one evades
neither.

The table is deliberately syntactic: it resolves what the import
statements of one module declare, without executing anything.  Names
bound by assignment (``t = time.time``) are the flow analyzer's job
(it tracks values); names bound by imports are this module's.

*Which* resolved names are out-of-band inputs is one policy too, so it
is written once, here: the lint's rules and the taint sources
(:class:`~repro.verify.taint.TaintConfig` defaults) read the catalogue
below, match against it through :func:`names`, and find their sources
through :func:`python_files` (under :func:`package_root` by default).
An exception to the policy is an edit to this file, reviewed as code.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "DISPATCH_METHODS",
    "GLOBAL_RNG_PREFIXES",
    "ImportTable",
    "MONOTONIC_TIMERS",
    "PROCESS_IDENTITY",
    "WALL_CLOCK",
    "dotted_name",
    "names",
    "package_root",
    "python_files",
]

#: Calls that read the wall clock.
WALL_CLOCK = (
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)

#: Prefixes (every member counts) of the process-global generators:
#: stdlib ``random`` and numpy's module-level functions.
GLOBAL_RNG_PREFIXES = ("random.", "numpy.random.")

#: Calls whose value depends on which process (or host) ran them.
PROCESS_IDENTITY = (
    "os.getpid", "os.getppid", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "socket.gethostname",
)

#: Monotonic timers: harmless in single-process code (``repro.obs``
#: measures wall *durations* with them, which never feed back into
#: simulated behaviour), a covert per-process input in a forked worker.
MONOTONIC_TIMERS = (
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
)

#: Pool methods whose first argument escapes as a worker entry point.
DISPATCH_METHODS = (
    "map", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "apply", "apply_async", "submit",
)


def names(target: str, catalogue: Sequence[str]) -> bool:
    """Whether the *resolved* dotted name ``target`` is, or ends in, an
    entry of ``catalogue`` — so ``datetime.now`` covers
    ``datetime.datetime.now`` and ``sim.rng`` covers ``repro.sim.rng``
    and a fixture's ``pkg.sim.rng``."""
    return any(
        target == name or target.endswith("." + name)
        for name in catalogue
    )


def python_files(root: str) -> List[str]:
    """Every ``.py`` file under ``root``, sorted (``os.walk`` order is
    filesystem-dependent; reports and module order must not be)."""
    return sorted(
        os.path.join(directory, name)
        for directory, _, filenames in os.walk(root)
        for name in filenames
        if name.endswith(".py")
    )


def package_root() -> str:
    """The installed ``repro`` package directory: what the lint and the
    flow analyzer read when given no path, and what CI runs them on."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportTable:
    """Maps the names one module binds via imports to canonical paths.

    >>> table = ImportTable.from_source(
    ...     "import numpy.random as npr\\n"
    ...     "from time import time\\n"
    ...     "from datetime import datetime as dt\\n")
    >>> table.resolve("npr.rand")
    'numpy.random.rand'
    >>> table.resolve("time")
    'time.time'
    >>> table.resolve("dt.now")
    'datetime.datetime.now'
    >>> table.resolve("unbound.name")
    'unbound.name'
    """

    def __init__(self) -> None:
        #: local name -> canonical dotted path it is bound to.
        self.aliases: Dict[str, str] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportTable":
        """Collect every import binding anywhere in ``tree``.

        Function-local imports are folded into the same table: for
        alias resolution a wrong *scope* is harmless (worst case a
        name resolves that would have raised ``NameError``), while a
        missed binding is exactly the evasion being closed.
        """
        table = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                table._add_import(node)
            elif isinstance(node, ast.ImportFrom):
                table._add_import_from(node)
        return table

    @classmethod
    def from_source(cls, source: str) -> "ImportTable":
        """Convenience wrapper over :meth:`from_tree`."""
        return cls.from_tree(ast.parse(source))

    def _add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                # ``import numpy.random as npr``: npr -> numpy.random
                self.aliases[alias.asname] = alias.name
            else:
                # ``import numpy.random`` binds ``numpy``; the spelled
                # call already carries the canonical prefix, so the
                # identity binding just marks the name as a module.
                root = alias.name.split(".", 1)[0]
                self.aliases.setdefault(root, root)

    def _add_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # Relative imports stay package-internal; the call graph
            # resolves those against the package itself.
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    # -- resolution -----------------------------------------------------

    def resolve(self, spelled: str) -> str:
        """The canonical dotted path for a spelled dotted name.

        The first segment is looked up in the alias table; the rest of
        the chain rides along unchanged.  Unknown roots resolve to
        themselves, so resolution is always safe to apply.
        """
        root, sep, rest = spelled.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return spelled
        return f"{target}{sep}{rest}" if rest else target

    def resolve_node(self, node: ast.AST) -> Optional[str]:
        """Resolve a call's ``func`` node straight to a canonical path."""
        spelled = dotted_name(node)
        if spelled is None:
            return None
        return self.resolve(spelled)

    def local_names(self) -> Iterable[str]:
        """The names this module binds via imports (sorted)."""
        return sorted(self.aliases)
