"""The nondeterminism catalogue has one owner, and both readers agree.

``repro.verify.resolver`` names the out-of-band inputs once; the lint's
call rules and the flow analyzer's taint sources both read it.  Every
entry is checked here against both readers, spelled canonically and
through import aliases, so the two cannot drift apart again (at the
parent commit a forked worker could call ``os.getppid``, ``uuid.uuid1``
or ``socket.gethostname`` past the lint but not past the taint sources).
"""

import os

import pytest

from repro.verify import callgraph, lint, resolver, taint
from repro.verify.resolver import (
    DISPATCH_METHODS,
    GLOBAL_RNG_PREFIXES,
    MONOTONIC_TIMERS,
    PROCESS_IDENTITY,
    WALL_CLOCK,
    ImportTable,
    names,
    python_files,
)

#: One member under each global-RNG root.
RNG_MEMBERS = tuple(prefix + "choice" for prefix in GLOBAL_RNG_PREFIXES)

#: (catalogue, lint rule at module level, lint rule added inside a
#: worker entry point, taint source kind).
FAMILIES = (
    (WALL_CLOCK, "wall-clock", None, "wall-clock"),
    (RNG_MEMBERS, "unseeded-random", None, "unseeded-random"),
    (PROCESS_IDENTITY, None, "worker-determinism", "process-identity"),
    (MONOTONIC_TIMERS, None, "worker-determinism", None),
)

CASES = [
    pytest.param(name, rule, worker_rule, kind, id=name)
    for catalogue, rule, worker_rule, kind in FAMILIES
    for name in catalogue
]


def spellings(name):
    """``(import line, spelled callable)`` pairs that all mean ``name``:
    the canonical spelling plus two import aliases."""
    head, attr = name.rsplit(".", 1)
    if head in ("datetime", "date"):    # classes of the datetime module
        return [
            (f"from datetime import {head}", f"{head}.{attr}"),
            ("import datetime", f"datetime.{head}.{attr}"),
            (f"from datetime import {head} as alias", f"alias.{attr}"),
        ]
    return [
        (f"import {head}", f"{head}.{attr}"),
        (f"import {head} as alias", f"alias.{attr}"),
        (f"from {head} import {attr} as alias", "alias"),
    ]


def call_rules(source, line):
    """The lint rules fired by the call on ``line`` of ``source``."""
    violations = lint.DeterminismLinter().lint_source(source, "pkg/m.py")
    return {v.rule for v in violations if v.line == line}


@pytest.mark.parametrize("name, rule, worker_rule, kind", CASES)
def test_lint_and_taint_sources_agree_with_the_catalogue(
    name, rule, worker_rule, kind
):
    for import_line, spelled in spellings(name):
        resolved = ImportTable.from_source(import_line).resolve(spelled)
        assert taint.source_kind(resolved) == kind, spelled

        expected = {rule} - {None}
        assert call_rules(
            f"{import_line}\nvalue = {spelled}()\n", line=2
        ) == expected, spelled

        in_worker = (
            f"{import_line}\n"
            "import multiprocessing as mp\n"
            "def worker(conn):\n"
            f"    return {spelled}()\n"
            "def launch():\n"
            "    return mp.Process(target=worker)\n"
        )
        assert call_rules(in_worker, line=4) == (
            expected | {worker_rule} - {None}
        ), spelled


def test_names_matches_exactly_or_by_dotted_suffix_only():
    assert names("time.time", WALL_CLOCK)
    assert names("datetime.datetime.now", WALL_CLOCK)
    assert not names("mytime.time", WALL_CLOCK)      # not a dotted suffix
    assert not names("time.time.real", WALL_CLOCK)   # not a prefix match
    assert not names("time", WALL_CLOCK)


def test_python_files_is_sorted_whatever_order_the_tree_was_made_in(
    tmp_path,
):
    relative = [
        os.path.join(*parts) for parts in (
            ("zeta.py",), ("alpha.py",), ("b", "mid.py"), ("b", "a.py"),
            ("a", "z.py"), ("a", "inner", "deep.py"), ("c", "one.py"),
        )
    ]
    listings = []
    for label, order in (("fwd", relative), ("rev", relative[::-1])):
        root = tmp_path / label
        for rel in order + [os.path.join("a", "notes.txt")]:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        found = python_files(str(root))
        assert found == sorted(found)
        listings.append([os.path.relpath(p, str(root)) for p in found])
    assert listings[0] == listings[1] == sorted(relative)


def test_the_catalogue_has_one_owner():
    """The lint and the call graph share the resolver's dispatch tuple,
    and no reader keeps a private list naming a catalogue entry."""
    assert lint.DISPATCH_METHODS is DISPATCH_METHODS
    assert callgraph.DISPATCH_METHODS is DISPATCH_METHODS
    assert taint.WALL_CLOCK is WALL_CLOCK
    assert taint.GLOBAL_RNG_PREFIXES is GLOBAL_RNG_PREFIXES
    assert taint.PROCESS_IDENTITY is PROCESS_IDENTITY

    owned = (WALL_CLOCK, GLOBAL_RNG_PREFIXES, PROCESS_IDENTITY,
             MONOTONIC_TIMERS, DISPATCH_METHODS)
    entries = {entry for catalogue in owned for entry in catalogue}
    for module in (lint, callgraph, taint):
        for attr, value in vars(module).items():
            if not isinstance(value, (tuple, list, set, frozenset)):
                continue
            if any(value is catalogue for catalogue in owned):
                continue
            strings = {item for item in value if isinstance(item, str)}
            assert not entries & strings, (
                f"{module.__name__}.{attr} restates the catalogue in "
                f"{resolver.__name__}"
            )
