"""The nondeterminism catalogue has one owner, and the lint reads it.

``repro.verify.resolver`` names the out-of-band inputs once; the lint's
call rules read it.  Every entry is checked here against the lint,
spelled canonically and through import aliases.  (The parametrized
test keeps the name it had while a taint analyzer read the catalogue
too.)
"""

import os

import pytest

from repro.verify import lint, resolver
from repro.verify.resolver import (
    DISPATCH_METHODS,
    ENVIRON,
    ENV_READS,
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
#: worker entry point).
FAMILIES = (
    (WALL_CLOCK, "wall-clock", None),
    (RNG_MEMBERS, "unseeded-random", None),
    (PROCESS_IDENTITY, None, "worker-determinism"),
    (MONOTONIC_TIMERS, None, "worker-determinism"),
    (ENV_READS, "env-read", None),
)

CASES = [
    pytest.param(name, rule, worker_rule, id=name)
    for catalogue, rule, worker_rule in FAMILIES
    for name in catalogue
]


def spellings(name):
    """``(import line, spelled callable)`` pairs that all mean ``name``:
    the canonical spelling plus two import aliases."""
    head, attr = name.rsplit(".", 1)
    if head == "os.environ":            # a mapping the os module holds
        return [
            ("import os", name),
            ("import os as alias", f"alias.environ.{attr}"),
            ("from os import environ as e", f"e.{attr}"),
        ]
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


@pytest.mark.parametrize("name, rule, worker_rule", CASES)
def test_lint_and_taint_sources_agree_with_the_catalogue(
    name, rule, worker_rule
):
    for import_line, spelled in spellings(name):
        resolved = ImportTable.from_source(import_line).resolve(spelled)
        assert names(resolved, [name]), spelled

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


@pytest.mark.parametrize("import_line, spelled", [
    ("import os", "os.environ"),
    ("import os as alias", "alias.environ"),
    ("from os import environ as e", "e"),
])
def test_a_subscript_of_the_environment_is_an_env_read(import_line, spelled):
    for name in ENVIRON:
        assert ImportTable.from_source(import_line).resolve(spelled) == name
    assert call_rules(
        f"{import_line}\nvalue = {spelled}['HOME']\n", line=2
    ) == {"env-read"}


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
    """The lint reads the resolver's tuples, and keeps no private list
    naming a catalogue entry."""
    assert lint.DISPATCH_METHODS is DISPATCH_METHODS
    assert lint.ENV_READS is ENV_READS
    assert lint.ENVIRON is ENVIRON

    owned = (WALL_CLOCK, GLOBAL_RNG_PREFIXES, PROCESS_IDENTITY,
             MONOTONIC_TIMERS, DISPATCH_METHODS, ENV_READS, ENVIRON)
    entries = {entry for catalogue in owned for entry in catalogue}
    for attr, value in vars(lint).items():
        if not isinstance(value, (tuple, list, set, frozenset)):
            continue
        if any(value is catalogue for catalogue in owned):
            continue
        strings = {item for item in value if isinstance(item, str)}
        assert not entries & strings, (
            f"{lint.__name__}.{attr} restates the catalogue in "
            f"{resolver.__name__}"
        )
