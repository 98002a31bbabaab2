"""``--reach``: the functions in ``src`` that only tests reach.

Runs every non-test entry point of a checkout in a traced child
interpreter and diffs the functions entered against the package's
function table (:func:`functions`, read from source).  Reach depends on
inputs (``obs.export.to_jsonl`` runs under ``repro trace`` but not
``repro trace --out``), so :data:`VERBS` lists every verb in each output
mode.  A forked worker inherits the tracer and its descriptor, so what
runs only in an ``mp`` shard worker is reached.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.verify.resolver import package_root, python_files

__all__ = [
    "VERBS", "FunctionInfo", "entries", "functions", "reached",
    "run_reach", "unreached",
]

#: Every ``repro`` verb in each output mode.  Children run in the
#: checkout (``equivalence`` reads the committed reports there); what a
#: verb writes goes to ``{scratch}``.
VERBS = (
    "demo", "campaign", "stats", "report", "status", "trace",
    "trace --out {scratch}/trace.jsonl", "trace --explain",
    "export-metrics", "verify", "verify --issue REPETITIVE_FLOW_OFFLOADING",
    "verify --lint", "equivalence",
    "chaos --out {scratch}/chaos.json", "gray --out {scratch}/gray.json",
    "run", "run --backend mp --kill 1", "fleet", "fleet --kill 0",
    "record --out {scratch}/recording.jsonl",
    "replay {scratch}/recording.jsonl", "tail --plain",
    "tail --plain --shards 2", "tail --plain --fleet 2",
)

#: The child: a stdlib-only tracer that appends one line per code object
#: it enters, unbuffered, so a forked worker's ``os._exit`` loses none.
_CHILD = """
import os, runpy, sys, threading
out, root, sys.argv = sys.argv[1], sys.argv[2], sys.argv[3:]
fd, seen = os.open(out, os.O_WRONLY | os.O_APPEND | os.O_CREAT), {}
def tracer(frame, event, arg):
    code = frame.f_code
    if id(code) not in seen:
        seen[id(code)] = code
        if code.co_filename.startswith(root):
            os.write(fd, f"{code.co_filename}\\t{code.co_firstlineno}\\t"
                         f"{code.co_name}\\n".encode())
threading.settrace(tracer)
sys.settrace(tracer)
if sys.argv[0] == "-m":
    del sys.argv[0]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
else:
    runpy.run_path(sys.argv[0], run_name="__main__")
"""

#: A code object: (real path, first line, ``co_name``).
Key = Tuple[str, int, str]


@dataclass(frozen=True)
class FunctionInfo:
    """One function (method, nested def or named lambda) in a package."""

    fid: str                      # "pkg.module:Qual.name"
    module: str
    qualname: str
    name: str
    path: str
    lineno: int
    node: ast.AST


def functions(root: str) -> Dict[str, FunctionInfo]:
    """Every function under the package directory ``root`` by fid, the
    modules named as the package imports itself (``src/repro`` holds
    ``repro.network.fabric``) and walked in :func:`python_files` order."""
    root = os.path.abspath(root)
    package = os.path.basename(root.rstrip(os.sep))
    table: Dict[str, FunctionInfo] = {}
    for path in python_files(root):
        parts = os.path.relpath(path, root)[:-3].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        _define(table, ".".join([package, *parts]), path, tree, ())
    return table


def _define(
    table: Dict[str, FunctionInfo], module: str, path: str,
    scope: ast.AST, qual: Tuple[str, ...],
) -> None:
    """The functions a scope's direct children define, nested ones
    under their parent's qualified name."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.ClassDef):
            _define(table, module, path, node, qual + (node.name,))
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, code = node.name, node
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Lambda
        ) and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            name, code = node.targets[0].id, node.value
        else:
            continue
        qualname = ".".join(qual + (name,))
        fid = f"{module}:{qualname}"
        table[fid] = FunctionInfo(
            fid, module, qualname, name, path, node.lineno, code)
        if code is node:
            _define(table, module, path, node, qual + (name,))


def entries(repo: str, scratch: str) -> List[Tuple[str, ...]]:
    """``python`` argv for every non-test entry point of ``repo``: the
    verbs and ``python -m repro.verify``, each benchmark workload as a
    driver (the suite runs them in children a tracer does not see),
    ``examples/`` (``export_figures.py`` writes where it is told) and
    ``benchmarks/``."""
    table: List[Tuple[str, ...]] = [
        ("-m", "repro", *verb.format(scratch=scratch).split())
        for verb in VERBS
    ] + [("-m", "repro.verify", "--lint")]
    with open(os.path.join(repo, "BENCHMARK.json"), encoding="utf-8") as f:
        table += [(os.path.join(repo, "bench", "run.py"), "--workload",
                   workload["name"], "--smoke", "--trace", "1")
                  for workload in json.load(f)["workloads"]]
    table += [(path, os.path.join(scratch, "figures"))
              for path in python_files(os.path.join(repo, "examples"))]
    return table + [("-m", "pytest", os.path.join(repo, "benchmarks"), "-q",
                     "-p", "no:cacheprovider", "--benchmark-disable")]


def reached(
    table: Sequence[Sequence[str]], package: str, cwd: str, out: str
) -> Set[Key]:
    """Every code object under ``package`` an entry entered, the entries
    run in order from ``cwd`` (``replay`` reads what ``record`` wrote)
    and traced into ``out``."""
    package = os.path.realpath(package)
    search = [os.path.dirname(package), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search))
    for argv in table:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, out, package, *argv], cwd=cwd,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        print(f"  exit {done.returncode}  {' '.join(argv)}", flush=True)
    with open(out, encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split("\t") for line in handle]
    return {(path, int(line), name) for path, line, name in rows}


def _key(info: FunctionInfo) -> Key:
    # A decorated def's code object starts at its first decorator.
    node = info.node
    first = min([node.lineno] + [
        d.lineno for d in getattr(node, "decorator_list", [])
    ])
    name = "<lambda>" if isinstance(node, ast.Lambda) else info.name
    return os.path.realpath(info.path), first, name


def _is_stub(node: ast.AST) -> bool:
    """An interface stub: past a docstring, the body is empty (an
    abstract method) or only raises ``NotImplementedError``."""
    body = [stmt for stmt in getattr(node, "body", []) if not (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
    )]
    return not body or len(body) == 1 and isinstance(body[0], ast.Raise) and (
        ast.unparse(body[0]).startswith("raise NotImplementedError")
    )


def unreached(package: str, hit: Set[Key]) -> List[FunctionInfo]:
    """The package's functions no entry reached, interface stubs exempt,
    sorted by module and qualified name."""
    return [info for _, info in sorted(functions(package).items())
            if _key(info) not in hit and not _is_stub(info.node)]


def run_reach() -> int:
    """The ``--reach`` mode: the set by module, then a total; exit 0."""
    package = package_root()
    repo = os.path.dirname(os.path.dirname(package))
    with tempfile.TemporaryDirectory() as scratch:
        table = entries(repo, scratch)
        print(f"tracing {len(table)} entry points")
        hit = reached(table, package, repo, f"{scratch}/reached.tsv")
    # This run is the entry that reaches the tool itself.
    missed = [i for i in unreached(package, hit) if i.module != __name__]
    for index, info in enumerate(missed):
        if index == 0 or info.module != missed[index - 1].module:
            print(info.module)
        print(f"  {info.qualname} (line {info.lineno})")
    names = {(info.module, info.qualname) for info in missed}
    lines = sum(  # a nested def's lines count once, in its parent's
        getattr(i.node, "end_lineno", i.lineno) - i.lineno + 1
        for i in missed
        if (i.module, i.qualname.rpartition(".")[0]) not in names
    )
    modules = len({info.module for info in missed})
    print(f"tests-only: {len(missed)} functions, {lines} lines, "
          f"in {modules} modules")
    return 0
