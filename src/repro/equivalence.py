"""The equivalence contract: one row-diff helper, one table of goldens.

Every fast or distributed path in this repo claims to change nothing
but the clock — batch≡sequential probing, shard≡single, fleet≡single,
replay≡live.  Each claim is a *gate*: run the reference and the
candidate on the same seed and require their outputs to match row for
row.  :func:`compare` is the one routine all four gates call, over
named row streams (events, verdicts, blacklists, rollups, ...);
:class:`EquivalenceError` is the one error they raise.  The tier-1
detector golden (``tests/golden/detector_reference.json``) is checked
through :func:`compare` too.

The gate with no plane of its own lives here
(:func:`verify_equivalence`); the others stay with their planes
(:mod:`repro.shard.equivalence`, :mod:`repro.fleet.equivalence`,
:mod:`repro.bus.replay`).  :data:`CHECKS` holds them, and every other
committed golden, to what the CLI verbs measure: ``python -m repro
equivalence`` (:func:`contract`) prints the one table.

Determinism is checked by running twice.  Every row is measured three
times: once, again in this process in a fresh scratch directory (what
process-global state leaks from one run into the next shows), and once
in a child interpreter whose str hashing differs from this one's (what
a set or dict of strings iterates into an output shows).  A row whose
three values are not equal fails, naming the run that disagreed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import operator
import os
import pickle
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from functools import partial, reduce
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple,
)

from repro.cluster.identifiers import LinkId
from repro.network.issues import IssueType
from repro.network.packet import ProbeResult
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_scenario

__all__ = [
    "CHECKS",
    "Check",
    "EquivalenceError",
    "compare",
    "contract",
    "divergences",
    "floored",
    "rebaseline",
    "streams_sha256",
    "verify_equivalence",
]

Streams = Mapping[str, Sequence[Any]]

#: Streams a baseline must not leave empty when it carries them: a run
#: that detected or localized nothing would match any candidate.
_NON_VACUOUS = ("events", "verdicts")
#: Diverging rows quoted per side in an error message.
_SHOWN = 3
#: The least a plane gate's baseline may hold: on fewer rows a moved
#: verdict has nowhere to show.
_PLANE_FLOOR = (("events", 10), ("verdicts", 3))


class EquivalenceError(AssertionError):
    """A candidate run diverged from its baseline, or the baseline was
    too empty for the comparison to mean anything."""


def _only_in(rows: Sequence[Any], others: Sequence[Any]) -> List[Any]:
    """Rows of ``rows`` with no partner in ``others`` (multiset)."""
    unmatched = Counter(map(repr, others))
    alone = []
    for row in rows:
        if unmatched[repr(row)] > 0:
            unmatched[repr(row)] -= 1
        else:
            alone.append(row)
    return alone


def divergences(baseline: Streams, candidate: Streams) -> List[str]:
    """One line per diverging stream; empty when every stream matches.

    Streams are ordered: the same rows in another order diverge too.
    """
    problems = []
    for name, base in baseline.items():
        cand = candidate[name]
        if list(base) == list(cand):
            continue
        missing = _only_in(base, cand)
        extra = _only_in(cand, base)
        if missing or extra:
            detail = (
                f"only in baseline {missing[:_SHOWN]!r}, "
                f"only in candidate {extra[:_SHOWN]!r}"
            )
        else:
            index = next(
                i for i, (a, b) in enumerate(zip(base, cand)) if a != b
            )
            detail = (
                f"same rows in another order, first at row {index}: "
                f"{base[index]!r} vs {cand[index]!r}"
            )
        problems.append(
            f"{name} diverged ({len(base)} baseline rows, "
            f"{len(cand)} candidate rows): {detail}"
        )
    return problems


def compare(
    label: str, baseline: Streams, candidate: Streams
) -> Dict[str, int]:
    """Require ``candidate`` to match ``baseline`` stream for stream.

    Raises :class:`EquivalenceError` naming each diverging stream and
    its first few unmatched rows, or — before comparing anything — if
    the baseline has no events or no verdicts and would pass vacuously.
    Returns the number of rows compared per stream.
    """
    for name in _NON_VACUOUS:
        if name in baseline and not baseline[name]:
            raise EquivalenceError(
                f"{label}: the baseline has no {name} — the gate would "
                f"pass vacuously; compare a run that detects and "
                f"localizes something"
            )
    problems = divergences(baseline, candidate)
    if problems:
        raise EquivalenceError(
            f"{label} diverged from its baseline:\n"
            + "\n".join(problems)
        )
    return {name: len(rows) for name, rows in baseline.items()}


def streams_sha256(streams: Streams) -> str:
    """The sha256 of named row streams, as a golden pins them: a moved
    row anywhere moves it."""
    return _sha256(json.dumps(
        {name: list(rows) for name, rows in streams.items()},
        default=dataclasses.astuple,
    ).encode())


def verify_equivalence() -> Dict[str, int]:
    """The batch≡sequential gate: a probe's outcome is its own.

    Runs two rounds of a skeleton-like pair list on two identically
    seeded 64-endpoint scenarios with one lossy link — one probe at a
    time in a seeded permutation of the pairs on the first, one
    :meth:`~repro.network.fabric.DataPlaneFabric.send_probe_batch` per
    round on the second — and requires the same :class:`ProbeResult`
    for every pair, lost rows among them.  Returns how many results were
    compared and how many of them were lost.
    """
    streams = []
    for batched in (False, True):
        scenario = build_scenario(
            num_containers=8, gpus_per_container=8, seed=7,
            start_monitoring=False,
        )
        endpoints = scenario.task.endpoints()
        # Skeleton-like: a ring plus one long-stride chord per endpoint.
        pairs = [
            (src, endpoints[(i + step) % len(endpoints)])
            for i, src in enumerate(endpoints)
            for step in (1, len(endpoints) // 3 + 1)
        ]
        # A lossy spine uplink that 16 of the 128 pairs cross.
        topology = scenario.topology
        scenario.injector.inject_issue(
            IssueType.CRC_ERROR,
            LinkId.between(topology.tors()[2], topology.spines[0]),
            start=0.0, loss_rate=0.5,
        )
        order = RngRegistry(7).stream("order").permutation(len(pairs))
        results: List[ProbeResult] = []
        for at in (0.0, 1.0):
            if batched:
                results += scenario.fabric.send_probe_batch(pairs, at)
                continue
            by_pair = {
                i: scenario.fabric.send_probe(*pairs[i], at)
                for i in order.tolist()
            }
            results += [by_pair[i] for i in range(len(pairs))]
        streams.append({"results": results})
    lost = sum(result.lost for result in streams[0]["results"])
    if not lost:
        raise EquivalenceError("batched probing: no probe was lost")
    return {"results": compare("batched probing", *streams)["results"],
            "lost": lost}


# ----------------------------------------------------------------------
# The contract: every committed golden, one table
# ----------------------------------------------------------------------

#: The repository root; every golden path is relative to it.
ROOT = Path(__file__).resolve().parents[2]
CONTRACT = "tests/golden/contract.json"
RECORDS = "tests/golden/record_fixtures.json"


class Check(NamedTuple):
    """One row: ``measure(scratch directory)`` must equal the value at
    ``keys`` in the JSON ``golden`` — or, with no ``keys``, the
    :func:`_report` of the golden, the report its CLI verb ``name``
    writes, which ``measure`` writes to ``<scratch>/<name>.json``.
    ``measure`` crosses to the hash-seed child by pickle, so it is a
    module-level function or a ``partial`` of one."""

    name: str
    measure: Callable[[str], Dict[str, Any]]
    golden: str = CONTRACT
    keys: Tuple[str, ...] = ()

    def expected(self, root: Path) -> Dict[str, Any]:
        data = (root / self.golden).read_bytes()
        if not self.keys:
            return _report(data)
        return reduce(operator.getitem, self.keys, json.loads(data))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fingerprint(data: bytes) -> Dict[str, Any]:
    """A committed file's identity: its size and sha256."""
    return {"bytes": len(data), "sha256": _sha256(data)}


def _report(data: bytes) -> Dict[str, Any]:
    """A gate report's fingerprint and the bounds it violated."""
    violations = json.loads(data)["summary"]["violations"]
    return {**_fingerprint(data), "violations": violations}


def _recording(scratch: str, fixture: str = "default") -> str:
    """``fixture``'s ``repro record`` file, recorded on first use."""
    path = os.path.join(scratch, f"{fixture}.jsonl")
    if not os.path.exists(path):
        from repro.bus.replay import record_standard_run

        issue = {} if fixture == "default" else {"issue": fixture}
        record_standard_run(path, **issue)
    return path


def _batch(scratch: str) -> Dict[str, int]:
    return verify_equivalence()


def _record(fixture: str, scratch: str) -> Dict[str, Any]:
    data = Path(_recording(scratch, fixture)).read_bytes()
    args = [] if fixture == "default" else ["--issue", fixture]
    return {"args": args, **_fingerprint(data)}


def floored(label: str, row: Dict[str, Any]) -> Dict[str, Any]:
    """A plane gate's row, if its baseline holds the floor's rows."""
    thin = [f"{row[name]} {name} (floor {least})"
            for name, least in _PLANE_FLOOR if row[name] < least]
    if thin:
        raise EquivalenceError(
            f"{label}: the baseline compares only {', '.join(thin)}; "
            f"add faults to the gate's spec, not rounds"
        )
    return row


def _shard(scratch: str) -> Dict[str, Any]:
    from repro.shard.equivalence import verify_shard_equivalence

    run = verify_shard_equivalence(backends=("inproc", "mp"))
    return floored("shard == single", {
        "events": run["baseline_events"],
        "verdicts": run["baseline_verdicts"],
        "configurations": len(run["compared"]),
        "sha256": run["baseline_sha256"],
    })


def _fleet(scratch: str) -> Dict[str, Any]:
    from repro.fleet.equivalence import verify_fleet_equivalence

    run = verify_fleet_equivalence()
    return floored("fleet == single", {
        "events": len(run.event_summary),
        "verdicts": len(run.verdict_summary),
        "rollups": len(run.rollups),
        "sha256": streams_sha256(run.comparable()),
    })


def _replay(scratch: str) -> Dict[str, Any]:
    from repro.bus.replay import verify_replay_equivalence

    run = verify_replay_equivalence(_recording(scratch))
    return {"events": len(run.recorded_events),
            "verdicts": len(run.recorded_verdicts),
            "probes": run.probes_ingested}


def _gate(verb: str, scratch: str) -> Dict[str, Any]:
    from repro.chaos.gate import ChaosGate
    from repro.chaos.gray import GrayGate

    out = os.path.join(scratch, f"{verb}.json")
    (ChaosGate() if verb == "chaos" else GrayGate()).run(out=out)
    return _report(Path(out).read_bytes())


def _campaign(scratch: str) -> Dict[str, Any]:
    from repro.chaos.gate import campaign

    return campaign()


def _localization(scratch: str) -> Dict[str, Any]:
    from repro.chaos.corpus import digest, slice_rows

    return digest(slice_rows())


def _lint(scratch: str) -> Dict[str, Any]:
    from repro.verify.lint import lint_paths

    return {"findings": [v.format() for v in lint_paths(None)[0]]}


def _named(findings) -> List[str]:
    return [f"{finding.check}: {finding.component}" for finding in findings]


def _verifier(scratch: str) -> Dict[str, Any]:
    from repro.verify.cli import build_default_report

    issue = "REPETITIVE_FLOW_OFFLOADING"  # one injected flow-table fault
    return {"healthy": _named(build_default_report().errors()),
            issue: _named(build_default_report(issue=issue).errors())}


def _skeleton(scratch: str) -> Dict[str, Any]:
    """Digest of the 2,048-endpoint skeleton (256 containers x 8 RNICs,
    pp=2, seed 3: the ``steady-2048`` task) and of its k = 8 cut, the
    one cut only an Eq. 3 repair makes feasible."""
    from repro.analysis.clustering import constrained_position_groups
    from repro.analysis.stft import feature_matrix

    scenario = build_scenario(
        num_containers=256, gpus_per_container=8, pp=2, seed=3,
        start_monitoring=False,
    )
    # The skeleton infers from the stream's next draw; the two cuts
    # below cluster this one.
    series = scenario.generator.all_series(600.0)
    skeleton = scenario.apply_skeleton()
    endpoints = sorted(series)
    features = feature_matrix([series[e] for e in endpoints])
    hosts = [scenario.task.containers[e.container].host for e in endpoints]
    grouping = constrained_position_groups(features, hosts)
    repaired = constrained_position_groups(
        features, hosts, candidate_group_counts=[8]
    )
    skeleton_view = [
        [[str(e) for e in group] for group in skeleton.groups],
        skeleton.dp,
        skeleton.stage_of_group,
        sorted(sorted(str(e) for e in edge) for edge in skeleton.edges),
        skeleton.group_topology,
    ]
    applied = scenario.hunter.controller.ping_list_of(scenario.task.id)
    return {
        "endpoints": len(endpoints),
        "group_count": skeleton.group_count,
        "dp": skeleton.dp,
        "edges": len(skeleton.edges),
        "quarantined": len(skeleton.quarantined),
        "skeleton_sha256": _sha256(json.dumps(skeleton_view).encode()),
        "applied_pairs_sha256": _sha256(json.dumps(
            sorted([str(p.src), str(p.dst)] for p in applied.pairs)
        ).encode()),
        "labels_sha256": _sha256(grouping.labels.astype("int64").tobytes()),
        "size_variance_hex": float(grouping.size_variance).hex(),
        "repaired_k8_labels_sha256": _sha256(
            repaired.labels.astype("int64").tobytes()
        ),
    }


def _cli(*argv: str) -> str:
    """What ``repro *argv`` prints, run in this process."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code:
        raise EquivalenceError(f"repro {' '.join(argv)} exited {code}")
    return out.getvalue()


def _trace(scratch: str) -> Dict[str, Any]:
    """The records ``repro trace --out`` writes, each less its
    ``wall_duration_s``: the one field a clock, not the run, decides."""
    path = os.path.join(scratch, "trace.jsonl")
    _cli("trace", "--out", path)
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    for record in records:
        record.pop("wall_duration_s", None)
    return {"records": len(records),
            "sha256": _sha256(json.dumps(records).encode())}


def _stdout(scratch: str) -> Dict[str, str]:
    """The sha256 of what each operator verb prints."""
    return {verb: _sha256(_cli(*verb.split()).encode())
            for verb in ("report", "export-metrics", "trace --explain")}


#: The contract, in the order ``repro equivalence`` prints it.
CHECKS: Tuple[Check, ...] = (
    Check("batch == sequential", _batch, keys=("batch == sequential",)),
    Check("shard == single", _shard, keys=("shard == single",)),
    Check("fleet == single", _fleet, keys=("fleet == single",)),
    *(Check(f"record {fixture}", partial(_record, fixture), RECORDS,
            ("fixtures", fixture))
      for fixture in ("default", "PFC_STORM", "CRC_ERROR")),
    Check("replay == live", _replay, keys=("replay == live",)),
    Check("chaos", partial(_gate, "chaos"), "BENCH_chaos.json"),
    Check("gray", partial(_gate, "gray"), "BENCH_gray.json"),
    Check("campaign", _campaign, keys=("campaign",)),
    Check("localization", _localization, keys=("localization",)),
    Check("lint", _lint, keys=("lint",)),
    Check("fabric verifier", _verifier, keys=("fabric verifier",)),
    Check("skeleton 2048", _skeleton, keys=("skeleton 2048",)),
    Check("trace", _trace, keys=("trace",)),
    Check("cli stdout", _stdout, keys=("cli stdout",)),
)


#: Widest table cell; a longer one is cut, ending in "...".
_CELL_WIDTH = 64


def _cell(value: Optional[Dict[str, Any]]) -> str:
    """A value as a table cell: counts, list and dict sizes, hashes cut
    to 12 digits; ``-`` for one that could not be read or measured."""
    cell = "-" if value is None else ", ".join(
        f"{name} {entry[:12]}" if isinstance(entry, str) else
        f"{len(entry) if isinstance(entry, (list, dict)) else entry} {name}"
        for name, entry in value.items()
    )
    if len(cell) > _CELL_WIDTH:
        return cell[:_CELL_WIDTH - 3] + "..."
    return cell


def _differences(want: Any, got: Any, where: str = "") -> List[str]:
    """Where two values differ, key path by key path."""
    if not (isinstance(want, dict) and isinstance(got, dict)):
        return [f"{where}expected {want!r}, got {got!r}"]
    return [line for key in {**want, **got} if want.get(key) != got.get(key)
            for line in _differences(want.get(key), got.get(key),
                                     f"{where}{key}: ")]


#: One run of one row: its value (``None`` if it raised), seconds, and
#: the traceback if it raised.
Measured = Tuple[Optional[Dict[str, Any]], str, str]

#: The child pass's hash seed: one this process's str hashing does not
#: share (seed 0 is what hash randomization off means).
HASH_SEED = "0" if sys.flags.hash_randomization else "1"

#: The three runs of every row, in order.
RUNS = ("first run", "in-process repeat",
        f"hash-seed child (PYTHONHASHSEED={HASH_SEED})")

#: The child: this process's import path, then :func:`_child_pass`.
_CHILD = ("import sys; sys.path[:0] = sys.argv[2:]; "
          "from repro.equivalence import _child_pass; "
          "_child_pass(sys.argv[1])")


def _measure(check: Check, scratch: str) -> Measured:
    got: Optional[Dict[str, Any]] = None
    error = ""
    start = time.perf_counter()
    try:
        got = check.measure(scratch)
    except Exception:  # the row's failure, reported with its traceback
        error = traceback.format_exc().rstrip()
    return got, f"{time.perf_counter() - start:.2f}", error


def _measure_all(checks: Sequence[Check], scratch: str) -> List[Measured]:
    """Every row in order in a new ``scratch`` directory, so a repeat
    records afresh what the replay row replays."""
    os.makedirs(scratch)
    return [_measure(check, scratch) for check in checks]


def _child_pass(scratch: str) -> None:
    """The child's run: the rows the parent pickled, measured here."""
    with open(os.path.join(scratch, "checks.pickle"), "rb") as handle:
        checks = pickle.load(handle)
    measured = _measure_all(checks, os.path.join(scratch, "child"))
    with open(os.path.join(scratch, "child.pickle"), "wb") as handle:
        pickle.dump(measured, handle)


def _runs(
    checks: Sequence[Check], scratch: str
) -> List[Tuple[Measured, Measured, Measured]]:
    """Each row's three runs: the first and the in-process repeat in
    ``<scratch>/first`` and ``<scratch>/again``, while the child, started
    before them, measures in ``<scratch>/child``."""
    with open(os.path.join(scratch, "checks.pickle"), "wb") as handle:
        pickle.dump(tuple(checks), handle)
    log = os.path.join(scratch, "child.log")
    with open(log, "wb") as output, subprocess.Popen(
        [sys.executable, "-c", _CHILD, scratch, *sys.path],
        env=dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        stdout=output, stderr=subprocess.STDOUT,
    ) as child:
        first = _measure_all(checks, os.path.join(scratch, "first"))
        again = _measure_all(checks, os.path.join(scratch, "again"))
    try:
        with open(os.path.join(scratch, "child.pickle"), "rb") as handle:
            other = pickle.load(handle)
    except OSError:
        tail = Path(log).read_text(errors="replace").strip()[-2000:]
        other = [(None, "-", f"exited {child.returncode}: {tail}")] * len(
            checks)
    return list(zip(first, again, other))


def _disagreements(runs: Sequence[Measured]) -> List[str]:
    """Where a row's later runs differ from its first (which, if it
    raised, is the row's failure already), each line naming its run."""
    first = runs[0][0]
    lines = []
    for name, (got, _, error) in zip(RUNS[1:], runs[1:]):
        if error:
            lines.append(f"{name} raised: {error}")
        elif first is not None and got != first:
            lines += [f"{name}: {line}" for line in _differences(first, got)]
    return lines


class Row(NamedTuple):
    """One row of the table: the golden (``None``: unreadable), the
    first run's value (``None``: it raised), its seconds, where the
    value differs from the golden, and what failed in the runs."""

    check: Check
    want: Any
    got: Any
    seconds: str
    moved: List[str]
    unstable: List[str]

    @property
    def problems(self) -> List[str]:
        return self.moved + self.unstable


def _rows(scratch: str) -> List[Row]:
    """Every row of :data:`CHECKS`, run three times.  An unreadable
    golden or a raising run fails the row, never the rows after it."""
    rows = []
    for check, runs in zip(CHECKS, _runs(CHECKS, scratch)):
        got, seconds, error = runs[0]
        want: Optional[Dict[str, Any]] = None
        try:
            want = check.expected(ROOT)
            moved = [] if got is None or want == got else _differences(
                want, got)
        except (OSError, LookupError, ValueError) as unreadable:
            moved = [f"golden {check.golden} unreadable: {unreadable!r}"]
        rows.append(Row(check, want, got, seconds, moved,
                        ([error] if error else []) + _disagreements(runs)))
    return rows


def contract() -> int:
    """``repro equivalence``: every row in one table, then each failed
    row's problem and the command that regenerates its golden; returns
    the exit code."""
    with tempfile.TemporaryDirectory() as scratch:
        rows = _rows(scratch)
    table = [("check", "expected", "got", "seconds", "ok")] + [
        (row.check.name, _cell(row.want), _cell(row.got), row.seconds,
         "FAILED" if row.problems else "ok")
        for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(4)]
    for *cells, ok in table:
        cells[3] = cells[3].rjust(widths[3])
        print("  ".join([c.ljust(w) for c, w in zip(cells, widths)] + [ok]))
    failed = [row for row in rows if row.problems]
    for row in failed:
        print(f"\n{row.check.name} FAILED: " + "\n".join(row.problems)
              + f"\n  regenerate {row.check.golden}: {REBASELINE}",
              file=sys.stderr)
    print(f"\ncontract: {len(rows) - len(failed)} of {len(rows)} rows ok")
    return 1 if failed else 0


#: The one command that rewrites every golden the contract reads.
REBASELINE = "PYTHONPATH=src python -m repro.equivalence"


def rebaseline() -> int:
    """Rewrite every golden :data:`CHECKS` reads from one fresh run —
    the JSON goldens row by row, each report as its verb wrote it — and
    print every key path that moved; returns how many moved.  A row
    that raises or whose runs disagree, or a report that breaks its
    bounds, leaves every golden untouched."""
    documents: Dict[str, Dict[str, Any]] = {}
    reports: Dict[str, bytes] = {}
    moved: List[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for row in _rows(scratch):
            check, got = row.check, row.got
            if row.unstable or not check.keys and got["violations"]:
                raise SystemExit(f"{check.name} not rebaselined: " + (
                    "\n".join(row.unstable) if row.unstable
                    else f"{got['violations']}"))
            where = "".join(f"{key}: " for key in (check.golden, *check.keys))
            moved += [where + line for line in row.moved]
            if not check.keys:
                reports[check.golden] = Path(
                    scratch, "first", f"{check.name}.json").read_bytes()
                continue
            *path, last = check.keys
            reduce(lambda d, k: d.setdefault(k, {}), path,
                   documents.setdefault(check.golden, {}))[last] = got
    for golden, document in documents.items():
        (ROOT / golden).write_text(json.dumps(document, indent=2) + "\n")
    for golden, data in reports.items():
        (ROOT / golden).write_bytes(data)
    print("\n".join(moved + [f"rebaselined {len(documents) + len(reports)}"
                             f" goldens: {len(moved)} key paths moved"]))
    return len(moved)


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(f"usage: {REBASELINE}  (rewrites every golden)")
    # Run as the importable module, whose rows the child can unpickle.
    from repro import equivalence

    equivalence.rebaseline()
