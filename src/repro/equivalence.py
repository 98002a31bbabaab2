"""The equivalence contract: one row-diff helper, one table of goldens.

Every fast or distributed path in this repo claims to change nothing
but the clock — batch≡sequential probing, shard≡single, fleet≡single,
replay≡live.  Each claim is a *gate*: run the reference and the
candidate on the same seed and require their outputs to match row for
row.  :func:`compare` is the one routine all four gates call, over
named row streams (events, verdicts, votes, blacklists, rollups, ...);
:class:`EquivalenceError` is the one error they raise.  The tier-1
detector golden (``tests/golden/detector_reference.json``) is checked
through :func:`compare` too.

The gate with no plane of its own lives here
(:func:`verify_equivalence`); the others stay with their planes
(:mod:`repro.shard.equivalence`, :mod:`repro.fleet.equivalence`,
:mod:`repro.bus.replay`).  :data:`CHECKS` holds them, and every other
committed golden, to what the CLI verbs measure: ``python -m repro
equivalence`` (:func:`contract`) prints the one table.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import sys
import tempfile
import time
import traceback
from collections import Counter
from functools import reduce
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
    "rebaseline",
    "verify_equivalence",
]

Streams = Mapping[str, Sequence[Any]]

#: Streams a baseline must not leave empty when it carries them: a run
#: that detected or localized nothing would match any candidate.
_NON_VACUOUS = ("events", "verdicts")
#: Diverging rows quoted per side in an error message.
_SHOWN = 3


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
    writes, which ``measure`` writes to ``<scratch>/<name>.json``."""

    name: str
    measure: Callable[[str], Dict[str, Any]]
    golden: str = CONTRACT
    keys: Tuple[str, ...] = ()

    def expected(self, root: Path) -> Dict[str, Any]:
        data = (root / self.golden).read_bytes()
        if not self.keys:
            return _report(data)
        return reduce(operator.getitem, self.keys, json.loads(data))


def _fingerprint(data: bytes) -> Dict[str, Any]:
    """A committed file's identity: its size and sha256."""
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


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


def _record(fixture: str) -> Callable[[str], Dict[str, Any]]:
    def measure(scratch: str) -> Dict[str, Any]:
        data = Path(_recording(scratch, fixture)).read_bytes()
        args = [] if fixture == "default" else ["--issue", fixture]
        return {"args": args, **_fingerprint(data)}

    return measure


def _shard(scratch: str) -> Dict[str, Any]:
    from repro.shard.equivalence import verify_shard_equivalence

    run = verify_shard_equivalence(backends=("inproc", "mp"))
    return {"events": run["baseline_events"],
            "verdicts": run["baseline_verdicts"],
            "configurations": len(run["compared"])}


def _fleet(scratch: str) -> Dict[str, Any]:
    from repro.fleet.equivalence import verify_fleet_equivalence

    run = verify_fleet_equivalence()
    return {"events": len(run.event_summary),
            "verdicts": len(run.verdict_summary), "rollups": len(run.rollups)}


def _replay(scratch: str) -> Dict[str, Any]:
    from repro.bus.replay import verify_replay_equivalence

    run = verify_replay_equivalence(_recording(scratch))
    return {"events": len(run.recorded_events),
            "verdicts": len(run.recorded_verdicts),
            "probes": run.probes_ingested}


def _gate(verb: str) -> Callable[[str], Dict[str, Any]]:
    def measure(scratch: str) -> Dict[str, Any]:
        from repro.chaos.gate import ChaosGate
        from repro.chaos.gray import GrayGate

        out = os.path.join(scratch, f"{verb}.json")
        (ChaosGate() if verb == "chaos" else GrayGate()).run(out=out)
        return _report(Path(out).read_bytes())

    return measure


def _campaign(scratch: str) -> Dict[str, Any]:
    from repro.chaos.gate import campaign

    return campaign()


def _lint(scratch: str) -> Dict[str, Any]:
    from repro.verify.lint import lint_paths

    return {"findings": [v.format() for v in lint_paths(None)[0]]}


def _named(findings) -> List[str]:
    return [f"{finding.check}: {finding.component}" for finding in findings]


def _flow(scratch: str) -> Dict[str, Any]:
    from repro.verify.flow import analyze_package

    return {"findings": _named(analyze_package().report.findings)}


def _verifier(scratch: str) -> Dict[str, Any]:
    from repro.verify.cli import build_default_report

    issue = "REPETITIVE_FLOW_OFFLOADING"  # one injected flow-table fault
    return {"healthy": _named(build_default_report().errors()),
            issue: _named(build_default_report(issue=issue).errors())}


#: The contract, in the order ``repro equivalence`` prints it.
CHECKS: Tuple[Check, ...] = (
    Check("batch == sequential", lambda scratch: verify_equivalence(),
          keys=("batch == sequential",)),
    Check("shard == single", _shard, keys=("shard == single",)),
    Check("fleet == single", _fleet, keys=("fleet == single",)),
    *(Check(f"record {fixture}", _record(fixture), RECORDS,
            ("fixtures", fixture))
      for fixture in ("default", "PFC_STORM", "CRC_ERROR")),
    Check("replay == live", _replay, keys=("replay == live",)),
    Check("chaos", _gate("chaos"), "BENCH_chaos.json"),
    Check("gray", _gate("gray"), "BENCH_gray.json"),
    Check("campaign", _campaign, keys=("campaign",)),
    Check("lint", _lint, keys=("lint",)),
    Check("flow", _flow, keys=("flow",)),
    Check("fabric verifier", _verifier, keys=("fabric verifier",)),
)


def _cell(value: Optional[Dict[str, Any]]) -> str:
    """A value as a table cell: counts, list and dict sizes, hashes cut
    to 12 digits; ``-`` for one that could not be read or measured."""
    return "-" if value is None else ", ".join(
        f"{name} {entry[:12]}" if isinstance(entry, str) else
        f"{len(entry) if isinstance(entry, (list, dict)) else entry} {name}"
        for name, entry in value.items()
    )


def _differences(want: Any, got: Any, where: str = "") -> List[str]:
    """Where two values differ, key path by key path."""
    if not (isinstance(want, dict) and isinstance(got, dict)):
        return [f"{where}expected {want!r}, got {got!r}"]
    return [line for key in {**want, **got} if want.get(key) != got.get(key)
            for line in _differences(want.get(key), got.get(key),
                                     f"{where}{key}: ")]


def _run(check: Check, scratch: str) -> Tuple[Any, Any, str, str]:
    """One row's expected and got values (``None``: unreadable, or
    raised), seconds and problem.  An unreadable golden or a raising
    measurement fails the row, never the rows after it."""
    want = got = None
    problems = []
    try:
        want = check.expected(ROOT)
    except (OSError, LookupError, ValueError) as error:
        problems.append(f"golden {check.golden} unreadable: {error!r}")
    start = time.perf_counter()
    try:
        got = check.measure(scratch)
    except Exception:  # the row's failure, reported with its traceback
        problems.append(traceback.format_exc().rstrip())
    seconds = f"{time.perf_counter() - start:.2f}"
    if not problems and want != got:
        problems = _differences(want, got)
    return want, got, seconds, "\n".join(problems)


def contract() -> int:
    """``repro equivalence``: every row in one table, then each failed
    row's problem and the command that regenerates its golden; returns
    the exit code."""
    with tempfile.TemporaryDirectory() as scratch:
        rows = [(check, *_run(check, scratch)) for check in CHECKS]
    table = [("check", "expected", "got", "seconds", "ok")] + [
        (check.name, _cell(want), _cell(got), seconds,
         "FAILED" if problem else "ok")
        for check, want, got, seconds, problem in rows]
    widths = [max(len(line[i]) for line in table) for i in range(4)]
    for *cells, ok in table:
        cells[3] = cells[3].rjust(widths[3])
        print("  ".join([c.ljust(w) for c, w in zip(cells, widths)] + [ok]))
    failed = [(check, problem) for check, *_, problem in rows if problem]
    for check, problem in failed:
        print(f"\n{check.name} FAILED: {problem}\n  regenerate "
              f"{check.golden}: {REBASELINE}", file=sys.stderr)
    print(f"\ncontract: {len(rows) - len(failed)} of {len(rows)} rows ok")
    return 1 if failed else 0


#: The one command that rewrites every golden the contract reads.
REBASELINE = "PYTHONPATH=src python -m repro.equivalence"


def rebaseline() -> int:
    """Rewrite every golden :data:`CHECKS` reads from one fresh run —
    the JSON goldens row by row, each report as its verb wrote it — and
    print every key path that moved; returns how many moved.  A row
    that raises, or a report that breaks its bounds, leaves every
    golden untouched."""
    documents: Dict[str, Dict[str, Any]] = {}
    reports: Dict[str, bytes] = {}
    moved: List[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        for check in CHECKS:
            _, got, _, problem = _run(check, scratch)
            if got is None or not check.keys and got["violations"]:
                raise SystemExit(f"{check.name} not rebaselined: " + (
                    problem if got is None else f"{got['violations']}"))
            where = "".join(f"{key}: " for key in (check.golden, *check.keys))
            moved += [where + line for line in problem.splitlines()]
            if not check.keys:
                reports[check.golden] = Path(
                    scratch, f"{check.name}.json").read_bytes()
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
    rebaseline()
