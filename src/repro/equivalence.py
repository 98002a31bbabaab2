"""The equivalence contract: one row-diff helper under four gates.

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
:mod:`repro.bus.replay`).  ``python -m repro equivalence`` runs all
four.  Timing is not measured here — ``python bench/run.py`` does that.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence

from repro.cluster.identifiers import LinkId
from repro.network.issues import IssueType
from repro.network.packet import ProbeResult
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_scenario

__all__ = [
    "EquivalenceError",
    "compare",
    "divergences",
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


def verify_equivalence() -> int:
    """The batch≡sequential gate: a probe's outcome is its own.

    Runs two rounds of a skeleton-like pair list on two identically
    seeded 64-endpoint scenarios with one lossy link — one probe at a
    time in a seeded permutation of the pairs on the first, one
    :meth:`~repro.network.fabric.DataPlaneFabric.send_probe_batch` per
    round on the second — and requires the same :class:`ProbeResult`
    for every pair, lost rows among them.  Returns the results compared.
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
    if not any(result.lost for result in streams[0]["results"]):
        raise EquivalenceError("batched probing: no probe was lost")
    return compare("batched probing", *streams)["results"]
