"""The equivalence contract: one row-diff helper under five gates.

Every fast or distributed path in this repo claims to change nothing
but the clock — batch≡sequential probing, columnar≡legacy detection,
shard≡single, fleet≡single, replay≡live.  Each claim is a *gate*: run
the reference and the candidate on the same seed and require their
outputs to match row for row.  :func:`compare` is the one routine all
five gates call, over named row streams (events, verdicts, votes,
blacklists, rollups, ...); :class:`EquivalenceError` is the one error
they raise.

The two gates with no plane of their own live here
(:func:`verify_equivalence`, :func:`verify_detector_equivalence`); the
others stay with their planes (:mod:`repro.shard.equivalence`,
:mod:`repro.fleet.equivalence`, :mod:`repro.bus.replay`).
``python -m repro equivalence`` runs all five.  Timing is not measured
here — ``python bench/run.py`` does that.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.network.packet import ProbeResult
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_scenario

__all__ = [
    "EquivalenceError",
    "compare",
    "divergences",
    "verify_detector_equivalence",
    "verify_equivalence",
]

Streams = Mapping[str, Sequence[Any]]

#: Streams a baseline must not leave empty when it carries them: a run
#: that detected or localized nothing would match any candidate.
_NON_VACUOUS = ("events", "verdicts")
#: Diverging rows quoted per side in an error message.
_SHOWN = 3
#: Largest columnar-vs-legacy anomaly score difference tolerated (the
#: batched LOF sums distances in another order than the per-pair one).
SCORE_TOLERANCE = 1e-10


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
    """The batch≡sequential gate for the probing fast path.

    Runs the same two rounds of a skeleton-like pair list on two
    identically seeded 64-endpoint scenarios — one probe at a time on
    the first, one
    :meth:`~repro.network.fabric.DataPlaneFabric.send_probe_batch` per
    round on the second — and requires identical :class:`ProbeResult`
    streams.  Returns the results compared.
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
        results: List[ProbeResult] = []
        for at in (0.0, 1.0):
            if batched:
                results += scenario.fabric.send_probe_batch(pairs, at)
            else:
                results += [
                    scenario.fabric.send_probe(src, dst, at)
                    for src, dst in pairs
                ]
        streams.append({"results": results})
    return compare("batched probing", *streams)["results"]


def verify_detector_equivalence() -> Dict[str, float]:
    """The columnar≡legacy gate for the analyzer backends.

    Feeds an identical probe stream — healthy latency noise, one pair
    with a mid-run loss burst, one with a latency shift, plus a
    mid-stream ``reset_pairs_involving`` churn — through
    ``Analyzer(backend="legacy")`` and ``Analyzer(backend="columnar")``
    and requires identical anomaly and event histories, with anomaly
    scores within :data:`SCORE_TOLERANCE`.  Returns the compared counts
    and the largest score drift.
    """
    num_pairs, rounds, interval_s = 48, 240, 5.0
    rng = RngRegistry(7).stream("verify.detector")
    pair_ids = [
        (f"vd-{2 * i}", f"vd-{2 * i + 1}") for i in range(num_pairs)
    ]
    lossy = pair_ids[num_pairs // 3]
    shifted = pair_ids[2 * num_pairs // 3]
    loss_draws = rng.random((rounds, num_pairs))
    lat_draws = rng.random((rounds, num_pairs))

    def run(backend: str) -> Analyzer:
        analyzer = Analyzer(
            config=DetectorConfig(
                long_window_s=300.0, min_long_samples=20
            ),
            backend=backend,
        )
        for r in range(rounds):
            at = r * interval_s
            for i, pair in enumerate(pair_ids):
                burst = pair == lossy and 400 <= at < 700
                slow = pair == shifted and at >= 600
                lost = bool(
                    loss_draws[r, i] < (0.9 if burst else 0.002)
                )
                latency = (
                    None if lost
                    else (18.0 + 2.0 * lat_draws[r, i])
                    * (2.5 if slow else 1.0)
                )
                analyzer.ingest(ProbeResult(
                    src=pair[0], dst=pair[1], sent_at=at,
                    lost=lost, latency_us=latency,
                ))
            if r == rounds // 2:
                analyzer.reset_pairs_involving([shifted[0]], at)
            analyzer.flush(at)
        analyzer.flush(rounds * interval_s)
        return analyzer

    def streams(analyzer: Analyzer) -> Dict[str, List[tuple]]:
        return {
            "anomalies": sorted(
                (a.pair, a.detected_at, a.symptom.value, a.detector,
                 a.window_start)
                for a in analyzer.anomalies
            ),
            "events": sorted(
                (e.pair, e.first_detected_at, e.symptom.value,
                 e.resolved_at, len(e.anomalies))
                for e in analyzer.events
            ),
        }

    legacy = run("legacy")
    columnar = run("columnar")
    counts = compare(
        "columnar analyzer", streams(legacy), streams(columnar)
    )
    reference = {
        (a.pair, a.detected_at, a.detector): a.score
        for a in legacy.anomalies
    }
    drift = max(
        (
            abs(reference[(a.pair, a.detected_at, a.detector)] - a.score)
            for a in columnar.anomalies
        ),
        default=0.0,
    )
    if drift > SCORE_TOLERANCE:
        raise EquivalenceError(
            f"columnar analyzer: anomaly scores drifted {drift:.1e} "
            f"from the legacy reference (tolerance "
            f"{SCORE_TOLERANCE:.0e})"
        )
    return {
        "anomalies_compared": counts["anomalies"],
        "events_compared": counts["events"],
        "score_drift": drift,
    }
