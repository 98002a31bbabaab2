"""The equivalence helper, the batch gate beside it, and the detector
golden that replaced the second analyzer engine."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.equivalence import (
    EquivalenceError,
    compare,
    divergences,
    verify_equivalence,
)
from repro.network.draws import PairwiseDrawSource
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.packet import ProbeResult
from repro.sim.rng import RngRegistry

BASELINE = {
    "events": [("a", "b", 4.0), ("c", "d", 6.0)],
    "verdicts": [(4.0, (("rnic-3", "rnic", "rnic", 1.0),), 0)],
    "votes": [("hard", "tor-0<->spine-1", 2)],
}


class TestCompare:
    def test_matching_streams_return_row_counts(self):
        same = {name: list(rows) for name, rows in BASELINE.items()}
        assert compare("same", BASELINE, same) == {
            "events": 2, "verdicts": 1, "votes": 1,
        }

    def test_divergence_names_the_stream_and_the_rows(self):
        candidate = dict(
            BASELINE, events=[("a", "b", 4.0), ("x", "y", 8.0)]
        )
        with pytest.raises(EquivalenceError) as raised:
            compare("4 shards", BASELINE, candidate)
        message = str(raised.value)
        assert "4 shards" in message
        assert "events diverged" in message
        assert "only in baseline [('c', 'd', 6.0)]" in message
        assert "only in candidate [('x', 'y', 8.0)]" in message
        assert "verdicts diverged" not in message

    def test_reordered_rows_diverge(self):
        candidate = dict(BASELINE, events=BASELINE["events"][::-1])
        (problem,) = divergences(BASELINE, candidate)
        assert "events diverged" in problem
        assert "another order" in problem

    def test_duplicate_rows_are_counted(self):
        candidate = dict(BASELINE, votes=BASELINE["votes"] * 2)
        (problem,) = divergences(BASELINE, candidate)
        assert "votes diverged (1 baseline rows, 2 candidate rows)" in (
            problem
        )

    @pytest.mark.parametrize("stream", ["events", "verdicts"])
    def test_empty_events_or_verdicts_baseline_is_vacuous(self, stream):
        empty = dict(BASELINE, **{stream: []})
        with pytest.raises(EquivalenceError, match="vacuous"):
            compare("quiet run", empty, empty)

    def test_other_streams_may_be_empty(self):
        quiet = dict(BASELINE, votes=[])
        assert compare("no votes", quiet, quiet)["votes"] == 0


class TestBatchGate:
    def test_passes_on_defaults(self):
        assert verify_equivalence() == {"results": 256, "lost": 22}

    def test_reports_a_seeded_divergence(self, monkeypatch):
        batch = DataPlaneFabric.send_probe_batch

        def skewed(self, pairs, at):
            results = list(batch(self, pairs, at))
            if len(results) > 1 and at == 1.0:
                row = next(i for i, r in enumerate(results) if r.ok)
                results[row] = dataclasses.replace(
                    results[row], latency_us=-1.0
                )
            return results

        monkeypatch.setattr(DataPlaneFabric, "send_probe_batch", skewed)
        with pytest.raises(EquivalenceError, match="results diverged"):
            verify_equivalence()

    def test_an_order_dependent_draw_diverges(self, monkeypatch):
        """What the gate guards: uniforms from one sequential stream
        give the permuted one-at-a-time arm other rows than the batch."""
        def stream_draws(self, keys, at, columns):
            stream = vars(self).setdefault(
                "_stream", np.random.default_rng(0)
            )
            return stream.random((len(keys), len(columns)))

        monkeypatch.setattr(PairwiseDrawSource, "uniforms", stream_draws)
        with pytest.raises(EquivalenceError, match="results diverged"):
            verify_equivalence()

    def test_a_run_without_lost_rows_is_vacuous(self, monkeypatch):
        monkeypatch.setattr(
            FaultInjector, "inject_issue", lambda *args, **kwargs: None
        )
        with pytest.raises(EquivalenceError, match="no probe was lost"):
            verify_equivalence()


GOLDEN = Path(__file__).parent / "golden" / "detector_reference.json"
#: Largest anomaly score difference tolerated against the golden (the
#: batched kernels sum in another order than the per-pair engine did).
SCORE_TOLERANCE = 1e-10
#: The gate stream's slow pair is the one ``reset_pairs_involving``
#: hits as its latency shifts, so the shift becomes the new baseline
#: and only loss anomalies fire; pair 5 is never reset and alarms LOF
#: and Z-test.
RESET_PAIR, UNRESET_PAIR = 32, 5


def detector_reference(analyzer, slow_index):
    """Drive the detector-gate probe stream through ``analyzer`` and
    return its anomaly rows (score last) and event rows, sorted.

    48 pairs x 240 rounds at 5 s: healthy latency noise, pair 16 with
    a loss burst over [400, 700), pair ``slow_index`` 2.5x slower from
    600 s on, and a ``reset_pairs_involving`` on pair 32 at round 120.
    """
    num_pairs, rounds, interval_s = 48, 240, 5.0
    rng = RngRegistry(7).stream("verify.detector")
    pair_ids = [
        (f"vd-{2 * i}", f"vd-{2 * i + 1}") for i in range(num_pairs)
    ]
    lossy = pair_ids[num_pairs // 3]
    shifted = pair_ids[slow_index]
    loss_draws = rng.random((rounds, num_pairs))
    lat_draws = rng.random((rounds, num_pairs))
    for r in range(rounds):
        at = r * interval_s
        for i, pair in enumerate(pair_ids):
            burst = pair == lossy and 400 <= at < 700
            slow = pair == shifted and at >= 600
            lost = bool(loss_draws[r, i] < (0.9 if burst else 0.002))
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
            analyzer.reset_pairs_involving([pair_ids[RESET_PAIR][0]], at)
        analyzer.flush(at)
    analyzer.flush(rounds * interval_s)
    return {
        "anomalies": sorted(
            [a.pair.src, a.pair.dst, a.detected_at, a.symptom.value,
             a.detector, a.window_start, a.score]
            for a in analyzer.anomalies
        ),
        "events": sorted(
            [e.pair.src, e.pair.dst, e.first_detected_at,
             e.symptom.value, e.resolved_at, len(e.anomalies)]
            for e in analyzer.events
        ),
    }


def golden_streams(make_analyzer):
    """What ``tests/golden/detector_reference.json`` holds below its
    header: the gate stream, then the same stream with the shift on a
    pair that keeps its baseline."""
    gate = detector_reference(make_analyzer(), RESET_PAIR)
    kept = detector_reference(make_analyzer(), UNRESET_PAIR)
    return {
        "anomalies": gate["anomalies"],
        "events": gate["events"],
        "anomalies_unreset_shift": kept["anomalies"],
        "events_unreset_shift": kept["events"],
    }


def check_against_golden(config):
    """Pin ``Analyzer(config)`` to the golden: rows through
    :func:`compare`, scores within :data:`SCORE_TOLERANCE`."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    del golden["header"]
    got = golden_streams(lambda: Analyzer(config=config))

    def without_scores(streams):
        return {
            name: [row[:-1] for row in rows]
            if name.startswith("anomalies") else rows
            for name, rows in streams.items()
        }

    counts = compare(
        "analyzer vs detector golden",
        without_scores(golden), without_scores(got),
    )
    drift = max(
        abs(mine[-1] - theirs[-1])
        for name in ("anomalies", "anomalies_unreset_shift")
        for mine, theirs in zip(got[name], golden[name])
    )
    if drift > SCORE_TOLERANCE:
        raise EquivalenceError(
            f"anomaly scores drifted {drift:.1e} from the golden"
        )
    return counts


class TestDetectorGate:
    CONFIG = DetectorConfig(long_window_s=300.0, min_long_samples=20)

    def test_golden_names_its_origin(self):
        header = json.loads(GOLDEN.read_text(encoding="utf-8"))["header"]
        assert 'backend="legacy"' in header["generated_by"]
        assert header["parent_sha"].startswith("3cb5c9d")

    def test_passes_on_defaults(self):
        counts = check_against_golden(self.CONFIG)
        assert counts["anomalies"] >= 38
        assert counts["events"] >= 22

    def test_reports_a_seeded_divergence(self):
        # The lowest golden LOF score is 86.80: one verdict flips.
        nudged = dataclasses.replace(self.CONFIG, lof_threshold=87.0)
        with pytest.raises(
            EquivalenceError, match="anomalies_unreset_shift diverged"
        ):
            check_against_golden(nudged)
