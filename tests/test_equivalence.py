"""The equivalence helper and the two gates that live beside it."""

import dataclasses

import pytest

from repro.core.analyzer import Analyzer
from repro.equivalence import (
    EquivalenceError,
    compare,
    divergences,
    verify_detector_equivalence,
    verify_equivalence,
)
from repro.network.fabric import DataPlaneFabric

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
        assert verify_equivalence() == 256

    def test_reports_a_seeded_divergence(self, monkeypatch):
        batch = DataPlaneFabric.send_probe_batch

        def skewed(self, pairs, at, salt=0):
            results = batch(self, pairs, at, salt)
            if len(results) > 1 and at == 1.0:
                results[5] = dataclasses.replace(
                    results[5], latency_us=-1.0
                )
            return results

        monkeypatch.setattr(DataPlaneFabric, "send_probe_batch", skewed)
        with pytest.raises(EquivalenceError, match="results diverged"):
            verify_equivalence()


class TestDetectorGate:
    def test_passes_on_defaults(self):
        counts = verify_detector_equivalence()
        assert counts["anomalies_compared"] > 0
        assert counts["events_compared"] > 0
        assert counts["score_drift"] <= 1e-10

    def test_reports_a_seeded_divergence(self, monkeypatch):
        ingest = Analyzer.ingest

        def deaf_columnar(self, result):
            if self.backend == "columnar" and result.src == "vd-32":
                result = dataclasses.replace(
                    result, lost=False, latency_us=19.0
                )
            return ingest(self, result)

        monkeypatch.setattr(Analyzer, "ingest", deaf_columnar)
        with pytest.raises(EquivalenceError, match="anomalies diverged"):
            verify_detector_equivalence()
