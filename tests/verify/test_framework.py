"""Tests for the pass framework: findings, reports, verifier plumbing."""

from repro.obs.trace import TraceRecorder
from repro.verify.framework import (
    FabricVerifier,
    Finding,
    PassResult,
    Severity,
    VerificationContext,
    VerificationPass,
    VerifierReport,
)


class NoisyPass(VerificationPass):
    name = "test.noisy"

    def run(self, context):
        result = self.result()
        result.checked = 3
        self.finding(result, "host-0", "warning first",
                     severity=Severity.WARNING)
        self.finding(result, "host-1", "then an error",
                     details=["line one", "line two"])
        return result


class QuietPass(VerificationPass):
    name = "test.quiet"

    def run(self, context):
        result = self.result()
        result.checked = 5
        return result


class SkippingPass(VerificationPass):
    name = "test.skipping"

    def run(self, context):
        return self.skip("nothing to look at")


class TestFinding:
    def test_explain_renders_evidence_chain(self):
        finding = Finding(
            check="flowtable.offload_consistency",
            severity=Severity.ERROR,
            component="host-0/rnic-1",
            explanation="rule missing from hardware",
            details=("OVS believes it is offloaded",),
        )
        text = finding.explain()
        assert "finding: host-0/rnic-1 [error]" in text
        assert "check: flowtable.offload_consistency" in text
        assert "verdict: rule missing from hardware" in text
        assert "    OVS believes it is offloaded" in text

    def test_explain_without_details_has_no_evidence_header(self):
        finding = Finding(
            check="c", severity=Severity.INFO, component="x",
            explanation="e",
        )
        assert "evidence" not in finding.explain()

    def test_severity_ordering(self):
        assert Severity.ERROR.rank > Severity.WARNING.rank
        assert Severity.WARNING.rank > Severity.INFO.rank


class TestVerifierReport:
    def _report(self):
        verifier = FabricVerifier(
            passes=[NoisyPass(), QuietPass(), SkippingPass()]
        )
        return verifier.verify(VerificationContext(cluster=None))

    def test_findings_sorted_most_severe_first(self):
        report = self._report()
        severities = [f.severity for f in report.findings]
        assert severities == [Severity.ERROR, Severity.WARNING]

    def test_errors_and_warnings_filters(self):
        report = self._report()
        assert len(report.errors()) == 1
        assert len(report.warnings()) == 1
        assert not report.ok

    def test_components_deduplicated_severity_order(self):
        report = self._report()
        assert report.components() == ["host-1", "host-0"]

    def test_render_mentions_every_pass(self):
        text = self._report().render()
        assert "FAIL test.noisy" in text
        assert "ok   test.quiet" in text
        assert "SKIP test.skipping: nothing to look at" in text
        assert "finding: host-1 [error]" in text

    def test_empty_report_is_ok(self):
        report = VerifierReport()
        assert report.ok
        assert report.findings == []

    def test_pass_result_ok_semantics(self):
        assert PassResult(name="p").ok
        assert not PassResult(name="p", skipped=True).ok


class TestFabricVerifier:
    def test_recorder_receives_finding_events(self):
        recorder = TraceRecorder()
        verifier = FabricVerifier(
            passes=[NoisyPass()], recorder=recorder
        )
        verifier.verify(VerificationContext(cluster=None))
        kinds = [e.kind for e in recorder.events()]
        assert kinds.count("verify.finding") == 2
        assert "verify.report" in kinds
        assert recorder.metrics.counters()["verify.findings"] == 2

    def test_default_passes_cover_all_layers(self):
        names = {p.name for p in FabricVerifier().passes}
        layers = {name.split(".")[0] for name in names}
        assert layers == {"topology", "flowtable", "overlay", "skeleton"}
