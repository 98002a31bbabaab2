"""Tests for the command-line interface."""

import json
import re
from functools import partial

import pytest

from repro.cli import main
from repro.network.issues import all_issue_types


class TestDemo:
    def test_demo_succeeds_and_prints_diagnosis(self, capsys):
        code = main([
            "demo", "--containers", "4", "--gpus", "4", "--seed", "3",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "detected: True" in output
        assert "localized: True" in output

    def test_demo_with_specific_issue(self, capsys):
        code = main([
            "demo", "--containers", "4", "--gpus", "4", "--seed", "5",
            "--issue", "CONTAINER_CRASH",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "container" in output

    def test_unknown_issue_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "--issue", "GREMLINS"])


class TestStats:
    def test_stats_prints_motivation_summaries(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "Figure 5" in output
        assert "Figure 12" in output


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCampaign:
    def test_campaign_sweeps_all_issue_types(self, capsys):
        code = main(["campaign", "--seed", "1"])
        output = capsys.readouterr().out
        assert code == 0
        total = len(all_issue_types())
        # The basic ping list stays live (no skeleton step), where every
        # issue localizes; on the skeleton list two would not
        # (tests/chaos/test_gate.py::TestCampaignLeg).
        assert output.endswith(
            f"detected {total}/{total}, localized {total}/{total}\n"
        )


class TestGates:
    @pytest.mark.parametrize("verb", ["chaos", "gray"])
    def test_both_gate_verbs_run_write_and_pass(
        self, verb, tmp_path, capsys, monkeypatch
    ):
        """``chaos`` and ``gray`` share one runner; one case each keeps
        this a test of the CLI path, not a second run of the gates."""
        from repro.chaos.gate import ChaosGate
        from repro.chaos.gray import GrayGate
        from repro.network.issues import GrayIssueType

        for gate in (ChaosGate, GrayGate):
            monkeypatch.setattr(gate, "cases", lambda self, seed: [
                (GrayIssueType.CONGESTION_COLLAPSE, seed)
            ])
        out = tmp_path / f"{verb}.json"
        code = main([verb, "--out", str(out)])
        output = capsys.readouterr().out
        assert code == 0
        assert "congestion_collapse" in output
        assert "bounds: PASS" in output
        assert output.endswith(f"wrote {out}\n")
        report = json.loads(out.read_text())
        assert report["summary"]["cases"] == 1
        assert report["summary"]["passed"]


_SCENARIO_ARGS = ["--containers", "4", "--gpus", "4",
                  "--seed", "2", "--faults", "1"]


class TestStatus:
    def test_status_prints_counters_and_timings(self, capsys):
        code = main(["status"] + _SCENARIO_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        # 200 s warm-up, then one fault held 80 s and cooled 140 s.
        assert output.startswith("status @ 420s simulated\n")
        assert "counters:" in output
        assert "probes.sent" in output
        assert "anomalies.detected" in output
        assert "cache.miss.cold" in output
        assert re.search(
            r"flow cache: \d+ hits, \d+ misses \(hit ratio 0\.\d{3}\)",
            output,
        )
        assert "pipeline timings" in output
        assert "probe_round" in output


class TestTrace:
    def test_trace_dumps_jsonl_to_stdout(self, capsys):
        code = main(["trace"] + _SCENARIO_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        rows = [json.loads(line) for line in output.splitlines()]
        assert rows
        types = {row["type"] for row in rows}
        assert types == {"event", "span"}

    def test_trace_writes_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(["trace", "--out", str(path)] + _SCENARIO_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        rows = path.read_text().splitlines()
        assert f"wrote {len(rows)} trace rows" in output
        assert {json.loads(row)["type"] for row in rows} == {
            "event", "span",
        }

    def test_trace_explain_renders_evidence_chains(self, capsys):
        code = main(["trace", "--explain"] + _SCENARIO_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        assert "localization @" in output
        assert "diagnosis:" in output
        assert "evidence chain:" in output
        assert "triggering anomalies:" in output


class TestExportMetrics:
    def test_export_is_valid_prometheus_text(self, capsys):
        code = main(["export-metrics"] + _SCENARIO_ARGS)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "# TYPE skeletonhunter_probes_sent_total counter" in lines
        assert "# TYPE skeletonhunter_anomalies_detected_total counter" \
            in lines
        samples = dict(
            line.split(" ") for line in lines if not line.startswith("#")
        )
        assert int(samples["skeletonhunter_probes_sent_total"]) > 0
        assert all(name.startswith("skeletonhunter_") for name in samples)


class TestFleet:
    _SMALL = [
        "--jobs", "2", "--workers", "2", "--containers", "4",
        "--gpus", "4", "--rounds", "6", "--seed", "0",
    ]

    def test_fleet_run_reports_tenants_and_coverage(self, capsys):
        code = main(["fleet"] + self._SMALL)
        output = capsys.readouterr().out
        assert code == 0
        assert "tenants" in output
        assert "job-0" in output
        assert "coverage" in output

    def test_fleet_status_shows_workers_and_failover(self, capsys):
        code = main(["fleet", "--kill", "0"] + self._SMALL)
        output = capsys.readouterr().out
        assert code == 0
        assert "worker" in output
        assert "cache hit" in output
        assert "reassign" in output

    def test_failover_is_invisible_in_the_tenant_sections(self, capsys):
        """Events, verdicts, blacklist and coverage read the same with
        and without a worker killed mid-run."""

        def tenant_sections(output):
            head, tail = output.split("workers:")
            return (
                head.split("events opened:")[1],
                tail.split("per-tenant skeleton coverage:")[1],
            )

        assert main(["fleet"]) == 0
        plain = capsys.readouterr().out
        assert main(["fleet", "--kill", "0"]) == 0
        killed = capsys.readouterr().out
        assert "reassignments: 0" in plain
        assert "reassignments: 0" not in killed
        assert "blacklisted components:" in plain
        assert tenant_sections(killed) == tenant_sections(plain)

    def test_a_kill_the_fleet_cannot_honour_exits_2(self, capsys):
        # One chunk of four rounds: there is no second chunk to kill at.
        code = main([
            "fleet", "--rounds", "4", "--kill", "0", "--jobs", "2",
            "--containers", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "outside 1..1" in captured.err
        assert "Traceback" not in captured.err

    def test_retired_plane_verbs_are_gone(self):
        for argv in (["shard-status"], ["fleet", "run"],
                     ["fleet", "status"]):
            with pytest.raises(SystemExit):
                main(argv)


def committed(value, scratch):
    """A row's measurement stubbed to its golden; module-level, so the
    contract's hash-seed child can unpickle it."""
    return value


class TestEquivalence:
    #: Rows CI's ``contract`` job runs in full (~15 s a run); stubbed
    #: here to what their goldens hold.
    HEAVY = (
        "record PFC_STORM", "record CRC_ERROR", "chaos", "gray",
        "campaign", "localization", "lint", "fabric verifier",
        "skeleton 2048", "trace", "cli stdout",
    )

    def test_every_gate_passes_with_nonzero_counts(
        self, capsys, monkeypatch
    ):
        """The contract table through the CLI.  The four equivalence
        gates run for real, three times each, and the replay gate
        replays the default fixture its record row recorded — once per
        run: the in-process repeat records afresh."""
        from repro import equivalence
        from repro.bus import replay

        checks = equivalence.CHECKS
        monkeypatch.setattr(equivalence, "CHECKS", tuple(
            check._replace(measure=partial(
                committed, check.expected(equivalence.ROOT)))
            if check.name in self.HEAVY else check
            for check in checks
        ))
        recorded = []
        record = replay.record_standard_run

        def counted(path, **overrides):
            recorded.append(overrides)
            return record(path, **overrides)

        monkeypatch.setattr(replay, "record_standard_run", counted)
        code = main(["equivalence"])
        output = capsys.readouterr().out
        assert code == 0
        lines = output.strip().splitlines()
        assert lines[0].split() == [
            "check", "expected", "got", "seconds", "ok"
        ]
        rows = dict(zip([check.name for check in checks], lines[1:]))
        for name, line in rows.items():
            assert line.startswith(name + " ") and line.endswith("  ok")
        for name in ("batch == sequential", "shard == single",
                     "fleet == single", "replay == live"):
            counts = re.findall(r"(\d+) [a-z]", rows[name])
            assert counts and all(int(n) > 0 for n in counts), name
        # 2 and 4 shards and the mid-run kill, on inproc and on mp.
        assert "6 configurations" in rows["shard == single"]
        assert recorded == [{}, {}]  # the child's run is not counted
        assert lines[-1] == f"contract: {len(checks)} of {len(checks)} rows ok"

    def test_equivalence_takes_no_flags(self):
        with pytest.raises(SystemExit):
            main(["equivalence", "--quick"])

    def test_retired_bench_commands_are_gone(self):
        for argv in (["bench"], ["bench-shard"], ["fleet", "bench"]):
            with pytest.raises(SystemExit):
                main(argv)
