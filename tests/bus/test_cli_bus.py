"""CLI smoke tests for the record / replay / tail commands."""

import json

from repro.cli import main

_SHORT = ["--warm-s", "60", "--fault-s", "40", "--cool-s", "20"]


class TestRecordReplay:
    def test_record_then_replay_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["record", "--out", str(out), *_SHORT]) == 0
        recorded = capsys.readouterr().out
        assert "recorded" in recorded
        assert "config fingerprint:" in recorded
        assert out.exists()

        assert main(["replay", str(out)]) == 0
        replayed = capsys.readouterr().out
        assert "replay is bit-exact" in replayed

    def test_replay_rejects_a_damaged_recording(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "header", "schema": "9.9"}\n')
        assert main(["replay", str(bad)]) == 1
        assert "major mismatch" in capsys.readouterr().err

    def test_replay_fails_on_verdict_drift(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["record", "--out", str(out), *_SHORT]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        for index, line in enumerate(lines):
            if '"topic":"localize.verdicts"' in line:
                lines[index] = line.replace(
                    '"unexplained":0', '"unexplained":7'
                )
        out.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(out)]) == 1
        err = capsys.readouterr().err
        assert "diverged" in err

    def test_no_verify_reports_drift_without_failing(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run.jsonl"
        assert main(["record", "--out", str(out), *_SHORT]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        lines = [
            line.replace('"unexplained":0', '"unexplained":7')
            if '"topic":"localize.verdicts"' in line else line
            for line in lines
        ]
        out.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(out), "--no-verify"]) == 0

    def test_missing_file_is_an_error_not_a_traceback(self, capsys):
        assert main(["replay", "/nonexistent/run.jsonl"]) == 1
        assert "cannot replay" in capsys.readouterr().err


class TestTail:
    def test_single_process_tail_renders_frames(self, capsys):
        code = main([
            "tail", "--plain", "--warm-s", "40", "--fault-s", "30",
            "--cool-s", "10",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "== repro tail ==" in output
        assert "verdict @" in output
        assert "network:RNIC_PORT_DOWN x1" in output
        assert "run complete:" in output

    def test_sharded_tail_renders_shard_health(self, capsys):
        code = main([
            "tail", "--plain", "--shards", "2", "--containers", "8",
            "--gpus", "2", "--rounds", "12",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "shard 0: alive" in output
        assert "shard 1: alive" in output
        assert "verdict @" in output

    def test_fleet_tail_builds_the_fleet_at_the_given_sizes(
        self, capsys, monkeypatch
    ):
        from repro.fleet import coordinator

        specs = []

        class Spied(coordinator.FleetCoordinator):
            def __init__(self, spec, *args, **kwargs):
                specs.append(spec)
                super().__init__(spec, *args, **kwargs)

        monkeypatch.setattr(coordinator, "FleetCoordinator", Spied)
        code = main([
            "tail", "--plain", "--fleet", "2", "--containers", "4",
            "--gpus", "2", "--rounds", "6", "--seed", "3",
        ])
        assert code == 0
        assert "run complete:" in capsys.readouterr().out
        (spec,) = specs
        assert [
            (tenant.num_containers, tenant.gpus_per_container)
            for tenant in spec.tenants
        ] == [(4, 2), (4, 2)]
        assert (spec.total_rounds, spec.seed) == (6, 3)


class TestRecordedFileShape:
    def test_recording_is_valid_jsonl_with_header_and_footer(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run.jsonl"
        assert main(["record", "--out", str(out), *_SHORT]) == 0
        capsys.readouterr()
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "footer"
        assert lines[-1]["records"] == len(lines) - 2
