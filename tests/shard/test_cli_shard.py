"""CLI smoke tests for the sharded-plane commands."""

from repro.cli import main

_SMALL = [
    "--containers", "8", "--gpus", "2", "--rounds", "12",
    "--chunk-rounds", "3",
]


class TestRun:
    def test_sharded_run_prints_merged_diagnosis(self, capsys):
        code = main(["run", "--shards", "3", *_SMALL])
        output = capsys.readouterr().out
        assert code == 0
        assert "sharded plane: 3 shard(s) on 'inproc'" in output
        assert "events opened:" in output
        assert "localization verdicts:" in output
        assert "alive" in output

    def test_faultless_run_is_quiet(self, capsys):
        code = main([
            "run", "--shards", "2", "--faults", "0", *_SMALL,
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "events opened: 0" in output

    def test_mp_backend_matches_inproc(self, capsys):
        assert main(["run", "--shards", "2", *_SMALL]) == 0
        inproc = capsys.readouterr().out
        assert main([
            "run", "--shards", "2", "--backend", "mp", *_SMALL,
        ]) == 0
        mp = capsys.readouterr().out
        # Same events and verdicts; only the backend label differs.
        assert inproc.split("events opened:")[1] == (
            mp.split("events opened:")[1]
        )


class TestShardStatus:
    def test_status_renders_failover(self, capsys):
        code = main(["shard-status", "--shards", "3", *_SMALL])
        output = capsys.readouterr().out
        assert code == 0
        assert "dead" in output
        assert "reassignments:" in output
        assert "shard 1 -> shard" in output
        assert "shard.heartbeats" in output
        assert "top hard link votes:" in output

    def test_kill_can_be_disabled(self, capsys):
        code = main([
            "shard-status", "--shards", "2", "--kill", "-1", *_SMALL,
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "dead" not in output
        assert "reassignments: 0" in output
