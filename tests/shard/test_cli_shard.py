"""CLI smoke tests for the sharded-plane command, ``repro run``."""

from repro.cli import main

_SMALL = [
    "--containers", "8", "--gpus", "2", "--rounds", "12",
    "--chunk-rounds", "3",
]


def diagnosis(output):
    """The ``events opened:`` and ``localization verdicts:`` sections."""
    return output.split("events opened:")[1].split("shards:")[0]


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

    def test_failover_is_invisible_in_events_and_verdicts(self, capsys):
        assert main(["run", "--faults", "2"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "--faults", "2", "--kill", "1"]) == 0
        killed = capsys.readouterr().out
        assert "reassignments: 0" in plain
        assert "reassignments: 0" not in killed
        assert "localization verdicts: 0" not in plain
        assert diagnosis(killed) == diagnosis(plain)

    def test_a_kill_the_run_cannot_honour_exits_2(self, capsys):
        # One chunk of five rounds: there is no second chunk to kill at.
        code = main([
            "run", "--shards", "2", "--rounds", "5", "--kill", "1",
            "--containers", "8",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "outside 1..1" in captured.err
        assert "Traceback" not in captured.err
        assert main(["run", "--shards", "2", "--kill", "2"]) == 2
        assert "worker 2 out of range" in capsys.readouterr().err


class TestShardStatus:
    """``run``'s heartbeat and failover view."""

    def test_status_renders_failover(self, capsys):
        code = main(["run", "--shards", "3", "--kill", "1", *_SMALL])
        output = capsys.readouterr().out
        assert code == 0
        assert "dead" in output
        assert "reassignments:" in output
        assert "shard 1 -> shard" in output
        assert "shard.heartbeats" in output
        assert "link votes" not in output

    def test_kill_can_be_disabled(self, capsys):
        # A kill is opt-in: without --kill every shard lives.
        code = main(["run", "--shards", "2", *_SMALL])
        output = capsys.readouterr().out
        assert code == 0
        assert "dead" not in output
        assert "reassignments: 0" in output
