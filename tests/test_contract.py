"""The contract table (``repro equivalence``) with every measurement
stubbed to what its golden holds, so what is tested is the machinery:
a tampered golden fails exactly its row and names the command that
regenerates it, a missing golden fails (never skips) its rows, every
row runs whatever the rows before it did, and a row whose in-process
repeat or hash-seed child reads another value fails, naming that run.
CI's ``contract`` job runs the real measurements.

The stubs are module-level functions (or partials of them) because the
contract pickles its rows to the hash-seed child."""

import itertools
import json
import os
import re
import shutil
import string
from functools import partial

import pytest

from repro import equivalence
from repro.equivalence import (
    CHECKS,
    CONTRACT,
    RECORDS,
    ROOT,
    EquivalenceError,
    contract,
    rebaseline,
)

#: The hint every failed row prints.
HINT = "PYTHONPATH=src python -m repro.equivalence"


def committed(value, report, scratch):
    """Measures ``value``; a report row also writes the committed
    ``report`` where its verb would."""
    if report:
        shutil.copy(ROOT / report.golden, f"{scratch}/{report.name}.json")
    return value


def as_committed(check):
    """A stand-in for the row's measurement that measures what its
    committed golden holds."""
    return partial(committed, check.expected(ROOT),
                   None if check.keys else check)


#: Process-global state: advanced by every call in this process.
CALLS = itertools.count()


def counted(scratch):
    return {"calls": next(CALLS)}


def letters(scratch):
    """A list in the iteration order of a set of strings, which the
    hash seed decides."""
    return {"letters": list(set(string.ascii_letters))}


def raises_in_a_child(parent, value, scratch):
    if os.getpid() != parent:
        raise RuntimeError("only the child raises")
    return value


def diverged(scratch):
    raise EquivalenceError("shards=2 backend=mp diverged")


def crashed(scratch):
    raise RuntimeError("worker pipe closed")


def patch(monkeypatch, measures):
    """Replace the measurements of the rows ``measures`` names."""
    monkeypatch.setattr(equivalence, "CHECKS", tuple(
        check._replace(measure=measures[check.name])
        if check.name in measures else check
        for check in equivalence.CHECKS
    ))


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A copy of every golden under a stand-in repository root, and
    every row measured as the committed golden says."""
    for golden in {check.golden for check in CHECKS}:
        (tmp_path / golden).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / golden, tmp_path / golden)
    monkeypatch.setattr(equivalence, "ROOT", tmp_path)
    patch(monkeypatch, {check.name: as_committed(check) for check in CHECKS})
    return tmp_path


def run(capsys):
    """Run the table; returns the exit code, each printed row's status
    by check name, and what went to stderr."""
    code = contract()
    out, err = capsys.readouterr()
    statuses = {
        check.name: line.rsplit("  ", 1)[1]
        for check in CHECKS
        for line in out.splitlines() if line.startswith(check.name + " ")
    }
    return code, statuses, err


def edit_json(path, change):
    document = json.loads(path.read_text())
    change(document)
    path.write_text(json.dumps(document, indent=2) + "\n")


def test_committed_goldens_pass_every_row(root, capsys):
    code, statuses, err = run(capsys)
    assert code == 0 and err == ""
    assert statuses == {check.name: "ok" for check in CHECKS}


def _flip_crc_localization(document):
    document["campaign"]["issues"]["CRC_ERROR"][1] = False


def _grow_pfc_fixture(document):
    document["fixtures"]["PFC_STORM"]["bytes"] += 1


@pytest.mark.parametrize("golden, tamper, row", [
    (CONTRACT, _flip_crc_localization, "campaign"),
    (RECORDS, _grow_pfc_fixture, "record PFC_STORM"),
    ("BENCH_gray.json", None, "gray"),
], ids=["contract", "records", "report"])
def test_a_tampered_golden_fails_exactly_its_row(
    root, capsys, golden, tamper, row
):
    path = root / golden
    if tamper is None:
        path.write_text(path.read_text() + " ")
    else:
        edit_json(path, tamper)
    code, statuses, err = run(capsys)
    assert code == 1
    assert statuses == {
        check.name: "FAILED" if check.name == row else "ok"
        for check in CHECKS
    }
    assert f"{row} FAILED: " in err
    assert f"  regenerate {golden}: {HINT}" in err


def test_the_failure_says_what_differs(root, capsys):
    edit_json(root / CONTRACT, _flip_crc_localization)
    _, _, err = run(capsys)
    assert (
        "campaign FAILED: issues: CRC_ERROR: expected [True, False], "
        "got [True, True]" in err
    )


def test_a_missing_golden_fails_its_rows(root, capsys):
    (root / RECORDS).unlink()
    code, statuses, err = run(capsys)
    assert code == 1
    failed = {name for name, status in statuses.items() if status != "ok"}
    assert failed == {
        "record default", "record PFC_STORM", "record CRC_ERROR"
    }
    assert err.count(f"golden {RECORDS} unreadable") == 3


def test_every_row_runs_after_a_row_raises(root, capsys, monkeypatch):
    patched = {"shard == single": diverged, "lint": crashed}
    patch(monkeypatch, patched)
    code, statuses, err = run(capsys)
    assert code == 1
    assert len(statuses) == len(CHECKS)
    assert {n for n, s in statuses.items() if s != "ok"} == set(patched)
    assert "EquivalenceError: shards=2 backend=mp diverged" in err
    assert "RuntimeError: worker pipe closed" in err


@pytest.mark.parametrize("golden", [CONTRACT, RECORDS])
def test_regenerating_rewrites_the_golden_byte_for_byte(
    root, capsys, golden
):
    (root / golden).unlink()
    moved = rebaseline()
    assert (root / golden).read_bytes() == (ROOT / golden).read_bytes()
    out = capsys.readouterr().out
    assert moved == out.count(f"{golden}: ") > 0  # each moved path named
    assert out.endswith(f"{moved} key paths moved\n")


def test_a_report_is_regenerated_by_its_own_verb(root, capsys):
    """A report golden is the file its verb wrote, byte for byte; an
    unchanged run moves nothing, and one edited golden moves only its
    own key paths."""
    chaos = root / "BENCH_chaos.json"
    chaos.write_text(chaos.read_text() + " ")
    edit_json(root / CONTRACT, _flip_crc_localization)
    assert rebaseline() == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "rebaselined 4 goldens: 3 key paths moved"
    assert [line.split(": ")[:2] for line in out[:2]] == [
        ["BENCH_chaos.json", "bytes"], ["BENCH_chaos.json", "sha256"]]
    assert out[2] == (f"{CONTRACT}: campaign: issues: CRC_ERROR: expected "
                      f"[True, False], got [True, True]")
    for golden in {check.golden for check in CHECKS}:
        assert (root / golden).read_bytes() == (ROOT / golden).read_bytes()
    assert rebaseline() == 0


def test_a_report_that_breaks_its_bounds_is_not_written(
    root, monkeypatch
):
    broken = {"bytes": 1, "sha256": "0", "violations": ["recall < 0.9"]}
    patch(monkeypatch, {"gray": partial(committed, broken, None)})
    (root / RECORDS).unlink()
    with pytest.raises(SystemExit, match=r"gray not rebaselined: \['recall"):
        rebaseline()
    assert not (root / RECORDS).exists()


def failures(err):
    """Each failed row's printed problem, by row name."""
    return {
        block.split(" FAILED: ")[0]: block.split(" FAILED: ", 1)[1]
        for block in err.strip().split("\n\n")
    }


def test_a_row_reading_process_global_state_fails_on_its_repeat(
    root, capsys, monkeypatch
):
    patch(monkeypatch, {"campaign": counted})
    code, statuses, err = run(capsys)
    assert code == 1
    assert {n for n, s in statuses.items() if s != "ok"} == {"campaign"}
    assert "\nin-process repeat: calls: expected " in failures(err)[
        "campaign"]


def test_a_row_iterating_a_set_of_strings_fails_in_the_child(
    root, capsys, monkeypatch
):
    patch(monkeypatch, {"campaign": letters})
    code, statuses, err = run(capsys)
    assert code == 1
    assert {n for n, s in statuses.items() if s != "ok"} == {"campaign"}
    problem = failures(err)["campaign"]
    assert f"\n{equivalence.RUNS[2]}: letters: expected [" in problem
    assert equivalence.RUNS[1] not in problem


def test_a_row_raising_only_in_the_child_fails_only_that_row(
    root, capsys, monkeypatch
):
    lint = next(check for check in CHECKS if check.name == "lint")
    patch(monkeypatch, {"lint": partial(
        raises_in_a_child, os.getpid(), lint.expected(ROOT))})
    code, statuses, err = run(capsys)
    assert code == 1
    assert statuses == {
        check.name: "FAILED" if check.name == "lint" else "ok"
        for check in CHECKS
    }
    problem = failures(err)["lint"]
    assert problem.startswith(f"{equivalence.RUNS[2]} raised: Traceback")
    assert "RuntimeError: only the child raises" in problem


def test_a_row_whose_repeat_disagrees_is_not_rebaselined(
    root, monkeypatch
):
    patch(monkeypatch, {"campaign": counted})
    (root / RECORDS).unlink()
    contract_golden = (root / CONTRACT).read_bytes()
    with pytest.raises(SystemExit,
                       match="campaign not rebaselined: in-process repeat"):
        rebaseline()
    assert not (root / RECORDS).exists()
    assert (root / CONTRACT).read_bytes() == contract_golden


@pytest.mark.filterwarnings("ignore:'repro.equivalence' found in sys.modules")
def test_the_module_takes_no_argument(monkeypatch):
    import runpy

    monkeypatch.setattr("sys.argv", ["equivalence", CONTRACT])
    with pytest.raises(SystemExit, match="usage"):
        runpy.run_module("repro.equivalence", run_name="__main__")


@pytest.mark.parametrize("events, verdicts, thin", [
    (9, 3, "9 events (floor 10)"), (10, 2, "2 verdicts (floor 3)"),
])
def test_a_plane_row_below_the_floor_fails(events, verdicts, thin):
    row = {"events": events, "verdicts": verdicts}
    with pytest.raises(EquivalenceError, match=re.escape(f"only {thin};")):
        equivalence.floored("shard == single", row)
    held = {"events": 10, "verdicts": 3, "sha256": "x"}
    assert equivalence.floored("shard == single", held) is held


def test_a_moved_verdict_moves_the_plane_rows_digest():
    """The plane rows pin their baseline's streams, not only counts: a
    verdict that changes its rank order moves the digest."""
    link, rnic = ("link", "inter_host_network"), ("rnic", "rnic")
    streams = {"events": [("a", "b", 14.0, "UNCONNECTIVITY")],
               "verdicts": [(22.0, (link, rnic), 0)]}
    moved = {**streams, "verdicts": [(22.0, (rnic, link), 0)]}
    digest = equivalence.streams_sha256(streams)
    assert digest == equivalence.streams_sha256(dict(streams))
    assert digest != equivalence.streams_sha256(moved)
