"""The contract table (``repro equivalence``) with every measurement
stubbed to what its golden holds, so what is tested is the machinery:
a tampered golden fails exactly its row and names the command that
regenerates it, a missing golden fails (never skips) its rows, and every
row runs whatever the rows before it did.  CI's ``contract`` job runs
the real measurements."""

import json
import shutil

import pytest

from repro import equivalence
from repro.equivalence import (
    CHECKS,
    CONTRACT,
    RECORDS,
    ROOT,
    EquivalenceError,
    contract,
    regenerate,
)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A copy of every golden under a stand-in repository root, and
    every row measured as the committed golden says."""
    for golden in {check.golden for check in CHECKS}:
        (tmp_path / golden).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / golden, tmp_path / golden)
    monkeypatch.setattr(equivalence, "ROOT", tmp_path)
    monkeypatch.setattr(equivalence, "CHECKS", tuple(
        check._replace(
            measure=lambda scratch, value=check.expected(ROOT): value
        )
        for check in CHECKS
    ))
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


@pytest.mark.parametrize("golden, tamper, row, command", [
    (CONTRACT, _flip_crc_localization, "campaign",
     "python -m repro.equivalence tests/golden/contract.json"),
    (RECORDS, _grow_pfc_fixture, "record PFC_STORM",
     "python -m repro.equivalence tests/golden/record_fixtures.json"),
    ("BENCH_gray.json", None, "gray", "python -m repro gray"),
], ids=["contract", "records", "report"])
def test_a_tampered_golden_fails_exactly_its_row(
    root, capsys, golden, tamper, row, command
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
    assert f"  regenerate {golden}: PYTHONPATH=src {command}" in err


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
    def diverged(scratch):
        raise EquivalenceError("shards=2 backend=mp diverged")

    def crashed(scratch):
        raise RuntimeError("worker pipe closed")

    patched = {"shard == single": diverged, "lint": crashed}
    monkeypatch.setattr(equivalence, "CHECKS", tuple(
        check._replace(measure=patched[check.name])
        if check.name in patched else check
        for check in equivalence.CHECKS
    ))
    code, statuses, err = run(capsys)
    assert code == 1
    assert len(statuses) == len(CHECKS)
    assert {n for n, s in statuses.items() if s != "ok"} == set(patched)
    assert "EquivalenceError: shards=2 backend=mp diverged" in err
    assert "RuntimeError: worker pipe closed" in err


@pytest.mark.parametrize("golden", [CONTRACT, RECORDS])
def test_regenerating_rewrites_the_golden_byte_for_byte(root, golden):
    (root / golden).unlink()
    regenerate(golden)
    assert (root / golden).read_bytes() == (ROOT / golden).read_bytes()


def test_a_report_is_regenerated_by_its_own_verb(root):
    with pytest.raises(SystemExit, match="BENCH_chaos.json"):
        regenerate("BENCH_chaos.json")
