"""The three ``repro record`` fixtures, pinned byte for byte.

A recording carries every bus topic of a whole run — probe reports,
events, verdicts, breaker transitions — so its bytes are the quickest
whole-pipeline check that a change altered nothing.  This `slow` test
records the default fixture and the ``--issue PFC_STORM`` and
``--issue CRC_ERROR`` ones and compares each file's sha256 and size with
``tests/golden/record_fixtures.json``.  A change that moves them on
purpose regenerates the golden::

    PYTHONPATH=src python tests/bus/test_record_golden.py \
        > tests/golden/record_fixtures.json
"""

import contextlib
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro.cli import main

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden" / "record_fixtures.json"
)

#: Fixture name -> the ``repro record`` arguments besides ``--out``.
FIXTURES = {
    "default": [],
    "PFC_STORM": ["--issue", "PFC_STORM"],
    "CRC_ERROR": ["--issue", "CRC_ERROR"],
}


def fingerprint(name, directory):
    path = pathlib.Path(directory) / f"{name}.jsonl"
    assert main(["record", "--out", str(path), *FIXTURES[name]]) == 0
    data = path.read_bytes()
    return {
        "args": FIXTURES[name],
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_recording_is_the_golden(name, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())["fixtures"][name]
    assert fingerprint(name, tmp_path) == golden


if __name__ == "__main__":
    # The CLI's summary lines go to stderr; stdout is the golden.
    with tempfile.TemporaryDirectory() as directory, \
            contextlib.redirect_stdout(sys.stderr):
        fixtures = {
            name: fingerprint(name, directory) for name in FIXTURES
        }
    print(json.dumps({"fixtures": fixtures}, indent=2))
