"""Durable JSONL recordings of the telemetry bus.

A recording is a versioned JSONL file:

* line 1 — a ``header`` carrying the schema version, the run's seeds,
  the scenario config, and a SHA-256 fingerprint of the canonical
  config JSON (so a replayer can refuse a recording whose replica it
  cannot rebuild);
* one ``record`` line per bus publication, in sequence order;
* a final ``footer`` carrying the record count, so truncation is
  detected instead of silently replaying a partial run.

Records carry only simulated time — never wall clock — so two
identically seeded runs produce byte-identical recordings.  Unknown
topics are preserved on disk and skipped by readers, which is the
compatibility contract for minor schema revisions.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.bus.core import TelemetryBus

__all__ = [
    "JsonlRecorder",
    "Recording",
    "RecordingError",
    "SCHEMA_VERSION",
    "config_fingerprint",
    "load_recording",
]

#: Recording schema version.  The major component gates replay: a
#: reader refuses a different major, and ignores unknown topics or
#: extra fields within the same major (minor revisions).
SCHEMA_VERSION = "1.0"


class RecordingError(RuntimeError):
    """A recording is truncated, corrupted, or schema-incompatible."""


def config_fingerprint(config: Optional[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON encoding of ``config``."""
    canonical = json.dumps(
        config or {}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _dump(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class JsonlRecorder:
    """Persist every bus publication to a versioned JSONL file.

    Subscribes to all topics on attach and writes records as they are
    published; :meth:`close` appends the footer and detaches.  Use as a
    context manager around the live run being recorded.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        path: str,
        config: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
    ):
        self.bus = bus
        self.path = str(path)
        self.config = dict(config or {})
        self.records_written = 0
        #: Records written per topic.  The bus's own ``history`` is a
        #: bounded ring, so this is the only complete count of a run.
        self.topic_counts: Counter = Counter()
        # The one sanctioned telemetry write path (the determinism
        # lint's telemetry-write rule exempts this module by name).
        self._file = open(self.path, "w", encoding="utf-8")
        header = {
            "type": "header",
            "schema": SCHEMA_VERSION,
            "seed": seed,
            "config": self.config,
            "fingerprint": config_fingerprint(self.config),
        }
        self._file.write(_dump(header) + "\n")
        self._closed = False
        bus.subscribe(self._on_record)

    def _on_record(self, record: Dict[str, Any]) -> None:
        row = {"type": "record"}
        row.update(record)
        self._file.write(_dump(row) + "\n")
        self.records_written += 1
        self.topic_counts[record["topic"]] += 1

    def close(self) -> None:
        """Write the footer, detach from the bus, and close the file."""
        if self._closed:
            return
        self._closed = True
        self.bus.unsubscribe(self._on_record)
        footer = {"type": "footer", "records": self.records_written}
        self._file.write(_dump(footer) + "\n")
        self._file.close()

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class Recording:
    """A fully loaded and validated recording."""

    def __init__(
        self, header: Dict[str, Any], records: List[Dict[str, Any]]
    ):
        self.header = header
        self.records = records

    @property
    def schema(self) -> str:
        return str(self.header.get("schema", ""))

    @property
    def seed(self) -> Optional[int]:
        return self.header.get("seed")

    @property
    def config(self) -> Dict[str, Any]:
        return self.header.get("config", {})

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))

    def by_topic(self, topic: str) -> List[Dict[str, Any]]:
        """All records on ``topic``, in sequence order."""
        return [r for r in self.records if r.get("topic") == topic]


def load_recording(path: str) -> Recording:
    """Load and validate a JSONL recording.

    Raises :class:`RecordingError` on a missing/invalid header, a
    schema major mismatch, an unparseable line, a missing footer
    (truncation), or a footer whose count disagrees with the records
    actually present.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise RecordingError(f"{path}: empty recording (no header)")

    def parse(index: int) -> Dict[str, Any]:
        try:
            row = json.loads(lines[index])
        except ValueError as exc:
            raise RecordingError(
                f"{path}: corrupted JSON on line {index + 1}: {exc}"
            ) from exc
        if not isinstance(row, dict):
            raise RecordingError(
                f"{path}: line {index + 1} is not an object"
            )
        return row

    header = parse(0)
    if header.get("type") != "header":
        raise RecordingError(f"{path}: first line is not a header")
    schema = str(header.get("schema", ""))
    major = schema.split(".", 1)[0]
    supported = SCHEMA_VERSION.split(".", 1)[0]
    if major != supported:
        raise RecordingError(
            f"{path}: schema {schema!r} is incompatible with reader "
            f"schema {SCHEMA_VERSION!r} (major mismatch)"
        )

    records: List[Dict[str, Any]] = []
    footer: Optional[Dict[str, Any]] = None
    for index in range(1, len(lines)):
        if not lines[index].strip():
            raise RecordingError(
                f"{path}: blank line {index + 1} inside recording"
            )
        row = parse(index)
        kind = row.get("type")
        if kind == "footer":
            footer = row
            if index != len(lines) - 1:
                raise RecordingError(
                    f"{path}: footer on line {index + 1} is not last"
                )
        elif kind == "record":
            if "topic" not in row or "seq" not in row:
                raise RecordingError(
                    f"{path}: record on line {index + 1} is missing "
                    "topic/seq"
                )
            records.append(row)
        else:
            raise RecordingError(
                f"{path}: unknown row type {kind!r} on line {index + 1}"
            )
    if footer is None:
        raise RecordingError(
            f"{path}: truncated recording (no footer after "
            f"{len(records)} records)"
        )
    expected = footer.get("records")
    if expected != len(records):
        raise RecordingError(
            f"{path}: truncated recording (footer expects {expected} "
            f"records, found {len(records)})"
        )
    return Recording(header, records)
