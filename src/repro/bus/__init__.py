"""Pluggable telemetry bus: typed topics, JSONL record, exact replay.

The bus is the seam between the monitoring pipeline and everything
that observes it.  Agents, the controller, the hunter, the shard
coordinator, and both fault injectors publish typed records onto a
:class:`TelemetryBus`; a :class:`JsonlRecorder` persists every topic
to a versioned recording; a :class:`Replayer` reconstructs detection
and localization bit-exactly from that file alone; and a
:class:`TailDashboard` renders a live terminal view.  The in-process
ring buffer is deliberately the *smallest* implementation of the
publish/subscribe surface — a real broker can replace it without the
publishers changing.
"""

from repro.bus.codec import (
    decode_probe_rows,
    encode_fault,
    encode_pairs,
    encode_probe_rows,
    encode_target,
    fault_overrides,
    parse_endpoint,
    resolve_target,
)
from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import (
    SCHEMA_VERSION,
    JsonlRecorder,
    Recording,
    RecordingError,
    config_fingerprint,
    load_recording,
)
from repro.bus.tail import TailDashboard

__all__ = [
    "SCHEMA_VERSION",
    "JsonlRecorder",
    "Recording",
    "RecordingError",
    "ReplayResult",
    "Replayer",
    "TailDashboard",
    "TelemetryBus",
    "Topic",
    "config_fingerprint",
    "decode_probe_rows",
    "drive_standard_run",
    "encode_fault",
    "encode_pairs",
    "encode_probe_rows",
    "encode_target",
    "fault_overrides",
    "load_recording",
    "parse_endpoint",
    "record_standard_run",
    "resolve_target",
    "standard_run_config",
    "verify_replay_equivalence",
]

#: Replay symbols resolve lazily (PEP 562): repro.bus.replay imports
#: the scenario builder, which imports the core modules that publish
#: onto this package — an eager import here would be a cycle.
_REPLAY_EXPORTS = (
    "ReplayResult",
    "Replayer",
    "drive_standard_run",
    "record_standard_run",
    "standard_run_config",
    "verify_replay_equivalence",
)


def __getattr__(name):
    if name in _REPLAY_EXPORTS:
        from repro.bus import replay

        return getattr(replay, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__():
    return sorted(set(globals()) | set(_REPLAY_EXPORTS))
