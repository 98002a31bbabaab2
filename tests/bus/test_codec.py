"""The wire form of events and verdicts has one owner: ``bus.codec``.

The hunter, the sharded coordinator and the replayer all publish (or
compare) what these two encoders return, so the payloads are pinned
here field by field.
"""

from repro.bus.codec import encode_event, encode_verdict, parse_endpoint
from repro.core.analyzer import FailureEvent
from repro.core.localization import Diagnosis, LocalizationReport
from repro.core.pinglist import ProbePair
from repro.network.issues import ComponentClass, Symptom

PAIR = ProbePair.canonical(
    parse_endpoint("task-0/node-1/ep-0"),
    parse_endpoint("task-0/node-0/ep-3"),
)


def test_event_payload_carries_the_symptom_value():
    assert encode_event(PAIR, 14.0, Symptom.UNCONNECTIVITY) == {
        "src": "task-0/node-0/ep-3",
        "dst": "task-0/node-1/ep-0",
        "first_detected_at": 14.0,
        "symptom": "unconnectivity",
    }


def test_verdict_payload_is_the_reports_verdict_row():
    report = LocalizationReport(
        diagnoses=[Diagnosis(
            component="host-0/rnic-3",
            component_class=ComponentClass.RNIC,
            layer="underlay",
            evidence="two pairs cross it",
            pairs=(PAIR,),
            confidence=0.8000000001234,
        )],
        unexplained=[FailureEvent(
            pair=PAIR, first_detected_at=14.0,
            symptom=Symptom.PACKET_LOSS,
        )],
    )
    assert encode_verdict(22.0, report) == {
        "at": 22.0,
        "diagnoses": [["host-0/rnic-3", "rnic", "underlay", 0.8]],
        "unexplained": 1,
    }
