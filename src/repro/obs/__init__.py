"""Observability: pipeline tracing, run-wide metrics, explainable verdicts.

The reproduction's analogue of the paper's log-service dashboards (§6):

* :mod:`repro.obs.span` — timed spans (wall + sim clock) for pipeline
  stages;
* :mod:`repro.obs.trace` — the :class:`TraceRecorder` every component
  emits structured events into, sharing one
  :class:`~repro.sim.metrics.MetricRegistry`;
* :mod:`repro.obs.export` — JSON-lines trace dumps and Prometheus text
  metrics;
* :mod:`repro.obs.explain` — re-assembles the recorded evidence chain
  (walk steps, tomography votes, flow-table diffs) behind any diagnosis.

Enable it by building a recorder and handing it to the system::

    from repro import TraceRecorder, build_scenario

    scenario = build_scenario(observe=True)
    scenario.run_for(300)
    obs = scenario.observability
    print(obs.metrics.counter("probes.sent"))
    print(to_jsonl(obs))
"""

from repro.obs.explain import explain_diagnosis, explain_report
from repro.obs.export import (
    load_jsonl,
    parse_prometheus,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.span import NULL_SPAN, NullSpan, Span
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "TraceEvent",
    "TraceRecorder",
    "explain_diagnosis",
    "explain_report",
    "load_jsonl",
    "parse_prometheus",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
]
