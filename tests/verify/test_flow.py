"""Tests for the interprocedural determinism analyzer.

The two seeded regressions mirror the exact shapes the per-line lint
cannot see: a wall-clock read two helpers away from an analyzer sink,
and unseeded numpy randomness laundered through a wrapper inside the
keyed-draw contract scope.
"""

import textwrap

from repro.verify.callgraph import CallGraphBuilder
from repro.verify.flow import analyze_graph, analyze_package
from repro.verify.taint import Taint


def analyze(**sources):
    """Analyze in-memory modules; double underscores become dots."""
    modules = {
        name.replace("__", "."): textwrap.dedent(source)
        for name, source in sources.items()
    }
    builder = CallGraphBuilder()
    for name in sorted(modules):
        builder.add_source(name, modules[name])
    return analyze_graph(builder.build())


def findings(analysis, check=None):
    found = list(analysis.report.findings)
    if check is not None:
        found = [f for f in found if f.check == check]
    return found


class TestTaintToSink:
    def test_wall_clock_two_hops_from_analyzer_sink(self):
        analysis = analyze(
            pkg__util__clock="""
                import time
                def stamp():
                    return time.time()
            """,
            pkg__util__wrap="""
                from pkg.util.clock import stamp
                def wrapped():
                    return stamp()
            """,
            pkg__core__analyzer="""
                from pkg.util.wrap import wrapped
                class Analyzer:
                    def __init__(self):
                        self.events = []
                    def ingest(self):
                        self.events.append(wrapped())
            """,
        )
        found = findings(analysis, "flow.taint-to-sink")
        assert found, "the laundered wall clock must reach the sink"
        finding = found[0]
        assert finding.component == "pkg.core.analyzer.Analyzer.ingest"
        evidence = "\n".join(finding.details)
        # The chain names the true source module and the entry call,
        # not just the surfacing function.
        assert "pkg.util.clock:" in evidence
        assert "calls time.time() [wall-clock]" in evidence
        assert "pkg.core.analyzer" in evidence
        # Two intermediate hops plus source and surface lines.
        chain_lines = [d for d in finding.details if d.startswith("  ")]
        assert len(chain_lines) >= 3

    def test_unordered_iteration_into_sink_and_sorted_sanitizer(self):
        analysis = analyze(
            pkg__bus__codec="""
                def encode(culprits):
                    return [c for c in set(culprits)]
                def encode_sorted(culprits):
                    return sorted(set(culprits))
            """,
        )
        found = findings(analysis, "flow.taint-to-sink")
        assert [f.component for f in found] == ["pkg.bus.codec.encode"]
        assert "unordered" in found[0].explanation

    def test_env_read_reaches_recorder_payloads(self):
        analysis = analyze(
            pkg__bus__recorder="""
                import os
                def header():
                    return {"host": os.environ.get("HOSTNAME")}
            """,
        )
        found = findings(analysis, "flow.taint-to-sink")
        assert len(found) == 1
        assert "env-read" in "\n".join(found[0].details)

    def test_clean_sink_module_has_no_findings(self):
        analysis = analyze(
            pkg__core__analyzer="""
                def summarize(values):
                    return sum(values) / max(len(values), 1)
            """,
        )
        assert findings(analysis) == []


class TestKeyedDrawContract:
    def test_unkeyed_numpy_laundered_through_wrapper(self):
        analysis = analyze(
            pkg__network__noise="""
                import numpy.random as npr
                def jitter():
                    return npr.normal()
                def sample(x):
                    return x + jitter()
            """,
        )
        found = findings(analysis, "flow.keyed-draw-contract")
        # Dedup per source site: the closest consumer is blamed once.
        assert [f.component for f in found] == [
            "pkg.network.noise.jitter"
        ]
        evidence = "\n".join(found[0].details)
        assert "calls numpy.random.normal() [unseeded-random]" in evidence
        assert "keyed_uniform" in found[0].explanation

    def test_keyed_draws_satisfy_the_contract(self):
        analysis = analyze(
            pkg__network__faults="""
                from pkg.network.draws import keyed_uniform
                def fate(seed, key):
                    return keyed_uniform(seed, key) < 0.5
            """,
        )
        assert findings(analysis) == []
        summary = analysis.taint.summary_of("pkg.network.faults:fate")
        assert summary.returns.taint is Taint.KEYED

    def test_process_global_counter_via_dataclass_default(self):
        analysis = analyze(
            pkg__chaos__faults="""
                import itertools
                from dataclasses import dataclass, field

                _counter = itertools.count()

                @dataclass
                class Fault:
                    fault_id: int = field(
                        default_factory=lambda: next(_counter)
                    )

                class Injector:
                    def __init__(self, bus):
                        self._bus = bus
                    def publish(self, fault: Fault):
                        self._bus.publish(fault.fault_id)
            """,
        )
        found = findings(analysis, "flow.keyed-draw-contract")
        assert found
        evidence = "\n".join(found[0].details)
        assert "process-global-counter" in evidence
        assert "next(_counter)" in evidence

    def test_direct_counter_read_in_contract_scope(self):
        analysis = analyze(
            pkg__workloads__gen="""
                import itertools
                _ids = itertools.count()
                def fresh_id():
                    return next(_ids)
            """,
        )
        found = findings(analysis, "flow.keyed-draw-contract")
        assert [f.component for f in found] == [
            "pkg.workloads.gen.fresh_id"
        ]
        assert "process-global-counter" in "\n".join(found[0].details)

    def test_out_of_scope_modules_are_not_under_contract(self):
        analysis = analyze(
            pkg__obs__span="""
                import time
                def wall_duration(start):
                    return time.time() - start
            """,
        )
        # obs/ is neither a sink nor contract scope; nothing fires.
        assert findings(analysis) == []


class TestRealTree:
    def test_repro_package_is_flow_clean(self):
        """The acceptance gate: zero findings on the shipped tree
        (nothing but a fix can accept one)."""
        analysis = analyze_package()
        assert analysis.report.findings == []
        assert len(analysis.graph.functions) > 500
        assert len(analysis.graph.modules) > 50
