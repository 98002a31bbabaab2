"""Tests for the monitor-plane fault injector (repro.chaos.faults)."""

import numpy as np

from repro.chaos.faults import (
    REPORT_LATE,
    REPORT_LOST,
    REPORT_OK,
    MonitorFault,
    MonitorFaultInjector,
    MonitorIssue,
)
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.network.draws import PairwiseDrawSource
from repro.network.packet import ProbeBatch

FATE_NAMES = {REPORT_OK: "ok", REPORT_LOST: "lost", REPORT_LATE: "late"}


def endpoint(container_index, gpu=0):
    return EndpointId(ContainerId(TaskId(0), container_index), gpu)


def fates_of(injector, src, dst, times, attempt=0):
    """The report fates of ``src -> dst`` probes sent at ``times``, drawn
    as one column over a batch keyed the way the fabric keys it."""
    times = np.asarray(times, dtype=np.float64)
    pairs = [(src, dst)] * times.size
    batch = ProbeBatch(
        pairs, times, np.zeros(times.size, dtype=bool),
        np.zeros(times.size), keys=PairwiseDrawSource(0).keys_of(pairs),
    )
    return [
        FATE_NAMES[fate]
        for fate in injector.report_fates(batch, attempt).tolist()
    ]


def report_fates(injector, n=200, at=50.0, attempt=0):
    return fates_of(
        injector, endpoint(0), endpoint(1), at + np.arange(n), attempt
    )


class TestScheduling:
    def test_window_is_half_open(self):
        fault = MonitorFault(
            issue=MonitorIssue.AGENT_CRASH, start=10.0, end=20.0
        )
        assert not fault.active_at(9.999)
        assert fault.active_at(10.0)
        assert fault.active_at(19.999)
        assert not fault.active_at(20.0)

    def test_open_ended_fault_never_expires(self):
        fault = MonitorFault(issue=MonitorIssue.TELEMETRY_DROP, start=5.0)
        assert fault.active_at(1e9)

    def test_clear_ends_the_fault(self):
        injector = MonitorFaultInjector(seed=1)
        fault = injector.inject_issue(MonitorIssue.AGENT_HANG, start=0.0)
        assert injector.active_faults(100.0) == [fault]
        injector.clear(fault, at=50.0)
        assert injector.active_faults(100.0) == []
        assert injector.all_faults() == [fault]

    def test_scope_is_a_prefix_match(self):
        fault = MonitorFault(
            issue=MonitorIssue.AGENT_CRASH, start=0.0,
            scope="task-0/node-3",
        )
        assert fault.matches("task-0/node-3")
        assert fault.matches("task-0/node-3/ep-1")
        assert not fault.matches("task-0/node-1")
        assert MonitorFault(
            issue=MonitorIssue.AGENT_CRASH, start=0.0
        ).matches("anything")

    def test_inject_issue_uses_catalogue_defaults(self):
        injector = MonitorFaultInjector(seed=0)
        fault = injector.inject_issue(
            MonitorIssue.PROBE_LATE_REPLY, start=0.0
        )
        assert fault.rate == 0.10
        assert fault.delay_s == 0.8

    def test_inject_issue_overrides_and_pins_fault_id(self):
        injector = MonitorFaultInjector(seed=0)
        fault = injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0,
            rate=0.33, fault_id=7,
        )
        assert fault.rate == 0.33
        assert fault.fault_id == 7
        assert injector.all_faults() == [fault]

    def test_ground_truth_names_active_culprits(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.AGENT_CRASH, start=10.0, end=20.0,
            scope="task-0/node-3",
        )
        injector.inject_issue(MonitorIssue.TELEMETRY_DROP, start=0.0)
        assert injector.ground_truth(15.0) == {
            "monitor:agent_crash:task-0/node-3",
            "monitor:telemetry_drop:*",
        }
        assert injector.ground_truth(25.0) == {
            "monitor:telemetry_drop:*"
        }


class TestProbeReport:
    def test_no_faults_means_ok(self):
        injector = MonitorFaultInjector(seed=0)
        assert set(report_fates(injector)) == {"ok"}

    def test_loss_rate_is_roughly_honoured(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.25
        )
        fates = report_fates(injector, n=400)
        lost = fates.count("lost")
        assert set(fates) <= {"ok", "lost"}
        assert 0.15 < lost / 400 < 0.35

    def test_late_issue_reports_late_not_lost(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.PROBE_LATE_REPLY, start=0.0, rate=1.0
        )
        assert set(report_fates(injector)) == {"late"}

    def test_identical_injectors_draw_identical_fates(self):
        def build():
            injector = MonitorFaultInjector(seed=42)
            injector.inject_issue(
                MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.3,
                fault_id=0,
            )
            return injector

        assert report_fates(build()) == report_fates(build())

    def test_unpinned_fault_ids_are_run_local(self):
        """Regression: ids used to come from a process-global counter,
        so two same-seed injectors built in one process numbered their
        faults differently — and drew different fates from the very
        same schedule."""
        def run():
            injector = MonitorFaultInjector(seed=42)
            ids = [
                injector.inject_issue(
                    MonitorIssue.PROBE_REPORT_LOSS,
                    start=0.0, rate=0.3,
                ).fault_id
                for _ in range(3)
            ]
            return ids, report_fates(injector)

        first = run()
        # An interleaved, differently-seeded run must not shift the
        # next run's ids (the global counter did exactly that).
        MonitorFaultInjector(seed=99).inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0
        )
        second = run()
        assert first[0] == [0, 1, 2]
        assert first == second

    def test_auto_allocation_skips_pinned_ids(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0, fault_id=0,
        )
        injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0, fault_id=1,
        )
        fault = injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0,
        )
        assert fault.fault_id == 2
        assert sorted(f.fault_id for f in injector.all_faults()) == \
            [0, 1, 2]

    def test_fates_depend_on_fault_id(self):
        def build(fault_id):
            injector = MonitorFaultInjector(seed=42)
            injector.inject_issue(
                MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.3,
                fault_id=fault_id,
            )
            return injector

        assert report_fates(build(0)) != report_fates(build(9))

    def test_retry_attempts_get_fresh_draws(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.5
        )
        fates = {
            fate for attempt in range(8)
            for fate in report_fates(injector, n=1, at=10.0, attempt=attempt)
        }
        assert fates == {"ok", "lost"}  # not stuck on one outcome

    def test_query_order_does_not_matter(self):
        injector = MonitorFaultInjector(seed=7)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.5,
            fault_id=0,
        )
        src, dst = endpoint(0), endpoint(1)
        forward = fates_of(injector, src, dst, range(50))
        backward = fates_of(injector, src, dst, range(49, -1, -1))
        alone = [fates_of(injector, src, dst, [t])[0] for t in range(50)]
        assert forward == list(reversed(backward)) == alone


class TestAgentState:
    def test_crash_beats_hang_beats_slow(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.AGENT_SLOW_START, start=0.0, scope="a"
        )
        assert injector.agent_state("a", 1.0) == "slow"
        injector.inject_issue(MonitorIssue.AGENT_HANG, start=0.0, scope="a")
        assert injector.agent_state("a", 1.0) == "hung"
        injector.inject_issue(
            MonitorIssue.AGENT_CRASH, start=0.0, scope="a"
        )
        assert injector.agent_state("a", 1.0) == "crashed"

    def test_slow_start_only_covers_the_warmup_window(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.AGENT_SLOW_START, start=100.0, scope="a",
            delay_s=30.0,
        )
        assert injector.agent_state("a", 99.0) == "ok"
        assert injector.agent_state("a", 110.0) == "slow"
        assert injector.agent_state("a", 131.0) == "ok"

    def test_scope_confines_the_crash(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.AGENT_CRASH, start=0.0, end=60.0,
            scope="task-0/node-3",
        )
        assert injector.agent_state("task-0/node-3", 30.0) == "crashed"
        assert injector.agent_state("task-0/node-2", 30.0) == "ok"
        assert injector.agent_state("task-0/node-3", 60.0) == "ok"


class TestCorruptSeries:
    def build_series(self, n=120):
        return {
            endpoint(0): np.full(n, 10.0),
            endpoint(1): np.full(n, 20.0),
        }

    def test_no_telemetry_faults_pass_through_by_reference(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0
        )  # non-telemetry
        series = self.build_series()
        out = injector.corrupt_series(series, at=0.0)
        assert out[endpoint(0)] is series[endpoint(0)]

    def test_drop_makes_nans_at_the_configured_rate(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0, rate=0.2
        )
        out = injector.corrupt_series(self.build_series(n=500), at=0.0)
        nans = int(np.isnan(out[endpoint(0)]).sum())
        assert 50 < nans < 150
        finite = out[endpoint(0)][np.isfinite(out[endpoint(0)])]
        assert np.all(finite == 10.0)

    def test_stale_repeats_the_previous_sample(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_STALE, start=0.0, rate=1.0,
            scope=str(endpoint(0)),
        )
        series = {endpoint(0): np.arange(10, dtype=np.float64)}
        out = injector.corrupt_series(series, at=0.0)
        # Every sample repeats its predecessor (sample 0 falls to 0.0).
        assert out[endpoint(0)][0] == 0.0
        assert np.all(np.isfinite(out[endpoint(0)]))

    def test_fault_window_respects_the_series_time_origin(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_NAN, start=100.0, end=110.0, rate=1.0
        )
        out = injector.corrupt_series(self.build_series(n=60), at=80.0)
        data = out[endpoint(0)]
        # Samples are 1 Hz from t=80: indices 20..29 lie in [100, 110).
        assert np.all(np.isnan(data[20:30]))
        assert np.all(np.isfinite(data[:20]))
        assert np.all(np.isfinite(data[30:]))

    def test_untouched_endpoints_share_memory_with_input(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0, rate=0.5,
            scope=str(endpoint(0)),
        )
        series = self.build_series()
        out = injector.corrupt_series(series, at=0.0)
        assert out[endpoint(1)] is series[endpoint(1)]
        assert out[endpoint(0)] is not series[endpoint(0)]
        assert np.all(series[endpoint(0)] == 10.0)  # input unharmed

    def test_corruption_is_deterministic(self):
        def run():
            injector = MonitorFaultInjector(seed=3)
            injector.inject_issue(
                MonitorIssue.TELEMETRY_DROP, start=0.0, rate=0.3,
                fault_id=0,
            )
            return injector.corrupt_series(self.build_series(), at=0.0)

        first, second = run(), run()
        assert np.array_equal(
            first[endpoint(0)], second[endpoint(0)], equal_nan=True
        )


class TestFlowTableReadError:
    def test_rate_one_always_fails_inside_the_window(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.FLOW_TABLE_READ_ERROR, start=10.0, end=20.0,
            rate=1.0,
        )
        rnic = "host-0/rnic-1"
        assert injector.flow_table_read_fails(rnic, 15.0)
        assert not injector.flow_table_read_fails(rnic, 25.0)

    def test_retry_attempt_can_succeed(self):
        injector = MonitorFaultInjector(seed=0)
        injector.inject_issue(
            MonitorIssue.FLOW_TABLE_READ_ERROR, start=0.0, rate=0.5
        )
        outcomes = {
            injector.flow_table_read_fails("host-0/rnic-0", 5.0, attempt)
            for attempt in range(8)
        }
        assert outcomes == {True, False}
