"""End-to-end hardening tests: the monitored plane under chaos.

The acceptance story of `docs/ROBUSTNESS.md`, scenario-sized: an empty
chaos schedule changes nothing; lost reports are retried and recovered;
a crashed agent skips rounds (never feeding the detectors) while its
circuit breaker demonstrably trips and half-open-recovers.
"""

import pytest

from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.chaos.gate import standard_chaos
from repro.core.resilience import BreakerState
from repro.network.issues import IssueType
from repro.workloads.scenarios import build_scenario


def chaotic_scenario(injector, seed=11):
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=seed,
        hosts_per_segment=4, chaos=injector,
    )


def agents(scenario):
    controller = scenario.hunter.controller
    return [
        agent
        for task_id in controller.monitored_tasks()
        for agent in controller.agents_of(task_id)
    ]


def event_signature(scenario):
    return [
        (str(e.pair.src), str(e.pair.dst), e.first_detected_at,
         e.symptom.name)
        for e in scenario.hunter.events
    ]


class TestCleanPathEquivalence:
    def test_empty_chaos_schedule_changes_nothing(self):
        """With an injector wired in but no faults scheduled, the
        hardened path must produce bit-identical failure events to the
        plain plane — probers and breakers exist but never fire."""
        plain = chaotic_scenario(None)
        hardened = chaotic_scenario(MonitorFaultInjector(seed=11))
        for scenario in (plain, hardened):
            scenario.run_for(60)
            fault = scenario.inject(
                IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
            )
            scenario.run_for(60)
            scenario.clear(fault)
            scenario.run_for(20)
        assert event_signature(plain) == event_signature(hardened)
        assert event_signature(plain)  # the fault was actually seen
        hardened_agents = agents(hardened)
        assert all(a.prober is not None for a in hardened_agents)
        assert all(
            a.prober.breaker.trips == 0 for a in hardened_agents
        )

    def test_no_chaos_means_no_probers(self):
        scenario = chaotic_scenario(None)
        assert all(a.prober is None for a in agents(scenario))


class TestReportLossRetry:
    def test_lost_reports_are_retried_and_mostly_recovered(self):
        injector = MonitorFaultInjector(seed=11)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.2,
            fault_id=0,
        )
        scenario = chaotic_scenario(injector)
        scenario.run_for(100)
        retries = sum(a.prober.retries for a in agents(scenario))
        recovered = sum(
            a.prober.retry_successes for a in agents(scenario)
        )
        assert retries > 0
        assert recovered > 0.5 * retries

    def test_report_loss_alone_opens_no_failure_events(self):
        """A lossy monitor on a healthy network must not fabricate
        network failures — missing rounds are skipped, not misread."""
        injector = MonitorFaultInjector(seed=11)
        injector.inject_issue(
            MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.3,
            fault_id=0,
        )
        scenario = chaotic_scenario(injector)
        scenario.run_for(160)
        assert scenario.hunter.events == []

    @pytest.mark.parametrize("interval", [1.0, 0.5])
    def test_no_retry_lands_after_the_next_round(self, interval):
        """Regression: two retries can land up to 1.15 s after their
        round, so at a 1 s or 0.5 s probe interval a retried report
        used to arrive after the next round's probe of its pair, and
        the analyzer refused the round ("probes must arrive in time
        order").  A retry that cannot land before the next round is
        not sent, and its report counts as a monitor failure."""
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, hosts_per_segment=4,
            seed=0, probe_interval_s=interval, chaos=standard_chaos(0, 0.5),
        )
        scenario.run_for(120)
        probers = [agent.prober for agent in agents(scenario)]
        assert sum(prober.monitor_failures for prober in probers) > 0
        if interval == 1.0:  # a first retry still fits in the round
            assert sum(prober.retry_successes for prober in probers) > 0


class TestAgentCrash:
    CRASH = "task-0/node-1"

    def build(self, start=20.0, end=80.0):
        injector = MonitorFaultInjector(seed=11)
        injector.inject_issue(
            MonitorIssue.AGENT_CRASH, start=start, end=end,
            scope=self.CRASH, fault_id=0,
        )
        return chaotic_scenario(injector)

    def crashed_agent(self, scenario):
        (agent,) = [
            a for a in agents(scenario)
            if str(a.container.id) == self.CRASH
        ]
        return agent

    def test_crashed_agent_skips_rounds_without_false_events(self):
        scenario = self.build()
        scenario.run_for(70)
        agent = self.crashed_agent(scenario)
        assert agent.rounds_skipped > 0
        assert scenario.hunter.events == []

    def test_breaker_trips_then_half_open_recovers(self):
        """The acceptance demonstration: the crashed agent's breaker
        trips OPEN during the outage and recovers through HALF_OPEN
        once the agent is back."""
        scenario = self.build(start=20.0, end=80.0)
        scenario.run_for(70)  # mid-crash: 3+ skipped rounds by now
        breaker = self.crashed_agent(scenario).prober.breaker
        assert breaker.trips >= 1
        assert breaker.state_at(scenario.engine.now) in (
            BreakerState.OPEN, BreakerState.HALF_OPEN
        )
        # Past the crash window plus the open duration: the half-open
        # trial round succeeds and closes the breaker.
        scenario.run_for(60)
        assert breaker.recoveries >= 1
        assert (
            breaker.state_at(scenario.engine.now)
            is BreakerState.CLOSED
        )
        # Healthy agents never tripped.
        for agent in agents(scenario):
            if str(agent.container.id) != self.CRASH:
                assert agent.prober.breaker.trips == 0

    def test_detection_survives_losing_one_agent(self):
        """A fault on a pair *not* owned by the crashed agent is still
        detected while the agent is down."""
        scenario = self.build(start=20.0, end=200.0)
        scenario.run_for(40)
        fault = scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(8)
        )
        scenario.run_for(80)
        scenario.clear(fault)
        scenario.run_for(20)
        assert scenario.hunter.events


class TestSlowStart:
    def test_slow_agent_probes_only_coarse_coverage(self):
        injector = MonitorFaultInjector(seed=11)
        injector.inject_issue(
            MonitorIssue.AGENT_SLOW_START, start=0.0,
            scope="task-0/node-0", delay_s=40.0, fault_id=0,
        )
        warm = chaotic_scenario(MonitorFaultInjector(seed=11))
        slow = chaotic_scenario(injector)
        warm.run_for(30)
        slow.run_for(30)

        def sent(scenario):
            (agent,) = [
                a for a in agents(scenario)
                if str(a.container.id) == "task-0/node-0"
            ]
            return agent.probes_sent

        assert 0 < sent(slow) < sent(warm)
