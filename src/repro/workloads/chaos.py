"""Randomized fault campaigns (chaos schedules) for soak testing.

Production validation of SkeletonHunter rested on six months of organic
failures.  The simulator compresses that: a :class:`ChaosSchedule` draws
fault arrivals from a Poisson-ish process, picks issue types and targets
at random from a scenario's live components, and arms the injections and
clears on the simulation clock.  Everything derives from the scenario's
seeded RNG, so a campaign is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.identifiers import ContainerId
from repro.network.faults import Fault
from repro.network.issues import IssueType, spec_of
from repro.workloads.scenarios import MonitoredScenario

__all__ = ["ChaosSchedule", "PlannedFault"]

#: Issue types a random campaign draws from, weighted towards the
#: failure classes the paper saw most (RNIC and host-side trouble).
DEFAULT_ISSUE_MIX: Sequence[IssueType] = (
    IssueType.RNIC_PORT_DOWN,
    IssueType.RNIC_HARDWARE_FAILURE,
    IssueType.RNIC_FIRMWARE_NOT_RESPONDING,
    IssueType.OFFLOADING_FAILURE,
    IssueType.RNIC_GID_CHANGE,
    IssueType.REPETITIVE_FLOW_OFFLOADING,
    IssueType.HUGEPAGE_MISCONFIGURATION,
    IssueType.PCIE_NIC_ERROR,
    IssueType.NOT_USING_RDMA,
    IssueType.SWITCH_OFFLINE,
    IssueType.CONGESTION_CONTROL_ISSUE,
    IssueType.CRC_ERROR,
    IssueType.CONTAINER_CRASH,
)


@dataclass
class PlannedFault:
    """One scheduled injection with its lifecycle times."""

    at: float
    duration_s: float
    issue: IssueType
    target: object
    fault: Optional[Fault] = None  # filled in once injected

    @property
    def clears_at(self) -> float:
        """When the fault is scheduled to end."""
        return self.at + self.duration_s


class ChaosSchedule:
    """Generates and arms a randomized fault campaign on a scenario."""

    def __init__(
        self,
        scenario: MonitoredScenario,
        mean_interarrival_s: float = 240.0,
        mean_duration_s: float = 80.0,
        issue_mix: Sequence[IssueType] = DEFAULT_ISSUE_MIX,
    ) -> None:
        if mean_interarrival_s <= 0 or mean_duration_s <= 0:
            raise ValueError("chaos timing parameters must be positive")
        self.scenario = scenario
        self.mean_interarrival_s = mean_interarrival_s
        self.mean_duration_s = mean_duration_s
        self.issue_mix = list(issue_mix)
        self._rng = scenario.rng.stream("chaos")
        self.plan: List[PlannedFault] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def generate(
        self, start: float, horizon: float,
        max_faults: Optional[int] = None,
    ) -> List[PlannedFault]:
        """Draw a fault plan for [start, horizon)."""
        plan: List[PlannedFault] = []
        at = start + float(
            self._rng.exponential(self.mean_interarrival_s)
        )
        while at < horizon:
            if max_faults is not None and len(plan) >= max_faults:
                break
            issue = self.issue_mix[
                int(self._rng.integers(0, len(self.issue_mix)))
            ]
            duration = 20.0 + float(
                self._rng.exponential(self.mean_duration_s)
            )
            plan.append(PlannedFault(
                at=at, duration_s=duration, issue=issue,
                target=self._pick_target(issue),
            ))
            # Faults stay serialized: the next one arrives only after
            # the previous cleared plus recovery slack, keeping incident
            # attribution unambiguous (as the scorer expects).
            at = at + duration + 160.0 + float(
                self._rng.exponential(self.mean_interarrival_s)
            )
        self.plan.extend(plan)
        return plan

    def _pick_target(self, issue: IssueType):
        """A live component of the species the catalogue says ``issue``
        targets (``target_kind``).  The rank is drawn first whatever
        the species: recorded plans depend on the draw order."""
        scenario = self.scenario
        rank = int(self._rng.integers(0, scenario.workload.num_ranks))
        rnic = scenario.rnic_of_rank(rank)
        kind = spec_of(issue).target_kind
        if kind == "link":
            # A link on a monitored pair's pinned path.
            pairs = scenario.hunter.monitored_pairs()
            if not pairs:
                return scenario.topology.links()[0]
            pair = pairs[int(self._rng.integers(0, len(pairs)))]
            links = scenario.fabric.traceroute(pair.src, pair.dst).links
            return links[int(self._rng.integers(0, len(links)))]
        if kind == "switch":
            return scenario.topology.tor_of(rnic)
        if kind == "container":
            task = scenario.task
            return task.containers[ContainerId(
                task.id, int(self._rng.integers(0, task.num_containers))
            )]
        return rnic.host if kind == "host" else rnic

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every planned injection and clear on the engine."""
        engine = self.scenario.engine
        for planned in self.plan:
            if planned.fault is not None:
                continue  # already armed

            def inject(p=planned):
                # Container crashes against already-dead containers are
                # re-targeted to a running one at fire time.
                target = p.target
                if p.issue == IssueType.CONTAINER_CRASH:
                    if getattr(target, "is_terminal", False):
                        running = self.scenario.task.running_containers()
                        if not running:
                            return
                        target = running[0]
                        p.target = target
                p.fault = self.scenario.injector.inject_issue(
                    p.issue, target, start=engine.now
                )
                engine.schedule_in(
                    p.duration_s,
                    lambda: self.scenario.injector.clear(
                        p.fault, engine.now
                    ),
                    label=f"chaos-clear:{p.issue.name}",
                )

            engine.schedule(planned.at, inject,
                            label=f"chaos:{planned.issue.name}")

    def faults(self) -> List[Fault]:
        """Faults that have actually been injected so far."""
        return [p.fault for p in self.plan if p.fault is not None]
