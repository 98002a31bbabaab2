"""Skeleton fidelity validation (§7.3 of the paper).

Skeleton inference assumes the tenant runs a collective-communication
workload.  Users who debug interactively, run exotic parallelisms, or
idle their containers break that assumption — the inferred skeleton then
probes the wrong pairs and misses real traffic.  The paper's proposed
mitigation: *"validate whether the traffic skeleton persistently aligns
with the actual traffic bursts"* before trusting it, and fall back to
the basic ping list when it does not.

The checker compares fresh throughput observations against what the
skeleton predicts:

* every member of a position group should still be *coherent* with its
  group (high correlation with the group's mean series);
* endpoints the skeleton claims are active should actually carry bursts;
* the periodicity the inference keyed on should persist.

A fidelity score below threshold demotes the task to its basic list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.cluster.identifiers import EndpointId, TaskId
from repro.core.controller import Controller
from repro.core.pinglist import PingList
from repro.core.skeleton import InferredSkeleton

__all__ = ["FidelityChecker", "FidelityReport"]

#: Peak throughput (Gb/s) from which an endpoint counts as bursting.
ACTIVITY_THRESHOLD_GBPS = 1.0
#: Fidelity score below which a task is demoted to its basic list.
FIDELITY_THRESHOLD = 0.6


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of validating a skeleton against fresh observations."""

    task: TaskId
    group_coherence: float     # mean member-to-group correlation
    activity_fraction: float   # endpoints that still burst
    periodicity: float         # folded-profile concentration
    stage_consistency: float   # groups still at their inferred stage
    incoherent_endpoints: tuple

    def score(self) -> float:
        """Scalar fidelity in [0, 1]: the weakest of the four signals.

        Coherence alone cannot catch a *consistent* relabeling (every
        group swapping patterns with another group keeps members
        coherent); the stage-consistency signal re-derives burst onsets
        and catches exactly that case.
        """
        return min(
            max(self.group_coherence, 0.0),
            self.activity_fraction,
            max(self.periodicity, 0.0),
            self.stage_consistency,
        )

    def aligned(self) -> bool:
        """Whether the skeleton still matches the observed traffic."""
        return self.score() >= FIDELITY_THRESHOLD


class FidelityChecker:
    """Validates skeletons and demotes misaligned tasks to basic lists."""

    def __init__(self, iteration_period_s: float = 30.0) -> None:
        self.iteration_period_s = iteration_period_s

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def check(
        self,
        task: TaskId,
        skeleton: InferredSkeleton,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
    ) -> FidelityReport:
        """Score how well fresh observations match the skeleton."""
        coherences: List[float] = []
        incoherent: List[EndpointId] = []
        active = 0
        total = 0
        periodicities: List[float] = []

        for group in skeleton.groups:
            observed = [
                np.asarray(series_by_endpoint[e], dtype=np.float64)
                for e in group if e in series_by_endpoint
            ]
            if len(observed) != len(group):
                # Missing observations count as incoherent members.
                incoherent.extend(
                    e for e in group if e not in series_by_endpoint
                )
            if not observed:
                continue
            mean_series = np.mean(observed, axis=0)
            for endpoint, series in zip(
                [e for e in group if e in series_by_endpoint], observed
            ):
                total += 1
                if series.max() >= ACTIVITY_THRESHOLD_GBPS:
                    active += 1
                correlation = self._correlation(series, mean_series)
                coherences.append(correlation)
                if correlation < 0.5:
                    incoherent.append(endpoint)
            periodicities.append(self._periodicity(mean_series))

        return FidelityReport(
            task=task,
            group_coherence=(
                float(np.mean(coherences)) if coherences else 0.0
            ),
            activity_fraction=active / total if total else 0.0,
            periodicity=(
                float(np.mean(periodicities)) if periodicities else 0.0
            ),
            stage_consistency=self._stage_consistency(
                skeleton, series_by_endpoint
            ),
            incoherent_endpoints=tuple(sorted(incoherent)),
        )

    def _stage_consistency(
        self,
        skeleton: InferredSkeleton,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
    ) -> float:
        """Fraction of groups whose burst onset still matches their
        inferred pipeline level."""
        from repro.core.skeleton import SkeletonInference

        inference = SkeletonInference(
            iteration_period_s=self.iteration_period_s
        )
        onsets = []
        for group in skeleton.groups:
            observed = [
                np.asarray(series_by_endpoint[e], dtype=np.float64)
                for e in group if e in series_by_endpoint
            ]
            if not observed:
                return 0.0
            period = int(round(self.iteration_period_s))
            usable = (len(observed[0]) // period) * period
            if usable == 0:
                return 0.0
            folded = np.mean([
                s[:usable].reshape(-1, period).mean(axis=0)
                for s in observed
            ], axis=0)
            onsets.append(inference._onset_bin(folded))
        fresh_levels = SkeletonInference._partition_stages(onsets)
        matches = sum(
            1 for fresh, original in zip(
                fresh_levels, skeleton.stage_of_group
            )
            if fresh == original
        )
        return matches / len(skeleton.groups) if skeleton.groups else 0.0

    @staticmethod
    def _correlation(a: np.ndarray, b: np.ndarray) -> float:
        """Pearson correlation, 0 when either side is flat."""
        n = min(len(a), len(b))
        if n < 2:
            return 0.0
        a, b = a[:n], b[:n]
        if a.std() == 0 or b.std() == 0:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def _periodicity(self, series: np.ndarray) -> float:
        """How concentrated activity is inside the iteration fold.

        A periodic signal folds into a profile whose variance across
        fold bins is large relative to the per-bin sampling variance; a
        burstless or aperiodic signal folds flat.  Returns a [0, 1]-ish
        concentration ratio.
        """
        period = int(round(self.iteration_period_s))
        usable = (len(series) // period) * period
        if usable < 2 * period:
            return 0.0
        folded = series[:usable].reshape(-1, period)
        profile = folded.mean(axis=0)
        across = float(profile.std())
        within = float(folded.std(axis=0).mean())
        if across + within == 0:
            return 0.0
        return across / (across + within)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------

    def enforce(
        self,
        controller: Controller,
        task: TaskId,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
    ) -> FidelityReport:
        """Check the applied skeleton; demote to basic on misalignment.

        Tasks still on their basic list are returned a degenerate report
        and left untouched.
        """
        skeleton = controller.skeleton_of(task)
        if skeleton is None:
            return FidelityReport(
                task=task, group_coherence=1.0, activity_fraction=1.0,
                periodicity=1.0, stage_consistency=1.0,
                incoherent_endpoints=(),
            )
        report = self.check(task, skeleton, series_by_endpoint)
        if not report.aligned():
            self._demote_to_basic(controller, task)
        return report

    @staticmethod
    def _demote_to_basic(controller: Controller, task: TaskId) -> None:
        state = controller._state(task)
        endpoints = state.task.endpoints()
        basic = PingList.basic(endpoints, controller._rail_of(state.task))
        for container in state.task.running_containers():
            basic.register(container.id)
        state.ping_list = basic
        state.skeleton = None
        for agent in state.agents.values():
            agent.ping_list = basic
