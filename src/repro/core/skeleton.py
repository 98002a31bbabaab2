"""Traffic skeleton inference (§5.1 of the paper).

From nothing but per-RNIC throughput series (observable by the CSP
without looking inside tenant containers), infer:

1. the **position groups** — RNICs at the same pipeline position across
   DP replicas, found by constrained hierarchical clustering of STFT
   features (Equations 1-3);
2. the **parallelism split** — DP equals the common group size, and
   TP x PP equals the group count;
3. the **stage order** — pipeline level of each group, recovered from
   burst onset times (earlier stages burst earlier in each iteration);
4. the **skeleton edges** — the endpoint pairs training traffic actually
   traverses: a ring inside each position group (DP all-reduce) plus
   links between members of adjacent pipeline stages (PP p2p).

The resulting edge set drives the runtime ping-list optimization: probing
only skeleton edges preserves failure coverage while cutting the basic
list by an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, List, Set

import numpy as np

from repro.analysis.clustering import (
    GroupingResult,
    constrained_position_groups,
)
from repro.analysis.stft import feature_matrix
from repro.cluster.identifiers import EndpointId
from repro.obs.span import open_span

__all__ = [
    "InferredSkeleton",
    "SkeletonInference",
    "SkeletonInferenceError",
]

#: A burst onset rises this fraction of ``0.2 * peak`` above the fold's
#: quiet floor (or five noise sigmas, if larger).
ONSET_THRESHOLD = 0.25
#: Minimum fraction of finite samples an endpoint's series must carry to
#: take part in inference; below it the endpoint is quarantined (kept at
#: basic probing coverage) instead.
MIN_COVERAGE = 0.6


class SkeletonInferenceError(ValueError):
    """Inference could not run on the (possibly degraded) input.

    Subclasses :class:`ValueError` for backward compatibility; callers
    in the monitoring loop catch it and keep the current ping list
    rather than crashing the plane (see
    :meth:`repro.core.system.SkeletonHunter.observe_and_optimize`).
    """


@dataclass
class InferredSkeleton:
    """The inference output: groups, parallelism split, and edges."""

    endpoints: List[EndpointId]
    groups: List[List[EndpointId]]     # each = one pipeline position
    dp: int                            # inferred data parallelism
    group_count: int                   # inferred TP x PP
    stage_of_group: List[int]          # pipeline level of each group
    edges: Set[FrozenSet[EndpointId]] = field(default_factory=set)
    group_topology: str = "ring"       # intra-group pattern used
    #: Endpoints whose throughput series were too gappy/short to use;
    #: the controller keeps probing them at basic coverage instead of
    #: silently dropping them from the optimized list.
    quarantined: List[EndpointId] = field(default_factory=list)

    @property
    def num_stages(self) -> int:
        """Distinct pipeline levels discovered."""
        return len(set(self.stage_of_group)) if self.stage_of_group else 0

    def coverage(self, true_edges: Set[FrozenSet[EndpointId]]) -> float:
        """Fraction of the real traffic edges the skeleton covers."""
        if not true_edges:
            return 1.0
        return len(self.edges & true_edges) / len(true_edges)

    def excess(self, true_edges: Set[FrozenSet[EndpointId]]) -> int:
        """Inferred edges that carry no real traffic (wasted probes)."""
        return len(self.edges - true_edges)


class SkeletonInference:
    """Infers traffic skeletons from RNIC throughput series."""

    def __init__(
        self,
        iteration_period_s: float = 30.0,
        group_topology: str = "auto",
        recorder=None,
    ) -> None:
        if group_topology not in ("ring", "mesh", "auto"):
            raise ValueError(
                f"group_topology must be 'ring', 'mesh', or 'auto', "
                f"got {group_topology!r}"
            )
        self.iteration_period_s = iteration_period_s
        self.group_topology = group_topology
        self.recorder = recorder

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def infer(
        self,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
        host_of: Callable[[EndpointId], Hashable],
    ) -> InferredSkeleton:
        """Run the full inference pipeline on collected throughput series.

        Gapped or corrupt series (NaN samples — dropped telemetry) are
        repaired by interpolation when coverage allows, or quarantined
        otherwise; clean input flows through untouched, bit-identical
        to the unhardened path.  Raises :class:`SkeletonInferenceError`
        (a :class:`ValueError`) when fewer than two usable endpoints
        remain — never a crash deeper in the pipeline.
        """
        with open_span(self.recorder, "skeleton.sanitize"):
            usable, quarantined = self._sanitize_series(series_by_endpoint)
        if quarantined and self.recorder is not None:
            self.recorder.count(
                "skeleton.quarantined", amount=float(len(quarantined))
            )
            self.recorder.event(
                "skeleton.quarantine",
                endpoints=[str(e) for e in quarantined],
            )
        endpoints = sorted(usable)
        if len(endpoints) < 2:
            raise SkeletonInferenceError(
                "need at least two endpoints to infer "
                f"({len(quarantined)} quarantined as incomplete)"
            )
        series = [usable[e] for e in endpoints]
        with open_span(self.recorder, "skeleton.features"):
            features = feature_matrix(series)
        hosts = [host_of(e) for e in endpoints]

        with open_span(self.recorder, "skeleton.cluster") as span:
            grouping = constrained_position_groups(
                features, hosts, recorder=self.recorder
            )
            span.set(groups=grouping.num_groups)
        groups = self._materialize_groups(endpoints, grouping)
        with open_span(self.recorder, "skeleton.stages"):
            profiles = [
                self._folded_profile(group, usable)
                for group in groups
            ]
            stage_of_group = self._partition_stages(
                [self._onset_bin(profile) for profile in profiles]
            )
            topology = self.group_topology
            if topology == "auto":
                topology = self._detect_group_topology(profiles)
        with open_span(self.recorder, "skeleton.edges") as span:
            edges = self._build_edges(groups, stage_of_group, topology)
            span.set(edges=len(edges))
        return InferredSkeleton(
            endpoints=endpoints,
            groups=groups,
            dp=grouping.group_size,
            group_count=grouping.num_groups,
            stage_of_group=stage_of_group,
            edges=edges,
            group_topology=topology,
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------
    # Ingestion hardening
    # ------------------------------------------------------------------

    def _sanitize_series(
        self,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
    ) -> "tuple[Dict[EndpointId, np.ndarray], List[EndpointId]]":
        """Split input into usable (possibly repaired) and quarantined.

        An endpoint is quarantined when its series is shorter than one
        iteration period or carries less than :data:`MIN_COVERAGE` finite
        samples.  Remaining NaN gaps are repaired *phase-aware*: the
        series is periodic in the iteration, so a missing sample takes
        the median of its phase bin across the other iterations.  That
        preserves burst onsets — which linear interpolation across a
        burst edge smears, silently collapsing the stage partition.
        Phases with no finite sample anywhere fall back to linear
        interpolation.  Fully-finite series are passed through *by
        reference* so the clean path stays bit-identical.
        """
        period = int(round(self.iteration_period_s))
        usable: Dict[EndpointId, np.ndarray] = {}
        quarantined: List[EndpointId] = []
        for endpoint in sorted(series_by_endpoint):
            data = np.asarray(
                series_by_endpoint[endpoint], dtype=np.float64
            )
            if len(data) < period:
                quarantined.append(endpoint)
                continue
            finite = np.isfinite(data)
            if finite.all():
                usable[endpoint] = data
                continue
            if float(finite.mean()) < MIN_COVERAGE or finite.sum() < 2:
                quarantined.append(endpoint)
                continue
            usable[endpoint] = self._repair_series(data, finite, period)
        return usable, quarantined

    @staticmethod
    def _repair_series(
        data: np.ndarray, finite: np.ndarray, period: int
    ) -> np.ndarray:
        """Fill NaN gaps from the same phase bin of other iterations."""
        repaired = data.copy()
        pad = (-len(data)) % period
        padded = np.concatenate([data, np.full(pad, np.nan)])
        table = padded.reshape(-1, period)
        phase_counts = np.isfinite(table).sum(axis=0)
        phase_median = np.zeros(period, dtype=np.float64)
        covered = phase_counts > 0
        if covered.any():
            # nanmedian warns on all-NaN columns; only covered phases
            # are evaluated, so the reduction stays silent.
            phase_median[covered] = np.nanmedian(
                table[:, covered], axis=0
            )
        bad = np.flatnonzero(~finite)
        fillable = covered[bad % period]
        repaired[bad[fillable]] = phase_median[bad[fillable] % period]
        remaining = np.flatnonzero(~np.isfinite(repaired))
        if len(remaining):
            good = np.flatnonzero(np.isfinite(repaired))
            repaired[remaining] = np.interp(
                remaining, good, repaired[good]
            )
        return repaired

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    @staticmethod
    def _materialize_groups(
        endpoints: List[EndpointId], grouping: GroupingResult
    ) -> List[List[EndpointId]]:
        """Turn row-index groups into endpoint groups, members sorted."""
        groups: List[List[EndpointId]] = []
        for members in grouping.groups():
            groups.append(sorted(endpoints[i] for i in members))
        # Deterministic group order: by first member.
        groups.sort(key=lambda g: g[0])
        return groups

    def _onset_bin(self, folded: np.ndarray) -> int:
        """First sample of the fold that rises clearly above the floor.

        The threshold sits just above the quiet-phase noise floor rather
        than at a fraction of the peak: the shared all-reduce burst
        dominates the peak, which would otherwise hide the (weaker)
        micro-burst window whose start encodes the pipeline level.
        """
        peak = float(folded.max())
        if peak <= 0:
            return 0
        floor = float(np.percentile(folded, 10))
        quiet = np.sort(folded)[: max(3, int(0.3 * len(folded)))]
        sigma = float(quiet.std())
        threshold = floor + max(5.0 * sigma, ONSET_THRESHOLD * 0.2 * peak)
        above = np.flatnonzero(folded >= threshold)
        return int(above[0]) if len(above) else 0

    @staticmethod
    def _partition_stages(
        onsets: List[int],
        within_tolerance: float = 2.0,
        min_gap: float = 1.5,
    ) -> List[int]:
        """Partition groups into pipeline stages by onset time.

        Exploits the structural constraint that every pipeline level
        contains the same number of groups (its TP siblings): candidate
        stage counts are the divisors of the group count, each splitting
        the onset-sorted groups into equal contiguous blocks.  A split is
        valid when blocks are internally tight (range within tolerance —
        1 Hz sampling jitters onsets by a bin) and adjacent block means
        are separated by at least ``min_gap``.  The finest valid split
        wins; it recovers PP even when a few onsets are off by one.
        """
        k = len(onsets)
        if k == 0:
            return []
        order = sorted(range(k), key=lambda i: onsets[i])
        sorted_onsets = [onsets[i] for i in order]
        divisors = [s for s in range(k, 0, -1) if k % s == 0]
        chosen = 1
        for s in divisors:
            block = k // s
            means = []
            valid = True
            for b in range(s):
                chunk = sorted_onsets[b * block:(b + 1) * block]
                if chunk[-1] - chunk[0] > within_tolerance:
                    valid = False
                    break
                means.append(sum(chunk) / block)
            if valid and all(
                later - earlier >= min_gap
                for earlier, later in zip(means, means[1:])
            ):
                chosen = s
                break
        block = k // chosen
        labels = [0] * k
        for position, index in enumerate(order):
            labels[index] = position // block
        return labels

    def _folded_profile(
        self,
        group: List[EndpointId],
        series_by_endpoint: Dict[EndpointId, np.ndarray],
    ) -> np.ndarray:
        """Mean over members of the iteration-folded throughput."""
        period = int(round(self.iteration_period_s))
        profiles = []
        for endpoint in group:
            data = np.asarray(series_by_endpoint[endpoint], dtype=np.float64)
            usable = (len(data) // period) * period
            if usable == 0:
                raise ValueError(
                    f"series for {endpoint} is shorter than one iteration"
                )
            folded = data[:usable].reshape(-1, period).mean(axis=0)
            profiles.append(folded)
        return np.mean(profiles, axis=0)

    def _detect_group_topology(
        self, profiles: List[np.ndarray]
    ) -> str:
        """Classify dense (ring) vs MoE (mesh) traffic from burst phases.

        A dense iteration shows at most two activity phases per group
        (the pipeline window and the all-reduce tail); MoE token routing
        adds a third, separate all-to-all burst.  Groups whose window
        sits late in the iteration can have phases merge across the
        fold boundary, so the vote is a fraction: when at least 40% of
        groups show three or more activity segments, the task carries
        expert all-to-all traffic and intra-group probing must cover
        the full mesh.
        """
        counts = [
            self._active_segments(profile) for profile in profiles
        ]
        if not counts:
            return "ring"
        rich = sum(1 for count in counts if count >= 3)
        return "mesh" if rich / len(counts) >= 0.4 else "ring"

    @staticmethod
    def _active_segments(profile: np.ndarray) -> int:
        """Contiguous above-floor runs of a folded profile."""
        peak = float(profile.max())
        if peak <= 0:
            return 0
        floor = float(np.percentile(profile, 10))
        active = profile >= floor + 0.15 * (peak - floor)
        return int(
            np.sum(active[1:] & ~active[:-1]) + int(active[0])
        )

    def _build_edges(
        self,
        groups: List[List[EndpointId]],
        stage_of_group: List[int],
        topology: str,
    ) -> Set[FrozenSet[EndpointId]]:
        """Skeleton edges: intra-group rings/meshes + inter-stage links."""
        edges: Set[FrozenSet[EndpointId]] = set()

        # DP traffic: ring all-reduce (or MoE all-to-all) inside a group.
        for group in groups:
            if len(group) < 2:
                continue
            if topology == "mesh":
                for i, a in enumerate(group):
                    for b in group[i + 1:]:
                        self._add_edge(edges, a, b)
            else:
                for i, a in enumerate(group):
                    b = group[(i + 1) % len(group)]
                    self._add_edge(edges, a, b)

        # PP traffic: link members of adjacent-stage groups pairwise.
        by_stage: Dict[int, List[int]] = {}
        for index, stage in enumerate(stage_of_group):
            by_stage.setdefault(stage, []).append(index)
        stages = sorted(by_stage)
        for current, following in zip(stages, stages[1:]):
            lower = sorted(by_stage[current], key=lambda g: groups[g][0])
            upper = sorted(by_stage[following], key=lambda g: groups[g][0])
            for ga, gb in zip(lower, upper):
                for a, b in zip(groups[ga], groups[gb]):
                    self._add_edge(edges, a, b)
        return edges

    @staticmethod
    def _add_edge(
        edges: Set[FrozenSet[EndpointId]], a: EndpointId, b: EndpointId
    ) -> None:
        if a == b or a.container == b.container:
            return  # intra-container traffic rides NVLink, not the network
        edges.add(frozenset((a, b)))
