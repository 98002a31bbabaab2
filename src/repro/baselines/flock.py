"""Flock-style probabilistic-inference localization baseline.

Flock (Kakarla et al.) localizes failures by Bayesian inference over
per-link failure posteriors instead of combinatorial intersection: every
probed pair is an observation whose likelihood depends on whether its
path crosses a bad link, and links are ranked by posterior odds after
conditioning on all observations.  The shape translates directly to this
simulator — including spraying ECMP, where a pair crosses a candidate
link only with probability ``w`` (its mass in the pair's path
distribution) and the likelihood mixes the crossed/not-crossed cases.

Per link ``L`` with prior failure probability ``p`` (:data:`PRIOR`):

* ``P(pair fails | L bad)  = w*q + (1-w)*f0`` — crossing a bad link
  fails the pair with probability ``q`` (:data:`HIT_RATE`); otherwise
  the baseline false-alarm rate ``f0`` (:data:`FALSE_RATE`) applies;
* ``P(pair fails | L good) = f0``;
* healthy pairs contribute the complementary likelihoods.

Log-odds accumulate over all failing and healthy observations; links
whose posterior clears :data:`POSTERIOR_FLOOR` are suspects, ranked by
posterior (at most :data:`MAX_SUSPECTS`).  Promotion to a shared
switch or host is the tomography voter's own rule
(:func:`~repro.core.tomography.promote`), so the localization corpus
(:mod:`repro.chaos.corpus`) and the gray gate score Flock and the
pipeline on equal footing: Flock is the comparator the pipeline's vote
must keep holding against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.cluster.identifiers import LinkId
from repro.cluster.orchestrator import Cluster
from repro.core.analyzer import FailureEvent
from repro.core.localization import Diagnosis, LocalizationReport
from repro.core.pinglist import ProbePair
from repro.core.tomography import crossing_mass, promote
from repro.network.fabric import DataPlaneFabric
from repro.network.issues import ComponentClass

__all__ = ["FlockLocalizer"]

PRIOR = 0.02
HIT_RATE = 0.85
FALSE_RATE = 0.02
POSTERIOR_FLOOR = 0.5
MAX_SUSPECTS = 4


class FlockLocalizer:
    """Bayesian per-link failure inference over probe observations."""

    def __init__(self, cluster: Cluster, fabric: DataPlaneFabric) -> None:
        self.cluster = cluster
        self.fabric = fabric

    def link_posteriors(
        self,
        failing_pairs: Sequence[ProbePair],
        healthy_pairs: Sequence[ProbePair] = (),
    ) -> Dict[LinkId, float]:
        """Posterior failure probability per candidate link.

        Candidates are the links failing pairs can cross (with the
        probability their path distribution gives: the routes their
        probes resolved to, as the pipeline's vote reads them); healthy
        pairs only ever push a candidate's posterior down.
        """
        q, f0 = HIT_RATE, FALSE_RATE
        log_odds: Dict[LinkId, float] = {}
        prior_odds = math.log(PRIOR / (1.0 - PRIOR))
        paths_of = self.fabric.resolution_cache.paths_of
        for pairs, failed in ((failing_pairs, True), (healthy_pairs, False)):
            for paths in paths_of(pairs):
                for link, w in crossing_mass(paths).items():
                    if not failed and link not in log_odds:
                        continue
                    bad = w * q + (1.0 - w) * f0
                    log_odds[link] = log_odds.get(link, prior_odds) + (
                        math.log(bad / f0) if failed
                        else math.log((1.0 - bad) / (1.0 - f0))
                    )
        # Healthy evidence can push odds below exp()'s range; such a
        # posterior bottoms out near 1e-304 instead of overflowing.
        return {
            link: 1.0 / (1.0 + math.exp(min(-odds, 700.0)))
            for link, odds in log_odds.items()
        }

    def localize(
        self,
        events: Sequence[FailureEvent],
        healthy_pairs: Sequence[ProbePair] = (),
        now: float = 0.0,
    ) -> LocalizationReport:
        """Rank links by posterior and report the survivors.

        Returns a :class:`LocalizationReport` so the campaign scorer
        can evaluate Flock exactly like the SkeletonHunter pipeline.
        """
        del now  # inference is time-free; signature mirrors Localizer
        failing = sorted(
            {event.pair for event in events},
            key=lambda p: (str(p.src), str(p.dst)),
        )
        posteriors = self.link_posteriors(failing, healthy_pairs)
        ranked: List[Tuple[LinkId, float]] = sorted(
            (
                (link, posterior)
                for link, posterior in posteriors.items()
                if posterior >= POSTERIOR_FLOOR
            ),
            key=lambda item: (-item[1], str(item[0])),
        )[:MAX_SUSPECTS]
        report = LocalizationReport()
        if not ranked:
            report.unexplained = list(events)
            return report
        suspects = tuple(sorted(link for link, _ in ranked))
        component, kind = promote(suspects)
        pairs = tuple(failing)
        if component is not None:
            top_posterior = max(p for _, p in ranked)
            report.diagnoses.append(Diagnosis(
                component=component,
                component_class=(
                    ComponentClass.HOST_BOARD if kind == "host"
                    else ComponentClass.INTER_HOST_NETWORK
                ),
                layer="underlay",
                evidence=(
                    f"{len(suspects)} high-posterior links meet at "
                    f"{component} (posterior {top_posterior:.3f})"
                ),
                pairs=pairs,
                confidence=top_posterior,
            ))
        for link, posterior in ranked:
            report.diagnoses.append(Diagnosis(
                component=str(link),
                component_class=ComponentClass.INTER_HOST_NETWORK,
                layer="underlay",
                evidence=(
                    f"posterior {posterior:.3f} over "
                    f"{len(failing)} failing / "
                    f"{len(healthy_pairs)} healthy observations"
                ),
                pairs=pairs,
                confidence=posterior,
            ))
        return report
