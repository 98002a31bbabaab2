"""Flock-style probabilistic-inference localization baseline.

Flock (Kakarla et al.) localizes failures by Bayesian inference over
per-link failure posteriors instead of combinatorial intersection: every
probed pair is an observation whose likelihood depends on whether its
path crosses a bad link, and links are ranked by posterior odds after
conditioning on all observations.  The shape translates directly to this
simulator — including spraying ECMP, where a pair crosses a candidate
link only with probability ``w`` (its mass in the pair's path
distribution) and the likelihood mixes the crossed/not-crossed cases.

Per link ``L`` with prior failure probability ``p``:

* ``P(pair fails | L bad)  = w*q + (1-w)*f0`` — crossing a bad link
  fails the pair with probability ``q``; otherwise the baseline
  false-alarm rate ``f0`` applies;
* ``P(pair fails | L good) = f0``;
* healthy pairs contribute the complementary likelihoods.

Log-odds accumulate over all failing and healthy observations; links
whose posterior clears ``posterior_floor`` are suspects, ranked by
posterior.  Promotion to a shared switch/host/RNIC reuses the same rule
the tomography voter applies, so the two localizers are scored on equal
footing in ``benchmarks/bench_gray.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.cluster.identifiers import LinkId
from repro.cluster.orchestrator import Cluster
from repro.core.analyzer import FailureEvent
from repro.core.localization import Diagnosis, LocalizationReport
from repro.core.pinglist import ProbePair
from repro.core.tomography import PhysicalIntersection, crossing_mass
from repro.network.fabric import DataPlaneFabric
from repro.network.issues import ComponentClass

__all__ = ["FlockLocalizer"]


class FlockLocalizer:
    """Bayesian per-link failure inference over probe observations."""

    name = "flock"

    def __init__(
        self,
        cluster: Cluster,
        fabric: DataPlaneFabric,
        prior: float = 0.02,
        hit_rate: float = 0.85,
        false_rate: float = 0.02,
        posterior_floor: float = 0.5,
        max_suspects: int = 4,
    ) -> None:
        if not 0.0 < prior < 1.0:
            raise ValueError("prior must be a probability in (0, 1)")
        if not 0.0 < false_rate < hit_rate <= 1.0:
            raise ValueError("need 0 < false_rate < hit_rate <= 1")
        self.cluster = cluster
        self.fabric = fabric
        self.prior = prior
        self.hit_rate = hit_rate
        self.false_rate = false_rate
        self.posterior_floor = posterior_floor
        self.max_suspects = max_suspects

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _crossing_mass(self, pair: ProbePair) -> Dict[LinkId, float]:
        """P(the pair's probe crosses each link), from its distribution."""
        return crossing_mass(
            self.fabric.path_distribution(pair.src, pair.dst)
        )

    def link_posteriors(
        self,
        failing_pairs: Sequence[ProbePair],
        healthy_pairs: Sequence[ProbePair] = (),
    ) -> Dict[LinkId, float]:
        """Posterior failure probability per candidate link.

        Candidates are the links failing pairs can cross; healthy pairs
        only ever push a candidate's posterior down.
        """
        q, f0 = self.hit_rate, self.false_rate
        log_odds: Dict[LinkId, float] = {}
        prior_odds = math.log(self.prior / (1.0 - self.prior))
        for pair in failing_pairs:
            for link, w in self._crossing_mass(pair).items():
                fail_given_bad = w * q + (1.0 - w) * f0
                ratio = math.log(fail_given_bad / f0)
                log_odds[link] = log_odds.get(link, prior_odds) + ratio
        if not log_odds:
            return {}
        for pair in healthy_pairs:
            for link, w in self._crossing_mass(pair).items():
                if link not in log_odds:
                    continue
                fail_given_bad = w * q + (1.0 - w) * f0
                ratio = math.log(
                    (1.0 - fail_given_bad) / (1.0 - f0)
                )
                log_odds[link] += ratio
        return {
            link: 1.0 / (1.0 + math.exp(-odds))
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
                if posterior >= self.posterior_floor
            ),
            key=lambda item: (-item[1], str(item[0])),
        )[: self.max_suspects]
        report = LocalizationReport()
        if not ranked:
            report.unexplained = list(events)
            return report
        suspects = tuple(sorted(link for link, _ in ranked))
        component, kind = PhysicalIntersection._promote(suspects)
        pairs = tuple(failing)
        if component is not None:
            top_posterior = max(p for _, p in ranked)
            report.diagnoses.append(Diagnosis(
                component=component,
                component_class=(
                    ComponentClass.RNIC if kind == "rnic"
                    else ComponentClass.HOST_BOARD if kind == "host"
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
