"""Underlay physical-intersection analysis (Algorithm 1, lines 16-21).

ECMP multiplexing means a failing endpoint pair only tells us *one of*
its physical path's links is bad.  Network tomography intersects the
paths of many failing pairs: each failing path votes for every link it
crosses (``PhyLinkCounter``), and the links with the maximum vote count —
strictly above one, per Algorithm 1 — are the suspects.  Healthy-path
exoneration (as in 007/NetBouncer) can additionally strike links that
concurrently carried successful probes, which is sound for hard failures.

One tally serves every fabric: a pair's evidence is its path
*distribution* — each ECMP candidate at equal probability, a pinned
traceroute being the one-path case — and the pair adds ``P(component is
on the taken path)`` of mass to every component its distribution
crosses.  Under static ECMP those masses are Algorithm 1's whole votes;
under per-packet spraying they are fractions, and a mass rule
(SprayCheck's per-path observation model) replaces the count rule.

A promotion step interprets the raw link votes: several top links meeting
at one switch implicate the switch (e.g. switch offline); several leaf
links of one host implicate the host (board/config trouble); a single
leaf link implicates its RNIC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cluster.identifiers import LinkId
from repro.cluster.topology import UnderlayPath

__all__ = ["IntersectionResult", "PhysicalIntersection", "crossing_mass"]

#: Per component a failing pair can cross: its failing mass, its total
#: (failing + healthy) mass, and the number of failing pairs behind it.
_Tally = Dict[Any, List[float]]


def _is_rnic_device(name: str) -> bool:
    return "/rnic-" in name


def _host_of_device(name: str) -> Optional[str]:
    if _is_rnic_device(name):
        return name.split("/")[0]
    return None


@dataclass(frozen=True)
class IntersectionResult:
    """Outcome of one tomography vote."""

    votes: Dict[LinkId, float]            # int counts or sprayed mass
    suspects: Tuple[LinkId, ...]          # max-count links (count > 1)
    promoted_component: Optional[str]     # switch/host/RNIC, if inferable
    promoted_kind: Optional[str]          # 'switch' | 'host' | 'rnic' | None

    @property
    def found(self) -> bool:
        """Whether the vote produced any suspect or promoted device."""
        return bool(self.suspects) or self.promoted_component is not None

    def blamed_components(self) -> List[str]:
        """Component names to report, promotion first."""
        names: List[str] = []
        if self.promoted_component is not None:
            names.append(self.promoted_component)
        names.extend(str(link) for link in self.suspects)
        return names

    def as_fields(self) -> Dict[str, object]:
        """A JSON-serializable view of the vote (for trace events)."""
        return {
            "votes": {
                str(link): count for link, count in sorted(
                    self.votes.items(),
                    key=lambda kv: (-kv[1], str(kv[0])),
                )
            },
            "suspects": [str(link) for link in self.suspects],
            "promoted_component": self.promoted_component,
            "promoted_kind": self.promoted_kind,
        }


def _links(path: UnderlayPath) -> Iterable[Any]:
    return path.links


def _switches(path: UnderlayPath) -> Iterable[Any]:
    return dict.fromkeys(path.switches())


def crossing_mass(
    paths: Sequence[UnderlayPath],
    keys_of: Callable[[UnderlayPath], Iterable[Any]] = _links,
) -> Dict[Any, float]:
    """P(the pair's probe crosses each component), from its distribution.

    ``paths`` is one pair's path distribution, every path at mass
    ``1/len(paths)``; ``keys_of`` names what a path crosses (its links
    by default).  Accumulates in input order over dicts, never over a
    set, so the float sums are bit-deterministic.
    """
    mass: Dict[Any, float] = {}
    if paths:
        share = 1.0 / len(paths)
        for path in paths:
            for key in keys_of(path):
                mass[key] = mass.get(key, 0.0) + share
    return mass


class PhysicalIntersection:
    """Tallies crossing mass across failing pairs and promotes suspects.

    Two rules read the one tally: the paper's integer *count* rule for
    pinned routes, and its spraying-ECMP generalization, the *mass*
    rule — votes weighted by path probability, with healthy mass
    discounting instead of hard exoneration (a healthy pair crossing a
    gray link 1/k of the time proves little, but *all* of a link's
    crossers failing proves a lot).
    """

    #: Algorithm 1 requires more than one vote per suspect.
    MIN_VOTES = 2
    # Mass-rule constants: a suspect needs at least ``MIN_MASS``
    # expected failing crossings, at least ``RATIO_FLOOR`` of its total
    # crossing mass failing, and a score within ``TIE_FRACTION`` of the
    # leader to stay a suspect.  ``MIN_MASS`` stays below 1.0 on
    # purpose: a fabric link sprayed by k equal-cost paths collects
    # only 1/k mass per failing pair, so two corroborating pairs on a
    # 4-way fabric reach exactly 0.5 — demanding a full unit would make
    # uplink faults invisible until k pairs fail at once.
    MIN_MASS = 0.5
    RATIO_FLOOR = 0.5
    TIE_FRACTION = 0.75

    def vote(
        self,
        failing: Sequence[Sequence[UnderlayPath]],
        healthy: Sequence[Sequence[UnderlayPath]] = (),
        exonerate: bool = False,
        weighted: bool = False,
    ) -> IntersectionResult:
        """Intersect the failing pairs' path distributions.

        Each element of ``failing``/``healthy`` is one pair's
        distribution (a pinned traceroute is ``[path]``; empty ones are
        skipped).  ``weighted`` reads the tally by the mass rule, for
        sprayed distributions; otherwise the count rule reads it as
        whole votes, for pinned ones, and ``exonerate`` strikes what a
        healthy path crossed — only sound for hard failures (a down
        link cannot carry a successful probe; lossy or slow links may
        pass some, so loss/latency votes must not exonerate).

        The rule runs over links first.  When no link is conclusive it
        runs over transit switches: a PFC storm centred on a spine
        perturbs every uplink the spine serves, each failing pair
        crosses a *different* victim link, and only the storm-centre
        switch collects their votes.  A device verdict stands only when
        one switch wins outright (an ambiguous device vote explains
        nothing).  Deterministic: accumulation follows the input order
        and ties sort by id.
        """
        if not (weighted or exonerate):
            healthy = ()    # the count rule reads it only to exonerate
        rule = self._mass_rule if weighted else self._count_rule
        pairs = sum(1 for paths in failing if paths)
        links = self._tally(failing, healthy, _links)
        suspects = tuple(rule(links, pairs))
        component, kind = self._promote(suspects)
        if not suspects:
            devices = rule(self._tally(failing, healthy, _switches), pairs)
            if len(devices) == 1:
                component, kind = devices[0], "switch"
        return IntersectionResult(
            votes={
                link: mass if weighted else int(mass)
                for link, (mass, _, _) in links.items()
            },
            suspects=suspects,
            promoted_component=component, promoted_kind=kind,
        )

    @staticmethod
    def _tally(
        failing: Sequence[Sequence[UnderlayPath]],
        healthy: Sequence[Sequence[UnderlayPath]],
        keys_of: Callable[[UnderlayPath], Iterable[Any]],
    ) -> _Tally:
        tally: _Tally = {}
        for paths in failing:
            for key, mass in crossing_mass(paths, keys_of).items():
                row = tally.setdefault(key, [0.0, 0.0, 0])
                row[0] += mass
                row[1] += mass
                row[2] += 1

        # Healthy mass is only ever read where a failing pair crosses.
        def tallied_keys_of(path: UnderlayPath) -> Iterable[Any]:
            return filter(tally.__contains__, keys_of(path))

        for paths in healthy:
            for key, mass in crossing_mass(paths, tallied_keys_of).items():
                tally[key][1] += mass
        return tally

    @staticmethod
    def _leaders(scores: Dict[Any, float], fraction: float) -> List[Any]:
        """The keys scoring within ``fraction`` of the best, sorted."""
        cut = max(scores.values(), default=0.0) * fraction
        return sorted(key for key, score in scores.items() if score >= cut)

    def _count_rule(self, tally: _Tally, pairs: int) -> List[Any]:
        """Algorithm 1: more than one vote, no healthy crossing among
        the healthy paths tallied, and the maximum count."""
        return self._leaders({
            key: votes for key, (votes, total, _) in tally.items()
            if votes >= self.MIN_VOTES and total == votes
        }, 1.0)

    def _mass_rule(self, tally: _Tally, pairs: int) -> List[Any]:
        """Failing mass discounted by the share of crossing mass that
        stayed healthy, so equally-sprayed sibling links separate
        whenever healthy pairs cross them."""
        # A suspect needs corroboration from more than one failing pair
        # whenever more than one is available: a link crossed by a
        # single sprayed pair (its access links, with mass 1.0) must
        # not outvote a fabric link two independent pairs implicate at
        # 1/k mass each.
        needed = min(2, pairs)
        scores: Dict[Any, float] = {}
        for key, (mass, total, support) in tally.items():
            ratio = mass / total
            if (
                mass >= self.MIN_MASS and support >= needed
                and ratio >= self.RATIO_FLOOR
            ):
                scores[key] = mass * ratio
        return self._leaders(scores, self.TIE_FRACTION)

    @staticmethod
    def _promote(
        suspects: Tuple[LinkId, ...]
    ) -> Tuple[Optional[str], Optional[str]]:
        """Interpret the top-voted links as a device when they agree."""
        if not suspects:
            return None, None

        if len(suspects) >= 2:
            shared = {suspects[0].a, suspects[0].b}
            for link in suspects[1:]:
                shared &= {link.a, link.b}
            if len(shared) == 1:
                device = shared.pop()
                if _is_rnic_device(device):
                    return device, "rnic"
                return device, "switch"
            hosts = {
                host
                for link in suspects
                for host in (
                    _host_of_device(link.a), _host_of_device(link.b)
                )
                if host is not None
            }
            if len(hosts) == 1:
                return f"host:{hosts.pop()}", "host"
            return None, None

        # A single top link: a leaf link implicates its RNIC port.
        link = suspects[0]
        for device in (link.a, link.b):
            if _is_rnic_device(device):
                return device, "rnic"
        return None, None
