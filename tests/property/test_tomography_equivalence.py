"""Property: the one ``PhysicalIntersection.vote`` equals the four
functions it replaced.

``_ParentIntersection`` below is the parent commit's (663e953) ``vote``,
``vote_distributions``, ``_device_vote`` and
``_device_vote_distributions``, copied verbatim from
``core/tomography.py`` as the oracle (only ``_promote``, which did not
change, is borrowed from the live class).  Hypothesis draws
rail-Clos-shaped failing / healthy sets — k equal-cost spine candidates
per cross-segment pair, empty distributions, and PFC-storm shapes where
every failing pair crosses a different uplink of one spine, so the
device fallback of both rules fires — and the vote tables (item order
and value types included), suspects and promotions must be equal.
"""

from collections import Counter
from typing import Dict, Sequence, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import LinkId
from repro.cluster.topology import UnderlayPath
from repro.core.tomography import IntersectionResult, PhysicalIntersection


class _ParentIntersection:
    """The parent commit's voting functions, verbatim."""

    _promote = staticmethod(PhysicalIntersection._promote)

    def __init__(
        self,
        min_votes: int = 2,
        tie_tolerance: int = 0,
        min_mass: float = 0.5,
        ratio_floor: float = 0.5,
        tie_fraction: float = 0.75,
    ) -> None:
        if min_votes < 2:
            raise ValueError(
                "Algorithm 1 requires more than one vote per suspect link"
            )
        self.min_votes = min_votes
        self.tie_tolerance = tie_tolerance
        # Distribution-vote tunables: a suspect needs at least
        # ``min_mass`` expected failing crossings, at least
        # ``ratio_floor`` of its total crossing mass failing, and a
        # score within ``tie_fraction`` of the leader to stay a
        # suspect.  ``min_mass`` stays below 1.0 on purpose: a fabric
        # link sprayed by k equal-cost paths collects only 1/k mass
        # per failing pair, so two corroborating pairs on a 4-way
        # fabric reach exactly 0.5 — demanding a full unit would make
        # uplink faults invisible until k pairs fail at once.
        self.min_mass = min_mass
        self.ratio_floor = ratio_floor
        self.tie_fraction = tie_fraction

    def vote(
        self,
        failing_paths: Sequence[UnderlayPath],
        healthy_paths: Sequence[UnderlayPath] = (),
        exonerate: bool = False,
    ) -> IntersectionResult:
        """Intersect failing paths; optionally exonerate healthy links.

        ``exonerate=True`` is only sound for hard failures (a down link
        cannot carry a successful probe); lossy or slow links may pass
        some probes, so loss/latency votes must not exonerate.
        """
        counter: Counter = Counter()
        for path in failing_paths:
            for link in path.links:
                counter[link] += 1

        cleared: Set[LinkId] = set()
        if exonerate:
            for path in healthy_paths:
                cleared.update(path.links)

        eligible = {
            link: count
            for link, count in counter.items()
            if count >= self.min_votes and link not in cleared
        }
        if not eligible:
            return self._device_vote(
                failing_paths, healthy_paths, exonerate, dict(counter)
            )
        top = max(eligible.values())
        suspects = tuple(sorted(
            link for link, count in eligible.items()
            if count >= top - self.tie_tolerance
        ))
        component, kind = self._promote(suspects)
        return IntersectionResult(
            votes=dict(counter), suspects=suspects,
            promoted_component=component, promoted_kind=kind,
        )

    def vote_distributions(
        self,
        failing: Sequence[Sequence[UnderlayPath]],
        healthy: Sequence[Sequence[UnderlayPath]] = (),
    ) -> IntersectionResult:
        """Mass-weighted intersection over per-pair path distributions.

        Each element of ``failing``/``healthy`` is one pair's path
        distribution (every ECMP candidate, equal probability).  A pair
        contributes ``P(link on taken path)`` of vote mass to each link
        its distribution crosses; a link's score is its failing mass
        discounted by the fraction of total crossing mass that stayed
        healthy, so equally-sprayed sibling links separate whenever
        healthy pairs cross them.  Deterministic: accumulation order
        follows the input order and ties sort by link id.
        """
        fail_mass: Dict[LinkId, float] = {}
        total_mass: Dict[LinkId, float] = {}
        support: Dict[LinkId, int] = {}
        for dist, bucket in ((failing, True), (healthy, False)):
            for paths in dist:
                if not paths:
                    continue
                share = 1.0 / len(paths)
                seen: Dict[LinkId, float] = {}
                for path in paths:
                    for link in path.links:
                        seen[link] = seen.get(link, 0.0) + share
                for link, mass in seen.items():
                    total_mass[link] = total_mass.get(link, 0.0) + mass
                    if bucket:
                        fail_mass[link] = fail_mass.get(link, 0.0) + mass
                        support[link] = support.get(link, 0) + 1

        # A suspect needs corroboration from more than one failing pair
        # whenever more than one is available: a link crossed by a
        # single sprayed pair (its access links, with mass 1.0) must
        # not outvote a fabric link two independent pairs implicate at
        # 1/k mass each.
        needed = min(2, sum(1 for paths in failing if paths))
        scores: Dict[LinkId, float] = {}
        for link, mass in fail_mass.items():
            if mass < self.min_mass or support[link] < needed:
                continue
            ratio = mass / total_mass[link]
            if ratio < self.ratio_floor:
                continue
            scores[link] = mass * ratio
        if not scores:
            return self._device_vote_distributions(
                failing, healthy, dict(fail_mass)
            )
        top = max(scores.values())
        suspects = tuple(sorted(
            link for link, score in scores.items()
            if score >= top * self.tie_fraction
        ))
        component, kind = self._promote(suspects)
        return IntersectionResult(
            votes=dict(fail_mass), suspects=suspects,
            promoted_component=component, promoted_kind=kind,
        )

    def _device_vote(
        self,
        failing_paths: Sequence[UnderlayPath],
        healthy_paths: Sequence[UnderlayPath],
        exonerate: bool,
        link_votes: Dict[LinkId, float],
    ) -> IntersectionResult:
        """Switch-level intersection when no single link is conclusive.

        A PFC storm centred on a spine perturbs every uplink the spine
        serves: each failing pair crosses a *different* victim link, so
        no link reaches ``min_votes`` — but every failing path crosses
        the storm-centre switch itself.  Counting votes per transit
        switch recovers the device; the verdict stands only when one
        switch wins outright (an ambiguous device vote explains
        nothing).
        """
        counter: Counter = Counter()
        for path in failing_paths:
            for device in dict.fromkeys(path.switches()):
                counter[device] += 1
        cleared: Set[str] = set()
        if exonerate:
            for path in healthy_paths:
                cleared.update(path.switches())
        eligible = {
            device: count
            for device, count in counter.items()
            if count >= self.min_votes and device not in cleared
        }
        if eligible:
            top = max(eligible.values())
            leaders = sorted(
                device for device, count in eligible.items()
                if count >= top - self.tie_tolerance
            )
            if len(leaders) == 1:
                return IntersectionResult(
                    votes=link_votes, suspects=(),
                    promoted_component=leaders[0],
                    promoted_kind="switch",
                )
        return IntersectionResult(
            votes=link_votes, suspects=(),
            promoted_component=None, promoted_kind=None,
        )

    def _device_vote_distributions(
        self,
        failing: Sequence[Sequence[UnderlayPath]],
        healthy: Sequence[Sequence[UnderlayPath]],
        link_votes: Dict[LinkId, float],
    ) -> IntersectionResult:
        """Mass-weighted device intersection (spraying counterpart)."""
        fail_mass: Dict[str, float] = {}
        total_mass: Dict[str, float] = {}
        support: Dict[str, int] = {}
        for dist, bucket in ((failing, True), (healthy, False)):
            for paths in dist:
                if not paths:
                    continue
                share = 1.0 / len(paths)
                seen: Dict[str, float] = {}
                for path in paths:
                    # Ordered dedupe: a float accumulation must not
                    # iterate an unordered set (bit-determinism).
                    for device in dict.fromkeys(path.switches()):
                        seen[device] = seen.get(device, 0.0) + share
                for device, mass in seen.items():
                    total_mass[device] = total_mass.get(device, 0.0) + mass
                    if bucket:
                        fail_mass[device] = (
                            fail_mass.get(device, 0.0) + mass
                        )
                        support[device] = support.get(device, 0) + 1
        needed = min(2, sum(1 for paths in failing if paths))
        scores: Dict[str, float] = {}
        for device, mass in fail_mass.items():
            if mass < self.min_mass or support[device] < needed:
                continue
            ratio = mass / total_mass[device]
            if ratio < self.ratio_floor:
                continue
            scores[device] = mass * ratio
        if scores:
            top = max(scores.values())
            leaders = sorted(
                device for device, score in scores.items()
                if score >= top * self.tie_fraction
            )
            if len(leaders) == 1:
                return IntersectionResult(
                    votes=link_votes, suspects=(),
                    promoted_component=leaders[0],
                    promoted_kind="switch",
                )
        return IntersectionResult(
            votes=link_votes, suspects=(),
            promoted_component=None, promoted_kind=None,
        )


_RAILS = 4
_SPINES = 4
_HOSTS_PER_SEGMENT = 4


def _tor(host: int, rail: int) -> str:
    return f"tor-{host // _HOSTS_PER_SEGMENT}-{rail}"


def _distribution(src: int, dst: int, rail: int, spines):
    """Every candidate path of one rail-aligned pair: one path under a
    shared ToR, otherwise one per candidate spine."""
    a, b = f"host-{src}/rnic-{rail}", f"host-{dst}/rnic-{rail}"
    if _tor(src, rail) == _tor(dst, rail):
        return [UnderlayPath.through([a, _tor(src, rail), b])]
    return [
        UnderlayPath.through(
            [a, _tor(src, rail), f"spine-{s}", _tor(dst, rail), b]
        )
        for s in spines
    ]


@st.composite
def pair_distributions(draw, k):
    if draw(st.integers(0, 9)) == 0:
        return []                   # an endpoint left the overlay
    src = draw(st.integers(0, 11))
    dst = draw(st.integers(0, 11).filter(lambda h: h != src))
    first = draw(st.integers(0, _SPINES - 1))
    return _distribution(
        src, dst, draw(st.integers(0, _RAILS - 1)),
        [(first + i) % _SPINES for i in range(k)],
    )


@st.composite
def storms(draw, k):
    """Failing pairs on pairwise-disjoint rails and hosts: no two share
    a link, all transit ``spine-0`` (k > 1 sprays each over further
    spines as well)."""
    count = draw(st.integers(2, _RAILS))
    return [
        _distribution(i, i + 8, i, range(k)) for i in range(count)
    ]


@st.composite
def inputs(draw):
    k = draw(st.sampled_from([1, 2, 4]))
    failing = draw(st.one_of(
        st.lists(pair_distributions(k), min_size=0, max_size=6),
        storms(k),
    ))
    healthy = draw(
        st.lists(pair_distributions(k), min_size=0, max_size=8)
    )
    return k, failing, healthy


def _assert_same(ours: IntersectionResult, theirs: IntersectionResult):
    assert list(ours.votes.items()) == list(theirs.votes.items())
    assert [type(v) for v in ours.votes.values()] == [
        type(v) for v in theirs.votes.values()
    ]
    assert ours.suspects == theirs.suspects
    assert ours.promoted_component == theirs.promoted_component
    assert ours.promoted_kind == theirs.promoted_kind


@settings(max_examples=300, deadline=None)
@given(drawn=inputs(), exonerate=st.booleans())
def test_one_vote_equals_the_parents_four_functions(drawn, exonerate):
    k, failing, healthy = drawn
    ours, parent = PhysicalIntersection(), _ParentIntersection()
    _assert_same(
        ours.vote(failing, healthy, exonerate=exonerate, weighted=True),
        parent.vote_distributions(failing, healthy),
    )
    if k == 1:
        # The parent's pinned vote took bare paths, unknown routes
        # already dropped by the localizer.
        _assert_same(
            ours.vote(failing, healthy, exonerate=exonerate),
            parent.vote(
                [d[0] for d in failing if d],
                [d[0] for d in healthy if d],
                exonerate=exonerate,
            ),
        )
