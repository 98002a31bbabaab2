"""Tests for the Flock-style probabilistic localization baseline."""

from repro.baselines.flock import (
    FALSE_RATE,
    HIT_RATE,
    MAX_SUSPECTS,
    PRIOR,
    FlockLocalizer,
)
from repro.cluster.identifiers import LinkId
from repro.cluster.topology import UnderlayPath
from repro.core.analyzer import FailureEvent
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom


def path(*devices):
    return UnderlayPath.through(devices)


class _StubFabric:
    """Serves hand-built path distributions keyed by (src, dst)."""

    def __init__(self, distributions):
        self._distributions = distributions

    def path_distribution(self, src, dst):
        return self._distributions.get((src, dst), [])


def _flock(distributions):
    return FlockLocalizer(cluster=None, fabric=_StubFabric(distributions))


def _pair(a, b):
    return ProbePair(a, b)


def _event(pair, at=10.0):
    return FailureEvent(
        pair=pair, first_detected_at=at, symptom=Symptom.PACKET_LOSS,
    )


# A two-pair corridor: both failing pairs always cross tor-0<->spine-0;
# their access links are private to each pair.
_SHARED = {
    ("a", "b"): [path("h0/rnic-0", "tor-0", "spine-0", "tor-1",
                      "h4/rnic-0")],
    ("c", "d"): [path("h1/rnic-0", "tor-0", "spine-0", "tor-1",
                      "h5/rnic-0")],
}


class TestInference:
    def test_shared_link_gets_highest_posterior(self):
        flock = _flock(_SHARED)
        posteriors = flock.link_posteriors(
            [_pair("a", "b"), _pair("c", "d")]
        )
        shared = LinkId.between("tor-0", "spine-0")
        assert posteriors[shared] == max(posteriors.values())

    def test_overwhelming_healthy_evidence_does_not_overflow(self):
        """Thousands of healthy crossings drive a link's log-odds far
        below exp()'s range (a 256-endpoint basic list does): the
        posterior bottoms out instead of raising OverflowError."""
        flock = _flock(_SHARED)
        posteriors = flock.link_posteriors(
            [_pair("a", "b")], [_pair("c", "d")] * 2000
        )
        shared = LinkId.between("tor-0", "spine-0")
        assert 0.0 < posteriors[shared] < 1e-300

    def test_healthy_observations_push_posteriors_down(self):
        dists = dict(_SHARED)
        dists[("e", "f")] = [
            path("h2/rnic-0", "tor-0", "spine-0", "tor-2", "h8/rnic-0")
        ]
        flock = _flock(dists)
        failing = [_pair("a", "b"), _pair("c", "d")]
        shared = LinkId.between("tor-0", "spine-0")
        without = flock.link_posteriors(failing)[shared]
        with_healthy = flock.link_posteriors(
            failing, [_pair("e", "f")]
        )[shared]
        assert with_healthy < without

    def test_spraying_mass_discounts_evidence(self):
        # The same failing pair, pinned vs sprayed over two paths: the
        # sprayed observation only crosses each candidate with mass
        # 0.5, so it moves the posterior less.
        pinned = _flock(_SHARED)
        sprayed_dists = dict(_SHARED)
        sprayed_dists[("a", "b")] = [
            path("h0/rnic-0", "tor-0", "spine-0", "tor-1", "h4/rnic-0"),
            path("h0/rnic-0", "tor-0", "spine-1", "tor-1", "h4/rnic-0"),
        ]
        sprayed = _flock(sprayed_dists)
        shared = LinkId.between("tor-0", "spine-0")
        strong = pinned.link_posteriors([_pair("a", "b")])[shared]
        weak = sprayed.link_posteriors([_pair("a", "b")])[shared]
        assert weak < strong

    def test_no_observations_no_posteriors(self):
        assert _flock({}).link_posteriors([]) == {}


class TestLocalize:
    def test_reports_suspects_above_floor(self):
        flock = _flock(_SHARED)
        events = [_event(_pair("a", "b")), _event(_pair("c", "d"))]
        report = flock.localize(events, now=20.0)
        components = [d.component for d in report.diagnoses]
        assert str(LinkId.between("tor-0", "spine-0")) in components
        assert not report.unexplained

    def test_unexplained_when_nothing_clears_floor(self):
        # One failing observation cannot lift a 2% prior past the floor.
        flock = _flock(_SHARED)
        events = [_event(_pair("a", "b"))]
        report = flock.localize(events, now=20.0)
        assert report.unexplained == events
        assert not report.diagnoses

    def test_suspect_count_is_bounded(self):
        # Two failing pairs share a five-link path: every link clears
        # the floor, one more than may be reported.
        corridor = [path("h0/rnic-0", "tor-0", "agg-0", "spine-0",
                         "tor-1", "h4/rnic-0")]
        flock = _flock({("a", "b"): corridor, ("c", "d"): corridor})
        events = [_event(_pair("a", "b")), _event(_pair("c", "d"))]
        assert len(flock.link_posteriors(
            [_pair("a", "b"), _pair("c", "d")]
        )) == MAX_SUSPECTS + 1
        report = flock.localize(events, now=20.0)
        link_diagnoses = [
            d for d in report.diagnoses if "<->" in d.component
        ]
        assert len(link_diagnoses) == MAX_SUSPECTS


class TestValidation:
    def test_prior_must_be_a_probability(self):
        assert 0.0 < PRIOR < 1.0

    def test_hit_rate_must_exceed_false_rate(self):
        assert 0.0 < FALSE_RATE < HIT_RATE <= 1.0
