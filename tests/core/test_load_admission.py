"""Tests for load-conditioned anomaly admission.

Congestion on a hot path inflates latency without a failure; the
analyzer's load filter must demand extra headroom there — and only
there.  Loss is a failure signal at any load.
"""

from repro.cluster.identifiers import LinkId
from repro.cluster.topology import UnderlayPath
from repro.core.analyzer import (
    HEADROOM,
    HOT_UTILIZATION,
    ZTEST_BASE,
    LoadConditionedAdmission,
)
from repro.core.detection import DetectedAnomaly
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.load import LinkLoadModel

_HOT = LinkId.between("tor-0", "spine-0")
_COOL = LinkId.between("tor-0", "spine-1")

_HOT_PATH = UnderlayPath.through(
    ["h0/rnic-0", "tor-0", "spine-0", "tor-1", "h4/rnic-0"]
)
_COOL_PATH = UnderlayPath.through(
    ["h1/rnic-0", "tor-0", "spine-1", "tor-1", "h5/rnic-0"]
)

_HOT_PAIR = ProbePair("a", "b")
_COOL_PAIR = ProbePair("c", "d")


class _StubFabric:
    """Serves hand-built path distributions keyed by (src, dst), as
    its resolution cache's ``paths_of`` would."""

    def __init__(self, distributions):
        self.distributions = distributions
        self.resolution_cache = self

    def paths_of(self, pairs):
        return [self.distributions.get((p.src, p.dst), []) for p in pairs]


def _filter():
    model = LinkLoadModel({_HOT: 4.0, _COOL: 1.0})
    fabric = _StubFabric({
        ("a", "b"): [_HOT_PATH],
        ("c", "d"): [_COOL_PATH],
    })
    return LoadConditionedAdmission(model, fabric), fabric


def _anomaly(pair, symptom, score, detector="short_term_lof"):
    return DetectedAnomaly(
        pair=pair, detected_at=10.0, symptom=symptom,
        detector=detector, score=score, window_start=0.0,
    )


class TestAdmission:
    def test_loss_admitted_at_any_load(self):
        admission, _ = _filter()
        for symptom in (Symptom.PACKET_LOSS, Symptom.UNCONNECTIVITY):
            anomaly = _anomaly(_HOT_PAIR, symptom, score=0.1)
            assert admission.admit(anomaly, base_threshold=4.5)

    def test_cool_path_latency_admitted_at_base_threshold(self):
        admission, _ = _filter()
        anomaly = _anomaly(
            _COOL_PAIR, Symptom.HIGH_LATENCY, score=4.6
        )
        assert admission.admit(anomaly, base_threshold=4.5)

    def test_hot_path_latency_needs_headroom(self):
        admission, _ = _filter()
        assert (HOT_UTILIZATION, HEADROOM) == (0.7, 1.5)
        # The hot pair's bottleneck utilization is 1.0, so the required
        # score is base * (1 + headroom) = 4.5 * 2.5.
        weak = _anomaly(_HOT_PAIR, Symptom.HIGH_LATENCY, score=5.0)
        strong = _anomaly(
            _HOT_PAIR, Symptom.HIGH_LATENCY, score=4.5 * 2.5
        )
        assert not admission.admit(weak, base_threshold=4.5)
        assert admission.admit(strong, base_threshold=4.5)

    def test_ztest_detector_uses_its_own_base(self):
        admission, _ = _filter()
        assert ZTEST_BASE == 3.9
        anomaly = _anomaly(
            _HOT_PAIR, Symptom.HIGH_LATENCY, score=5.0,
            detector="long_term_ztest",
        )
        # The z-test thresholds on alpha, not score, so the caller
        # passes None and the filter substitutes the critical value:
        # required = 3.9 * 2.5.
        assert not admission.admit(anomaly, base_threshold=None)
        confident = _anomaly(
            _HOT_PAIR, Symptom.HIGH_LATENCY, score=10.0,
            detector="long_term_ztest",
        )
        assert admission.admit(confident, base_threshold=None)

    def test_unknown_threshold_admits(self):
        admission, _ = _filter()
        anomaly = _anomaly(_HOT_PAIR, Symptom.HIGH_LATENCY, score=0.1)
        assert admission.admit(anomaly, base_threshold=None)


class TestUtilizationCache:
    def test_pair_utilization_is_cached(self):
        admission, fabric = _filter()
        before = admission.pair_utilization(_HOT_PAIR)
        # A pair's utilization is read once: a later change to its
        # distribution is not asked for.
        fabric.distributions[("a", "b")] = [_COOL_PATH]
        assert admission.pair_utilization(_HOT_PAIR) == before
