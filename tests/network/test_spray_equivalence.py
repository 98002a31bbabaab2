"""Property test: batched probing under spraying ECMP stays bit-identical.

Spraying adds a sixth per-probe uniform (the path choice), so the batch
path has one more way to drift from the sequential loop: a mis-indexed
draw column, a resolution cached under the wrong mode, or a spray
candidate set that differs between warm and cold walks would all break
equality.  As with the static-ECMP property test, two identically
seeded scenarios run the same schedule — one probe at a time versus
one batch per round — and every ``ProbeResult`` stream must match,
through healthy rounds, gray-faulted rounds, and rounds where caches
are invalidated mid-stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import LinkId
from repro.network.draws import PairwiseDrawSource
from repro.network.faults import gray_injection_overrides
from repro.network.issues import GrayIssueType
from repro.network.packet import flow_hash
from repro.workloads.scenarios import build_scenario

from tests.conftest import draw_keys


def _build(seed, ecmp_mode="spray"):
    # Two hosts per segment so monitored pairs cross the spine layer:
    # spraying only differs from static ECMP on multi-path segments.
    return build_scenario(
        num_containers=4, gpus_per_container=4, seed=seed,
        hosts_per_segment=2, start_monitoring=False,
        ecmp_mode=ecmp_mode,
    )


def _pairs(scenario):
    endpoints = scenario.task.endpoints()
    n = len(endpoints)
    return [
        (endpoints[i], endpoints[(i + stride) % n])
        for stride in (1, n // 2)
        for i in range(n)
        if endpoints[i] != endpoints[(i + stride) % n]
    ]


def _sequential_round(scenario, pairs, at):
    return [
        scenario.fabric.send_probe(src, dst, at) for src, dst in pairs
    ]


def _uplink(scenario, rank):
    rnic = scenario.cluster.overlay.rnic_of(
        scenario.task.endpoints()[rank]
    )
    tor = scenario.topology.tor_of(rnic)
    return LinkId.between(tor, scenario.topology.spines[1])


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_spray_batch_equals_sequential_healthy(seed):
    seq, bat = _build(seed), _build(seed)
    pairs_seq, pairs_bat = _pairs(seq), _pairs(bat)
    assert seq.fabric.spraying and bat.fabric.spraying
    for round_index in range(3):
        at = float(round_index)
        expected = _sequential_round(seq, pairs_seq, at)
        actual = bat.fabric.send_probe_batch(pairs_bat, at)
        assert actual == expected


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    issue=st.sampled_from(tuple(GrayIssueType)),
    target_rank=st.integers(min_value=0, max_value=15),
)
def test_spray_batch_equals_sequential_under_gray_faults(
    seed, issue, target_rank
):
    seq, bat = _build(seed), _build(seed)
    pairs_seq, pairs_bat = _pairs(seq), _pairs(bat)
    faults = []
    for scenario in (seq, bat):
        target = _uplink(scenario, target_rank)
        overrides = gray_injection_overrides(issue, target, seed)
        faults.append(
            scenario.injector.inject_issue(
                issue, target, start=1.0, **overrides
            )
        )
    for round_index in range(3):
        at = float(round_index)  # round 0 pre-fault, 1-2 inside it
        expected = _sequential_round(seq, pairs_seq, at)
        actual = bat.fabric.send_probe_batch(pairs_bat, at)
        assert actual == expected
    for scenario, fault in zip((seq, bat), faults):
        scenario.injector.clear(fault, at=3.0)
    assert bat.fabric.send_probe_batch(pairs_bat, 4.0) == (
        _sequential_round(seq, pairs_seq, 4.0)
    )


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_spray_batch_equals_sequential_with_midstream_invalidation(
    seed,
):
    # One pair of twin worlds per ECMP mode: the mode is fixed when a
    # fabric is built.
    for mode in ("spray", "static"):
        seq, bat = _build(seed, mode), _build(seed, mode)
        pairs_seq, pairs_bat = _pairs(seq), _pairs(bat)
        assert bat.fabric.send_probe_batch(pairs_bat, 0.0) == (
            _sequential_round(seq, pairs_seq, 0.0)
        )
        # Yank a flow rule out from under the warm caches.
        for scenario in (seq, bat):
            overlay = scenario.cluster.overlay
            host = overlay.hosts_with_tables()[0]
            table = overlay.ovs_table(host)
            table.remove(table.keys()[0])
        for at in (1.0, 2.0):
            assert bat.fabric.send_probe_batch(pairs_bat, at) == (
                _sequential_round(seq, pairs_seq, at)
            )


def _candidates(scenario, src, dst):
    overlay = scenario.cluster.overlay
    return scenario.topology.ecmp_paths(
        overlay.rnic_of(src), overlay.rnic_of(dst)
    )


def test_the_sixth_uniform_picks_the_route():
    """What batch == sequential cannot see: both sides would agree on
    always taking the first candidate.  Recompute every probe's keyed
    block and hold it to the route its own sixth uniform indexes."""
    scenario = _build(11)
    pairs = _pairs(scenario)
    source = PairwiseDrawSource(11)
    draws = source.uniforms(draw_keys(pairs), 0.0, range(6))
    results = scenario.fabric.send_probe_batch(pairs, 0.0)
    for row, result in zip(draws, results):
        # The RNICs the overlay walk used: a same-host pair is
        # delivered locally, without leaving the source RNIC.
        candidates = scenario.topology.ecmp_paths(
            result.src_rnic, result.dst_rnic
        )
        k = len(candidates)
        assert result.underlay_path == candidates[
            min(int(row[5] * k), k - 1)
        ]
    spines = {
        result.underlay_path.devices[2] for result in results
        if result.underlay_path.hops == 4
    }
    assert spines == {str(spine) for spine in scenario.topology.spines}


def test_traceroute_stays_the_hash_pick_under_spraying():
    scenario = _build(11)
    fabric, overlay = scenario.fabric, scenario.cluster.overlay
    off_first = 0
    for src, dst in _pairs(scenario):
        pinned = scenario.topology.pick_path(
            overlay.rnic_of(src), overlay.rnic_of(dst), flow_hash(src, dst)
        )
        assert fabric.traceroute(src, dst) == pinned
        assert fabric.path_distribution(src, dst) == _candidates(
            scenario, src, dst
        )
        off_first += pinned != fabric.path_distribution(src, dst)[0]
    assert off_first > 0    # the pick is not just "the first candidate"
    fabric = _build(11, "static").fabric
    for src, dst in _pairs(scenario):
        assert fabric.path_distribution(src, dst) == [
            fabric.traceroute(src, dst)
        ]
