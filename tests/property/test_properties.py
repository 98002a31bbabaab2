"""Property-based tests (hypothesis) on core data structures."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.lof import local_outlier_factor
from repro.cluster.identifiers import (
    ContainerId,
    EndpointId,
    LinkId,
    TaskId,
)
from repro.cluster.topology import RailOptimizedTopology
from repro.core.pinglist import PingList, ProbePair
from repro.core.skeleton import SkeletonInference
from repro.network.faults import Effects
from repro.network.packet import flow_hash
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import TimeSeries
from repro.training.parallelism import ParallelismConfig


# ----------------------------------------------------------------------
# Engine: event ordering is a total order by (time, insertion).
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_engine_fires_in_nondecreasing_time_order(times):
    engine = SimulationEngine()
    fired = []
    for t in times:
        engine.schedule(t, lambda t=t: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


# ----------------------------------------------------------------------
# Window statistics: seven-number summary invariants.
# ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.001, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_describe_invariants(values):
    stats = TimeSeries.describe(values)
    assert stats.minimum <= stats.p25 <= stats.p50 <= stats.p75 \
        <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum
    assert stats.std >= 0.0
    assert stats.count == len(values)


@given(st.lists(st.floats(min_value=0.001, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=100),
       st.floats(min_value=0.01, max_value=1000.0))
def test_describe_scale_equivariance(values, scale):
    base = TimeSeries.describe(values)
    scaled = TimeSeries.describe([v * scale for v in values])
    assert math.isclose(scaled.mean, base.mean * scale, rel_tol=1e-9)
    assert math.isclose(scaled.p50, base.p50 * scale, rel_tol=1e-9)


# ----------------------------------------------------------------------
# LOF: scores are positive and permutation-invariant.
# ----------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=5, max_value=30))
@settings(max_examples=20, deadline=None)
def test_lof_scores_positive_and_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    points = rng.normal(0, 1, size=(n, 3))
    scores = local_outlier_factor(points, k=3)
    assert np.all(scores > 0)
    perm = rng.permutation(n)
    permuted = local_outlier_factor(points[perm], k=3)
    assert np.allclose(np.sort(scores), np.sort(permuted))


# ----------------------------------------------------------------------
# Flow hash: deterministic, 64-bit, sensitive to every input.
# ----------------------------------------------------------------------

endpoint_strategy = st.builds(
    EndpointId,
    container=st.builds(
        ContainerId,
        task=st.builds(TaskId, index=st.integers(0, 1000)),
        rank=st.integers(0, 1000),
    ),
    slot=st.integers(0, 7),
)


@given(endpoint_strategy, endpoint_strategy)
def test_flow_hash_deterministic_and_bounded(a, b):
    value = flow_hash(a, b)
    assert value == flow_hash(a, b)
    assert 0 <= value < 2 ** 64


@given(endpoint_strategy, endpoint_strategy)
def test_flow_hash_direction_sensitive(a, b):
    assume(a != b)
    assert flow_hash(a, b) != flow_hash(b, a)


# ----------------------------------------------------------------------
# LinkId: canonicalization is idempotent and symmetric.
# ----------------------------------------------------------------------

@given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
def test_linkid_symmetry(a, b):
    link = LinkId.between(a, b)
    assert link == LinkId.between(b, a)
    assert link.a <= link.b


# ----------------------------------------------------------------------
# Parallelism: rank <-> position is a bijection; groups partition ranks.
# ----------------------------------------------------------------------

parallelism_strategy = st.builds(
    ParallelismConfig,
    tp=st.integers(1, 8),
    pp=st.integers(1, 8),
    dp=st.integers(1, 8),
)


@given(parallelism_strategy)
@settings(max_examples=50, deadline=None)
def test_rank_position_bijection(config):
    seen = set()
    for rank in range(config.num_gpus):
        pos = config.position(rank)
        key = (pos.tp_rank, pos.pp_rank, pos.dp_rank)
        assert key not in seen
        seen.add(key)
        assert config.rank_of(*key) == rank


@given(parallelism_strategy)
@settings(max_examples=30, deadline=None)
def test_groups_are_consistent_partitions(config):
    for rank in range(config.num_gpus):
        for group_fn in (config.tp_group, config.pp_group,
                         config.dp_group):
            group = group_fn(rank)
            assert rank in group
            assert len(group) == len(set(group))
            for member in group:
                assert group_fn(member) == group


# ----------------------------------------------------------------------
# Ping lists: rail pruning is exactly the same-rail subset of the mesh.
# ----------------------------------------------------------------------

@given(st.integers(2, 6), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_basic_list_is_same_rail_subset_of_mesh(containers, slots):
    endpoints = [
        EndpointId(ContainerId(TaskId(0), rank), slot)
        for rank in range(containers)
        for slot in range(slots)
    ]
    mesh = PingList.full_mesh(endpoints)
    basic = PingList.basic(endpoints, lambda e: e.slot)
    assert basic.pairs <= mesh.pairs
    expected = {
        p for p in mesh.pairs if p.src.slot == p.dst.slot
    }
    assert basic.pairs == expected


@given(st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_activation_monotone_under_registration(containers):
    endpoints = [
        EndpointId(ContainerId(TaskId(0), rank), 0)
        for rank in range(containers)
    ]
    ping_list = PingList.full_mesh(endpoints)
    previous = -1.0
    for rank in range(containers):
        ping_list.register(ContainerId(TaskId(0), rank))
        ratio = ping_list.activation_ratio()
        assert ratio >= previous
        previous = ratio
    assert previous == 1.0


# ----------------------------------------------------------------------
# Ping lists: the by-source query is active_pairs() cut per container.
# ----------------------------------------------------------------------

_RANKS = 5
_endpoint = st.builds(
    lambda rank, slot: EndpointId(ContainerId(TaskId(0), rank), slot),
    st.integers(0, _RANKS - 1), st.integers(0, 2),
)
_pair = st.tuples(_endpoint, _endpoint).filter(
    lambda ends: ends[0].container != ends[1].container
).map(lambda ends: ProbePair.canonical(*ends))


@given(
    st.frozensets(_pair, max_size=40),
    st.lists(st.tuples(st.booleans(), st.integers(0, _RANKS - 1)),
             max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_by_source_query_is_active_pairs_cut_per_container(pairs, steps):
    """After every register/deregister, concatenating the by-source
    query over sorted containers is ``active_pairs()``, element for
    element.  Containers start unregistered, so early steps cover an
    unregistered source; nothing here looks at container state, so a
    crashed container that never deregistered stays a live target."""
    ping_list = PingList(pairs=pairs)
    containers = [ContainerId(TaskId(0), rank) for rank in range(_RANKS)]
    for register, rank in [(True, 0)] + steps:
        if register:
            ping_list.register(containers[rank])
        else:
            ping_list.deregister(containers[rank])
        # ``active_pairs()`` is now *defined* as the concatenated rows;
        # the set-filtering definition it replaced is the oracle.
        active = sorted(p for p in pairs if ping_list.is_active(p))
        assert ping_list.active_pairs() == active
        assert ping_list.activation_ratio() == (
            len(active) / len(pairs) if pairs else 0.0
        )
        by_source = [
            ping_list.active_pairs_from(c) for c in containers
        ]
        assert [p for share in by_source for p in share] == active
        for container, share in zip(containers, by_source):
            assert share == [
                p for p in active if p.src.container == container
            ]


# ----------------------------------------------------------------------
# Effects: merge is commutative, monotone, and keeps loss in [0, 1].
# ----------------------------------------------------------------------

effects_strategy = st.builds(
    Effects,
    down=st.booleans(),
    loss_rate=st.floats(0.0, 1.0, allow_nan=False),
    extra_latency_us=st.floats(0.0, 1e4, allow_nan=False),
    force_software_path=st.booleans(),
)


@given(effects_strategy, effects_strategy)
def test_effects_merge_commutative_and_bounded(a, b):
    ab, ba = a.merge(b), b.merge(a)
    assert math.isclose(ab.loss_rate, ba.loss_rate, abs_tol=1e-12)
    assert ab.down == ba.down
    assert 0.0 <= ab.loss_rate <= 1.0
    assert ab.loss_rate >= max(a.loss_rate, b.loss_rate) - 1e-12
    assert ab.extra_latency_us == a.extra_latency_us + b.extra_latency_us


# ----------------------------------------------------------------------
# Topology: ECMP paths are valid walks whose links all exist.
# ----------------------------------------------------------------------

@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_ecmp_paths_are_valid_walks(
    segments, hosts, rails, spines, pick_a, pick_b
):
    topo = RailOptimizedTopology(segments, hosts, rails, spines)
    rnics = topo.all_rnics()
    src = rnics[pick_a % len(rnics)]
    dst = rnics[pick_b % len(rnics)]
    for path in topo.ecmp_paths(src, dst):
        assert path.devices[0] == str(src)
        assert path.devices[-1] == str(dst)
        for link in path.links:
            assert topo.has_link(link)
        # consecutive devices really are joined by the stated link
        for i, link in enumerate(path.links):
            assert link.touches(path.devices[i])
            assert link.touches(path.devices[i + 1])


# ----------------------------------------------------------------------
# Stage partition: labels are a non-decreasing relabelling of onsets.
# ----------------------------------------------------------------------

@given(st.lists(st.integers(0, 30), min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_stage_partition_respects_onset_order(onsets):
    labels = SkeletonInference._partition_stages(onsets)
    assert len(labels) == len(onsets)
    # Sorting groups by onset must sort them by label too.
    paired = sorted(zip(onsets, labels))
    stage_sequence = [label for _, label in paired]
    assert stage_sequence == sorted(stage_sequence)
    # Labels are contiguous from zero.
    assert set(labels) == set(range(max(labels) + 1))


# ----------------------------------------------------------------------
# Blacklist: contains/clear form a consistent state machine.
# ----------------------------------------------------------------------

@given(st.lists(
    st.tuples(st.sampled_from(["add", "clear"]),
              st.sampled_from(["a", "b", "c"])),
    max_size=30,
))
def test_blacklist_state_machine(operations):
    from repro.core.handling import Blacklist

    blacklist = Blacklist()
    model = set()
    for t, (op, name) in enumerate(operations):
        if op == "add":
            blacklist.add(name, at=float(t), reason="x")
            model.add(name)
        else:
            blacklist.clear(name, at=float(t))
            model.discard(name)
        assert set(blacklist.active()) == model
        for candidate in ("a", "b", "c"):
            assert blacklist.contains(candidate) == (candidate in model)


# ----------------------------------------------------------------------
# Release manager: the current version is the latest published <= t.
# ----------------------------------------------------------------------

@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=10,
                unique=True))
def test_release_manager_version_lookup(times):
    from repro.core.rollout import AgentReleaseManager, ReleaseChannel

    manager = AgentReleaseManager("v0")
    published = [(0.0, "v0")]
    for index, at in enumerate(sorted(times)):
        version = f"v{index + 1}"
        manager.publish(version, ReleaseChannel.ROUTINE, at=float(at))
        published.append((float(at), version))
    for at, version in published:
        assert manager.current_version(at=at) == version
        # Just before the release, the previous version still runs.
        earlier = [v for t, v in published if t < at]
        if earlier:
            assert manager.current_version(at=at - 0.5) == earlier[-1]


# ----------------------------------------------------------------------
# Burst-segment counting: equals the number of constructed bursts.
# ----------------------------------------------------------------------

@given(st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_active_segment_count_matches_construction(num_bursts, gap_extra):
    import numpy as np

    gap = 2 + gap_extra
    width = 3
    profile = np.zeros(num_bursts * (width + gap) + gap)
    for burst in range(num_bursts):
        start = gap + burst * (width + gap)
        profile[start:start + width] = 10.0
    assert SkeletonInference._active_segments(profile) == num_bursts


# ----------------------------------------------------------------------
# Fidelity report score is the minimum of its bounded components.
# ----------------------------------------------------------------------

@given(st.floats(-1.0, 1.0, allow_nan=False),
       st.floats(0.0, 1.0, allow_nan=False),
       st.floats(0.0, 1.0, allow_nan=False),
       st.floats(0.0, 1.0, allow_nan=False))
def test_fidelity_score_bounds(coherence, activity, periodicity, stages):
    from repro.cluster.identifiers import TaskId
    from repro.core.fidelity import FidelityReport

    report = FidelityReport(
        task=TaskId(0), group_coherence=coherence,
        activity_fraction=activity, periodicity=periodicity,
        stage_consistency=stages, incoherent_endpoints=(),
    )
    score = report.score()
    assert 0.0 <= score <= 1.0
    assert score <= activity
    assert score <= stages
    assert report.aligned(threshold=0.0) or score < 0.0 is False
