"""Property: a cold batch resolves exactly as its pairs would one by one.

Twin replicas of one scenario are driven through the same history; one
resolves each batch with :meth:`FlowResolutionCache.resolve_all`, the
other with a batch of one per pair, in order (the oracle).  After every batch both must agree on every row's
observables (hops, reach, routes, flow hash, overlay effects, whether
the row is plain), on every flow table's dump (key, action, offload
state, packet counter), on the hit / miss / ``cache.miss.<cause>``
counts the batch added, on the overlay epoch, and on exactly which
cached entries the next fault, migration or whole-table ``touch()``
marks stale.  The cases cover what a cold walk may meet: a ring-chord
list at 2,048 endpoints, the basic list over four segments, spraying
ECMP, live faults, an RNIC forced onto the software path, an unattached
endpoint, same-host pairs, and a migration between two batches; and
batches that mix every kind of row — hits, cold rows, ``table_changed``
and ``epoch_changed`` misses, a row repeated, several sources on one
host towards one destination, a stale ENCAP a migration left behind
that a row's first packet replaces, and an ENCAP corrupted back at the
source host (a loop); and a budget window rotating over a held
universe, which never repeats the last batch's sequence, with a
migration and an RNIC fault landing mid-run.  Every batch's draw-key
column must be the oracle's too.
"""

import pytest

from repro.cluster.flowtable import ActionKind, FlowAction
from repro.cluster.identifiers import ContainerId, EndpointId
from repro.cluster.overlay import veth_name, vtep_name
from repro.fleet.budget import ProbeBudgetScheduler
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import GrayIssueType, IssueType
from repro.shard.spec import (
    ShardScenarioSpec,
    build_replica,
    ring_chord_pairs,
)
from repro.workloads.scenarios import build_scenario

from tests.conftest import draw_keys


def _ring_chord_2048():
    spec = ShardScenarioSpec(
        num_containers=256, gpus_per_container=8, pp=2, seed=0,
        total_rounds=8, hosts_per_segment=9,  # hosts to migrate onto
    )
    scenario = build_replica(spec)
    return scenario, ring_chord_pairs(sorted(scenario.task.endpoints()))


def _basic(num_containers, **kwargs):
    def build():
        scenario = build_scenario(
            num_containers=num_containers, gpus_per_container=8, pp=2,
            start_monitoring=False, **kwargs,
        )
        pairs = scenario.hunter.controller.ping_list_of(
            scenario.task.id
        ).active_pairs()
        return scenario, pairs
    return build


def _first_link(scenario, pairs):
    fabric = scenario.fabric
    return next(
        link for pair in pairs
        for link in fabric.traceroute(pair.src, pair.dst).links
        if "spine" in str(link)
    )


def _live_faults(scenario, pairs):
    """An RNIC fault and a PFC storm, live before the cold batch."""
    overlay = scenario.cluster.overlay
    scenario.inject(IssueType.RNIC_PORT_DOWN, overlay.rnic_of(pairs[3].src))
    scenario.inject(GrayIssueType.PFC_STORM, _first_link(scenario, pairs))
    return pairs


def _software_rnic(scenario, pairs):
    overlay = scenario.cluster.overlay
    rnic = overlay.rnic_of(pairs[0].src)
    overlay.health(vtep_name(rnic)).force_software_path = True
    return pairs


def _odd_pairs(scenario, pairs):
    """The list plus an unattached destination, a same-endpoint pair and
    same-host (same-container) pairs, each placed mid-batch."""
    task = scenario.task
    stranger = EndpointId(ContainerId(task.id, 999), 0)
    container = task.container(1)
    local = [
        (a, b) for a in container.endpoints()[:2]
        for b in container.endpoints()[:3] if a != b
    ]
    middle = len(pairs) // 2
    extra = [
        (pairs[0].src, stranger), (stranger, pairs[0].src),
        (pairs[1].src, pairs[1].src), *local,
    ]
    return list(pairs[:middle]) + extra + list(pairs[middle:])


CASES = {
    "ring-chord-2048": (_ring_chord_2048, None),
    "basic-256": (_basic(32, hosts_per_segment=10), None),
    "spray-live-faults": (
        _basic(8, hosts_per_segment=5, ecmp_mode="spray"), _live_faults
    ),
    "static-live-faults": (_basic(8, hosts_per_segment=5), _live_faults),
    "software-path": (_basic(8, hosts_per_segment=5), _software_rnic),
    "odd-pairs": (_basic(8, hosts_per_segment=5), _odd_pairs),
}


def _face(fault):
    inner = getattr(fault, "fault", None)
    return (type(fault).__name__, (inner or fault).fault_id)


def _row(resolution):
    trace = resolution.trace
    return (
        trace.hops, trace.reached, trace.loop, trace.software_path,
        trace.src_rnic, trace.dst_rnic, resolution.overlay_reason,
        [
            (route.path, tuple(map(_face, route.faults)), route.hops,
             route.switches)
            for route in resolution.routes
        ],
        resolution.fhash, resolution.overlay_fx, resolution.plain,
    )


def _dump(table):
    return [
        (rule.key, rule.action, rule.offloaded, rule.offloaded_to,
         rule.packets)
        for rule in table.rules()
    ]


def _tables(scenario):
    overlay = scenario.cluster.overlay
    return (
        [(host, _dump(overlay.ovs_table(host)))
         for host in overlay.hosts_with_tables()],
        [(rnic, _dump(overlay.offload_table(rnic)))
         for rnic in overlay.offload_rnics()],
    )


def _counts(scenario):
    cache = scenario.fabric.resolution_cache
    return (
        cache.hits, cache.misses,
        scenario.fabric.metrics.counters("cache.miss."),
    )


def _marked(scenario):
    return {
        pair for pair, entry in
        scenario.fabric.resolution_cache._entries.items()
        if entry.stale is not None
    }


class Twins:
    """The batch world and its pair-by-pair oracle, built alike."""

    def __init__(self, build, prepare):
        self.worlds = []
        for _ in range(2):
            scenario, pairs = build()
            if prepare is not None:
                pairs = prepare(scenario, pairs)
            self.worlds.append(scenario)
        self.pairs = pairs

    def resolve(self, pairs=None):
        pairs = self.pairs if pairs is None else pairs
        batch, oracle = self.worlds
        vector = batch.fabric.resolution_cache.resolve_all(pairs)
        cache = oracle.fabric.resolution_cache
        singles = [cache.resolve_all([pair]) for pair in pairs]
        assert [_row(res) for res in vector.resolutions] == [
            _row(single.resolutions[0]) for single in singles
        ]
        assert vector.keys.tolist() == [
            int(single.keys[0]) for single in singles
        ] == draw_keys(pairs).tolist()
        assert _tables(batch) == _tables(oracle)
        assert _counts(batch) == _counts(oracle)
        assert batch.cluster.overlay.epoch == oracle.cluster.overlay.epoch
        return vector

    def both(self, act):
        for scenario in self.worlds:
            act(scenario)
        batch, oracle = self.worlds
        assert _marked(batch) == _marked(oracle)
        return _marked(batch)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_cold_batch_is_its_pairs_one_by_one(case):
    twins = Twins(*CASES[case])
    vector = twins.resolve()
    assert any(res.reached for res in vector.resolutions)
    pair = twins.pairs[len(twins.pairs) // 3]
    src = pair[0] if isinstance(pair, tuple) else pair.src

    def rnic_fault(scenario):
        overlay = scenario.cluster.overlay
        scenario.inject(IssueType.RNIC_PORT_DOWN, overlay.rnic_of(src))

    def touch(scenario):
        overlay = scenario.cluster.overlay
        overlay.ovs_table(overlay.rnic_of(src).host).touch()

    def migrate(scenario):
        scenario.orchestrator.migrate_container(
            scenario.task.container(src.container.rank)
        )

    assert twins.both(rnic_fault)
    twins.resolve()
    assert twins.both(touch)
    twins.resolve()
    assert twins.both(migrate)
    twins.resolve()
    twins.resolve()  # all hits where nothing moved since


@pytest.mark.parametrize("ecmp_mode", ["static", "spray"])
def test_cold_entries_over_one_rnic_pair_share_what_they_ride(
    cluster, orchestrator, engine, rng, ecmp_mode
):
    # A GPU's endpoint rides that GPU's RNIC, so two endpoint pairs
    # meet one RNIC pair when a tenant follows another onto its GPUs.
    fabric = DataPlaneFabric(
        cluster, FaultInjector(cluster), rng, ecmp_mode=ecmp_mode
    )
    cache, overlay = fabric.resolution_cache, cluster.overlay

    def tenant():
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(engine.now)
        pairs = [
            (a, b) for src in task.all_containers()
            for dst in task.all_containers() if src is not dst
            for a in src.endpoints() for b in dst.endpoints()
        ]
        rnics = [(overlay.rnic_of(a), overlay.rnic_of(b)) for a, b in pairs]
        return task, pairs, rnics, cache.resolve_all(pairs).resolutions

    first, first_pairs, first_rnics, before = tenant()
    orchestrator.terminate_task(first.id)
    _, pairs, rnics, after = tenant()
    assert rnics == first_rnics and not set(pairs) & set(first_pairs)
    assert all(res.reached and res.plain for res in before + after)
    for old, new in zip(before, after):
        assert new is not old and new.routes is old.routes
        assert [r.path for r in new.routes] == [r.path for r in old.routes]
        assert new.overlay_fx is old.overlay_fx
        assert new.trace.hops[1:-1] == old.trace.hops[1:-1]
        assert all(
            mine is theirs
            for mine, theirs in zip(new.trace.hops[1:-1], old.trace.hops[1:-1])
        )
    assert any(len(res.routes) > 1 for res in after) == (ecmp_mode == "spray")
    route, res = after[0].routes[0], after[0]
    for obj, name in (
        (route, "faults"), (route.path, "links"),
        (res.overlay_fx, "down"), (res.trace.hops[1], "ok"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(TypeError):
        res.trace.hops[0] = res.trace.hops[1]  # a tuple, not a list


def test_a_traceroute_is_the_one_interned_path(small_scenario):
    fabric = small_scenario.fabric
    endpoints = small_scenario.task.endpoints()
    a, b = endpoints[0], endpoints[-1]
    assert fabric.traceroute(a, b) is fabric.traceroute(a, b)
    assert fabric.path_distribution(a, b)[0] is fabric.traceroute(a, b)


def test_a_mode_switch_resolves_each_mode_its_own_candidates(
    cluster, orchestrator, engine, rng
):
    # A pinned pick and a sprayed candidate set over one RNIC pair may
    # start with the same path; each mode must still get its own set.
    # The mode is fixed when a fabric is built, so the switch is to a
    # new fabric over the same cluster (and the same interned paths).
    task = orchestrator.submit_task(4, 4, instant_startup=True)
    engine.run_until(engine.now)
    topology = cluster.topology
    pairs = [
        (a, b) for src in task.all_containers()
        for dst in task.all_containers() if src is not dst
        for a in src.endpoints() for b in dst.endpoints()
    ]
    for mode in ("static", "spray", "static", "spray"):
        fabric = DataPlaneFabric(
            cluster, FaultInjector(cluster), rng, ecmp_mode=mode
        )
        vector = fabric.resolution_cache.resolve_all(pairs)
        for (a, b), res in zip(pairs, vector.resolutions):
            paths = [route.path for route in res.routes]
            if mode == "static":
                assert paths == [fabric.traceroute(a, b)]
            else:
                assert paths == topology.ecmp_paths(
                    res.trace.src_rnic, res.trace.dst_rnic
                )
    assert any(len(res.routes) > 1 for res in vector.resolutions)


def _fan_in(scenario):
    """Every endpoint of one container towards one destination: one
    source host, one destination half."""
    task = scenario.task
    dst = task.container(5).endpoint(0)
    return [(src, dst) for src in task.container(2).endpoints()]


def _causes(twins):
    return twins.worlds[0].fabric.metrics.counters("cache.miss.")


@pytest.mark.parametrize("ecmp_mode", ["static", "spray"])
def test_a_mixed_batch_is_its_pairs_one_by_one(ecmp_mode):
    twins = Twins(
        _basic(8, hosts_per_segment=5, ecmp_mode=ecmp_mode), _odd_pairs
    )
    pairs = twins.pairs
    task = twins.worlds[0].task
    warm = pairs[::2]
    twins.resolve(warm)
    fan_in = _fan_in(twins.worlds[0])
    cold = pairs[1::2]
    # Hits and cold rows interleaved, a fan-in towards one destination
    # in the middle, and a row repeated after the fan-in installed.
    mixed = [row for both in zip(warm, cold) for row in both]
    mixed = mixed[:40] + fan_in + mixed[40:] + [fan_in[3], warm[0]]
    before = twins.resolve(mixed)
    assert twins.worlds[0].fabric.resolution_cache.hits > 0

    src, dst = fan_in[0]
    victim = next(p for p in warm if not isinstance(p, tuple))

    def churn(scenario):
        overlay = scenario.cluster.overlay
        # table_changed: the reverse rule one warm pair's echo installed.
        overlay.ovs_table(overlay.record_of(victim.dst).host).remove(
            overlay.record_of(victim.src).key
        )
        # epoch_changed: a health flag on another pair's source veth.
        overlay.health(veth_name(warm[5].src)).extra_latency_us = 7.0
        # A software-path RNIC: its next installs stay unoffloaded.
        overlay.health(
            vtep_name(overlay.rnic_of(cold[7].src))
        ).force_software_path = True
        # A loop: the destination host's rule for the fan-in destination
        # sent back at the fan-in's source host.
        overlay.ovs_table(overlay.record_of(dst).host).install(
            overlay.record_of(dst).key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(
                    overlay.rnic_of(src)
                ),
            ),
        )
        # An ENCAP corrupted to the source's own VTEP at the source
        # host: the row's first packet replaces it mid-batch.
        corrupt = cold[9]
        overlay.ovs_table(overlay.record_of(corrupt.src).host).install(
            overlay.record_of(corrupt.dst).key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(
                    overlay.rnic_of(corrupt.src)
                ),
            ),
        )

    assert twins.both(churn)
    causes = dict(_causes(twins))
    again = twins.resolve(mixed)
    moved = _causes(twins)
    for cause in ("table_changed", "epoch_changed"):
        key = f"cache.miss.{cause}"
        assert moved.get(key, 0) > causes.get(key, 0), key
    assert any(res.trace.loop for res in again.resolutions)
    assert again is not before

    def migrate(scenario):
        # The fan-in destination moves: every fan-in source's first hop
        # now holds a stale ENCAP its next first packet replaces.
        scenario.orchestrator.migrate_container(
            scenario.task.container(dst.container.rank)
        )

    assert twins.both(migrate)
    twins.resolve(list(reversed(mixed)))
    twins.resolve(list(reversed(mixed)))  # all hits where nothing moved

    def rnic_fault(scenario):
        scenario.inject(
            IssueType.RNIC_PORT_DOWN,
            scenario.cluster.overlay.rnic_of(cold[3].src),
        )

    def touch(scenario):
        overlay = scenario.cluster.overlay
        overlay.ovs_table(overlay.rnic_of(warm[7].src).host).touch()

    for act in (rnic_fault, touch):
        assert twins.both(act)
        twins.resolve(mixed)
    assert len(task.all_containers()) == 8


@pytest.mark.parametrize("ecmp_mode", ["static", "spray"])
def test_a_rotating_window_is_its_pairs_one_by_one(ecmp_mode):
    """A fleet tenant's budget window (``select_pairs``) rotating over a
    held universe: no batch repeats the last one's sequence, so each
    takes the one pass, and after the warm-up its rows are hits; a
    migration and an RNIC fault land between two windows mid-run."""
    twins = Twins(_basic(8, hosts_per_segment=5, ecmp_mode=ecmp_mode), None)
    universe = sorted(twins.pairs)
    quota = len(universe) // 3 + 5  # windows wrap round the universe
    twins.resolve(universe)
    src = universe[len(universe) // 2].src

    def migrate(scenario):
        scenario.orchestrator.migrate_container(
            scenario.task.container(src.container.rank)
        )

    def rnic_fault(scenario):
        scenario.inject(
            IssueType.RNIC_PORT_DOWN,
            scenario.cluster.overlay.rnic_of(universe[7].dst),
        )

    cache = twins.worlds[0].fabric.resolution_cache
    batches, windows = cache._batches, []
    for round_index in range(1, 13):
        window = ProbeBudgetScheduler.select_pairs(
            universe, quota, round_index
        )
        assert window != (windows[-1] if windows else universe)
        windows.append(window)
        hits = cache.hits
        twins.resolve(window)
        if round_index in (2, 3):  # a warm window is all hits
            assert cache.hits - hits == len(window)
        if round_index == 4:
            assert twins.both(migrate)
        if round_index == 8:
            assert twins.both(rnic_fault)
    assert cache._batches - batches == len(windows)  # one pass each
    causes = twins.worlds[0].fabric.metrics.counters("cache.miss.")
    assert causes.get("cache.miss.table_changed")
    assert causes.get("cache.miss.epoch_changed")


@pytest.mark.slow
def test_a_cold_basic_round_at_512_endpoints_is_its_pairs_one_by_one():
    """The bulk path at scale (CI's ``slow`` job): a cold basic round
    over 512 endpoints on two segments, then an RNIC fault and a PFC
    storm injected and cleared, each followed by a round — marks,
    per-batch counts and rows equal to the batch-of-one twin's."""
    twins = Twins(_basic(64, hosts_per_segment=40), None)
    assert len(twins.pairs) > 16_000
    assert len(twins.worlds[0].task.endpoints()) == 512
    assert twins.worlds[0].topology.num_segments >= 2
    twins.resolve()
    faults = {}

    def inject(issue, pick):
        def act(scenario):
            target = pick(scenario)
            faults.setdefault(id(scenario), []).append(
                scenario.inject(issue, target)
            )
        return act

    def clear(scenario):
        fault = faults[id(scenario)].pop()
        scenario.injector.clear(fault, scenario.engine.now + 1.0)

    for issue, pick in (
        (IssueType.RNIC_PORT_DOWN,
         lambda sc: sc.cluster.overlay.rnic_of(twins.pairs[100].src)),
        (GrayIssueType.PFC_STORM,
         lambda sc: _first_link(sc, twins.pairs[200:])),
    ):
        assert twins.both(inject(issue, pick))
        twins.resolve()
        assert twins.both(clear)
        twins.resolve()
