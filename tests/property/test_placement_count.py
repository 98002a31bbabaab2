"""Property: placement reads a kept count and stops at the n-th host.

``Host.num_free_gpus`` is kept by ``allocate`` / ``release`` instead of
being rebuilt from the GPU list on every placement, and
``Orchestrator._pick_hosts`` takes the first eligible hosts of the
id-ordered host table instead of sorting every candidate.  Under random
submissions, terminations, crashes, migrations (with and without
exclusions), direct host allocations and releases, and a placement
filter that comes and goes, the count must equal ``len(free_gpus())``
on every host, and every pick must equal the sort-then-slice over
``free_gpus()`` that placement used to compute (the oracle below).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import ContainerId, TaskId
from repro.cluster.orchestrator import Cluster, Orchestrator, PlacementError
from repro.cluster.topology import RailOptimizedTopology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


def _oracle_pick(orchestrator, num_containers, gpus_per_container):
    candidates = [
        h.id for h in orchestrator.cluster.hosts.values()
        if len(h.free_gpus()) >= gpus_per_container
        and orchestrator._schedulable(h.id)
    ]
    if len(candidates) < num_containers:
        return None
    return sorted(candidates)[:num_containers]


def _oracle_target(orchestrator, container, excluded):
    needed = len(container.allocation.gpu_indices)
    eligible = sorted(
        h.id for h in orchestrator.cluster.hosts.values()
        if h.id not in excluded and h.id != container.host
        and len(h.free_gpus()) >= needed and orchestrator._schedulable(h.id)
    )
    return eligible[0] if eligible else None


class World:
    def __init__(self) -> None:
        self.cluster = Cluster(RailOptimizedTopology(
            num_segments=2, hosts_per_segment=3, rails_per_host=4,
            num_spines=2,
        ))
        self.engine = SimulationEngine()
        self.orchestrator = Orchestrator(
            self.cluster, self.engine, RngRegistry(3)
        )
        self.hosts = sorted(self.cluster.hosts)
        self.held = []  # direct host allocations, in order
        self.next_owner = 0

    def running(self):
        return [
            container for task in self.orchestrator.tasks.values()
            for container in task.all_containers() if container.is_running
        ]

    def submit(self, num_containers, gpus):
        want = _oracle_pick(self.orchestrator, num_containers, gpus)
        try:
            got = self.orchestrator._pick_hosts(num_containers, gpus)
        except PlacementError:
            got = None
        assert got == want
        if got is not None:
            self.orchestrator.submit_task(
                num_containers, gpus, instant_startup=True
            )
            self.engine.run_until(self.engine.now)

    def terminate(self, index):
        tasks = sorted(self.orchestrator.tasks)
        if tasks:
            self.orchestrator.terminate_task(tasks[index % len(tasks)])

    def crash(self, index):
        running = self.running()
        if running:
            self.orchestrator.crash_container(running[index % len(running)])

    def migrate(self, index, exclude):
        running = self.running()
        if not running:
            return
        container = running[index % len(running)]
        excluded = [h for i, h in enumerate(self.hosts) if exclude >> i & 1]
        want = _oracle_target(self.orchestrator, container, set(excluded))
        try:
            got = self.orchestrator.migrate_container(container, excluded)
        except PlacementError:
            got = None
        assert got == want

    def allocate(self, host_index, gpus):
        host = self.cluster.host(self.hosts[host_index % len(self.hosts)])
        if host.num_free_gpus >= gpus:
            self.next_owner += 1
            owner = ContainerId(TaskId(10_000), self.next_owner)
            self.held.append((host, host.allocate(owner, gpus)))

    def release(self, index):
        if self.held:
            host, allocation = self.held.pop(index % len(self.held))
            host.release(allocation)
            host.release(allocation)  # a second release frees nothing

    def blacklist(self, mask):
        banned = {h for i, h in enumerate(self.hosts) if mask >> i & 1}
        self.orchestrator.placement_filter = (
            (lambda host: host not in banned) if banned else None
        )

    def check(self):
        for host in self.cluster.hosts.values():
            assert host.num_free_gpus == len(host.free_gpus())
        assert self.cluster.total_free_gpus() == sum(
            len(h.free_gpus()) for h in self.cluster.hosts.values()
        )


_small = st.integers(min_value=0, max_value=63)
_operation = st.one_of(
    st.tuples(
        st.just("submit"), st.integers(1, 4), st.integers(1, 4)
    ),
    st.tuples(st.just("terminate"), _small),
    st.tuples(st.just("crash"), _small),
    st.tuples(st.just("migrate"), _small, _small),
    st.tuples(st.just("allocate"), _small, st.integers(1, 4)),
    st.tuples(st.just("release"), _small),
    st.tuples(st.just("blacklist"), _small),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
def test_count_and_picks_equal_the_list_scan(operations):
    world = World()
    world.check()
    for kind, *args in operations:
        getattr(world, kind)(*args)
        world.check()
