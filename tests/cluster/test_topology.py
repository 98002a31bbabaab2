"""Tests for the rail-optimized and plain fat-tree topologies."""

import pytest

from repro.cluster.identifiers import HostId, LinkId, RnicId
from repro.cluster.topology import (
    FatTreeTopology,
    RailOptimizedTopology,
    TopologyError,
    UnderlayPath,
)


@pytest.fixture
def topo():
    return RailOptimizedTopology(
        num_segments=2, hosts_per_segment=4, rails_per_host=4, num_spines=2
    )


class TestStructure:
    def test_host_count(self, topo):
        assert topo.num_hosts == 8
        assert len(topo.hosts) == 8

    def test_rnic_count(self, topo):
        assert topo.num_rnics == 32
        assert len(topo.all_rnics()) == 32

    def test_segment_assignment(self, topo):
        assert topo.segment_of(HostId(0)) == 0
        assert topo.segment_of(HostId(3)) == 0
        assert topo.segment_of(HostId(4)) == 1

    def test_unknown_host_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.segment_of(HostId(99))

    def test_one_tor_per_segment_rail(self, topo):
        assert len(topo.tors()) == 2 * 4

    def test_same_rail_same_segment_share_tor(self, topo):
        a = topo.tor_of(RnicId(HostId(0), 2))
        b = topo.tor_of(RnicId(HostId(3), 2))
        assert a == b

    def test_different_rails_use_different_tors(self, topo):
        a = topo.tor_of(RnicId(HostId(0), 0))
        b = topo.tor_of(RnicId(HostId(0), 1))
        assert a != b

    def test_different_segments_use_different_tors(self, topo):
        a = topo.tor_of(RnicId(HostId(0), 0))
        b = topo.tor_of(RnicId(HostId(4), 0))
        assert a != b

    def test_link_count(self, topo):
        # host links: 8 hosts x 4 rails; uplinks: 8 tors x 2 spines
        assert len(topo.links()) == 32 + 16

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TopologyError):
            RailOptimizedTopology(num_segments=0)
        with pytest.raises(TopologyError):
            RailOptimizedTopology(num_spines=0)

    def test_graph_is_connected(self, topo):
        import networkx as nx

        graph = topo.graph()
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == len(topo.device_names())


class TestPaths:
    def test_same_rnic_zero_hops(self, topo):
        rnic = RnicId(HostId(0), 0)
        paths = topo.ecmp_paths(rnic, rnic)
        assert len(paths) == 1
        assert paths[0].hops == 0

    def test_same_tor_single_two_hop_path(self, topo):
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(1), 1)
        paths = topo.ecmp_paths(src, dst)
        assert len(paths) == 1
        assert paths[0].hops == 2
        assert paths[0].switches() == (str(topo.tor_of(src)),)

    def test_cross_segment_fans_out_over_spines(self, topo):
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(4), 1)
        paths = topo.ecmp_paths(src, dst)
        assert len(paths) == topo.num_spines
        spines = {path.devices[2] for path in paths}
        assert spines == {str(s) for s in topo.spines}

    def test_cross_rail_path_exists(self, topo):
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(1), 3)
        paths = topo.ecmp_paths(src, dst)
        assert all(path.hops == 4 for path in paths)

    def test_pick_path_is_deterministic(self, topo):
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(4), 1)
        assert topo.pick_path(src, dst, 12345) == topo.pick_path(
            src, dst, 12345
        )

    def test_pick_path_spreads_over_spines(self, topo):
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(4), 1)
        chosen = {
            topo.pick_path(src, dst, h).devices[2] for h in range(16)
        }
        assert len(chosen) == topo.num_spines

    def test_all_path_links_exist_in_fabric(self, topo):
        src = RnicId(HostId(0), 2)
        dst = RnicId(HostId(7), 2)
        for path in topo.ecmp_paths(src, dst):
            for link in path.links:
                assert topo.has_link(link)


class TestEcmpMemoization:
    """What a memo used to promise, now that every path is composed
    from the wiring on demand: repeat answers are equal, lists are the
    caller's own, and a pick builds only the pinned path."""

    def test_repeat_query_returns_equal_paths(self, topo):
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(5), 0)
        first = topo.ecmp_paths(src, dst)
        assert topo.ecmp_paths(src, dst) == first
        assert topo.pick_path(src, dst, 7) == topo.pick_path(src, dst, 7)

    def test_returned_list_is_a_fresh_copy(self, topo):
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(5), 0)
        paths = topo.ecmp_paths(src, dst)
        paths.reverse()
        # Caller-side reordering must not leak into a later answer
        # (pick_path depends on the canonical spine order).
        assert topo.ecmp_paths(src, dst) != paths

    def test_pick_path_builds_only_the_pinned_path(self, topo, monkeypatch):
        built = []
        post_init = UnderlayPath.__post_init__

        def counting(path):
            built.append(path)
            post_init(path)

        monkeypatch.setattr(UnderlayPath, "__post_init__", counting)
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(6), 1)
        pinned = topo.pick_path(src, dst, 3)
        assert built == [pinned]
        assert len(topo.ecmp_paths(src, dst)) == topo.num_spines
        assert len(built) == 1 + topo.num_spines

    def test_single_candidate_picks_ignore_the_hash(self, topo):
        same_tor = (RnicId(HostId(0), 1), RnicId(HostId(1), 1))
        same_rnic = (RnicId(HostId(2), 3), RnicId(HostId(2), 3))
        for src, dst in (same_tor, same_rnic):
            (only,) = topo.ecmp_paths(src, dst)
            assert {topo.pick_path(src, dst, h) for h in range(5)} == {only}

    def test_pick_path_agrees_with_enumeration(self, topo):
        src = RnicId(HostId(0), 1)
        dst = RnicId(HostId(6), 1)
        paths = topo.ecmp_paths(src, dst)
        for fhash in range(8):
            assert topo.pick_path(src, dst, fhash) == (
                paths[fhash % len(paths)]
            )


class TestFatTree:
    """The plain leaf-spine fabric behind the same topology surface."""

    @pytest.fixture
    def fat(self):
        return FatTreeTopology(
            num_segments=2, hosts_per_segment=4, rnics_per_host=2,
            num_spines=2,
        )

    def test_not_rail_optimized(self, fat):
        assert fat.is_rail_optimized is False
        assert RailOptimizedTopology.is_rail_optimized is True

    def test_structure_counts(self, fat):
        assert fat.num_hosts == 8
        assert fat.num_rnics == 16
        # One leaf per segment, every leaf uplinked to every spine:
        # 16 access links + 2*2 fabric links.
        assert len(fat.tors()) == 2
        assert len(fat.links()) == 16 + 4

    def test_every_rail_of_a_host_shares_the_leaf(self, fat):
        host = HostId(0)
        leaves = {fat.tor_of(RnicId(host, rail)) for rail in range(2)}
        assert len(leaves) == 1

    def test_same_segment_hosts_share_the_leaf(self, fat):
        assert fat.tor_of(RnicId(HostId(0), 0)) == (
            fat.tor_of(RnicId(HostId(3), 1))
        )
        assert fat.tor_of(RnicId(HostId(0), 0)) != (
            fat.tor_of(RnicId(HostId(4), 0))
        )

    def test_cross_segment_fans_out_over_all_spines(self, fat):
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(4), 1)
        paths = fat.ecmp_paths(src, dst)
        assert len(paths) == fat.num_spines
        spines = {path.devices[2] for path in paths}
        assert len(spines) == fat.num_spines

    def test_cross_rail_same_segment_stays_under_the_leaf(self, fat):
        # No rail striping: a cross-"rail" pair under one leaf takes a
        # single two-hop path, where the rail-optimized fabric would
        # have to climb to the spines.
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(1), 1)
        paths = fat.ecmp_paths(src, dst)
        assert len(paths) == 1
        assert paths[0].hops == 2

    def test_all_path_links_exist_in_fabric(self, fat):
        src = RnicId(HostId(0), 0)
        dst = RnicId(HostId(7), 1)
        for path in fat.ecmp_paths(src, dst):
            for link in path.links:
                assert fat.has_link(link)

    def test_out_of_range_rail_rejected(self, fat):
        with pytest.raises(TopologyError):
            fat.tor_of(RnicId(HostId(0), 7))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TopologyError):
            FatTreeTopology(num_segments=0)
        with pytest.raises(TopologyError):
            FatTreeTopology(rnics_per_host=0)
        with pytest.raises(TopologyError):
            FatTreeTopology(num_spines=0)


class TestUnderlayPath:
    def test_through_builds_links(self):
        path = UnderlayPath.through(["a", "b", "c"])
        assert path.links == (
            LinkId.between("a", "b"), LinkId.between("b", "c")
        )

    def test_mismatched_links_rejected(self):
        with pytest.raises(TopologyError):
            UnderlayPath(devices=("a", "b"), links=())

    def test_switches_excludes_endpoints(self):
        path = UnderlayPath.through(["a", "b", "c", "d"])
        assert path.switches() == ("b", "c")
