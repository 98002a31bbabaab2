"""Tests for OVS flow tables, RNIC offload caches, and their diff."""

import pytest

from repro.cluster.flowtable import (
    ActionKind,
    FlowAction,
    FlowKey,
    FlowTable,
    Mismatch,
    RnicOffloadTable,
    diff_tables,
)
from repro.cluster.identifiers import HostId, RnicId, VfId


def encap(ip="10.0.0.1"):
    return FlowAction(ActionKind.ENCAP, remote_underlay_ip=ip)


def deliver(rail=0, index=0):
    return FlowAction(
        ActionKind.DELIVER, local_vf=VfId(RnicId(HostId(0), rail), index)
    )


class TestFlowActions:
    def test_encap_requires_remote_ip(self):
        with pytest.raises(ValueError):
            FlowAction(ActionKind.ENCAP)

    def test_deliver_requires_vf(self):
        with pytest.raises(ValueError):
            FlowAction(ActionKind.DELIVER)


class TestFlowTable:
    def test_install_and_lookup(self):
        table = FlowTable()
        key = FlowKey(100, "192.0.0.1")
        table.install(key, encap())
        assert table.lookup(key).action == encap()

    def test_miss_returns_none(self):
        assert FlowTable().lookup(FlowKey(1, "x")) is None

    def test_install_replaces(self):
        table = FlowTable()
        key = FlowKey(100, "192.0.0.1")
        table.install(key, encap("10.0.0.1"))
        table.install(key, encap("10.0.0.2"))
        assert len(table) == 1
        assert table.lookup(key).action.remote_underlay_ip == "10.0.0.2"

    def test_remove(self):
        table = FlowTable()
        key = FlowKey(100, "192.0.0.1")
        table.install(key, encap())
        assert table.remove(key)
        assert not table.remove(key)

    def test_rules_sorted_by_key(self):
        table = FlowTable()
        table.install(FlowKey(2, "b"), encap())
        table.install(FlowKey(1, "a"), encap())
        keys = [rule.key for rule in table.rules()]
        assert keys == sorted(keys)

    def test_hit_counter(self):
        table = FlowTable()
        rule = table.install(FlowKey(1, "a"), encap())
        rule.hit()
        rule.hit()
        assert rule.packets == 2


class TestOffloadTable:
    def test_invalidate_counts(self):
        hw = RnicOffloadTable()
        key = FlowKey(1, "a")
        hw.install(key, encap())
        assert hw.invalidate(key)
        assert hw.invalidations == 1
        assert not hw.invalidate(key)
        assert hw.invalidations == 1


RNIC = "host-0/rnic-0"


def tables():
    """An OVS table and the cache of the RNIC named :data:`RNIC`."""
    return FlowTable(), RnicOffloadTable(device=RNIC)


def offloaded(ovs, key, action, to=RNIC):
    rule = ovs.install(key, action)
    rule.offloaded = True
    rule.offloaded_to = to
    return rule


def kinds(problems):
    return [p.kind for p in problems]


class TestDiff:
    def test_consistent_tables_are_clean(self):
        ovs, hw = tables()
        key = FlowKey(1, "a")
        offloaded(ovs, key, encap())
        hw.install(key, encap())
        assert diff_tables(ovs, hw) == []

    def test_silent_invalidation_flagged(self):
        ovs, hw = tables()
        offloaded(ovs, FlowKey(1, "a"), encap())
        problems = diff_tables(ovs, hw)
        assert kinds(problems) == [Mismatch.INVALIDATED]
        assert problems[0].reason == (
            "marked offloaded in OVS but absent from RNIC"
        )

    def test_rule_for_other_rnic_ignored(self):
        ovs, hw = tables()
        offloaded(ovs, FlowKey(1, "a"), encap(), to="host-0/rnic-7")
        assert diff_tables(ovs, hw) == []

    def test_action_mismatch_flagged(self):
        ovs, hw = tables()
        key = FlowKey(1, "a")
        offloaded(ovs, key, encap("10.0.0.1"))
        hw.install(key, encap("10.0.0.9"))
        problems = diff_tables(ovs, hw)
        assert kinds(problems) == [Mismatch.ACTION]
        assert problems[0].reason == "RNIC action differs from OVS action"

    def test_stale_hardware_rule_flagged(self):
        ovs, hw = tables()
        hw.install(FlowKey(1, "ghost"), encap())
        problems = diff_tables(ovs, hw)
        assert kinds(problems) == [Mismatch.STALE]
        assert problems[0].reason == (
            "stale RNIC rule with no OVS counterpart"
        )

    def test_software_path_rule_flagged(self):
        ovs, hw = tables()
        rule = ovs.install(FlowKey(1, "a"), encap())
        rule.offloaded = False
        rule.offloaded_to = RNIC
        problems = diff_tables(ovs, hw)
        assert kinds(problems) == [Mismatch.SOFTWARE]
        assert problems[0].reason == "rule not offloaded (software path)"

    def test_rule_not_offloaded_here_but_held_is_unclaimed(self):
        ovs, hw = tables()
        key = FlowKey(1, "a")
        ovs.install(key, encap())  # on the software path, held anyway
        hw.install(key, encap())
        other = FlowKey(2, "b")
        offloaded(ovs, other, encap(), to="host-0/rnic-3")
        hw.install(other, encap("10.0.0.9"))  # unclaimed, whatever action
        assert kinds(diff_tables(ovs, hw)) == [Mismatch.UNCLAIMED] * 2


class TestInstallSemantics:
    """Duplicate-key install: idempotent same-action, reset on change."""

    def test_same_action_reinstall_is_idempotent(self):
        table = FlowTable()
        key = FlowKey(100, "192.0.0.1")
        first = table.install(key, encap("10.0.0.1"))
        first.offloaded = True
        first.offloaded_to = "host-0/rnic-0"
        first.hit()
        again = table.install(key, encap("10.0.0.1"))
        assert again is first
        assert again.offloaded
        assert again.offloaded_to == "host-0/rnic-0"
        assert again.packets == 1

    def test_different_action_resets_offload_state(self):
        table = FlowTable()
        key = FlowKey(100, "192.0.0.1")
        first = table.install(key, encap("10.0.0.1"))
        first.offloaded = True
        first.offloaded_to = "host-0/rnic-0"
        replaced = table.install(key, encap("10.0.0.2"))
        assert replaced is not first
        assert not replaced.offloaded
        assert replaced.offloaded_to is None
        assert replaced.packets == 0


class TestDiffEdgeCases:
    def test_both_tables_empty(self):
        assert diff_tables(*tables()) == []

    def test_empty_ovs_nonempty_hardware_all_stale(self):
        ovs, hw = tables()
        hw.install(FlowKey(1, "a"), encap())
        hw.install(FlowKey(2, "b"), encap())
        assert kinds(diff_tables(ovs, hw)) == [Mismatch.STALE] * 2

    def test_offloaded_to_other_rnic_with_name_not_misflagged(self):
        # The rule's hardware copy lives in a *different* RNIC's cache;
        # diffing against this cache must not flag it as invalidated.
        ovs, hw = tables()
        offloaded(ovs, FlowKey(1, "a"), encap(), to="host-0/rnic-3")
        assert diff_tables(ovs, hw) == []

    def test_mismatch_and_stale_combined_in_one_diff(self):
        ovs, hw = tables()
        shared = FlowKey(1, "a")
        offloaded(ovs, shared, encap("10.0.0.1"))
        hw.install(shared, encap("10.0.0.9"))       # action mismatch
        hw.install(FlowKey(2, "ghost"), encap())    # stale entry
        problems = diff_tables(ovs, hw)
        assert kinds(problems) == [Mismatch.ACTION, Mismatch.STALE]
        assert [p.key for p in problems] == [shared, FlowKey(2, "ghost")]
