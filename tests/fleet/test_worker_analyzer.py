"""A fleet worker's one analyzer against a private analyzer per tenant.

A worker feeds every monitored tenant's delivered rows of a round to
one :class:`~repro.core.analyzer.Analyzer` and flushes it once; each
tenant reads the open incidents on its own pairs.  The oracle is the
design that came before: one private analyzer per tenant, fed the
tenant's delivered slice of the round and flushed right after it, the
tenant's open incidents being its private analyzer's.  Whatever the
spec — churn, staggered arrival and departure, the chaos retry path, a
tenant granted nothing, one tenant's fault, a failover replay — every
tenant's event rows, verdict rows and per-round rollup rows (its open
incident count among them) must be the oracle's.
"""

import dataclasses

import pytest

from repro.core.analyzer import Analyzer
from repro.fleet.controller import FleetController
from repro.fleet.lifecycle import DEPART
from repro.fleet.spec import fleet_bench_spec

from tests.fleet.conftest import small_fleet_spec
from tests.fleet.test_controller import four_tenant_spec, lossy


class PrivateAnalyzers(FleetController):
    """The oracle: the worker's round, with each tenant's incidents
    read from a private analyzer of its own rows."""

    def _build(self):
        super()._build()
        self.private = {}

    def _tenant_runtime(self, name):
        fresh = name not in self.tenants
        runtime = super()._tenant_runtime(name)
        if fresh:
            analyzer = self.private[name] = Analyzer(
                config=self.spec.detector
            )
            record = runtime.record_round

            def record_round(batch, now, start, stop, rows):
                analyzer.ingest_batch(batch[start:stop])
                analyzer.flush(now)
                record(batch, now, start, stop, rows)

            runtime.record_round = record_round
        return runtime

    def open_events(self, name):
        return self.private[name].open_events()


def streams(controller):
    return (
        controller.event_summary(), controller.verdict_summary(),
        controller.blacklist_summary(), controller.coverage_summary(),
        controller.rollups,
    )


def lockstep(worker, oracle, start=1):
    """Run both round by round, holding the worker's analyzer rows to
    the union of the rows of its present tenants' private analyzers —
    every pair that delivered a report — so isolation is not vacuous:
    the one analyzer does hold several tenants' rows."""
    spec, departed, tenants = worker.spec, set(), set()
    for round_index in range(start, spec.total_rounds + 1):
        departed.update(
            event.tenant for event in worker.plan.events_at(round_index)
            if event.kind == DEPART
        )
        for controller in (worker, oracle):
            controller.run_rounds(round_index, round_index)
        rows = set(worker.analyzer.monitored_pairs())
        assert rows == set().union(*(
            oracle.private[name].monitored_pairs()
            for name in worker.tenants if name not in departed
        )), round_index
        assert rows <= set().union(*(
            runtime.probed_pairs for runtime in worker.tenants.values()
        ))
        tenants.update(pair.src.container.task for pair in rows)
    assert len(tenants) >= 2
    return worker, oracle


def with_demand(controller, name, demand):
    controller.demands[name] = dataclasses.replace(
        controller.demands[name], demand=demand
    )
    return controller


def departing_faulted_tenant():
    """The crash inside tenant 'a', which departs with its incident
    still open; 'c' arrives late."""
    spec = small_fleet_spec(total_rounds=10, churn_rate=0.3)
    a, b = spec.tenants
    late = dataclasses.replace(b, name="c", arrival_round=4)
    return dataclasses.replace(spec, tenants=(
        dataclasses.replace(a, departure_round=7), b, late,
    ))


SPECS = {
    "bench-8-seed-0": lambda: fleet_bench_spec(8, total_rounds=12, seed=0),
    "bench-8-seed-3": lambda: fleet_bench_spec(8, total_rounds=12, seed=3),
    "bench-6-seed-7": lambda: fleet_bench_spec(6, total_rounds=10, seed=7),
    "lossy-four-tenants": lambda: lossy(four_tenant_spec()),
    "one-tenant-fault": small_fleet_spec,
    "departing-fault": departing_faulted_tenant,
}


@pytest.mark.parametrize("case", sorted(SPECS))
def test_every_tenant_stream_is_its_private_analyzers(case):
    spec = SPECS[case]()
    worker, oracle = lockstep(FleetController(spec), PrivateAnalyzers(spec))
    assert streams(worker) == streams(oracle)
    assert worker.event_summary() and worker.verdict_summary()
    assert any(
        row[5] for rollup in worker.rollups for row in rollup.tenant_rows
    )


def test_one_tenants_fault_leaves_every_other_stream_empty():
    spec = small_fleet_spec(extra_tenants=four_tenant_spec().tenants[2:])
    worker, oracle = lockstep(FleetController(spec), PrivateAnalyzers(spec))
    assert streams(worker) == streams(oracle)
    assert {row[0] for row in worker.event_summary()} == {"a"}
    assert {row[0] for row in worker.verdict_summary()} == {"a"}
    for rollup in worker.rollups:
        for name, *_, open_events, _ in rollup.tenant_rows:
            assert open_events == 0 or name == "a"


def test_a_tenant_granted_nothing_is_no_row():
    spec = lossy(four_tenant_spec())
    worker, oracle = lockstep(
        with_demand(FleetController(spec), "b", 0),
        with_demand(PrivateAnalyzers(spec), "b", 0),
    )
    assert streams(worker) == streams(oracle)
    assert worker.event_summary()
    assert not worker.tenants["b"].probed_pairs


def test_a_departed_tenants_rows_leave_the_analyzer():
    spec = departing_faulted_tenant()
    worker = FleetController(spec)
    worker.run_rounds(1, 6)
    assert worker.open_events("a")
    a_rows = {
        pair for pair in worker.analyzer.monitored_pairs()
        if pair.src.container.task == worker.tenants["a"].task
    }
    assert a_rows == worker.tenants["a"].probed_pairs
    worker.run_rounds(7, spec.total_rounds)
    assert not worker.open_events("a")
    assert not a_rows & set(worker.analyzer.monitored_pairs())
    assert worker.tenants["c"].probed_pairs <= set(
        worker.analyzer.monitored_pairs()
    )


def test_an_adopting_worker_replays_into_its_one_analyzer():
    spec = fleet_bench_spec(8, total_rounds=12, seed=1)
    names = [tenant.name for tenant in spec.tenants]
    adopter = FleetController(spec, monitor_tenants=names[1::2])
    oracle = PrivateAnalyzers(spec)
    adopter.run_rounds(1, 5)
    oracle.run_rounds(1, 5)
    adopter.adopt(names[0::2], upto_round=5)
    lockstep(adopter, oracle, start=6)
    assert streams(adopter) == streams(oracle)
    assert adopter.event_summary()
