"""Command-line interface: run demos, gates and the planes from a shell.

Usage (``python -m repro COMMAND --help`` lists a command's options;
``docs/`` explains what each one measures)::

    python -m repro demo            # one task, one RNIC fault, the diagnosis
    python -m repro campaign        # every catalogued issue, basic ping list
    python -m repro stats           # the paper's production-statistics figures
    python -m repro report          # operator views of an observed run (§6):
    python -m repro status          #   incident timeline, counters and timings,
    python -m repro trace           #   JSONL trace (--explain: evidence chains),
    python -m repro export-metrics  #   Prometheus text
    python -m repro verify          # fabric passes; --lint: the
                                    #   determinism lint; --reach: what
                                    #   only tests run
    python -m repro equivalence     # the contract: every committed golden,
                                    #   one table (repro.equivalence.CHECKS),
                                    #   each row run twice here and once
                                    #   under another hash seed
    python -m repro chaos           # monitor-chaos gate -> BENCH_chaos.json
    python -m repro gray            # gray-failure gate -> BENCH_gray.json
    python -m repro run             # the sharded plane (repro.shard): merged
                                    #   diagnosis, heartbeats, failover
    python -m repro fleet           # the multi-tenant plane (repro.fleet):
                                    #   diagnosis, placement, failover, budget
    python -m repro record          # the standard chaos leg to a JSONL bus
    python -m repro replay FILE     #   recording, replayed bit for bit,
    python -m repro tail            #   or watched live (repro.bus)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.equivalence import EquivalenceError, contract
from repro.network.issues import (
    IssueType,
    all_issue_types,
    lookup_issue,
    spec_of,
)
from repro.verify.cli import add_verify_arguments, run as run_verify
from repro.workloads.production import ProductionStatistics
from repro.workloads.scenarios import build_scenario

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SkeletonHunter reproduction: monitor simulated "
        "containerized training clusters and diagnose network failures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="monitor a task, inject a fault, print the diagnosis"
    )
    demo.add_argument("--containers", type=int, default=8)
    demo.add_argument("--gpus", type=int, default=8)
    demo.add_argument("--pp", type=int, default=2)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--issue", default="RNIC_PORT_DOWN",
        choices=[i.name for i in all_issue_types()],
    )

    campaign = commands.add_parser(
        "campaign", help="inject every catalogued issue type "
        "(Table 1 + gray families) and score"
    )
    campaign.add_argument("--seed", type=int, default=0)

    commands.add_parser(
        "stats", help="print the production-statistics summaries"
    )

    def add_scenario_args(command) -> None:
        command.add_argument("--containers", type=int, default=4)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--faults", type=int, default=2,
            help="number of faults to inject during the run",
        )

    report = commands.add_parser(
        "report", help="run a monitored scenario and print the "
        "operator incident report"
    )
    add_scenario_args(report)

    status = commands.add_parser(
        "status", help="run a monitored scenario and print run-wide "
        "counters, open incidents, and pipeline timings"
    )
    add_scenario_args(status)

    trace = commands.add_parser(
        "trace", help="run a monitored scenario and dump the JSONL "
        "trace (events + spans)"
    )
    add_scenario_args(trace)
    trace.add_argument(
        "--out", default=None,
        help="write the JSONL trace to this file instead of stdout",
    )
    trace.add_argument(
        "--explain", action="store_true",
        help="render the evidence chain behind every diagnosis "
        "instead of the raw trace",
    )

    export = commands.add_parser(
        "export-metrics", help="run a monitored scenario and print its "
        "metrics in Prometheus text format"
    )
    add_scenario_args(export)

    verify = commands.add_parser(
        "verify", help="statically verify a constructed fabric "
        "(or run the determinism lint with --lint)"
    )
    add_verify_arguments(verify)

    commands.add_parser(
        "equivalence", help="check every committed golden in one "
        "table (the contract); exits 1 if any row fails"
    )

    chaos = commands.add_parser(
        "chaos", help="run the monitor-plane degradation gate "
        "(clean vs chaotic monitoring, bounded accuracy loss)"
    )
    chaos.add_argument(
        "--out", default="BENCH_chaos.json",
        help="write the JSON report here (default: BENCH_chaos.json)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--telemetry-loss", type=float, default=0.10,
        help="telemetry and probe-report loss rate (default 0.10)",
    )

    gray = commands.add_parser(
        "gray", help="run the gray-failure degradation gate "
        "(clean static-ECMP vs gray faults under spraying ECMP)"
    )
    gray.add_argument(
        "--out", default="BENCH_gray.json",
        help="write the JSON report here (default: BENCH_gray.json)",
    )
    gray.add_argument("--seed", type=int, default=0)

    run_cmd = commands.add_parser(
        "run", help="run a faulted scenario on the sharded monitoring "
        "plane and print the merged diagnosis and the coordinator's "
        "heartbeat and failover view"
    )
    run_cmd.add_argument(
        "--shards", type=int, default=4,
        help="number of shard workers (default 4)",
    )
    run_cmd.add_argument(
        "--backend", default="inproc", choices=["inproc", "mp"],
        help="run shards in-process or as forked worker processes",
    )
    run_cmd.add_argument("--containers", type=int, default=16)
    run_cmd.add_argument("--gpus", type=int, default=4)
    run_cmd.add_argument("--rounds", type=int, default=30)
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--chunk-rounds", type=int, default=5,
        help="probe rounds per dispatch/heartbeat chunk",
    )
    run_cmd.add_argument(
        "--faults", type=int, default=3,
        help="how many standard schedule faults to inject (0-3)",
    )
    run_cmd.add_argument(
        "--kill", type=int, default=None, metavar="SHARD",
        help="kill this shard at the start of the second chunk",
    )

    fleet = commands.add_parser(
        "fleet", help="run a churning multi-tenant fleet — many "
        "concurrent jobs on one shared fabric under a global probe "
        "budget — and print the merged per-tenant diagnosis and the "
        "coordinator's placement, failover and budget view"
    )
    fleet.add_argument(
        "--jobs", type=int, default=4,
        help="number of concurrent tenant jobs (default 4)",
    )
    fleet.add_argument(
        "--workers", type=int, default=2,
        help="number of fleet workers tenants are sharded over",
    )
    fleet.add_argument("--containers", type=int, default=8)
    fleet.add_argument("--gpus", type=int, default=4)
    fleet.add_argument("--rounds", type=int, default=8)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--kill", type=int, default=None, metavar="WORKER",
        help="kill this worker at the start of the second chunk",
    )

    def add_record_args(command) -> None:
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--issue", default="RNIC_PORT_DOWN",
            choices=[i.name for i in all_issue_types()],
        )
        command.add_argument(
            "--telemetry-loss", type=float, default=0.10,
            help="monitor-plane loss rate (default 0.10; the PR-5 "
            "standard chaos schedule)",
        )
        command.add_argument("--containers", type=int, default=4)
        command.add_argument("--gpus", type=int, default=4)
        command.add_argument(
            "--warm-s", type=float, default=200.0,
            help="fault-free warm-up before skeleton inference",
        )
        command.add_argument(
            "--fault-s", type=float, default=120.0,
            help="how long the injected fault stays active",
        )
        command.add_argument(
            "--cool-s", type=float, default=40.0,
            help="post-clear cool-down",
        )

    record = commands.add_parser(
        "record", help="run the standard chaos campaign leg and "
        "persist every bus topic to a JSONL recording"
    )
    record.add_argument(
        "--out", default="recording.jsonl",
        help="recording path (default: recording.jsonl)",
    )
    add_record_args(record)

    replay = commands.add_parser(
        "replay", help="reconstruct detection + localization from a "
        "recording and check it against the recorded verdicts"
    )
    replay.add_argument("recording", help="JSONL recording to replay")
    replay.add_argument(
        "--no-verify", action="store_true",
        help="report the replay without failing on drift",
    )

    tail = commands.add_parser(
        "tail", help="run a live scenario with a terminal dashboard "
        "of verdicts, breakers, quarantines, and shard health"
    )
    add_record_args(tail)
    tail.add_argument(
        "--shards", type=int, default=0,
        help="run the sharded plane with this many workers instead "
        "of the single-process hunter (default 0: single-process)",
    )
    tail.add_argument(
        "--rounds", type=int, default=30,
        help="total probe rounds in --shards/--fleet mode "
        "(default 30)",
    )
    tail.add_argument(
        "--fleet", type=int, default=0, metavar="JOBS",
        help="run the multi-tenant fleet plane with this many jobs "
        "instead of the single-process hunter (default 0: off)",
    )
    tail.add_argument(
        "--workers", type=int, default=2,
        help="fleet workers in --fleet mode (default 2)",
    )
    tail.add_argument(
        "--plain", action="store_true",
        help="append frames as plain text instead of repainting "
        "in place (automatic when stdout is not a TTY)",
    )
    return parser


def _run_demo(args: argparse.Namespace) -> int:
    issue = lookup_issue(args.issue)
    scenario = build_scenario(
        num_containers=args.containers, gpus_per_container=args.gpus,
        pp=args.pp, seed=args.seed,
    )
    print(f"monitoring {scenario.task.id}: "
          f"{scenario.workload.config.describe()}")
    scenario.run_for(200)
    skeleton = scenario.apply_skeleton()
    print(f"skeleton: DP={skeleton.dp}, stages={skeleton.num_stages}, "
          f"{len(skeleton.edges)} probe pairs")
    print(f"injected {issue.name} "
          f"({spec_of(issue).symptom.value})")
    outcome = scenario.run_fault(issue)
    score, _ = scenario.score()
    print(f"detected: {outcome.detected} "
          f"(delay {outcome.detection_delay_s}s)")
    print(f"localized: {outcome.localized} "
          f"-> {outcome.localized_component}")
    print(f"precision={score.precision:.3f} recall={score.recall:.3f}")
    return 0 if outcome.detected and outcome.localized else 1


def _run_campaign(args: argparse.Namespace) -> int:
    """The gate engine's basic-list arm over the whole catalogue."""
    from repro.chaos.gate import campaign

    result = campaign(args.seed)
    for name, (detected, localized) in result["issues"].items():
        status = "ok" if localized else (
            "DETECTED-ONLY" if detected else "MISSED"
        )
        print(f"{lookup_issue(name).value:>3} {name.lower():<30} {status}")
    total = len(result["issues"])
    print(f"\ndetected {result['detected']}/{total}, "
          f"localized {result['localized']}/{total}")
    return 0 if result["detected"] == total else 1


def _run_stats(_: argparse.Namespace) -> int:
    stats = ProductionStatistics(seed=0)
    summary = stats.lifetime_summary()
    print("container lifetimes (Figure 2):")
    print(f"  small tasks under 60 min: "
          f"{summary['small_tasks_under_60min']:.1%}")
    print(f"  all containers under 100 min: "
          f"{summary['all_under_100min']:.1%}")
    allocations = stats.rnic_allocations()
    print("RNIC allocation (Figure 5):")
    for count in (8, 4, 2, 1):
        print(f"  {count} RNICs: "
              f"{float(np.mean(allocations == count)):.1%}")
    items = stats.flow_table_items()
    print(f"flow tables (Figure 6): mean {items.mean():.0f}, "
          f"max {items.max()}")
    sizes = stats.job_gpu_counts()
    print(f"job sizes (Figure 12): all multiples of 8; "
          f"128/512/1024 hold "
          f"{float(np.mean(np.isin(sizes, [128, 512, 1024]))):.1%}")
    return 0


def _observed_run(args: argparse.Namespace):
    """Build, fault, and run the scenario the operator commands share."""
    scenario = build_scenario(
        num_containers=args.containers, gpus_per_container=args.gpus,
        pp=2, seed=args.seed, observe=True,
    )
    scenario.run_for(200)
    scenario.apply_skeleton()
    issues = [IssueType.RNIC_PORT_DOWN,
              IssueType.HUGEPAGE_MISCONFIGURATION,
              IssueType.OFFLOADING_FAILURE,
              IssueType.CONTAINER_CRASH]
    for index in range(max(0, args.faults)):
        scenario.run_fault(
            issues[index % len(issues)], fault_s=80, cool_s=140
        )
    return scenario


def _run_report(args: argparse.Namespace) -> int:
    from repro.core.reporting import build_report, render_report

    scenario = _observed_run(args)
    print(render_report(build_report(scenario.hunter)))
    return 0


def _run_status(args: argparse.Namespace) -> int:
    scenario = _observed_run(args)
    obs = scenario.observability
    hunter = scenario.hunter
    print(f"status @ {scenario.engine.now:.0f}s simulated")
    print("counters:")
    for name, value in sorted(obs.metrics.counters().items()):
        print(f"  {name:<24} {value:.0f}")
    cache = scenario.fabric.resolution_cache
    print(f"flow cache: {cache.hits} hits, {cache.misses} misses "
          f"(hit ratio {cache.hit_ratio:.3f})")
    print(f"monitored pairs: {len(hunter.monitored_pairs())}")
    open_events = hunter.analyzer.open_events()
    print(f"open incidents: {len(open_events)}")
    for event in open_events:
        print(f"  {event.pair.src}<->{event.pair.dst} "
              f"({event.symptom.value} since "
              f"{event.first_detected_at:.0f}s)")
    print("pipeline timings (wall clock):")
    closed = [span for span in obs.spans() if span.closed]
    for name in dict.fromkeys(span.name for span in closed):
        spans = [span for span in closed if span.name == name]
        total_ms = sum(s.wall_duration_s for s in spans) * 1e3
        print(f"  {name:<26} {len(spans):>5} spans, "
              f"total {total_ms:.1f} ms, "
              f"mean {total_ms / len(spans):.3f} ms")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs.explain import explain_report
    from repro.obs.export import to_jsonl, write_jsonl

    scenario = _observed_run(args)
    obs = scenario.observability
    if args.explain:
        reports = scenario.hunter.reports
        if not reports:
            print("no localization reports: nothing to explain")
            return 0
        for when, report in reports:
            print(f"=== localization @ {when:.0f}s ===")
            print(explain_report(report, obs))
        return 0
    if args.out:
        try:
            rows = write_jsonl(obs, args.out)
        except OSError as error:
            print(f"cannot write trace to {args.out}: {error}",
                  file=sys.stderr)
            return 1
        print(f"wrote {rows} trace rows to {args.out}")
        return 0
    print(to_jsonl(obs))
    return 0


def _run_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import to_prometheus

    scenario = _observed_run(args)
    print(to_prometheus(scenario.observability), end="")
    return 0


def _run_gate(args: argparse.Namespace) -> int:
    """``chaos`` and ``gray``: one engine, two gate definitions."""
    from repro.chaos.gate import ChaosGate
    from repro.chaos.gray import GrayGate

    gate = (
        ChaosGate(args.telemetry_loss) if args.command == "chaos"
        else GrayGate()
    )
    try:
        report = gate.run(seed=args.seed, out=args.out)
    except EquivalenceError as error:
        print(f"{args.command} equivalence gate failed: {error}",
              file=sys.stderr)
        return 1
    print(gate.format_report(report))
    print(f"wrote {args.out}")
    return 0 if report["summary"]["passed"] else 1


def _shard_spec(args: argparse.Namespace, num_faults: int):
    """The standard sharded scenario (the shard gate's three-fault
    schedule) at the CLI's size/seed arguments."""
    from repro.shard import default_equivalence_spec

    return default_equivalence_spec(
        args.containers, args.gpus, args.seed, args.rounds, num_faults
    )


def _kill_schedule(args: argparse.Namespace, num_workers: int, spec,
                   chunk_rounds: int):
    """``--kill`` as a kill schedule at the second chunk, or ``None``
    with the refusal printed when the plane cannot honour it."""
    from repro.shard.plane import PlaneDriver

    kill_schedule = {args.kill: 2} if args.kill is not None else {}
    try:
        PlaneDriver.check_kill_schedule(spec, num_workers, chunk_rounds,
                                        kill_schedule)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return None
    return kill_schedule


def _print_reassignments(moves, worker: str, describe) -> None:
    """The failover list both planes print; ``describe`` words a move's
    units."""
    print(f"reassignments: {len(moves)}")
    for move in moves:
        print(
            f"  chunk {move.chunk} (after round {move.round_index}): "
            f"{worker} {move.from_worker} -> {worker} {move.to_worker}, "
            f"{describe(move.units)}"
        )


def _run_sharded(args: argparse.Namespace) -> int:
    from repro.shard import ShardCoordinator, backend_named

    spec = _shard_spec(args, args.faults)
    kill_schedule = _kill_schedule(args, args.shards, spec, args.chunk_rounds)
    if kill_schedule is None:
        return 2
    result = ShardCoordinator(
        spec, args.shards, backend=backend_named(args.backend),
        chunk_rounds=args.chunk_rounds, kill_schedule=kill_schedule,
    ).run()
    counters = result.metrics.counters()
    print(
        f"sharded plane: {args.shards} shard(s) on '{args.backend}', "
        f"{len(spec.faults)} fault(s), {args.rounds} rounds over "
        f"{sum(result.plan.pair_counts())} pairs, seed {args.seed}"
    )
    print(f"events opened: {len(result.events)}")
    for record in result.events:
        print(
            f"  {record.src}<->{record.dst} {record.symptom.lower()} "
            f"@ {record.first_detected_at:.0f}s"
        )
    print(f"localization verdicts: {len(result.verdicts)}")
    for when, report in result.verdicts:
        for diagnosis in report.diagnoses:
            print(
                f"  @ {when:.0f}s {diagnosis.component} "
                f"({diagnosis.component_class.value}, "
                f"{diagnosis.layer}) "
                f"confidence={diagnosis.confidence:.2f}"
            )
        if report.unexplained:
            print(f"  @ {when:.0f}s unexplained events: "
                  f"{len(report.unexplained)}")
    print("shards:")
    print(f"  {'shard':>5} {'pairs':>6} {'agents':>6} {'chunks':>6} "
          f"{'round':>5} {'heartbeat':>10} {'adopted':>7} state")
    for shard_id in sorted(result.statuses):
        status = result.statuses[shard_id]
        print(
            f"  {status.worker_id:>5} {len(status.units):>6} "
            f"{status.agent_count:>6} {status.chunks_completed:>6} "
            f"{status.last_round:>5} {status.last_sim_time:>9.1f}s "
            f"{status.adopted:>7} {'alive' if status.alive else 'dead'}"
        )
    _print_reassignments(
        result.reassignments, "shard",
        lambda pairs: f"{len(pairs)} pairs",
    )
    print("plane counters:")
    for name in ("shard.heartbeats", "shard.deaths",
                 "shard.reassignments", "events.opened",
                 "diagnoses.made"):
        print(f"  {name:<20} {counters.get(name, 0):.0f}")
    print(f"probes: {counters.get('probes.sent', 0):.0f} sent, "
          f"{counters.get('probes.lost', 0):.0f} lost")
    return 0


def _fleet_spec(args: argparse.Namespace, jobs: int):
    """A churning ``jobs``-tenant spec for the CLI's size arguments, on
    the smoke fabric."""
    from repro.fleet.spec import fleet_bench_spec

    return fleet_bench_spec(
        jobs,
        containers_per_job=args.containers,
        gpus_per_container=args.gpus,
        total_rounds=args.rounds,
        seed=args.seed,
    )


def _run_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.coordinator import FleetCoordinator

    spec = _fleet_spec(args, args.jobs)
    kill_schedule = _kill_schedule(args, args.workers, spec, spec.chunk_rounds)
    if kill_schedule is None:
        return 2
    coordinator = FleetCoordinator(
        spec, num_workers=args.workers, kill_schedule=kill_schedule,
    )
    result = coordinator.run()
    peak = max((len(r.admitted) for r in result.rollups), default=0)
    print(
        f"fleet: {len(spec.tenants)} job(s) over {args.workers} "
        f"worker(s) on {spec.num_hosts} hosts "
        f"({spec.endpoint_capacity} endpoint capacity), "
        f"{spec.total_rounds} rounds, "
        f"budget {spec.probe_budget_per_round} probes/round, "
        f"seed {args.seed}"
    )
    print(f"peak concurrent tenants: {peak}; "
          f"probes: {result.probes_sent} sent, "
          f"{result.probes_lost} lost")
    if result.rejections:
        print("rejected at admission:")
        for name, reason in result.rejections:
            print(f"  {name}: {reason}")
    print(f"events opened: {len(result.event_summary)}")
    for tenant, src, dst, at, symptom in result.event_summary:
        print(f"  [{tenant}] {src}<->{dst} {symptom.lower()} "
              f"@ {at:.0f}s")
    print(f"localization verdicts: {len(result.verdict_summary)}")
    for tenant, when, diagnoses, unexplained in result.verdict_summary:
        for component, klass, layer, confidence in diagnoses:
            print(f"  [{tenant}] @ {when:.0f}s {component} "
                  f"({klass}, {layer}) confidence={confidence:.2f}")
        if unexplained:
            print(f"  [{tenant}] @ {when:.0f}s unexplained events: "
                  f"{unexplained}")
    if result.blacklist_summary:
        print("blacklisted components:")
        for tenant, component in result.blacklist_summary:
            print(f"  [{tenant}] {component}")
    print("workers:")
    print(f"  {'worker':>6} {'tenants':>7} {'chunks':>6} "
          f"{'round':>5} {'adopted':>7} {'cache hit':>9} state")
    for worker_id in sorted(coordinator.statuses):
        status = coordinator.statuses[worker_id]
        fabric = coordinator.workers[worker_id].replica.fabric
        print(
            f"  {status.worker_id:>6} {len(status.units):>7} "
            f"{status.chunks_completed:>6} {status.last_round:>5} "
            f"{status.adopted:>7} "
            f"{fabric.resolution_cache.hit_ratio:>9.3f} "
            f"{'alive' if status.alive else 'dead'}"
        )
    _print_reassignments(
        result.reassignments, "worker",
        lambda names: f"{len(names)} tenant(s): {', '.join(names)}",
    )
    if result.rollups:
        last = result.rollups[-1]
        print(
            f"budget @ round {last.round_index}: "
            f"{last.granted}/{last.budget} probes granted "
            f"({last.utilization:.0%} utilization), "
            f"{len(last.admitted)} tenant(s) admitted"
        )
    print("per-tenant skeleton coverage:")
    print(f"  {'tenant':<10} {'floor':>6} {'min round':>10} "
          f"{'cumulative':>11}")
    for name, min_cov, cumulative in result.coverage_summary:
        floor = spec.tenant(name).coverage_floor
        flag = "" if min_cov + 1e-9 >= floor else "  BELOW FLOOR"
        print(f"  {name:<10} {floor:>6.2f} {min_cov:>10.3f} "
              f"{cumulative:>11.3f}{flag}")
    return 0


def _record_config(args: argparse.Namespace) -> dict:
    """The :func:`standard_run_config` overrides shared by ``record``
    and single-process ``tail``."""
    return dict(
        seed=args.seed,
        issue=args.issue,
        telemetry_loss=args.telemetry_loss,
        num_containers=args.containers,
        gpus_per_container=args.gpus,
        warm_s=args.warm_s,
        fault_s=args.fault_s,
        cool_s=args.cool_s,
    )


def _run_record(args: argparse.Namespace) -> int:
    from repro.bus.replay import record_standard_run

    try:
        summary = record_standard_run(args.out, **_record_config(args))
    except OSError as error:
        print(f"cannot write recording to {args.out}: {error}",
              file=sys.stderr)
        return 1
    print(f"recorded {summary['records']} records to {summary['path']}")
    print(f"  verdicts: {summary['verdicts']}  "
          f"events: {summary['events']}  "
          f"breaker transitions: {summary['breaker_transitions']}")
    print(f"  config fingerprint: {summary['fingerprint']}")
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from repro.bus.recorder import RecordingError, load_recording
    from repro.bus.replay import Replayer

    try:
        recording = load_recording(args.recording)
        replayer = Replayer(recording)
    except (OSError, RecordingError) as error:
        print(f"cannot replay {args.recording}: {error}",
              file=sys.stderr)
        return 1
    result = replayer.replay()
    print(f"replayed {args.recording}: schema {recording.schema}, "
          f"seed {recording.seed}, {len(recording.records)} records")
    print(f"  {result.rounds} rounds, {result.probes_ingested} probes, "
          f"{result.faults_applied} fault(s) re-applied, "
          f"{len(result.breaker_transitions)} breaker transition(s)")
    print(f"  verdicts: {len(result.recorded_verdicts)} recorded / "
          f"{len(result.replayed_verdicts)} replayed;  "
          f"events: {len(result.recorded_events)} recorded / "
          f"{len(result.replayed_events)} replayed")
    problems = result.divergences()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"replay diverged in {len(problems)} stream(s)",
              file=sys.stderr)
        return 0 if args.no_verify else 1
    if not result.recorded_verdicts and not args.no_verify:
        print("recording contains no verdicts to compare — the gate "
              "would pass vacuously", file=sys.stderr)
        return 1
    print("replay is bit-exact: every verdict and event matches")
    return 0


def _run_tail(args: argparse.Namespace) -> int:
    from repro.bus.core import TelemetryBus
    from repro.bus.tail import TailDashboard

    bus = TelemetryBus()
    ansi = False if args.plain else None
    with TailDashboard(bus, ansi=ansi) as dashboard:
        if args.fleet > 0:
            from repro.fleet.coordinator import FleetCoordinator

            FleetCoordinator(
                _fleet_spec(args, args.fleet), args.workers, bus=bus
            ).run()
        elif args.shards > 0:
            from repro.shard import ShardCoordinator

            ShardCoordinator(
                _shard_spec(args, 2), args.shards, bus=bus
            ).run()
        else:
            from repro.bus.replay import (
                drive_standard_run,
                standard_run_config,
            )

            config = standard_run_config(**_record_config(args))
            drive_standard_run(bus, config)
        dashboard.render()  # the final frame, after the run settles
    print(f"run complete: {dashboard.frames_rendered} frames from "
          f"{bus.published} bus records")
    return 0


_COMMANDS = {
    "demo": _run_demo, "campaign": _run_campaign, "stats": _run_stats,
    "report": _run_report, "status": _run_status, "trace": _run_trace,
    "export-metrics": _run_export_metrics, "verify": run_verify,
    "equivalence": lambda args: contract(), "chaos": _run_gate,
    "gray": _run_gate, "run": _run_sharded, "fleet": _run_fleet,
    "record": _run_record, "replay": _run_replay, "tail": _run_tail,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
