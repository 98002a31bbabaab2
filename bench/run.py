#!/usr/bin/env python3
"""One command for every benchmark number.

Suite mode — what a person runs::

    python bench/run.py --seed 0            # four workloads, tracing off
    python bench/run.py --seed 0 --trace    # ... then each again, traced
    python bench/run.py --smoke             # scaled down, < 30 s

prints every metric by name and unit with its sample count, checks the
outputs against ground truth, and writes ``bench/out/result.json``
(``result-smoke.json``); a traced run also writes
``bench/out/trace-<workload>.jsonl``.  It exits non-zero if an
anti-vacuous floor or the replay divergence check fails.

Driver mode — one workload, one JSON line::

    python bench/run.py --workload steady-2048 --seed 3 \\
        --seconds 15 --trace 0

prints as its last line ``{"correct", "attempted", "failed",
"metrics"}`` with the ``end_to_end`` metrics of ``BENCHMARK.json``
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``, which runs
the workload untraced and then traced so the tracing overhead is a
measured ratio, not an estimate).

End-to-end timings are taken with tracing off, the collector enabled
and a ``gc.collect()`` before each measured phase, on one pinned CPU,
and are reported in *reference seconds*: host wall-clock with the
wandering speed of the shared host measured and taken out
(``bench/speed.py``).  The raw wall seconds and the slowdown that was
removed are printed and stored beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# Run as a script, this directory leads sys.path and its trace.py would
# shadow the standard library's; the benchmark imports as ``bench.*``.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

try:
    from bench import metrics
    from bench.speed import SpeedMeter, pin_to_one_cpu
    from bench.trace import Tracer, calibrate, install
    from bench.workloads import WORKLOADS, maybe_span, out_dir
except ImportError as error:    # the program is not in this checkout
    sys.exit(f"bench/run.py needs the repro package under src/: {error}")

DEFAULT_SECONDS = 15.0
SMOKE_SECONDS = 1.0
#: Set-up repeats until seven samples exist or the next one would push
#: their total past this many seconds: sub-second set-ups need the
#: median of several to be steady, the 2048-endpoint job sets up once.
SETUP_BUDGET_S = 4.0
SETUP_SAMPLES = 7


@dataclass
class PassResult:
    """One pass (tracing on or off) over one workload.  Every time in
    it is in reference seconds but ``raw_wall_s``."""

    setup_samples: List[float] = field(default_factory=list)
    #: One outcome per episode; same seed, so simulated results agree.
    outcomes: list = field(default_factory=list)
    #: Per episode: the measured phase's wall and CPU seconds.
    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    round_walls: List[float] = field(default_factory=list)
    replay_walls: List[float] = field(default_factory=list)
    #: Host wall seconds of the measured phases, as the clock read.
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)

    def convert(self, meter: SpeedMeter, setup_spans) -> None:
        """Turn the ``perf_counter`` readings of the set-ups and the
        outcomes into reference seconds, once ``meter`` has stopped."""
        self.setup_samples = [
            meter.reference_seconds(*span) for span in setup_spans
        ]
        for outcome in self.outcomes:
            self.walls.append(meter.reference_seconds(*outcome.phase))
            self.cpus.append(
                meter.reference_cpu_seconds(*outcome.phase, outcome.cpu_s)
            )
            self.round_walls.extend(
                meter.reference_seconds(*span)
                for span in outcome.round_spans
            )
            if outcome.replay_span is not None:
                self.replay_walls.append(
                    meter.reference_seconds(*outcome.replay_span)
                )
            self.raw_wall_s += outcome.phase[1] - outcome.phase[0]

    @property
    def outcome(self):
        return self.outcomes[0]

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpus)

    @property
    def slowdown(self) -> float:
        """Host wall over reference seconds of the measured phases:
        how much slower than the reference machine the CPU ran."""
        return self.raw_wall_s / self.wall_s

    @property
    def probes_sent(self) -> int:
        return sum(o.probes_sent for o in self.outcomes)

    @property
    def replay_wall_s(self) -> float:
        return statistics.median(self.replay_walls or [0.0])

    def round_wall_p50(self) -> Tuple[float, int]:
        """Median seconds per round, and the sample count.

        Round-driven workloads time every round.  A coordinator
        ``run()`` is one opaque call from outside, so there each
        episode gives one sample: its wall divided by its rounds."""
        walls = self.round_walls or [
            wall / o.rounds for wall, o in zip(self.walls, self.outcomes)
        ]
        return statistics.median(walls), len(walls)


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_pass(workload, seconds: float, tracer=None) -> PassResult:
    """Set up and measure ``workload`` until ``seconds`` are filled.

    The untraced pass repeats the set-up for a median; fixed-script
    workloads repeat whole episodes (set-up + script) while another
    one fits in the window, so faster code is measured over more work.
    The traced pass is one set-up and one episode.
    """
    result = PassResult()
    setup_spans: List[Tuple[float, float]] = []

    def setup():
        gc.collect()
        began = time.perf_counter()
        with maybe_span(tracer, "setup"):
            state = workload.setup()
        setup_spans.append((began, time.perf_counter()))
        return state

    with SpeedMeter() as meter:
        state = setup()
        spent = last = setup_spans[0][1] - setup_spans[0][0]
        while tracer is None and len(setup_spans) < SETUP_SAMPLES:
            if spent + last > SETUP_BUDGET_S:
                break
            workload.discard(state)
            state = None    # free it first: two set-ups double the RSS
            state = setup()
            last = setup_spans[-1][1] - setup_spans[-1][0]
            spent += last

        deadline = time.perf_counter() + seconds
        while True:
            outcome = workload.measure(
                state, max(deadline - time.perf_counter(), 0.0), tracer
            )
            result.outcomes.append(outcome)
            result.problems.extend(outcome.problems)
            if outcome.digest() != result.outcome.digest():
                result.problems.append(
                    "same-seed episodes produced different digests"
                )
            took = outcome.phase[1] - outcome.phase[0]
            if tracer is not None or (
                time.perf_counter() + took > deadline
            ):
                break
            state = None
            state = setup()
    result.convert(meter, setup_spans)
    result.peak_rss_mb = _peak_rss_mb()
    return result


def run_workload(
    name: str, seed: int, seconds: float, smoke: bool, trace: bool
) -> Dict[str, object]:
    """Run one workload (untraced, then traced if asked) and return its
    JSON-ready report."""
    cls = WORKLOADS[name]
    untraced = run_pass(cls(seed, smoke), seconds)
    values = metrics.end_to_end(untraced)
    outcome = untraced.outcome
    report: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "end_to_end": {
            metric: {
                "value": values[metric],
                "unit": metrics.END_TO_END[metric][0],
            }
            for metric in metrics.END_TO_END
            if name in metrics.END_TO_END[metric][3]
        },
        "samples": {
            "setup_s": len(untraced.setup_samples),
            "round_wall_p50_s": untraced.round_wall_p50()[1],
            "episodes": len(untraced.outcomes),
            "rounds": sum(o.rounds for o in untraced.outcomes),
            "probes": untraced.probes_sent,
        },
        "host": {
            "slowdown": untraced.slowdown,
            "raw_wall_s": untraced.raw_wall_s,
            "reference_wall_s": untraced.wall_s,
        },
        "ops_attempted": outcome.ops_attempted,
        "ops_failed": outcome.ops_failed,
        "output_digest": outcome.digest(),
        "problems": list(untraced.problems),
    }
    if trace:
        tracer = Tracer()
        with install(tracer):
            traced = run_pass(cls(seed, smoke), seconds, tracer)
        suffix = "-smoke" if smoke else ""
        tracer.write_jsonl(
            os.path.join(out_dir(), f"trace-{name}{suffix}.jsonl")
        )
        layers = metrics.per_layer(
            untraced, traced, tracer.spans, calibrate()
        )
        report["per_layer"] = {
            metric: {
                "value": layers[metric],
                "unit": metrics.PER_LAYER[metric][0],
            }
            for metric in metrics.PER_LAYER
        }
        report["samples"]["spans"] = len(tracer.spans)
        report["problems"].extend(traced.problems)
        if traced.outcome.digest() != outcome.digest():
            report["problems"].append(
                "traced and untraced passes produced different digests"
            )
        coverage = layers["trace.layer_coverage_frac"]
        if name in metrics.ROUND_DRIVEN and abs(coverage - 1.0) > 0.05:
            report["problems"].append(
                f"per-layer self times cover {coverage:.3f} of the "
                f"traced round wall (need within 5%)"
            )
    return report


def environment() -> Dict[str, object]:
    """Where the numbers were taken (recorded in every result file)."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def print_report(report: Dict[str, object]) -> None:
    """Every metric by name and unit, sample counts beside them."""
    samples = report["samples"]
    print(f"== {report['workload']} (seed {report['seed']}) ==")
    print(
        f"   {samples['episodes']} episode(s), {samples['rounds']} "
        f"rounds, {samples['probes']} probes"
    )
    for name, cell in report["end_to_end"].items():
        count = samples.get(name)
        note = f"  (n={count})" if count else ""
        print(f"   {name:<28} {cell['value']:>14.6g} {cell['unit']}{note}")
    host = report["host"]
    print(
        f"   (times are reference seconds: {host['raw_wall_s']:.3f} s "
        f"of host wall measured, slowdown {host['slowdown']:.3f} "
        f"taken out)"
    )
    print(
        f"   ops_failed/ops_attempted     "
        f"{report['ops_failed']}/{report['ops_attempted']}"
    )
    print(f"   output_digest                {report['output_digest']}")
    for name, cell in report.get("per_layer", {}).items():
        print(f"   . {name:<34} {cell['value']:>14.6g} {cell['unit']}")
    for problem in report["problems"]:
        print(f"   !! {problem}")


def _result_path(name: str, smoke: bool) -> str:
    return os.path.join(
        out_dir(), f"result-{name}{'-smoke' if smoke else ''}.json"
    )


def driver_metrics(report: Dict[str, object], trace: bool) -> dict:
    """The driver's metrics object: the ``end_to_end`` list of
    ``BENCHMARK.json`` untraced, its ``per_layer`` list traced — the
    layer metrics plus the end-to-end metrics that list cannot hold
    (zero where one does not apply to the workload)."""
    cells = report["end_to_end"]
    if not trace:
        return {name: cells[name] for name in metrics.DRIVER_END_TO_END}
    out = dict(report["per_layer"])
    for name, row in metrics.END_TO_END.items():
        if name not in metrics.DRIVER_END_TO_END:
            out[name] = cells.get(name, {"value": 0.0, "unit": row[0]})
    return out


def run_driver(
    name: str, seed: int, seconds: float, smoke: bool, trace: bool
) -> int:
    """One workload in this process: prints its report, writes
    ``bench/out/result-<workload>.json``, and ends stdout with the
    driver's JSON object."""
    cpu = pin_to_one_cpu()
    report = run_workload(name, seed, seconds, smoke, trace)
    report["environment"] = environment()
    report["environment"]["pinned_cpu"] = cpu
    print_report(report)
    with open(_result_path(name, smoke), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": driver_metrics(report, trace),
    }))
    return 1 if report["problems"] else 0


def run_suite(
    seed: int, seconds: float, smoke: bool, trace: bool,
    runs: int = 1, out: Optional[str] = None,
) -> int:
    """All four workloads ``runs`` times, one child process each (so
    ``peak_rss_mb`` and CPU time belong to one workload), merged into
    one result file.  Returns the process exit code."""
    reports = []
    failed = False
    for name in list(WORKLOADS) * runs:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ] + (["--smoke"] if smoke else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # The child's last line is the driver's JSON object.
        print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
        failed |= child.returncode != 0
        with open(_result_path(name, smoke), encoding="utf-8") as handle:
            reports.append(json.load(handle))
    path = out or os.path.join(
        out_dir(), "result-smoke.json" if smoke else "result.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "seed": seed,
                "seconds": seconds,
                "smoke": smoke,
                "environment": environment(),
                "workloads": reports,
            },
            handle, indent=1, sort_keys=True,
        )
    print(f"wrote {os.path.relpath(path)}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="driver mode: run only this")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int,
        choices=(0, 1), help="also run the traced pass",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="scaled down (suite < 30 s)"
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="suite mode: repeat every workload (spread for compare.py)",
    )
    parser.add_argument(
        "--out", help="suite mode: result file (default bench/out/)"
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.workload is None:
        return run_suite(
            args.seed, seconds, args.smoke, bool(args.trace),
            args.runs, args.out,
        )
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    return run_driver(
        args.workload, args.seed, seconds, args.smoke, bool(args.trace)
    )


if __name__ == "__main__":
    sys.exit(main())
