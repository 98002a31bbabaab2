"""Command-line entry points for static verification and the lint.

``python -m repro.verify`` (or ``python -m repro verify``) runs every
fabric-verification pass on the default monitored scenario — with
``--issue NAME``, after injecting that issue at rank 0's RNIC — and
exits 1 iff any ERROR finding.  ``--lint [paths...]`` runs the
determinism lint and ``--flow [root]`` the interprocedural determinism
analyzer instead, each over the ``repro`` package by default and
exiting 1 iff any finding.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.verify.framework import (
    FabricVerifier,
    VerificationContext,
    VerifierReport,
)
from repro.verify.flow import run_flow
from repro.verify.lint import lint_paths

__all__ = [
    "add_verify_arguments",
    "build_default_report",
    "main",
    "run",
    "run_flow",
    "run_lint",
    "run_verify",
]


def add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``verify`` options on ``parser``."""
    parser.add_argument(
        "--lint", action="store_true",
        help="run the determinism lint instead of the fabric passes",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="run the interprocedural determinism analyzer (call-graph "
        "taint + keyed-draw contract) instead of the fabric passes",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: the repro "
        "package); ignored without --lint/--flow",
    )
    parser.add_argument(
        "--issue", default=None, metavar="NAME",
        help="inject this Table-1 issue (e.g. REPETITIVE_FLOW_"
        "OFFLOADING) against rank 0's RNIC before verifying",
    )
    parser.add_argument(
        "--containers", type=int, default=4,
        help="containers in the scenario under verification",
    )
    parser.add_argument(
        "--gpus", type=int, default=4,
        help="GPUs (and rails) per container",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="scenario seed",
    )
    parser.add_argument(
        "--warnings-as-errors", action="store_true",
        help="exit non-zero on WARNING findings too",
    )


def build_default_report(
    num_containers: int = 4,
    gpus_per_container: int = 4,
    seed: int = 0,
    issue: Optional[str] = None,
) -> VerifierReport:
    """Construct a scenario, optionally fault it, and verify it."""
    from repro.workloads.scenarios import build_scenario

    scenario = build_scenario(
        num_containers=num_containers,
        gpus_per_container=gpus_per_container,
        seed=seed,
    )
    if issue is not None:
        from repro.network.issues import all_issue_types, lookup_issue

        try:
            kind = lookup_issue(issue.upper())
        except KeyError:
            valid = ", ".join(
                sorted(i.name for i in all_issue_types())
            )
            raise SystemExit(
                f"unknown issue {issue!r}; expected one of: {valid}"
            )
        target = scenario.rnic_of_rank(0)
        scenario.injector.inject_issue(
            kind, target, start=scenario.engine.now
        )
    verifier = FabricVerifier(recorder=scenario.observability)
    return verifier.verify(VerificationContext.from_scenario(scenario))


def run_verify(args: argparse.Namespace) -> int:
    """The fabric-verification mode; returns the process exit code."""
    report = build_default_report(
        num_containers=args.containers,
        gpus_per_container=args.gpus,
        seed=args.seed,
        issue=args.issue,
    )
    print(report.render())
    failures = report.errors()
    if args.warnings_as_errors:
        failures = failures + report.warnings()
    return 1 if failures else 0


def run_lint(args: argparse.Namespace) -> int:
    """The determinism-lint mode; returns the process exit code."""
    violations, count = lint_paths(args.paths or None)
    for violation in violations:
        print(violation.format())
    noun = "file" if count == 1 else "files"
    if violations:
        print(f"{len(violations)} violation(s) in {count} {noun}")
        return 1
    print(f"determinism lint: {count} {noun} clean")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Static fabric verification and determinism lint.",
    )
    add_verify_arguments(parser)
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.lint and args.flow:
        parser.error("--lint and --flow are mutually exclusive")
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Run the mode parsed ``verify`` arguments select; returns the
    process exit code."""
    if args.flow:
        return run_flow(args)
    return run_lint(args) if args.lint else run_verify(args)
