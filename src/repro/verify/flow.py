"""``repro.verify.flow`` — the interprocedural determinism analyzer.

Ties the pieces together: build a call graph over a package
(:mod:`~repro.verify.callgraph`), run the taint fixpoint
(:mod:`~repro.verify.taint`), check the keyed-draw contract and sink
protection (:mod:`~repro.verify.contract`), and fold everything into
the same :class:`~repro.verify.framework.VerifierReport` the fabric
passes use — one report surface, one evidence-chain style.

Entry points::

    PYTHONPATH=src python -m repro.verify --flow
    PYTHONPATH=src python -m repro verify --flow

Exit status is 1 iff there is any finding.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional

from repro.verify.callgraph import CallGraph, CallGraphBuilder
from repro.verify.contract import ContractChecker, ContractConfig
from repro.verify.framework import PassResult, VerifierReport
from repro.verify.resolver import package_root
from repro.verify.taint import TaintAnalyzer, TaintConfig

__all__ = [
    "FlowAnalysis",
    "FlowAnalyzer",
    "analyze_package",
    "run_flow",
]


@dataclass
class FlowAnalysis:
    """Everything one flow run produced, for reports and tests."""

    graph: CallGraph
    taint: TaintAnalyzer
    report: VerifierReport


class FlowAnalyzer:
    """Configurable façade over graph building, taint, and contract."""

    def __init__(
        self,
        taint_config: Optional[TaintConfig] = None,
        contract_config: Optional[ContractConfig] = None,
    ) -> None:
        self.taint_config = taint_config or TaintConfig()
        self.contract_config = contract_config or ContractConfig()

    def analyze_graph(self, graph: CallGraph) -> FlowAnalysis:
        """Run taint + contract over an already-built graph."""
        taint = TaintAnalyzer(graph, self.taint_config)
        taint.analyze()
        checker = ContractChecker(graph, taint, self.contract_config)
        sink_result, contract_result = checker.run()
        stats = PassResult(
            name="flow.callgraph",
            checked=len(graph.functions),
        )
        report = VerifierReport(
            results=[stats, sink_result, contract_result]
        )
        return FlowAnalysis(graph=graph, taint=taint, report=report)

    def analyze_package(
        self, root: str, package: Optional[str] = None
    ) -> FlowAnalysis:
        """Parse every module under ``root`` and analyze the package."""
        builder = CallGraphBuilder()
        count = builder.add_package(root, package=package)
        if count == 0:
            raise FileNotFoundError(
                f"no python modules under {root!r} to analyze"
            )
        return self.analyze_graph(builder.build())

    def analyze_sources(
        self, sources: Dict[str, str]
    ) -> FlowAnalysis:
        """Analyze in-memory modules (``dotted name -> source``)."""
        builder = CallGraphBuilder()
        for name in sorted(sources):
            builder.add_source(name, sources[name])
        return self.analyze_graph(builder.build())


def analyze_package(
    root: Optional[str] = None, package: Optional[str] = None
) -> FlowAnalysis:
    """Module-level convenience with the default configuration."""
    return FlowAnalyzer().analyze_package(
        root if root is not None else package_root(),
        package=package,
    )


def run_flow(args: argparse.Namespace) -> int:
    """The ``--flow`` CLI mode; returns the process exit code."""
    root = args.paths[0] if getattr(args, "paths", None) else None
    try:
        analysis = analyze_package(root)
    except (FileNotFoundError, SyntaxError) as error:
        print(f"flow analysis failed: {error}")
        return 2

    print(analysis.report.render())

    errors = analysis.report.errors()
    if getattr(args, "warnings_as_errors", False):
        errors = errors + analysis.report.warnings()
    return 1 if errors else 0
