"""The keyed-draw contract: where taint may not go, checked whole-program.

The repo's reproducibility guarantees name two code invariants:

1. **Sink protection** — monitor-plane state that feeds verdicts
   (fabric, analyzer/detector/localizer, bus recorder payloads, shard
   worker results) must never absorb a tainted value.  A
   ``time.time()`` laundered through three helpers into
   ``Analyzer`` state breaks replay bit-exactness just as surely as a
   direct call — and is exactly what per-line linting cannot see.

2. **The keyed-draw contract** — every stochastic value consumed in
   ``network/``, ``chaos/``, and ``workloads/`` must be derivable from
   ``keyed_uniform``/``keyed_uniforms``/``PairwiseDrawSource`` (the
   fabric's only source of probe uniforms) or the seeded ``sim.rng``
   streams.  Any other randomness in those layers makes probe outcomes
   depend on call order, shard assignment, or the process they ran in.

Both checks consume the :class:`~repro.verify.taint.TaintAnalyzer`'s
summaries and report :class:`~repro.verify.framework.Finding`\\ s whose
evidence chain prints the full source→sink call path.  Findings
deduplicate per source site: the function *closest* to where the
nondeterminism enters is blamed, not every caller above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.verify.callgraph import CallGraph
from repro.verify.framework import Finding, PassResult, Severity
from repro.verify.resolver import names
from repro.verify.taint import (
    FunctionSummary,
    Taint,
    TaintAnalyzer,
    TaintValue,
)

__all__ = ["ContractChecker", "ContractConfig", "FLOW_SINKS"]

#: Module suffix -> what kind of state lives there.  A tainted value
#: reaching any of these is a ``flow.taint-to-sink`` finding.
FLOW_SINKS: Dict[str, str] = {
    "network.fabric": "fabric state",
    "core.analyzer": "analyzer state",
    "core.detection": "detector state",
    "core.localization": "localizer state",
    "core.tomography": "localizer state",
    "core.system": "monitor-plane state",
    "bus.recorder": "bus recorder payloads",
    "bus.codec": "bus recorder payloads",
    "shard.monitor": "shard worker results",
    "shard.coordinator": "shard worker results",
    "fleet.budget": "fleet scheduler state",
    "fleet.lifecycle": "fleet scheduler state",
    "fleet.controller": "fleet scheduler state",
    "fleet.coordinator": "fleet scheduler state",
}

#: Module fragments under the keyed-draw contract: randomness here must
#: be keyed.
_CONTRACT_FRAGMENTS = (".network.", ".chaos.", ".workloads.")


@dataclass
class ContractConfig:
    """Which modules are sinks and which fall under the contract."""

    sinks: Dict[str, str] = field(
        default_factory=lambda: dict(FLOW_SINKS)
    )
    contract_fragments: Tuple[str, ...] = _CONTRACT_FRAGMENTS

    def sink_label(self, module: str) -> Optional[str]:
        for suffix, label in self.sinks.items():
            if names(module, (suffix,)):
                return label
        return None

    def in_contract_scope(self, module: str) -> bool:
        padded = f".{module}."
        return any(f in padded for f in self.contract_fragments)


class ContractChecker:
    """Folds taint summaries into findings."""

    def __init__(
        self,
        graph: CallGraph,
        analyzer: TaintAnalyzer,
        config: Optional[ContractConfig] = None,
    ) -> None:
        self.graph = graph
        self.analyzer = analyzer
        self.config = config or ContractConfig()

    # -- entry ----------------------------------------------------------

    def run(self) -> Tuple[PassResult, PassResult]:
        """The two pass results: sink protection, keyed-draw contract."""
        sink_result = PassResult(name="flow.taint-to-sink")
        contract_result = PassResult(name="flow.keyed-draw-contract")
        sink_candidates: List[Finding] = []
        contract_candidates: List[Finding] = []
        for fid in sorted(self.graph.functions):
            info = self.graph.functions[fid]
            summary = self.analyzer.summary_of(fid)
            sink_label = self.config.sink_label(info.module)
            if sink_label is not None:
                sink_result.checked += 1
                sink_candidates.extend(
                    self._sink_findings(info, summary, sink_label)
                )
            if self.config.in_contract_scope(info.module):
                contract_result.checked += 1
                contract_candidates.extend(
                    self._contract_findings(info, summary)
                )
        sink_result.findings = _dedupe_per_source(sink_candidates)
        contract_result.findings = _dedupe_per_source(contract_candidates)
        return sink_result, contract_result

    # -- finding construction -------------------------------------------

    def _sink_findings(
        self, info, summary: FunctionSummary, sink_label: str
    ) -> List[Finding]:
        findings = []
        if summary.state.taint is Taint.TAINTED:
            findings.append(self._finding(
                check="flow.taint-to-sink",
                info=info,
                value=summary.state,
                explanation=(
                    f"a {summary.state.kind or 'tainted'} value reaches "
                    f"{sink_label} through {info.label()}"
                ),
            ))
        if summary.returns.taint is Taint.TAINTED:
            findings.append(self._finding(
                check="flow.taint-to-sink",
                info=info,
                value=summary.returns,
                explanation=(
                    f"{info.label()} returns a "
                    f"{summary.returns.kind or 'tainted'} value into "
                    f"{sink_label}"
                ),
            ))
        return findings

    def _contract_findings(
        self, info, summary: FunctionSummary
    ) -> List[Finding]:
        findings = []
        for value, consumed in (
            (summary.returns, "returns"),
            (summary.state, "stores"),
        ):
            if value.taint is Taint.TAINTED:
                findings.append(self._finding(
                    check="flow.keyed-draw-contract",
                    info=info,
                    value=value,
                    explanation=(
                        f"{info.label()} {consumed} a "
                        f"{value.kind or 'tainted'} value; stochastic "
                        "values here must derive from keyed_uniform/"
                        "PairwiseDrawSource/sim.rng"
                    ),
                ))
        return findings

    def _finding(
        self, check: str, info, value: TaintValue, explanation: str
    ) -> Finding:
        details = ["source -> sink call path:"]
        # The chain is stored sink-first; print source-first so the
        # evidence reads as a flow.
        for step in reversed(value.chain):
            details.append(f"  {step.format()}")
        details.append(
            f"  {info.path}:{info.lineno}: surfaces in {info.label()} "
            f"({check.rsplit('.', 1)[-1]})"
        )
        return Finding(
            check=check,
            severity=Severity.ERROR,
            component=info.label(),
            explanation=explanation,
            details=tuple(details),
        )


def _dedupe_per_source(candidates: List[Finding]) -> List[Finding]:
    """Keep one finding per source site: the shortest chain wins.

    Taint propagates to every caller above the entry point, so a
    single stray ``time.time()`` would otherwise blame half the call
    graph.  The source site is the first step of the evidence chain;
    the finding with the fewest hops is the closest consumer and the
    most actionable report.
    """
    by_source: Dict[str, Finding] = {}
    order: List[str] = []
    for finding in candidates:
        chain = [d for d in finding.details if d.startswith("  ")]
        source = chain[0] if chain else finding.component
        key = f"{finding.check}|{source}"
        held = by_source.get(key)
        if held is None:
            by_source[key] = finding
            order.append(key)
        elif len(finding.details) < len(held.details):
            by_source[key] = finding
    return [by_source[key] for key in order]
