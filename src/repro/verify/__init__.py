"""Static verification of the simulated fabric, plus a determinism lint.

The runtime pipeline (probe → detect → localize) finds failures by
*sending traffic*; this package finds a complementary class of bugs by
*reading state*.  A :class:`FabricVerifier` runs a sequence of
:class:`VerificationPass` objects over a constructed cluster — rail
wiring, ECMP equivalence, cluster-wide OVS↔RNIC offload agreement,
per-endpoint overlay reachability, VTEP symmetry, and skeleton/ping-list
coverage — and renders each :class:`Finding` in the same
evidence-chain style as ``Diagnosis.explain``.  The determinism lint
(:mod:`repro.verify.lint`) keeps the simulator itself honest: no wall
clock, no unseeded randomness, no broad excepts in ``core/``.

Nothing here imports ``repro.core`` at module scope, so the core can
lazily call into verification (``SkeletonHunter.verify_fabric``)
without a cycle.
"""

from repro.verify.framework import (
    FabricVerificationError,
    FabricVerifier,
    Finding,
    PassResult,
    Severity,
    VerificationContext,
    VerificationPass,
    VerifierReport,
    default_passes,
)
from repro.verify.callgraph import CallGraph, CallGraphBuilder
from repro.verify.contract import ContractChecker, ContractConfig
from repro.verify.flow import FlowAnalysis, FlowAnalyzer, analyze_package
from repro.verify.lint import DeterminismLinter, LintViolation, lint_paths
from repro.verify.resolver import ImportTable
from repro.verify.taint import Taint, TaintAnalyzer, TaintConfig

__all__ = [
    "CallGraph",
    "CallGraphBuilder",
    "ContractChecker",
    "ContractConfig",
    "DeterminismLinter",
    "FlowAnalysis",
    "FlowAnalyzer",
    "ImportTable",
    "Taint",
    "TaintAnalyzer",
    "TaintConfig",
    "analyze_package",
    "FabricVerificationError",
    "FabricVerifier",
    "Finding",
    "LintViolation",
    "PassResult",
    "Severity",
    "VerificationContext",
    "VerificationPass",
    "VerifierReport",
    "default_passes",
    "lint_paths",
]
