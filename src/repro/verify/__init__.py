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
clock, no unseeded randomness, no environment reads, no broad excepts
in ``core/``.  That a run is a function of its seeds is checked by
running it: every row of the contract (:mod:`repro.equivalence`) is
measured twice in one process and once under another hash seed.
``--reach`` (:mod:`repro.verify.reach`) lists what only tests run.

Nothing here imports ``repro.core`` at module scope: verification
reads a built scenario, and the core never calls into it.
"""

from repro.verify.framework import (
    FabricVerifier,
    Finding,
    PassResult,
    Severity,
    VerificationContext,
    VerificationPass,
    VerifierReport,
    default_passes,
)
from repro.verify.lint import DeterminismLinter, LintViolation, lint_paths
from repro.verify.resolver import ImportTable

__all__ = [
    "DeterminismLinter",
    "ImportTable",
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
