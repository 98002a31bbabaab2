#!/usr/bin/env python3
"""Compare two benchmark result files: ``compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the new code; each is a file
``bench/run.py`` wrote (``--runs N`` puts N runs of every workload in
one file, which is what gives a run-to-run spread).  Per workload and
end-to-end metric it prints base, new, their ratio with its base, and a
verdict:

``ok``
    the new median is no worse than the base median by more than the
    metric's bound;
``worse``
    it is;
``unresolved``
    the run-to-run spread of either side (interquartile distance over
    its median) exceeds the bound, so the difference cannot be judged —
    unless every new run reads better than every base run.

The per-seed-exact metrics and ``output_digest`` are compared run by
run for equal seeds and must be identical.  Exits non-zero on any
``worse``, any exact difference, or a larger share of failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# As in run.py: never import from inside bench/ (its trace.py would
# shadow the standard library's).
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench.metrics import END_TO_END, EXACT  # noqa: E402

__all__ = ["compare", "spread", "verdict"]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric x workload."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(new)) > bound:
        all_better = max(sign * v for v in new) < min(
            sign * v for v in base
        )
        return "ok" if all_better else "unresolved"
    base_median = statistics.median(base)
    change = sign * (statistics.median(new) - base_median)
    return "worse" if change > bound * abs(base_median) else "ok"


def _by_workload(path: str) -> Dict[str, List[dict]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    grouped: Dict[str, List[dict]] = {}
    for report in document["workloads"]:
        grouped.setdefault(report["workload"], []).append(report)
    return grouped


def _values(reports: List[dict], metric: str) -> List[float]:
    return [r["end_to_end"][metric]["value"] for r in reports]


def compare(base_path: str, new_path: str, out=sys.stdout) -> int:
    """Print the comparison table; returns the exit code."""
    base_runs, new_runs = _by_workload(base_path), _by_workload(new_path)
    bad = 0
    for workload, base in base_runs.items():
        new = new_runs.get(workload)
        if new is None:
            print(f"{workload}: missing from {new_path}", file=out)
            bad += 1
            continue
        print(f"== {workload} ({len(base)} base, {len(new)} new runs)",
              file=out)
        for metric, (unit, better, bound, _) in END_TO_END.items():
            if metric in EXACT or metric not in base[0]["end_to_end"]:
                continue
            a, b = _values(base, metric), _values(new, metric)
            a50, b50 = statistics.median(a), statistics.median(b)
            result = verdict(a, b, better, bound)
            bad += result == "worse"
            print(
                f"   {metric:<22} base {a50:>12.6g} new {b50:>12.6g} "
                f"{unit:<8} ratio {b50 / a50 if a50 else 0.0:6.3f} of "
                f"base  spread {spread(a):.3f}/{spread(b):.3f}  "
                f"bound {bound:.2f}  {result}",
                file=out,
            )
        bad += _compare_exact(base, new, out)
        bad += _compare_failures(base, new, out)
    return 1 if bad else 0


def _compare_exact(base, new, out) -> int:
    """Per-seed-exact metrics and digests, for seeds on both sides."""
    def keyed(reports):
        rows: Dict[int, set] = {}
        for report in reports:
            exact = tuple(
                report["end_to_end"][m]["value"]
                for m in EXACT if m in report["end_to_end"]
            )
            rows.setdefault(report["seed"], set()).add(
                (report["output_digest"],) + exact
            )
        return rows

    a, b = keyed(base), keyed(new)
    differing = 0
    for seed in sorted(set(a) & set(b)):
        same = len(a[seed]) == 1 and a[seed] == b[seed]
        differing += not same
        print(
            f"   exact metrics + output_digest, seed {seed}: "
            f"{'identical' if same else 'DIFFER'}",
            file=out,
        )
    if not set(a) & set(b):
        print("   exact metrics: no seed in common", file=out)
    return differing


def _compare_failures(base, new, out) -> int:
    def share(reports):
        attempted = sum(r["ops_attempted"] for r in reports)
        failed = sum(r["ops_failed"] for r in reports)
        return failed / attempted if attempted else 0.0

    a, b = share(base), share(new)
    print(
        f"   ops_failed/ops_attempted   base {a:.4f} new {b:.4f}  "
        f"{'worse' if b > a else 'ok'}",
        file=out,
    )
    return b > a


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
