"""The 2,048-endpoint skeleton, pinned to what the parent inferred.

Tier-1 skeleton tests run on tasks of a few dozen endpoints; the set-up
speed-up is claimed at 256 containers x 8 RNICs, where the k = 8 cut is
the one whose Eq. 3 repair both succeeds and moves 1,024 labels.  This
`slow` test infers that task (pp=2, seed 3: the `steady-2048` benchmark
workload) and compares a digest of everything the skeleton determines
with ``tests/golden/skeleton_2048.json``, generated at commit 87213bb
*before* the repair, the STFT and the preload list were rewritten::

    git archive 87213bb | tar -x -C /root/scratch/parent
    PYTHONPATH=/root/scratch/parent/src \
        python tests/core/test_skeleton_golden.py \
        > tests/golden/skeleton_2048.json
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.clustering import constrained_position_groups
from repro.analysis.stft import feature_matrix
from repro.workloads.scenarios import build_scenario

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden" / "skeleton_2048.json"
)


def fingerprint():
    """Digest of the applied skeleton, the chosen cut's cohesion and
    the one cut (k = 8) that only a repair makes feasible."""
    scenario = build_scenario(
        num_containers=256, gpus_per_container=8, pp=2, seed=3,
        start_monitoring=False,
    )
    series = scenario.generator.all_series(600.0)
    skeleton = scenario.apply_skeleton()
    endpoints = sorted(series)
    features = feature_matrix([series[e] for e in endpoints])
    hosts = [scenario.task.containers[e.container].host for e in endpoints]
    grouping = constrained_position_groups(features, hosts)
    # k = 16 wins; the repaired k = 8 cut only competes, so pin it too.
    repaired = constrained_position_groups(
        features, hosts, candidate_group_counts=[8]
    )
    skeleton_view = [
        [[str(e) for e in group] for group in skeleton.groups],
        skeleton.dp,
        skeleton.stage_of_group,
        sorted(sorted(str(e) for e in edge) for edge in skeleton.edges),
        skeleton.group_topology,
    ]
    applied = scenario.hunter.controller.ping_list_of(scenario.task.id)
    return {
        "endpoints": len(endpoints),
        "group_count": skeleton.group_count,
        "dp": skeleton.dp,
        "edges": len(skeleton.edges),
        "quarantined": len(skeleton.quarantined),
        "skeleton_sha256": hashlib.sha256(
            json.dumps(skeleton_view).encode()
        ).hexdigest(),
        "applied_pairs_sha256": hashlib.sha256(json.dumps(
            sorted([str(p.src), str(p.dst)] for p in applied.pairs)
        ).encode()).hexdigest(),
        "labels_sha256": hashlib.sha256(
            grouping.labels.astype("int64").tobytes()
        ).hexdigest(),
        "cohesion_hex": float(grouping.cohesion).hex(),
        "size_variance_hex": float(grouping.size_variance).hex(),
        "repaired_k8_labels_sha256": hashlib.sha256(
            repaired.labels.astype("int64").tobytes()
        ).hexdigest(),
        "repaired_k8_cohesion_hex": float(repaired.cohesion).hex(),
    }


@pytest.mark.slow
def test_benchmark_scale_skeleton_is_the_parents():
    assert fingerprint() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(fingerprint(), indent=2))
