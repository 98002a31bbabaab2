"""Smoke test of the whole benchmark at its scaled-down sizes.

Run with ``python -m pytest bench/test_smoke.py`` from the repository
root (~30 s; not part of the tier-1 ``testpaths``).
"""

import io
import json
import os
import subprocess
import sys

import pytest

from bench import compare, metrics
from bench.workloads import WHY, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")


def _suite(out, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "7", "--out", str(out),
         *extra],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _suite(tmp_path_factory.mktemp("bench") / "a.json", "--trace")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _suite(tmp_path_factory.mktemp("bench") / "b.json")


def test_every_named_metric_is_reported_with_its_unit(traced):
    document, stdout = traced
    assert [r["workload"] for r in document["workloads"]] == list(
        WORKLOADS
    )
    for report in document["workloads"]:
        name = report["workload"]
        wanted = {
            metric: row[0] for metric, row in metrics.END_TO_END.items()
            if name in row[3]
        }
        assert {
            metric: cell["unit"]
            for metric, cell in report["end_to_end"].items()
        } == wanted
        assert {
            metric: cell["unit"]
            for metric, cell in report["per_layer"].items()
        } == {metric: row[0] for metric, row in metrics.PER_LAYER.items()}
        for metric in list(wanted) + list(metrics.PER_LAYER):
            assert metric in stdout          # printed by name
        assert len(report["output_digest"]) == 64
        assert report["environment"]["nproc"] >= 1
        assert report["environment"]["python"]
        assert report["environment"]["pinned_cpu"] >= 0
        # Times are reference seconds; what was taken out is recorded.
        assert report["host"]["slowdown"] == pytest.approx(
            report["host"]["raw_wall_s"]
            / report["host"]["reference_wall_s"]
        )
    assert document["environment"]["loadavg_1m"] >= 0.0


def test_floors_hold_and_no_operation_fails(traced):
    document, _ = traced
    for report in document["workloads"]:
        assert report["problems"] == []
        assert report["ops_attempted"] >= 1
        assert report["ops_failed"] == 0
        values = report["end_to_end"]
        assert values["false_positive_events"]["value"] == 0
        if report["workload"] != "steady-2048":
            assert values["faults_detected_frac"]["value"] == 1.0
            assert values["faults_localized_frac"]["value"] == 1.0
            assert values["detect_delay_sim_s"]["value"] > 0
    by_name = {r["workload"]: r for r in document["workloads"]}
    storm = by_name["faultstorm-256"]["per_layer"]
    assert storm["localizer.calls"]["value"] >= 3
    assert storm["replay.probes_per_s"]["value"] > 0
    assert storm["bus.records"]["value"] > 0
    steady = by_name["steady-2048"]["per_layer"]
    assert steady["localizer.calls"]["value"] == 0
    assert steady["pinglist.scan_amplification"]["value"] == 16
    for name in ("steady-2048", "faultstorm-256"):
        coverage = by_name[name]["per_layer"]["trace.layer_coverage_frac"]
        assert coverage["value"] == pytest.approx(1.0, abs=0.05)
    sharded = by_name["sharded-2048-mp2"]["per_layer"]
    assert sharded["shard.worker_wait_s"]["value"] > 0
    assert by_name["fleet-16x64"]["per_layer"][
        "fleet.run_rounds_s"
    ]["value"] > 0


def test_same_seed_runs_agree_exactly_on_simulated_results(
    traced, untraced, tmp_path
):
    first, second = traced[0], untraced[0]
    for a, b in zip(first["workloads"], second["workloads"]):
        assert a["output_digest"] == b["output_digest"]
        for metric in metrics.EXACT:
            if metric in a["end_to_end"]:
                assert a["end_to_end"][metric] == b["end_to_end"][metric]
    paths = []
    for index, document in enumerate((first, second)):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(document))
    out = io.StringIO()
    compare.compare(str(paths[0]), str(paths[1]), out=out)
    text = out.getvalue()
    assert text.count("identical") == len(WORKLOADS)
    assert "DIFFER" not in text


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [1.05] * 5, "lower", 0.10) == "ok"
    assert compare.verdict(steady, [1.20] * 5, "lower", 0.10) == "worse"
    assert compare.verdict(steady, [0.85] * 5, "higher", 0.10) == "worse"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.9]
    assert compare.verdict(noisy, steady, "lower", 0.10) == "unresolved"
    # Spread above the bound, but every new run beats every base run.
    assert compare.verdict(noisy, [0.5] * 5, "lower", 0.10) == "ok"


def _contract():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_driver_mode_prints_one_json_object_last(trace, listed):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "fleet-16x64", "--smoke",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: cell["unit"] for name, cell in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in _contract()[listed]}
    if not trace:
        assert all(c["value"] > 0 for c in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    contract = _contract()
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == WHY
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [
        (name,) + metrics.END_TO_END[name][:3]
        for name in metrics.DRIVER_END_TO_END
    ]
    listed = {
        m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]
    }
    expected = dict(metrics.PER_LAYER)
    expected.update({
        name: row[:2] for name, row in metrics.END_TO_END.items()
        if name not in metrics.DRIVER_END_TO_END
    })
    assert listed == expected
