"""Tests for the localization corpus (repro.chaos.corpus) and its
committed artifact, ``BENCH_localization.json``."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos.corpus import (
    SLICE,
    WORLD_STRIDE,
    LocalizationCorpus,
    build_world,
    case_key,
    digest,
    holds,
    median_ci,
    wilson,
    write,
)
from repro.chaos.gate import FULL_ISSUES, sweep, tap
from repro.network.issues import IssueType, spec_of

from tests.conftest import draw_keys

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_localization.json").read_text())


def _key(row):
    return (row["issue"], row["seed"], row["target"], row["ecmp"],
            row["list"], row["world"])


def _slice(committed):
    return [row for row in committed["rows"] if _key(row) in SLICE]


def _stats(recall, top1, precision, legs=20):
    """Arm scores as :func:`holds` reads them."""
    return {
        "recall_ci": wilson(recall, legs), "top1_ci": wilson(top1, legs),
        "precision": list(precision),
        "precision_ci": wilson(*precision),
    }


class TestWilson:
    def test_known_intervals(self):
        assert wilson(0, 10) == [0.0, 0.2775]
        assert wilson(5, 10) == [0.2366, 0.7634]
        assert wilson(10, 10) == [0.7225, 1.0]

    def test_no_trials_bound_nothing(self):
        assert wilson(0, 0) == [0.0, 1.0]


class TestMedianCi:
    def test_known_ranks(self):
        # The order-statistic ranks of a 95% interval of the median.
        assert median_ci(list(range(1, 7))) == [1, 6]
        assert median_ci(list(range(1, 21))) == [6, 15]
        assert median_ci(list(range(1, 101))) == [40, 61]

    def test_reads_sorted_values(self):
        values = [float(v) for v in range(20, 0, -1)]
        assert median_ci(values) == [6.0, 15.0]

    def test_fewer_than_six_values_bound_nothing(self):
        assert median_ci([8.0] * 5) is None
        assert median_ci([]) is None


class TestHolds:
    def test_an_arm_holds_against_itself(self):
        base = _stats(15, 10, (30, 60))
        assert holds(base, base)

    def test_overlapping_intervals_hold(self):
        assert holds(_stats(13, 8, (28, 60)), _stats(15, 10, (30, 60)))

    def test_recall_wholly_below_does_not_hold(self):
        assert not holds(_stats(5, 10, (30, 60)), _stats(19, 10, (30, 60)))

    def test_top1_wholly_below_does_not_hold(self):
        assert not holds(_stats(15, 1, (30, 60)), _stats(15, 15, (30, 60)))

    def test_precision_below_the_interval_does_not_hold(self):
        assert not holds(
            _stats(15, 10, (100, 1000)), _stats(15, 10, (500, 1000))
        )


class TestCases:
    def test_every_issue_every_regime_link_kinds_at_three_targets(self):
        cases = LocalizationCorpus().cases(0)
        link_kinds = [
            i for i in FULL_ISSUES if spec_of(i).target_kind == "link"
        ]
        assert len(cases) == (len(FULL_ISSUES) + 2 * len(link_kinds)) * 80
        assert {issue for issue, _, _ in cases} == set(FULL_ISSUES)
        for issue in FULL_ISSUES:
            targets = {axes["target"] for i, _, axes in cases if i is issue}
            assert targets == (
                {"standard", "uplink", "sparse"} if issue in link_kinds
                else {"standard"}
            )
        assert {(axes["ecmp"], axes["list"]) for _, _, axes in cases} == {
            (ecmp, ping_list) for ecmp in ("static", "spray")
            for ping_list in ("basic", "skeleton")
        }
        assert {seed for _, seed, _ in cases} == set(range(10))
        assert {axes["world"] for _, _, axes in cases} == {0, 1}


class TestWorld:
    def test_a_second_world_rekeys_only_the_fabric_draws(self):
        issue = IssueType.CRC_ERROR
        worlds = [build_world(issue, 0, "static", w) for w in (0, 1)]
        assert [w.fabric._draws.seed for w in worlds] == [
            worlds[0].rng.seed, worlds[0].rng.seed + WORLD_STRIDE,
        ]
        assert worlds[0].rng.seed == worlds[1].rng.seed
        placement = [
            sorted((str(c.id), str(c.host))
                   for c in w.task.containers.values())
            for w in worlds
        ]
        assert placement[0] == placement[1]
        endpoints = sorted(worlds[0].task.endpoints())[:2]
        keys = draw_keys([tuple(endpoints)])  # a pure function of the pair
        blocks = [
            w.fabric._draws.uniforms(keys, 2.0, (0,)) for w in worlds
        ]
        assert blocks[0].tolist() != blocks[1].tolist()


class TestTap:
    def test_each_comparator_gets_every_batch_with_the_same_inputs(self):
        calls = []

        def localizer(name):
            def localize(events, healthy_pairs=(), now=0.0):
                calls.append((name, events, healthy_pairs, now))
                return f"{name}@{now}"
            return SimpleNamespace(localize=localize)

        pipeline = localizer("pipeline")
        reports = tap(pipeline, {"a": localizer("a"), "b": localizer("b")})
        assert pipeline.localize(["e1"], ["h"], 4.0) == "pipeline@4.0"
        pipeline.localize(["e1", "e2"], (), 6.0)
        assert reports == {
            "a": [(4.0, "a@4.0"), (6.0, "a@6.0")],
            "b": [(4.0, "b@4.0"), (6.0, "b@6.0")],
        }
        assert [c[0] for c in calls] == ["a", "b", "pipeline"] * 2
        assert [c[1:] for c in calls[:3]] == [(["e1"], ["h"], 4.0)] * 3


class TestArtifact:
    """``BENCH_localization.json`` against the corpus definition: its
    size, its summary and the slice ``repro equivalence`` reruns."""

    def test_the_corpus_size(self, committed):
        config, rows = committed["config"], committed["rows"]
        assert config["endpoints"] >= 256 and config["segments"] >= 2
        seeds = {row["seed"] for row in rows}
        assert len(seeds) >= 10 and config["worlds"] >= 2
        assert [_key(row) for row in rows] == [
            case_key(*case) for case in LocalizationCorpus().cases(0)
        ]

    def test_the_file_is_the_report_of_its_rows(self, committed, tmp_path):
        report = LocalizationCorpus().report(committed["rows"])
        assert report["summary"]["passed"]
        write(report, tmp_path / "corpus.json")
        assert (tmp_path / "corpus.json").read_bytes() == (
            ROOT / "BENCH_localization.json"
        ).read_bytes()

    def test_the_slice_is_not_vacuous(self, committed):
        """The slice holds the single-witness CRC link of §7.1, a leg
        where RNIC validation diagnoses, an access-link fault and an
        RNIC fault each named first by their access link, and, in each
        ECMP mode, a leg where the pipeline and Flock disagree on
        top-1.  (No leg has a same-host pair: ``build_scenario`` places
        one container per host, so no corpus world has one.)"""
        legs = _slice(committed)
        assert len(legs) == len(SLICE)
        assert any(
            row["issue"] == "CRC_ERROR" and row["pipeline"]["witnesses"] == 1
            for row in legs
        )
        assert any(row["pipeline"]["rnic_diagnoses"] for row in legs)
        # An access link is named as a link: a link-kind fault at its
        # standard (access-link) target, and an RNIC-kind fault, whose
        # culprits hold that link, are both named first (the offload
        # legs above are named first by Step 3 instead).
        issues = {issue.name: issue for issue in FULL_ISSUES}
        standard = [row for row in legs if row["target"] == "standard"]
        for kind in ("link", "rnic"):
            assert any(
                spec_of(issues[row["issue"]]).target_kind == kind
                and row["pipeline"]["top1"]
                and row["issue"] != "REPETITIVE_FLOW_OFFLOADING"
                for row in standard
            ), kind
        for ecmp in ("static", "spray"):
            assert any(
                row["ecmp"] == ecmp
                and row["pipeline"]["top1"] != row["flock"]["top1"]
                for row in legs
            ), ecmp
        assert not any(
            row["pipeline"]["same_host"] for row in committed["rows"]
        )

    def test_the_contract_row_is_the_artifacts_slice(self, committed):
        contract = json.loads(
            (ROOT / "tests/golden/contract.json").read_text()
        )
        assert contract["localization"] == digest(_slice(committed))


@pytest.mark.slow
class TestAgainstTheArtifact:
    def test_two_seeds_rerun_equal_the_committed_rows(self, committed):
        """Seeds 0 and 1 of the full-size corpus, rerun: every row (and
        so every cell those legs feed) equals the committed one."""
        corpus = LocalizationCorpus()
        cases = [case for case in corpus.cases(0) if case[1] < 2]
        rows = list(sweep(corpus.arms, cases))
        assert rows == [row for row in committed["rows"] if row["seed"] < 2]
