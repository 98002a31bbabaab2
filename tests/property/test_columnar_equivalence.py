"""Property test: every window the detection engine scores equals the
scalar definitions.

For any probe stream — loss bursts, latency shifts, all-lost windows,
pairs that appear mid-run, and a pair dropped mid-stream — every short
window in ``collect(full=True)`` must carry the LOF score
:func:`lof_score_of_new_point` gives over the baseline the pair's
history ring held when the window was scored, and every long window
the Z statistic :func:`z_test` gives against :func:`fit_lognormal` of
the pair's first long window.  The test owns no windowing: window
bounds come from the verdicts, baselines from the engine's ring.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lof import lof_score_of_new_point
from repro.analysis.stats import fit_lognormal, z_test
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.packet import ProbeResult
from repro.sim.metrics import TimeSeries

SCORE_RTOL = 1e-9


@st.composite
def probe_scenarios(draw):
    """A compact generative scenario: config + phased probe behaviour."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    num_pairs = draw(st.integers(min_value=2, max_value=5))
    rounds = draw(st.integers(min_value=24, max_value=60))
    interval = draw(st.sampled_from([5.0, 10.0, 35.0]))
    config = DetectorConfig(
        long_window_s=draw(st.sampled_from([120.0, 300.0])),
        min_long_samples=8,
        min_history_windows=draw(st.integers(min_value=2, max_value=4)),
        lof_k=draw(st.integers(min_value=2, max_value=4)),
        min_probes_for_unconnectivity=draw(
            st.integers(min_value=2, max_value=4)
        ),
        # 1.5 makes partially/fully lost small windows "healthy",
        # exercising the windows that have no feature to score.
        loss_rate_threshold=draw(st.sampled_from([0.01, 1.5])),
    )
    return {
        "seed": seed,
        "num_pairs": num_pairs,
        "rounds": rounds,
        "interval": interval,
        "config": config,
        "burst": draw(st.booleans()),
        "shift": draw(st.booleans()),
        "reset_round": draw(
            st.one_of(st.none(), st.integers(min_value=5, max_value=20))
        ),
        "late_join": draw(st.booleans()),
    }


def _check_short(engine, verdict, latencies, baseline):
    cfg = engine.config
    if verdict.score is None:
        # Unscored: a loss-rule alarm, no delivered probe, or a
        # baseline still building.
        assert verdict.anomaly is None or (
            verdict.anomaly.detector == "loss_rule"
        )
        assert (
            verdict.anomaly is not None
            or not latencies
            or len(baseline) < cfg.min_history_windows
        )
        return
    assert len(baseline) >= cfg.min_history_windows
    feature = np.asarray(TimeSeries.describe(latencies).as_vector())
    expected = lof_score_of_new_point(baseline, feature, k=cfg.lof_k)
    assert verdict.score == pytest.approx(expected, rel=SCORE_RTOL)
    p50 = float(np.median(baseline[:, 1]))
    shifted = (feature[1] - p50) / p50 > cfg.median_shift_threshold
    assert verdict.median_shifted == shifted
    alarmed = verdict.anomaly is not None
    assert alarmed == (expected > cfg.lof_threshold and shifted)
    after = engine.history(verdict.pair)
    if alarmed:
        # Kept out of the baseline.
        assert np.array_equal(after, baseline)
    else:
        assert any(
            np.allclose(slot, feature, rtol=1e-12, atol=0.0)
            for slot in after
        )


def _check_long(cfg, verdict, latencies, fits):
    assert verdict.samples == len(latencies)
    if len(latencies) < max(cfg.min_long_samples, 2):
        assert verdict.score is None
        return
    fit = fits.get(verdict.pair)
    if fit is None:
        fits[verdict.pair] = fit_lognormal(latencies)
        assert verdict.score is None
        return
    result = z_test(fit, latencies)
    assert verdict.score == pytest.approx(result.z, rel=SCORE_RTOL)
    alarmed = result.anomalous(cfg.ztest_alpha) and result.z > 0
    assert (verdict.anomaly is not None) == alarmed
    if alarmed:
        assert verdict.anomaly.score == pytest.approx(
            abs(result.z), rel=SCORE_RTOL
        )


def _check_collect(engine, delivered, fits, checked):
    """Score what is pending and hold every verdict to the scalars;
    ``checked`` counts the scored windows and alarms by kind."""
    cfg = engine.config
    baselines = {
        pair: engine.history(pair).copy() for pair in engine.pairs()
    }
    featured = set()
    for verdict in engine.collect(full=True):
        latencies = [
            latency for at, latency in delivered.get(verdict.pair, ())
            if verdict.window_start <= at < verdict.window_end
        ]
        if verdict.kind == "long":
            _check_long(cfg, verdict, latencies, fits)
        else:
            if latencies:
                # One round closes at most one probed window per pair,
                # so the snapshot is the baseline it was scored on.
                assert verdict.pair not in featured
                featured.add(verdict.pair)
            _check_short(
                engine, verdict, latencies, baselines[verdict.pair]
            )
        if verdict.score is not None:
            checked[verdict.kind] += 1
            checked[verdict.kind + " alarms"] += (
                verdict.anomaly is not None
            )


def _run_and_check(scenario):
    """Drive one scenario round by round; returns what was checked."""
    rng = random.Random(scenario["seed"])
    cfg = scenario["config"]
    engine = ColumnarDetectionEngine(cfg)
    num_pairs = scenario["num_pairs"]
    rounds = scenario["rounds"]
    interval = scenario["interval"]
    pairs = [
        ProbePair.canonical(f"p{2 * i}", f"p{2 * i + 1}")
        for i in range(num_pairs)
    ]
    join_round = rounds // 3 if scenario["late_join"] else 0
    burst_lo, burst_hi = rounds // 4, rounds // 2
    delivered = {}  # pair -> [(sent_at, latency)] since its last drop
    fits = {}       # pair -> the scalar reference fit
    checked = Counter()
    for r in range(rounds):
        at = r * interval
        for i, pair in enumerate(pairs):
            if i == num_pairs - 1 and r < join_round:
                continue  # pair churn: joins mid-run
            bursting = (
                scenario["burst"] and i == 0
                and burst_lo <= r < burst_hi
            )
            shifting = (
                scenario["shift"] and i == 1 and r >= rounds // 2
            )
            lost = rng.random() < (0.95 if bursting else 0.02)
            latency = (
                None if lost
                else (20.0 + 4.0 * rng.random())
                * (2.5 if shifting else 1.0)
            )
            engine.ingest(pair, ProbeResult(
                src=pair.src, dst=pair.dst, sent_at=at,
                lost=lost, latency_us=latency,
            ))
            if not lost:
                delivered.setdefault(pair, []).append((at, latency))
        if scenario["reset_round"] == r:
            _check_collect(engine, delivered, fits, checked)
            engine.drop(pairs[0])
            delivered.pop(pairs[0], None)
            fits.pop(pairs[0], None)
        engine.close_elapsed(at)
        _check_collect(engine, delivered, fits, checked)
    engine.close_elapsed(rounds * interval + cfg.long_window_s)
    _check_collect(engine, delivered, fits, checked)
    return checked


@settings(max_examples=20, deadline=None)
@given(probe_scenarios())
def test_engine_scores_equal_scalar_references(scenario):
    _run_and_check(scenario)


def test_property_is_not_vacuous():
    """The property is not vacuous: a plain shifted stream has LOF- and
    Z-scored windows, and alarms of both, held to the scalars."""
    checked = _run_and_check({
        "seed": 1, "num_pairs": 3, "rounds": 120, "interval": 5.0,
        "config": DetectorConfig(
            long_window_s=120.0, min_long_samples=8
        ),
        "burst": True, "shift": True, "reset_round": 10,
        "late_join": True,
    })
    assert checked == {
        "short": 28, "short alarms": 9, "long": 10, "long alarms": 3,
    }
