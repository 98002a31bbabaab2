"""Property test: the analyzer fed batch by batch equals the analyzer
fed probe by probe.

``Analyzer.ingest_batch`` scatters a round into the engine's columns
and only then raises the fast-loss alarms of that round;
``Analyzer.ingest`` is the same code over one row.  Random probe
streams — loss runs that reach the fast-loss threshold, 30-second and
long-window boundaries, pairs that join mid-stream, a
``reset_pairs_involving`` that recycles rows, a pair given in either
orientation or twice in one batch, retried probes with their own times
— go through two analyzers, one call per batch and one call per probe,
and everything observable must be equal after every batch: anomalies,
events, open events, pending queues and every engine column.  A late
probe must raise and leave the batch-fed engine as it was.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.codec import decode_probe_rows, encode_probe_rows
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.packet import ProbeBatch

CONFIG = dict(long_window_s=120.0, min_long_samples=8)
INTERVAL = 5.0


def endpoint(index):
    return EndpointId(ContainerId(TaskId(0), index // 4), index % 4)


def engine_state(analyzer):
    """Every engine column, keyed by pair (not by row index)."""
    engine = analyzer._engine
    size = engine._LONG_BLOCK
    state = {}
    for pair, row in engine._rows.items():
        n = int(engine._long_n[row])
        held = [
            block[:, :, row] for block in engine._long_blocks[:-(-n // size)]
        ]
        state[pair] = {
            "row": row,
            "ws": engine._ws[row].tolist(),
            "sent": int(engine._sent[row]),
            "lost": int(engine._lost[row]),
            "consec": int(engine._consec[row]),
            "lat": engine._lat[row, :engine._lat_n[row]].tolist(),
            "long_start": engine._long_start[row].tolist(),
            "long_last": engine._long_last[row].tolist(),
            "long": np.concatenate(
                held or [np.empty((2, 0))], axis=1
            )[:, :n].tolist(),
            "fit": (engine._fit_mu[row], engine._fit_sigma[row]),
            "hist": engine._hist[row, :engine._hist_n[row]].tolist(),
            "hist_head": int(engine._hist_head[row]),
            "pending": queued_windows(engine, row),
        }
    return state


def queued_windows(engine, row):
    """The row's queued windows in queue order: ``(start, end, sent,
    lost, latencies)`` for a short one, ``(end, latencies)`` for a
    long one."""
    windows = []
    for block in engine._queue:
        for i in np.flatnonzero(block.rows == row).tolist():
            if block.values is not None:
                windows.append(
                    (block.ends[i].tolist(), block.values[i].tolist())
                )
                continue
            windows.append((
                block.starts[i].tolist(), block.ends[i].tolist(),
                int(block.sent[i]), int(block.lost[i]),
                block.lats[i, :block.lens[i]].tolist(),
            ))
    return windows


def observable(analyzer):
    return {
        "anomalies": list(analyzer.anomalies),
        "events": [
            (e.pair, e.first_detected_at, e.symptom, e.resolved_at,
             list(e.anomalies))
            for e in analyzer.events
        ],
        "open": sorted(analyzer._open_events),
        "engine": engine_state(analyzer),
    }


def assert_same(batched, single):
    mine, theirs = observable(batched), observable(single)
    for key in mine:
        # NaN (an unused start) compares unequal to itself: go by repr.
        assert repr(mine[key]) == repr(theirs[key]), key


def make_batch(rows):
    """``rows`` of ``(pair, sent_at, latency or None)`` as a batch."""
    return ProbeBatch(
        pairs=[row[0] for row in rows],
        sent_at=np.array([row[1] for row in rows], dtype=np.float64),
        lost=np.array([row[2] is None for row in rows], dtype=bool),
        latency_us=np.array(
            [np.nan if row[2] is None else row[2] for row in rows],
            dtype=np.float64,
        ),
    )


def stream(seed, rounds, fast):
    """A list of steps: ``("batch", rows)``, ``("flush", now)`` or
    ``("reset", endpoint, now)``."""
    rng = random.Random(seed)
    count = rng.randint(5, 9)
    pairs = [
        ProbePair(endpoint(2 * i), endpoint(2 * i + 9)) for i in range(count)
    ]
    join = {count - 1: rounds // 3, count - 2: rng.randint(1, rounds // 2)}
    burst = (rng.randint(2, rounds // 3), rng.randint(3, 12))
    reset_round = rng.randint(rounds // 3, rounds - 5)
    twice_round = rng.randint(1, rounds - 1)
    steps = []
    for r in range(rounds):
        at = r * INTERVAL
        rows = []
        for i, pair in enumerate(pairs):
            if r < join.get(i, 0):
                continue
            bursting = i == 0 and burst[0] <= r < burst[0] + burst[1]
            lost = rng.random() < (0.9 if bursting else 0.08)
            latency = None if lost else (
                (20.0 + 4.0 * rng.random())
                * (2.5 if i == 1 and r > rounds // 2 else 1.0)
            )
            # Either orientation of the pair; a retried probe reports
            # a little later than the round's time.
            shown = pair if rng.random() < 0.7 else (pair.dst, pair.src)
            late = 0.25 * rng.random() if rng.random() < 0.1 else 0.0
            rows.append((shown, at + late, latency))
        if r == twice_round and rows:
            again = rows[rng.randrange(len(rows))]
            rows.append((again[0], at + 0.5, 21.5))
            rows.append((again[0], at + 0.75, None))
        elif rng.random() < 0.15:
            rng.shuffle(rows)
        steps.append(("batch", rows))
        if r == reset_round:
            steps.append(("reset", pairs[2].src, at))
        if fast or rng.random() < 0.8:
            steps.append(("flush", at))
    steps.append(("flush", rounds * INTERVAL + 200.0))
    return steps, pairs


def drive(steps, fast):
    config = DetectorConfig(
        fast_unconnectivity_probes=3 if fast else 0, **CONFIG
    )
    batched, single = Analyzer(config), Analyzer(config)
    for step in steps:
        if step[0] == "batch":
            batch = make_batch(step[1])
            got = batched.ingest_batch(batch)
            want = [
                anomaly for result in batch
                for anomaly in single.ingest(result)
            ]
            assert got == want
        elif step[0] == "flush":
            assert batched.flush(step[1]) == single.flush(step[1])
        else:
            assert batched.reset_pairs_involving(
                [step[1]], step[2]
            ) == single.reset_pairs_involving([step[1]], step[2])
        assert_same(batched, single)
    return batched, single


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rounds=st.integers(min_value=30, max_value=70),
    fast=st.booleans(),
)
def test_batch_by_batch_equals_probe_by_probe(seed, rounds, fast):
    steps, _ = stream(seed, rounds, fast)
    drive(steps, fast)


def test_property_is_not_vacuous():
    """One fixed stream raises fast-loss, loss-rule, LOF and Z-test
    anomalies, opens and resolves events, and recycles a row."""
    steps, _ = stream(seed=4, rounds=70, fast=True)
    batched, _ = drive(steps, fast=True)
    detectors = {a.detector for a in batched.anomalies}
    assert detectors >= {
        "fast_loss", "loss_rule", "short_term_lof", "long_term_ztest",
    }
    assert any(not event.open for event in batched.events)
    assert any(step[0] == "reset" for step in steps)
    assert batched._engine._free == [] and batched._engine._layout > (
        batched._engine.num_pairs
    )  # a row was dropped and handed out again


def test_two_alarms_in_one_batch_keep_probe_order():
    """Each alarmed row drains its own closed windows and then records
    its alarm, row after row in input order — never every drain first."""
    config = DetectorConfig(fast_unconnectivity_probes=2, **CONFIG)
    pairs = [
        ProbePair(endpoint(2 * i), endpoint(2 * i + 9)) for i in range(3)
    ]
    steps = []
    for r in range(7):
        # Both of the first two pairs lose the probes at t=25 and t=30;
        # the one at t=30 also closes their [0, 30) window, lossy enough
        # for the loss rule.  No flush in between: the window is pending
        # when the alarm drains it.
        steps.append(("batch", [
            (pair, r * INTERVAL,
             None if i < 2 and r >= 5 else 20.0 + i)
            for i, pair in enumerate(pairs)
        ]))
    batched, single = Analyzer(config), Analyzer(config)
    for _, rows in steps:
        batch = make_batch(rows)
        assert batched.ingest_batch(batch) == [
            anomaly for result in batch
            for anomaly in single.ingest(result)
        ]
    assert [(a.pair, a.detector) for a in batched.anomalies] == [
        (pairs[0], "loss_rule"), (pairs[0], "fast_loss"),
        (pairs[1], "loss_rule"), (pairs[1], "fast_loss"),
    ]
    assert_same(batched, single)


def test_an_alarm_drains_what_closed_before_its_probe_not_after():
    """The probe that raises the fast-loss alarm may also end a
    30-minute aggregate; that aggregate is queued after the alarm, as
    it was when probes came one by one, and scored at the next flush."""
    config = DetectorConfig(
        fast_unconnectivity_probes=2, long_window_s=60.0,
        min_long_samples=4,
    )
    analyzer = Analyzer(config)
    pair = ProbePair(endpoint(0), endpoint(9))
    rng = random.Random(5)
    at = 0.0
    while at < 115.0:  # a fit window [0, 60), then a 5x slower one
        latency = (20.0 + rng.random()) * (5.0 if at >= 60.0 else 1.0)
        analyzer.ingest_batch(make_batch([(pair, at, latency)]))
        at += 5.0
    analyzer.ingest_batch(make_batch([(pair, 115.0, None)]))
    raised = analyzer.ingest_batch(make_batch([(pair, 120.0, None)]))
    assert [a.detector for a in raised][-1] == "fast_loss"
    assert "long_term_ztest" not in {a.detector for a in analyzer.anomalies}
    flushed = analyzer.flush(120.0)
    assert "long_term_ztest" in {a.detector for a in flushed}


def test_an_emptied_row_takes_any_time():
    """Time order is checked against the samples a row still holds: one
    whose samples a 30-minute aggregate consumed holds none."""
    config = DetectorConfig(long_window_s=60.0, min_long_samples=4)
    analyzer = Analyzer(config)
    pair = ProbePair(endpoint(0), endpoint(9))
    for r in range(11):
        analyzer.ingest_batch(make_batch([(pair, r * INTERVAL, 20.0)]))
    analyzer.flush(200.0)  # [0, 60) and what followed: all consumed
    analyzer.ingest_batch(make_batch([(pair, 40.0, 20.0)]))
    with pytest.raises(ValueError, match="time order"):
        analyzer.ingest_batch(make_batch([(pair, 39.0, 20.0)]))


def test_late_probe_raises_and_leaves_the_engine_untouched():
    steps, pairs = stream(seed=2, rounds=40, fast=True)
    batched, single = drive(steps[:-1], fast=True)
    now = 40 * INTERVAL
    before = repr(observable(batched))
    fresh = ProbePair(endpoint(40), endpoint(49))
    late = [
        (pairs[0], now, 20.0), (fresh, now, 20.0),
        (pairs[3], now - 3 * INTERVAL, 20.0), (pairs[4], now, None),
    ]
    with pytest.raises(ValueError, match="time order"):
        batched.ingest_batch(make_batch(late))
    assert repr(observable(batched)) == before
    # Probe by probe the same stream raises too, at the same probe —
    # after having taken the probes before it.
    with pytest.raises(ValueError, match="time order") as caught:
        for result in make_batch(late):
            single.ingest(result)
    assert f"{pairs[3]} probes" in str(caught.value)
    # A *lost* probe carries no sample and is never late.
    batched.ingest_batch(make_batch([(pairs[3], now - 3 * INTERVAL, None)]))


def test_recorded_rows_feed_the_analyzer_bit_identically():
    """``decode_probe_rows(encode_probe_rows(batch))``, through JSON
    text, is the batch as far as the analyzer can tell."""
    import json

    steps, _ = stream(seed=11, rounds=60, fast=True)
    config = DetectorConfig(fast_unconnectivity_probes=3, **CONFIG)
    live, replayed = Analyzer(config), Analyzer(config)
    probes = 0
    for step in steps:
        if step[0] == "batch":
            batch = make_batch(step[1])
            rows = json.loads(json.dumps(encode_probe_rows(batch)))
            assert [row[3] is None for row in rows] == batch.lost.tolist()
            decoded = decode_probe_rows(rows)
            assert decoded.sent_at.tolist() == batch.sent_at.tolist()
            assert decoded.lost.tolist() == batch.lost.tolist()
            assert repr(decoded.latency_us.tolist()) == repr(
                batch.latency_us.tolist()
            )
            assert live.ingest_batch(batch) == replayed.ingest_batch(
                decoded
            )
            probes += len(decoded)
        elif step[0] == "flush":
            assert live.flush(step[1]) == replayed.flush(step[1])
        else:
            live.reset_pairs_involving([step[1]], step[2])
            replayed.reset_pairs_involving([step[1]], step[2])
        assert_same(live, replayed)
    assert probes > 300 and live.anomalies and live.events
