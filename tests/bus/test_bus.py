"""Tests for the in-process telemetry bus (topics, ring buffers,
subscriptions)."""

import pytest

from repro.bus.core import TelemetryBus, Topic


class TestPublish:
    def test_records_are_stamped_and_enveloped(self):
        bus = TelemetryBus()
        record = bus.publish(Topic.ROUND, sim_time=4.0, sent=3, lost=1)
        assert record["topic"] == Topic.ROUND
        assert record["sim_time"] == 4.0
        assert record["data"] == {"sent": 3, "lost": 1}
        assert record["seq"] == 1

    def test_seq_is_global_across_topics(self):
        bus = TelemetryBus()
        first = bus.publish(Topic.ROUND)
        second = bus.publish(Topic.VERDICTS)
        third = bus.publish(Topic.ROUND)
        assert [first["seq"], second["seq"], third["seq"]] == [1, 2, 3]
        assert bus.published == 3

    def test_history_is_per_topic_in_order(self):
        bus = TelemetryBus()
        bus.publish(Topic.ROUND, n=1)
        bus.publish(Topic.VERDICTS, n=2)
        bus.publish(Topic.ROUND, n=3)
        rounds = bus.history(Topic.ROUND)
        assert [r["data"]["n"] for r in rounds] == [1, 3]
        assert bus.latest(Topic.VERDICTS)["data"]["n"] == 2
        assert bus.latest(Topic.EVENTS) is None

    def test_ring_buffer_drops_oldest_and_counts(self):
        bus = TelemetryBus(history=2)
        for n in range(5):
            bus.publish(Topic.ROUND, n=n)
        kept = [r["data"]["n"] for r in bus.history(Topic.ROUND)]
        assert kept == [3, 4]
        assert bus.dropped == 3
        assert bus.counts()[Topic.ROUND] == 2  # retained occupancy

    def test_history_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryBus(history=0)


class TestSubscriptions:
    def test_wildcard_subscriber_sees_every_topic(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(Topic.ROUND)
        bus.publish(Topic.VERDICTS)
        assert [r["topic"] for r in seen] == [Topic.ROUND, Topic.VERDICTS]

    def test_topic_subscriber_is_filtered(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append, topic=Topic.VERDICTS)
        bus.publish(Topic.ROUND)
        bus.publish(Topic.VERDICTS, ok=True)
        assert len(seen) == 1
        assert seen[0]["data"] == {"ok": True}

    def test_unsubscribe_removes_all_registrations(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.subscribe(seen.append, topic=Topic.ROUND)
        bus.publish(Topic.ROUND)
        assert len(seen) == 2  # wildcard + topic registration
        bus.unsubscribe(seen.append)
        bus.publish(Topic.ROUND)
        assert len(seen) == 2

    def test_subscribing_mid_dispatch_takes_effect_next_publish(self):
        bus = TelemetryBus()
        seen = []

        def late(record):
            seen.append(("late", record["seq"]))

        def first(record):
            seen.append(("first", record["seq"]))
            if record["seq"] == 1:
                bus.subscribe(late)

        bus.subscribe(first)
        bus.publish(Topic.ROUND)
        bus.publish(Topic.ROUND)
        assert seen == [("first", 1), ("first", 2), ("late", 2)]

    def test_unsubscribing_mid_dispatch_takes_effect_next_publish(self):
        bus = TelemetryBus()
        seen = []

        def second(record):
            seen.append(("second", record["seq"]))

        def first(record):
            seen.append(("first", record["seq"]))
            bus.unsubscribe(second)
            bus.unsubscribe(first)

        bus.subscribe(first)
        bus.subscribe(second)
        bus.publish(Topic.ROUND)
        bus.publish(Topic.ROUND)
        assert seen == [("first", 1), ("second", 1)]
        assert bus.published == 2

    def test_publication_without_subscribers_still_buffers(self):
        bus = TelemetryBus()
        bus.publish(Topic.SHARD_HEALTH, shards=[])
        assert Topic.SHARD_HEALTH in bus.topics()


class TestTopicCatalogue:
    def test_all_topics_are_unique_strings(self):
        assert len(set(Topic.ALL)) == len(Topic.ALL)
        assert all(isinstance(t, str) for t in Topic.ALL)

    def test_pipeline_topics_exist(self):
        for name in ("PROBE_REPORTS", "RNIC_SERIES", "GROUND_TRUTH",
                     "BREAKERS", "VERDICTS", "EVENTS", "PINGLIST",
                     "ROUND", "SHARD_HEALTH", "QUARANTINE"):
            assert getattr(Topic, name) in Topic.ALL
