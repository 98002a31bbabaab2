"""Property: a sharded plane's events and verdicts equal one shard's.

For any shard count, chunking, and mid-run failover, the coordinator's
merged event set must be exactly what a single-shard plane produces
for the same seed at a fixed chunking, and the verdicts its one
localizer votes from those events must be exactly the single-shard
verdicts at the same chunking (a chunk's end is when its fresh events
are localized).  This is the sharded plane's core invariant,
stated as a hypothesis property over (seed, shard count, chunk size,
kill schedule).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardCoordinator

from tests.shard.conftest import small_spec

_BASELINES = {}


def _baseline(seed, chunk_rounds):
    if (seed, chunk_rounds) not in _BASELINES:
        _BASELINES[seed, chunk_rounds] = ShardCoordinator(
            small_spec(seed=seed), 1, chunk_rounds=chunk_rounds
        ).run()
    return _BASELINES[seed, chunk_rounds]


@st.composite
def planes(draw):
    """A shard count, a chunking, and a kill schedule: any subset of
    the shards that leaves one survivor, each at any chunk."""
    num_shards = draw(st.integers(min_value=2, max_value=4))
    chunk_rounds = draw(st.integers(min_value=2, max_value=6))
    chunks = -(-small_spec().total_rounds // chunk_rounds)
    victims = draw(st.sets(
        st.integers(min_value=0, max_value=num_shards - 1),
        max_size=num_shards - 1,
    ))
    kill_schedule = {
        shard_id: draw(st.integers(min_value=1, max_value=chunks))
        for shard_id in sorted(victims)
    }
    return num_shards, chunk_rounds, kill_schedule


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2), plane=planes())
def test_merged_votes_equal_single_shard_table(seed, plane):
    num_shards, chunk_rounds, kill_schedule = plane
    baseline = _baseline(seed, 3)
    candidate = ShardCoordinator(
        small_spec(seed=seed),
        num_shards,
        chunk_rounds=chunk_rounds,
        kill_schedule=kill_schedule,
    ).run()
    assert {
        shard_id for shard_id, status in candidate.statuses.items()
        if not status.alive
    } == set(kill_schedule)
    assert {m.from_worker for m in candidate.reassignments} == {
        shard_id for shard_id in kill_schedule
        if candidate.statuses[shard_id].units
    }
    assert candidate.event_summary() == baseline.event_summary()
    assert (
        candidate.metrics.counters().get("events.opened", 0)
        == len(baseline.events)
    )
    assert (
        candidate.verdict_summary()
        == _baseline(seed, chunk_rounds).verdict_summary()
    )
