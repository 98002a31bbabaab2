"""Property: merged shard votes equal the single-shard vote table.

For any shard count, chunking, and mid-run failover, the coordinator's
merged tomography vote table — and the event set behind it — must be
exactly what a single-shard plane produces for the same seed.  This is
the sharded plane's core invariant, stated as a hypothesis property
over (seed, shard count, chunk size, kill schedule).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import run_plane

from tests.shard.conftest import small_spec

_BASELINES = {}


def _baseline(seed):
    if seed not in _BASELINES:
        _BASELINES[seed] = run_plane(
            small_spec(seed=seed), 1, chunk_rounds=3
        )
    return _BASELINES[seed]


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
    baseline = _baseline(seed)
    candidate = run_plane(
        small_spec(seed=seed),
        num_shards,
        chunk_rounds=chunk_rounds,
        kill_schedule=kill_schedule,
    )
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
        candidate.vote_table.as_dict()
        == baseline.vote_table.as_dict()
    )
    assert (
        candidate.vote_table.event_count()
        == baseline.vote_table.event_count()
        == len(baseline.events)
    )
