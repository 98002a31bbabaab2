"""Tests for probe results, flow hashing and keyed probe draws."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.network.draws import PairwiseDrawSource, endpoint_text
from repro.network.packet import ProbeResult, flow_hash
from repro.sim.rng import _stable_hash


def ep(rank=0, slot=0):
    return EndpointId(ContainerId(TaskId(0), rank), slot)


class TestProbeResult:
    def test_delivered_needs_latency(self):
        with pytest.raises(ValueError):
            ProbeResult(src=ep(0), dst=ep(1), sent_at=0.0, lost=False)

    def test_lost_cannot_carry_latency(self):
        with pytest.raises(ValueError):
            ProbeResult(
                src=ep(0), dst=ep(1), sent_at=0.0, lost=True,
                latency_us=5.0,
            )

    def test_ok_is_inverse_of_lost(self):
        good = ProbeResult(
            src=ep(0), dst=ep(1), sent_at=0.0, lost=False, latency_us=9.0
        )
        bad = ProbeResult(src=ep(0), dst=ep(1), sent_at=0.0, lost=True)
        assert good.ok and not bad.ok

    def test_underlay_links_empty_without_path(self):
        result = ProbeResult(src=ep(0), dst=ep(1), sent_at=0.0, lost=True)
        assert result.underlay_links() == ()


class TestFlowHash:
    def test_directional(self):
        assert flow_hash(ep(0), ep(1)) != flow_hash(ep(1), ep(0))

    def test_distinct_pairs_differ(self):
        assert flow_hash(ep(0), ep(1)) != flow_hash(ep(0), ep(2))

    def test_64_bit_range(self):
        value = flow_hash(ep(3), ep(4))
        assert 0 <= value < 2 ** 64

    def test_platform_stable_value(self):
        # Pin one concrete value: the hash must never change across
        # versions, or pinned ECMP paths (and tests) silently shift.
        assert flow_hash(ep(0), ep(1)) == flow_hash(ep(0), ep(1))
        assert isinstance(flow_hash(ep(0), ep(1)), int)


def endpoint(task, rank, slot):
    return EndpointId(ContainerId(TaskId(task), rank), slot)


#: (src, dst) -> flow_hash and the pairwise draw key: FNV-1a over
#: "src|dst|0" and "src->dst", generated before the hashes continued
#: from a memoised per-endpoint prefix state.  Every pinned ECMP route
#: and every keyed probe draw hangs off these values.
GOLDEN = [
    ((0, 0, 0), (0, 1, 0), 11785581320376618008, 13234973469051377327),
    ((0, 1, 0), (0, 0, 0), 15987059236184866030, 16458504478536127951),
    ((0, 3, 7), (0, 200, 7), 12454117718378253648, 5812507341865426039),
    ((2, 17, 1), (2, 1023, 5), 13636549726677047593, 12794014958573506754),
    ((11, 255, 3), (11, 256, 3), 17563786598695979200, 16457547591889354963),
]


class TestKeyedStringGoldens:
    @pytest.mark.parametrize("src, dst, fhash, draw_key", GOLDEN)
    def test_flow_hash(self, src, dst, fhash, draw_key):
        src, dst = endpoint(*src), endpoint(*dst)
        assert flow_hash(src, dst) == fhash
        assert flow_hash.__wrapped__(src, dst) == fhash  # not the memo

    @pytest.mark.parametrize("src, dst, fhash, draw_key", GOLDEN)
    def test_pairwise_draw_key(self, src, dst, fhash, draw_key):
        src, dst = endpoint(*src), endpoint(*dst)
        assert int(PairwiseDrawSource(seed=0)._pair_key(src, dst)) == draw_key
        assert int(PairwiseDrawSource(seed=9)._pair_key(src, dst)) == draw_key

    def test_a_hash_continues_from_a_prefix_state(self):
        src = endpoint(2, 17, 1)
        name, state = endpoint_text(src)
        assert name == str(src) == "task-2/node-17/ep-1"
        assert state == _stable_hash(name)
        assert _stable_hash("|x|0", state) == _stable_hash(f"{name}|x|0")


#: Keyed uniform blocks of 4 pairs at widths 5 and 6 and two send times,
#: generated at 30e2f2d by the per-column loop the one-pass block
#: replaced, when probes still carried a key term (``salt``, always 0
#: on the product path; the source now folds that 0 into its seed key).
#: Every probe's fate and RTT hang off these bits.
BLOCKS = json.loads(
    (Path(__file__).parents[1] / "golden" / "pairwise_draw_blocks.json")
    .read_text()
)


class TestKeyedBlockGoldens:
    @pytest.fixture(scope="class")
    def source_and_keys(self):
        source = PairwiseDrawSource(BLOCKS["seed"])
        return source, source.keys_of([
            (endpoint(*src), endpoint(*dst))
            for src, dst in BLOCKS["pairs"]
        ])

    @pytest.mark.parametrize(
        "golden", BLOCKS["blocks"],
        ids=lambda b: f"w{b['width']}-t{b['at']}-s{b['salt']}",
    )
    def test_block_bits(self, source_and_keys, golden):
        source, keys = source_and_keys
        columns = range(golden["width"])
        at = golden["at"]
        assert source.uniforms(keys, at, columns).tolist() == golden["block"]
        # One send time per row keys each row as the scalar time does.
        per_row = source.uniforms(keys, np.full(len(keys), at), columns)
        assert per_row.tolist() == golden["block"]

    def test_a_column_does_not_depend_on_the_others(self, source_and_keys):
        source, keys = source_and_keys
        wide = source.uniforms(keys, 2.0, range(6))
        for columns in ([5], [1, 2], [0, 3, 4], [2, 5, 0]):
            assert (source.uniforms(keys, 2.0, columns)
                    == wide[:, columns]).all()

    def test_rows_carry_their_own_send_times(self, source_and_keys):
        source, keys = source_and_keys
        times = np.array([2.0, 1234.5625, 2.0, 1234.5625])
        mixed = source.uniforms(keys, times, range(6))
        for row, at in enumerate(times):
            alone = source.uniforms(keys[row:row + 1], float(at), range(6))
            assert (mixed[row] == alone[0]).all()
