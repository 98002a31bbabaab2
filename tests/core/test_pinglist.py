"""Tests for phased ping-list generation and activation."""

import copy
import dataclasses
import multiprocessing
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.pinglist import PingList, PingListPhase, ProbePair, pair_order


def ep(rank, slot=0, task=0):
    return EndpointId(ContainerId(TaskId(task), rank), slot)


def make_endpoints(num_containers=4, slots=4):
    return [
        ep(rank, slot)
        for rank in range(num_containers)
        for slot in range(slots)
    ]


def rail_of(endpoint):
    return endpoint.slot  # slot == rail on standard hosts


#: Small fields, so pairs tie on every prefix of the key: one task, one
#: container, one endpoint, a whole source.
_endpoints = st.builds(
    ep, st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(ProbePair, _endpoints, _endpoints), max_size=40))
def test_the_int_key_orders_pairs_as_their_comparisons_do(pairs):
    assert sorted(pairs, key=pair_order) == sorted(pairs)


class TestProbePair:
    def test_canonical_is_order_insensitive(self):
        assert ProbePair.canonical(ep(1), ep(0)) == ProbePair.canonical(
            ep(0), ep(1)
        )

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            ProbePair.canonical(ep(0), ep(0))

    def test_other(self):
        pair = ProbePair.canonical(ep(0), ep(1))
        assert pair.other(pair.src) == pair.dst
        assert pair.other(pair.dst) == pair.src
        with pytest.raises(ValueError):
            pair.other(ep(9))


def never_hashed_twin():
    """A plain frozen, ordered dataclass with ``ProbePair``'s name and
    fields: the pair before it carried its hash."""
    return dataclasses.make_dataclass(
        "ProbePair", [("src", EndpointId), ("dst", EndpointId)],
        frozen=True, order=True,
    )


def pair_hashes(pairs):
    """Each pair's hash and its endpoint tuple's, where this runs."""
    return [(hash(pair), hash((pair.src, pair.dst))) for pair in pairs]


#: Pairs in no sorted order, a reversed one among them.
_PAIRS = [
    ProbePair.canonical(ep(2, 1), ep(0, 3)),
    ProbePair(ep(3, 0, task=1), ep(1, 2)),
    ProbePair.canonical(ep(1), ep(0, 2)),
    ProbePair.canonical(ep(0, 1, task=2), ep(0, 0, task=2)),
]


class TestCarriedPairHash:
    """A pair carries its hash, ``hash((src, dst))`` — the value the
    generated ``__hash__`` computes — and is otherwise the generated
    frozen, ordered dataclass."""

    def test_the_hash_is_the_endpoint_tuples(self):
        assert pair_hashes(_PAIRS) == [
            (hash((p.src, p.dst)),) * 2 for p in _PAIRS
        ]

    def test_copies_rebuild_from_the_fields(self):
        for pair in _PAIRS:
            data = pickle.dumps(pair, pickle.HIGHEST_PROTOCOL)
            assert b"_hash" not in data
            for twin in (
                pickle.loads(data), copy.copy(pair), copy.deepcopy(pair)
            ):
                assert twin == pair and hash(twin) == hash(pair)
                assert twin.src is not None and twin.dst is not None

    def test_a_spawned_worker_hashes_what_it_unpickles_as_built_there(self):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            hashes = pool.apply_async(pair_hashes, (_PAIRS,)).get(60)
        assert all(carried == built for carried, built in hashes)
        assert hashes == pair_hashes(_PAIRS)  # int fields: one value

    def test_the_hash_is_no_field(self):
        for pair in _PAIRS:
            str(pair)
            assert [f.name for f in dataclasses.fields(pair)] == [
                "src", "dst",
            ]
            assert set(dataclasses.asdict(pair)) == {"src", "dst"}
            assert "_hash" not in repr(pair) and "_name" not in repr(pair)

    def test_replace_equality_and_order_are_the_generated_ones(self):
        twin_cls = never_hashed_twin()
        twins = [twin_cls(pair.src, pair.dst) for pair in _PAIRS]
        for pair, twin in zip(_PAIRS, twins):
            assert repr(pair) == repr(twin)
            assert hash(pair) == hash(twin)
            moved = dataclasses.replace(pair, dst=pair.src)
            assert type(moved) is ProbePair
            assert hash(moved) == hash((pair.src, pair.src))
            assert (moved.src, moved.dst) == (pair.src, pair.src)
            for other, other_twin in zip(_PAIRS, twins):
                assert (pair == other) == (twin == other_twin)
                assert (pair < other) == (twin < other_twin)
                assert (pair <= other) == (twin <= other_twin)
        assert [twin_cls(p.src, p.dst) for p in sorted(_PAIRS)] == sorted(
            twins
        )
        assert _PAIRS[0] != (_PAIRS[0].src, _PAIRS[0].dst)

    def test_sets_and_dicts_iterate_as_endpoint_tuples_do(self):
        pairs = [
            ProbePair.canonical(a, b)
            for a in make_endpoints(3, 2) for b in make_endpoints(3, 2)
            if a < b
        ][::-1]
        tuples = [(pair.src, pair.dst) for pair in pairs]
        assert [(p.src, p.dst) for p in set(pairs)] == list(set(tuples))
        assert [
            (p.src, p.dst) for p in dict.fromkeys(pairs)
        ] == tuples


class TestFullMesh:
    def test_counts_cross_container_pairs(self):
        endpoints = make_endpoints(4, 4)  # 16 endpoints
        mesh = PingList.full_mesh(endpoints)
        # C(16,2)=120 minus C(4,2)*4=24 intra-container pairs... each
        # container holds 4 endpoints -> C(4,2)=6 intra pairs x 4 = 24.
        assert len(mesh) == 120 - 24
        assert mesh.phase == PingListPhase.FULL_MESH

    def test_no_intra_container_pairs(self):
        mesh = PingList.full_mesh(make_endpoints(3, 2))
        for pair in mesh.pairs:
            assert pair.src.container != pair.dst.container


class TestBasic:
    def test_rail_pruning_factor(self):
        endpoints = make_endpoints(4, 4)
        mesh = PingList.full_mesh(endpoints)
        basic = PingList.basic(endpoints, rail_of)
        assert len(basic) * 4 == len(mesh)

    def test_all_pairs_same_rail(self):
        basic = PingList.basic(make_endpoints(4, 4), rail_of)
        for pair in basic.pairs:
            assert rail_of(pair.src) == rail_of(pair.dst)

    def test_single_container_yields_empty_list(self):
        basic = PingList.basic(make_endpoints(1, 4), rail_of)
        assert len(basic) == 0


class TestSkeletonRestriction:
    def test_restrict_keeps_only_edges(self):
        endpoints = make_endpoints(4, 2)
        basic = PingList.basic(endpoints, rail_of)
        edges = [frozenset((ep(0, 0), ep(1, 0))),
                 frozenset((ep(1, 0), ep(2, 0)))]
        skeleton = basic.restrict_to(edges)
        assert len(skeleton) == 2
        assert skeleton.phase == PingListPhase.SKELETON

    def test_restrict_preserves_registration(self):
        endpoints = make_endpoints(3, 1)
        basic = PingList.basic(endpoints, rail_of)
        basic.register(ContainerId(TaskId(0), 0))
        basic.register(ContainerId(TaskId(0), 1))
        skeleton = basic.restrict_to(
            [frozenset((ep(0, 0), ep(1, 0)))]
        )
        assert skeleton.activation_ratio() == 1.0

    def test_from_edges(self):
        edges = [frozenset((ep(0), ep(1)))]
        ping_list = PingList.from_edges(edges)
        assert len(ping_list) == 1

    def test_from_edges_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            PingList.from_edges([frozenset((ep(0),))])


class TestActivation:
    def test_pairs_inactive_until_both_register(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        pair = next(iter(basic.pairs))
        assert not basic.is_active(pair)
        basic.register(pair.src.container)
        assert not basic.is_active(pair)
        basic.register(pair.dst.container)
        assert basic.is_active(pair)

    def test_activation_ratio_grows_with_registration(self):
        endpoints = make_endpoints(4, 1)
        basic = PingList.basic(endpoints, rail_of)
        ratios = [basic.activation_ratio()]
        for rank in range(4):
            basic.register(ContainerId(TaskId(0), rank))
            ratios.append(basic.activation_ratio())
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0
        assert ratios[-1] == 1.0

    def test_deregister_deactivates(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        for rank in (0, 1):
            basic.register(ContainerId(TaskId(0), rank))
        basic.deregister(ContainerId(TaskId(0), 1))
        assert basic.active_pairs() == []

    def test_empty_list_ratio_zero(self):
        assert PingList().activation_ratio() == 0.0

    def test_crashed_but_registered_destination_stays_a_target(self):
        """Only a graceful exit deregisters; the list knows no other
        container state, so a crashed peer keeps being probed."""
        basic = PingList.basic(make_endpoints(3, 1), rail_of)
        for rank in range(3):
            basic.register(ContainerId(TaskId(0), rank))
        source = ContainerId(TaskId(0), 0)
        assert [p.dst for p in basic.active_pairs_from(source)] == [
            ep(1), ep(2),
        ]
        basic.deregister(ContainerId(TaskId(0), 2))
        assert [p.dst for p in basic.active_pairs_from(source)] == [ep(1)]
        basic.deregister(source)
        assert basic.active_pairs_from(source) == []


def active_pairs_oracle(ping_list):
    """``active_pairs()`` as it was defined before it read the
    by-source rows: filter the whole pair set, sort it."""
    return sorted(p for p in ping_list.pairs if ping_list.is_active(p))


def by_source(ping_list, ranks):
    return [
        pair
        for rank in range(ranks)
        for pair in ping_list.active_pairs_from(ContainerId(TaskId(0), rank))
    ]


class TestFrozenPairs:
    """``pairs`` cannot change under the by-source index: every way of
    getting a different pair set builds a new list."""

    def test_pairs_cannot_be_mutated_in_place(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        given_a_set = PingList(pairs={ProbePair(ep(0), ep(1))})
        for ping_list in (basic, given_a_set):
            assert isinstance(ping_list.pairs, frozenset)
            with pytest.raises(AttributeError):
                ping_list.pairs.add(ProbePair(ep(0), ep(2)))

    def test_every_construction_answers_both_queries_alike(self):
        endpoints = make_endpoints(4, 2)
        basic = PingList.basic(endpoints, rail_of)
        for rank in range(3):  # rank 3 never registers
            basic.register(ContainerId(TaskId(0), rank))
        by_source(basic, 4)  # index built *before* the derived lists
        kept = sorted(basic.pairs)[::2]
        edges = [frozenset((p.src, p.dst)) for p in kept]
        built = {
            "basic": basic,
            "full_mesh": PingList.full_mesh(endpoints),
            "from_edges": PingList.from_edges(edges),
            "restrict_to": basic.restrict_to(edges),
            "replace": replace(basic, pairs=kept),
            "constructor": PingList(pairs=kept),
        }
        for name in ("full_mesh", "from_edges", "constructor"):
            for rank in range(3):
                built[name].register(ContainerId(TaskId(0), rank))
        for name, ping_list in built.items():
            assert ping_list.active_pairs(), name
            assert by_source(ping_list, 4) == ping_list.active_pairs(), name
        for name in ("from_edges", "restrict_to", "replace",
                     "constructor"):
            assert built[name].pairs == frozenset(kept), name
            assert built[name].active_pairs() == [
                p for p in kept if basic.is_active(p)
            ], name

    def test_restrict_to_copies_the_registrations(self):
        basic = PingList.basic(make_endpoints(2, 1), rail_of)
        basic.register(ContainerId(TaskId(0), 0))
        edges = [frozenset((p.src, p.dst)) for p in basic.pairs]
        derived = basic.restrict_to(edges)
        derived.register(ContainerId(TaskId(0), 1))
        assert derived.active_pairs() and not basic.active_pairs()


def slot_mod_rail(endpoint):
    return endpoint.slot % 2  # two slots of a container share a rail


def twin_lists(num_containers=4, slots=4, rail=rail_of):
    """The preload list as its rails, and the same pairs handed to the
    constructor (answers come from the set, as before the rails)."""
    structural = PingList.basic(make_endpoints(num_containers, slots), rail)
    materialised = PingList(
        pairs=PingList.basic(
            make_endpoints(num_containers, slots), rail
        ).pairs,
        phase=PingListPhase.BASIC,
    )
    return structural, materialised


class TestRailStructure:
    """``PingList.basic`` keeps rails, not pairs; every answer must be
    the one the materialised pair set gives."""

    @pytest.mark.parametrize("rail", [rail_of, slot_mod_rail])
    def test_agrees_with_the_materialised_list(self, rail):
        structural, materialised = twin_lists(rail=rail)
        assert "pairs" not in vars(structural)  # nothing built yet
        brute = {
            ProbePair(a, b)
            for a in make_endpoints(4, 4) for b in make_endpoints(4, 4)
            if a < b and a.container != b.container and rail(a) == rail(b)
        }
        assert len(structural) == len(materialised) == len(brute)
        probes = brute | {
            ProbePair(ep(0, 0), ep(1, 1)),   # cross-rail
            ProbePair(ep(1, 0), ep(0, 0)),   # not canonical
            ProbePair(ep(0, 0), ep(0, 2)),   # same container
            ProbePair(ep(0, 0), ep(9, 0)),   # unknown endpoint
            ProbePair(ep(9, 0), ep(9, 1)),
        }
        for pair in probes:
            assert (pair in structural) == (pair in materialised) == (
                pair in brute
            ), pair
        edges = [frozenset((p.src, p.dst)) for p in sorted(probes)[::3]]
        touched = [ep(0, 1), ep(2, 0), ep(9, 0)]
        containers = [ContainerId(TaskId(0), rank) for rank in range(5)]
        steps = [("register", c) for c in containers[:3]] + [
            ("deregister", containers[1]), ("register", containers[3]),
        ]
        for action, container in [("none", None)] + steps:
            for ping_list in (structural, materialised):
                if action != "none":
                    getattr(ping_list, action)(container)
            assert structural.restrict_to(edges) == (
                materialised.restrict_to(edges)
            )
            for source in containers:
                assert structural.active_pairs_from(source) == (
                    materialised.active_pairs_from(source)
                ), (action, source)
            assert structural.pairs_touching(touched) == (
                materialised.pairs_touching(touched)
            )
            assert "pairs" not in vars(structural)
            # The whole-set readers build the pairs once, and agree.
            twin = PingList.basic(make_endpoints(4, 4), rail)
            for c in sorted(structural._registered):
                twin.register(c)
            assert twin.activation_ratio() == (
                materialised.activation_ratio()
            )
            assert twin.active_pairs() == materialised.active_pairs()
            assert twin == materialised
        assert structural.pairs == materialised.pairs == brute
        assert structural == materialised
        assert len(structural) == len(brute)

    def test_pairs_touching_is_the_scan_it_replaces(self):
        structural, materialised = twin_lists(5, 3)
        for touched in ([], [ep(4, 2)], [ep(0, 0), ep(1, 0), ep(1, 1)]):
            want = {
                pair for pair in materialised.pairs
                if pair.src in touched or pair.dst in touched
            }
            assert structural.pairs_touching(touched) == want
            assert materialised.pairs_touching(iter(touched)) == want

    def test_duplicate_endpoints_count_once(self):
        endpoints = make_endpoints(3, 2)
        once = PingList.basic(endpoints, rail_of)
        twice = PingList.basic(endpoints + endpoints[::2], rail_of)
        assert len(twice) == len(once) == len(once.pairs)
        assert twice.pairs == once.pairs

    def test_survives_dataclasses_replace(self):
        structural, materialised = twin_lists()
        structural.register(ContainerId(TaskId(0), 0))
        structural.register(ContainerId(TaskId(0), 2))
        relabelled = replace(structural, phase="shard")
        assert relabelled.pairs == materialised.pairs
        assert relabelled.phase == "shard"
        kept = sorted(materialised.pairs)[::2]
        narrowed = replace(structural, pairs=kept)
        assert narrowed.pairs == frozenset(kept)
        assert len(narrowed) == len(kept)
        assert kept[1] in narrowed and sorted(
            materialised.pairs
        )[1] not in narrowed
        assert by_source(narrowed, 4) == narrowed.active_pairs()

    def test_rows_are_built_per_container_not_per_list(self, monkeypatch):
        built = []
        init = ProbePair.__init__

        def counted(self, src, dst):
            built.append(src.container)
            init(self, src, dst)

        monkeypatch.setattr(ProbePair, "__init__", counted)
        structural, _ = twin_lists(6, 2)
        built.clear()
        for rank in range(6):
            structural.register(ContainerId(TaskId(0), rank))
        source = ContainerId(TaskId(0), 4)
        row = structural.active_pairs_from(source)
        assert len(row) == 2 and len(built) == 2
        assert set(built) == {source}
        assert structural.active_pairs_from(source) == row
        assert len(built) == 2  # the row is kept, not rebuilt

    def test_active_pairs_reads_the_rows_not_the_pair_set(
        self, monkeypatch
    ):
        """The 64 x 8 preload list: ``active_pairs()`` is the by-source
        rows (what the hunter asks for on every round that opens an
        event), so a second call builds no pair and nobody builds the
        16,128-pair set."""
        structural, _ = twin_lists(64, 8)
        containers = [ContainerId(TaskId(0), rank) for rank in range(64)]
        for container in containers[::-1]:      # not in sorted order
            structural.register(container)
        built = []
        init = ProbePair.__init__

        def counted(self, src, dst):
            built.append(src.container)
            init(self, src, dst)

        monkeypatch.setattr(ProbePair, "__init__", counted)
        first = structural.active_pairs()
        assert len(built) == len(first) == len(structural) == 16128
        assert structural.active_pairs() == first
        assert structural.activation_ratio() == 1.0
        assert len(built) == 16128          # zero built the second time
        assert "pairs" not in vars(structural)
        monkeypatch.undo()
        assert first == active_pairs_oracle(structural)
        structural.deregister(containers[5])
        assert structural.active_pairs() == active_pairs_oracle(structural)
        assert structural.activation_ratio() == pytest.approx(
            len(active_pairs_oracle(structural)) / 16128
        )

    def test_activation_ratio_of_an_empty_list_is_zero(self):
        assert PingList().activation_ratio() == 0.0
        assert PingList.basic([], rail_of).activation_ratio() == 0.0
