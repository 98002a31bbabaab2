"""Tests for underlay physical-intersection (tomography) voting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import LinkId
from repro.cluster.topology import UnderlayPath
from repro.core.tomography import PhysicalIntersection, promote

#: A two-ToR, two-spine rail Clos: every access link of three hosts'
#: two RNICs and every uplink.
_LINKS = [
    LinkId.between(f"host-{h}/rnic-{r}", f"tor-{r}")
    for h in range(3) for r in range(2)
] + [
    LinkId.between(f"tor-{t}", f"spine-{s}")
    for t in range(2) for s in range(2)
]


def path(*devices):
    return UnderlayPath.through(devices)


def pinned(*devices):
    """A pinned traceroute: the one-path distribution."""
    return [path(*devices)]


class TestVoting:
    def test_shared_link_wins(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "spine-0", "tor-1",
                   "host-4/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "spine-0", "tor-1",
                   "host-5/rnic-0"),
            pinned("host-2/rnic-0", "tor-0", "spine-0", "tor-2",
                   "host-8/rnic-0"),
        ]
        result = tomography.vote(failing)
        suspects = {str(s) for s in result.suspects}
        assert "spine-0<->tor-0" in suspects

    def test_single_path_yields_nothing(self):
        # Algorithm 1: every counter <= 1 means no underlay failure.
        tomography = PhysicalIntersection()
        result = tomography.vote([
            pinned("host-0/rnic-0", "tor-0", "host-1/rnic-0")
        ])
        assert not result.found

    def test_exoneration_clears_healthy_links(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "spine-0", "tor-1",
                   "host-4/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "spine-0", "tor-1",
                   "host-5/rnic-0"),
        ]
        # A healthy probe crossed tor-0<->spine-0, so the real culprit
        # must be spine-0<->tor-1.
        healthy = [
            pinned("host-2/rnic-0", "tor-0", "spine-0", "tor-2",
                   "host-8/rnic-0"),
        ]
        result = tomography.vote(failing, healthy, exonerate=True)
        suspects = {str(s) for s in result.suspects}
        assert "spine-0<->tor-1" in suspects
        assert "spine-0<->tor-0" not in suspects

    def test_no_exoneration_for_soft_failures(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "host-1/rnic-0"),
            pinned("host-2/rnic-0", "tor-0", "host-1/rnic-0"),
        ]
        healthy = [pinned("host-3/rnic-0", "tor-0", "host-1/rnic-0")]
        result = tomography.vote(failing, healthy, exonerate=False)
        assert result.found  # lossy links may still pass some probes

    def test_only_the_maximum_count_leads(self):
        tomography = PhysicalIntersection()
        # host-0's access link collects 4 votes, host-1's 3: Algorithm
        # 1's MaxCount keeps the leader alone (the mass rule's tie
        # fraction, 3 >= 0.75 * 4, does not apply to counts).
        failing = [
            pinned("host-0/rnic-0", "tor-0", f"host-{dst}/rnic-0")
            for dst in (1, 1, 1, 2)
        ]
        result = tomography.vote(failing)
        assert [str(s) for s in result.suspects] == [
            "host-0/rnic-0<->tor-0"
        ]

    def test_votes_recorded_per_link(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "host-1/rnic-0"),
            pinned("host-0/rnic-0", "tor-0", "host-2/rnic-0"),
        ]
        result = tomography.vote(failing)
        from repro.cluster.identifiers import LinkId

        votes = result.votes[LinkId.between("host-0/rnic-0", "tor-0")]
        # Whole votes under the count rule: traces and evidence strings
        # print "2 failing paths", not "2.0".
        assert (votes, type(votes)) == (2, int)


class TestPromotion:
    def test_switch_promotion_when_links_meet(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "host-1/rnic-0"),
            pinned("host-0/rnic-0", "tor-0", "host-2/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "host-2/rnic-0"),
        ]
        result = tomography.vote(failing)
        assert result.promoted_kind == "switch"
        assert result.promoted_component == "tor-0"

    def test_lone_access_link_is_its_own_verdict(self):
        # Path evidence cannot tell a dead RNIC from its cable, so a
        # lone top-voted access link is reported as the link.
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-1/rnic-0", "tor-0", "host-0/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "host-2/rnic-0"),
        ]
        result = tomography.vote(failing)
        assert result.found
        assert [str(s) for s in result.suspects] == ["host-1/rnic-0<->tor-0"]
        assert result.promoted_kind is None
        assert result.promoted_component is None
        assert result.blamed_components() == ["host-1/rnic-0<->tor-0"]

    def test_host_promotion_when_leaf_links_share_host(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-1/rnic-0", "tor-0", "host-0/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "host-2/rnic-0"),
            pinned("host-1/rnic-1", "tor-1", "host-0/rnic-1"),
            pinned("host-1/rnic-1", "tor-1", "host-2/rnic-1"),
        ]
        result = tomography.vote(failing)
        assert result.promoted_kind == "host"
        assert result.promoted_component == "host:host-1"

    def test_blamed_components_promotion_first(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-1/rnic-0", "tor-0", "host-0/rnic-0"),
            pinned("host-1/rnic-0", "tor-0", "host-2/rnic-0"),
            pinned("host-1/rnic-1", "tor-1", "host-0/rnic-1"),
            pinned("host-1/rnic-1", "tor-1", "host-2/rnic-1"),
        ]
        result = tomography.vote(failing)
        names = result.blamed_components()
        assert names[0] == "host:host-1"
        assert names[1:] == [
            "host-1/rnic-0<->tor-0", "host-1/rnic-1<->tor-1",
        ]

    @given(st.lists(
        st.sampled_from(_LINKS), min_size=0, max_size=5, unique=True,
    ))
    @settings(max_examples=200, deadline=None)
    def test_promotion_names_only_a_switch_or_a_host(self, links):
        suspects = tuple(sorted(links))
        component, kind = promote(suspects)
        assert kind in ("switch", "host", None)
        assert (component is None) == (kind is None)
        if len(suspects) < 2:
            assert kind is None
        if kind == "host":
            assert component.startswith("host:")


class TestDeviceVote:
    """The PFC-storm shape: no link conclusive, one switch is."""

    def test_disjoint_victim_links_promote_the_shared_switch(self):
        tomography = PhysicalIntersection()
        # Each failing path crosses a *different* link of spine-0 (a
        # pause storm radiating from the spine), so every link counter
        # stays at 1 — but all three paths transit spine-0 itself.
        failing = [
            pinned("host-0/rnic-0", "tor-0", "spine-0", "tor-4",
                   "host-8/rnic-0"),
            pinned("host-1/rnic-1", "tor-1", "spine-0", "tor-5",
                   "host-9/rnic-1"),
            pinned("host-2/rnic-2", "tor-2", "spine-0", "tor-6",
                   "host-10/rnic-2"),
        ]
        result = tomography.vote(failing)
        assert result.found
        assert result.suspects == ()
        assert result.promoted_component == "spine-0"
        assert result.promoted_kind == "switch"

    def test_ambiguous_device_vote_yields_nothing(self):
        tomography = PhysicalIntersection()
        # Two corridors through two different spines, two paths each:
        # spine-0 and spine-1 tie, which explains nothing.
        failing = [
            pinned("host-0/rnic-0", "tor-0", "spine-0", "tor-4",
                   "host-8/rnic-0"),
            pinned("host-1/rnic-1", "tor-1", "spine-0", "tor-5",
                   "host-9/rnic-1"),
            pinned("host-2/rnic-2", "tor-2", "spine-1", "tor-6",
                   "host-10/rnic-2"),
            pinned("host-3/rnic-3", "tor-3", "spine-1", "tor-7",
                   "host-11/rnic-3"),
        ]
        result = tomography.vote(failing)
        assert not result.found

    def test_healthy_paths_exonerate_devices_too(self):
        tomography = PhysicalIntersection()
        failing = [
            pinned("host-0/rnic-0", "tor-0", "spine-0", "tor-4",
                   "host-8/rnic-0"),
            pinned("host-1/rnic-1", "tor-1", "spine-0", "tor-5",
                   "host-9/rnic-1"),
        ]
        healthy = [
            pinned("host-2/rnic-2", "tor-2", "spine-0", "tor-6",
                   "host-10/rnic-2"),
        ]
        result = tomography.vote(failing, healthy, exonerate=True)
        assert not result.found


class TestDistributionVote:
    def _corridor(self, src_host, dst_host, spines=4):
        """A sprayed cross-segment distribution over every spine."""
        return [
            path(f"{src_host}/rnic-0", "tor-0", f"spine-{s}", "tor-4",
                 f"{dst_host}/rnic-0")
            for s in range(spines)
        ]

    def test_two_pairs_at_quarter_mass_reach_the_floor(self):
        tomography = PhysicalIntersection()
        # Two sprayed pairs share the tor-0 side: each puts 1/4 mass on
        # tor-0<->spine-s, which is exactly min_mass=0.5 combined — the
        # tuned floor for a 4-way fabric.
        failing = [
            self._corridor("host-0", "host-8"),
            self._corridor("host-1", "host-9"),
        ]
        result = tomography.vote(failing, weighted=True)
        assert result.found

    def test_eight_way_spray_stays_below_the_mass_floor(self):
        tomography = PhysicalIntersection()
        # The same two pairs over eight spines put only 2/8 on each
        # fabric link: under MIN_MASS, so no link is a suspect, and the
        # two ToRs tie in the device fallback.
        failing = [
            self._corridor("host-0", "host-8", spines=8),
            self._corridor("host-1", "host-9", spines=8),
        ]
        result = tomography.vote(failing, weighted=True)
        assert not result.found

    def test_single_pair_access_link_needs_corroboration(self):
        tomography = PhysicalIntersection()
        # Each pair's access links collect full 1.0 mass but only that
        # one failing pair supports them, so they are never suspects —
        # a lone pair must not out-vote fabric links two pairs share.
        failing = [
            self._corridor("host-0", "host-8"),
            self._corridor("host-1", "host-9"),
        ]
        result = tomography.vote(failing, weighted=True)
        access = [
            str(link) for link in result.suspects
            if "/rnic-" in link.a or "/rnic-" in link.b
        ]
        assert access == []

    def test_healthy_mass_discounts_suspects(self):
        tomography = PhysicalIntersection()
        failing = [
            self._corridor("host-0", "host-8"),
            self._corridor("host-1", "host-9"),
        ]
        # Three healthy pairs sprayed over the same corridor push every
        # corridor link's (and transit switch's) failing ratio to 0.4,
        # below ratio_floor — most crossings succeeded, so neither the
        # link vote nor the device fallback may accuse anything.
        healthy = [
            self._corridor("host-2", "host-10"),
            self._corridor("host-3", "host-11"),
            self._corridor("host-4", "host-12"),
        ]
        result = tomography.vote(failing, healthy, weighted=True)
        assert not result.found

    def test_empty_distributions_are_skipped(self):
        tomography = PhysicalIntersection()
        result = tomography.vote([[], []], weighted=True)
        assert not result.found

    def test_votes_carry_failing_mass(self):
        from repro.cluster.identifiers import LinkId

        tomography = PhysicalIntersection()
        failing = [self._corridor("host-0", "host-8", spines=2)]
        result = tomography.vote(failing, weighted=True)
        assert result.votes[
            LinkId.between("host-0/rnic-0", "tor-0")
        ] == 1.0
        assert result.votes[
            LinkId.between("tor-0", "spine-0")
        ] == 0.5

    def test_device_fallback_promotes_storm_center(self):
        tomography = PhysicalIntersection()
        # Sprayed pairs on disjoint rails: no link collects 0.5 mass
        # from two pairs, but every distribution transits spine-0.
        failing = [
            [path("host-0/rnic-0", "tor-0", "spine-0", "tor-4",
                  "host-8/rnic-0")],
            [path("host-1/rnic-1", "tor-1", "spine-0", "tor-5",
                  "host-9/rnic-1")],
            [path("host-2/rnic-2", "tor-2", "spine-0", "tor-6",
                  "host-10/rnic-2")],
        ]
        result = tomography.vote(failing, weighted=True)
        assert result.promoted_component == "spine-0"
        assert result.promoted_kind == "switch"
