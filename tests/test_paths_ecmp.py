"""Path enumeration and ECMP selection tests."""

import pytest

from repro.routing import EcmpSelector, Path, enumerate_paths, flow_hash
from repro.routing.paths import DirectedSegment
from repro.topology import F10Tree, FatTree


class TestEnumeration:
    def test_same_edge_single_path(self, ft4):
        paths = enumerate_paths(ft4, "H.0.0.0", "H.0.0.1")
        assert len(paths) == 1 and paths[0].hops == 2

    def test_intra_pod_count(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.0.1.0")
        assert len(paths) == 3  # one per aggregation switch
        assert all(p.hops == 4 for p in paths)

    def test_inter_pod_count(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.5.2.2")
        assert len(paths) == 9  # (k/2)^2 = one per core
        assert all(p.hops == 6 for p in paths)

    def test_inter_pod_paths_cover_all_cores(self, ft6):
        paths = enumerate_paths(ft6, "H.0.0.0", "H.5.2.2")
        cores = {p.nodes[3] for p in paths}
        assert cores == set(ft6.core_switches())

    def test_identical_hosts_rejected(self, ft4):
        with pytest.raises(ValueError):
            enumerate_paths(ft4, "H.0.0.0", "H.0.0.0")

    def test_f10_enumeration_matches_wiring(self):
        f10 = F10Tree(6)
        paths = enumerate_paths(f10, "H.0.0.0", "H.1.0.0")
        assert len(paths) == 9
        for p in paths:
            agg, core, dst_agg = p.nodes[2], p.nodes[3], p.nodes[4]
            assert core in set(f10.neighbors(agg))
            assert dst_agg in set(f10.neighbors(core))

    def test_operational_filter_drops_failed_core(self, ft4):
        ft4.fail_node("C.0")
        paths = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True)
        assert len(paths) == 3
        assert all("C.0" not in p.nodes for p in paths)

    def test_operational_filter_drops_failed_link(self, ft4):
        link = ft4.links_between("E.0.0", "A.0.0")[0]
        ft4.fail_link(link.link_id)
        paths = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True)
        assert all(p.nodes[2] != "A.0.0" for p in paths)
        assert len(paths) == 2

    def test_operational_filter_dead_host_link(self, ft4):
        link = ft4.links_between("H.0.0.0", "E.0.0")[0]
        ft4.fail_link(link.link_id)
        assert enumerate_paths(ft4, "H.0.0.0", "H.1.0.0", operational_only=True) == []

    def test_edge_paths_identity(self, ft4):
        view = EcmpSelector(ft4).static
        assert view.middles("E.0.0", "E.0.0") == [("E.0.0",)]


class TestPathObject:
    def test_segments_directions(self, ft4):
        p = enumerate_paths(ft4, "H.0.0.0", "H.0.0.1")[0]
        segs = p.segments(ft4)
        assert len(segs) == 2
        assert isinstance(segs[0], DirectedSegment)
        # same physical link traversed in both directions on reverse path
        rev = Path(tuple(reversed(p.nodes)))
        rsegs = rev.segments(ft4)
        assert rsegs[0].link_id == segs[1].link_id
        assert rsegs[0].forward != segs[1].forward

    def test_uses_node(self, ft4):
        p = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0")[0]
        assert p.uses_node(p.nodes[3])
        assert not p.uses_node("C.9999")

    def test_is_operational_tracks_failures(self, ft4):
        p = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0")[0]
        assert p.is_operational(ft4)
        ft4.fail_node(p.nodes[3])
        assert not p.is_operational(ft4)


class TestEcmpSelector:
    def test_deterministic(self, ft6):
        s1, s2 = EcmpSelector(ft6), EcmpSelector(ft6)
        for label in range(20):
            a = s1.select("H.0.0.0", "H.3.1.1", label)
            b = s2.select("H.0.0.0", "H.3.1.1", label)
            assert a.nodes == b.nodes

    def test_spreads_over_paths(self, ft8):
        s = EcmpSelector(ft8)
        cores = {
            s.select("H.0.0.0", "H.5.1.1", label).nodes[3] for label in range(200)
        }
        assert len(cores) >= 12  # of 16: hash spread should hit most cores

    def test_flow_hash_stable(self):
        assert flow_hash("a", 1) == flow_hash("a", 1)
        assert flow_hash("a", 1) != flow_hash("a", 2)

    def test_operational_only_avoids_failures(self, ft6):
        s = EcmpSelector(ft6)
        ft6.fail_node("C.0")
        for label in range(30):
            p = s.select("H.0.0.0", "H.3.0.0", label, operational_only=True)
            assert "C.0" not in p.nodes

    def test_invalidate_refreshes_operational_cache(self, ft6):
        s = EcmpSelector(ft6)
        before = len(s.paths("H.0.0.0", "H.3.0.0", operational_only=True))
        ft6.fail_node("C.0")
        s.invalidate()
        after = len(s.paths("H.0.0.0", "H.3.0.0", operational_only=True))
        assert before == 9 and after == 8

    def test_invalidate_keeps_static_cache(self, ft6):
        s = EcmpSelector(ft6)
        s.paths("H.0.0.0", "H.3.0.0")  # static view
        ft6.fail_node("C.0")
        s.invalidate()
        assert len(s.paths("H.0.0.0", "H.3.0.0")) == 9  # unaffected by failures

    def test_none_when_disconnected(self, ft4):
        link = ft4.links_between("H.0.0.0", "E.0.0")[0]
        ft4.fail_link(link.link_id)
        s = EcmpSelector(ft4)
        assert s.select("H.0.0.0", "H.1.0.0", 1, operational_only=True) is None

    def test_select_from_candidates(self, ft4):
        paths = enumerate_paths(ft4, "H.0.0.0", "H.1.0.0")
        pick = EcmpSelector.select_from(paths, 5)
        assert pick in paths
        assert EcmpSelector.select_from([], 5) is None
