"""A flow is intact while every link its segments name is operational.

Aspen trees duplicate every aggregation–core link, so a hop can keep a
live link after the one a flow was pinned to fails.  The engine judges
intactness per segment, not per node path: a flow on the failed twin
must move (onto the live twin, or wherever its router sends it) instead
of sending on a dead link.

The probe: on ``AspenTree(4, hosts_per_edge=2)`` flow 1
(``H.0.0.0 → H.1.0.1``) and flow 2 (``H.0.1.0 → H.2.0.1``) carry 1 GB
each from t = 0.  Their only shared hop is the ``A.0.0–C.0`` pair: flow 1
is pinned to link 9 and flow 2 to link 8.  Link 9 fails at t = 0.1 s.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.routing import GlobalOptimalRerouteRouter, StaticEcmpRouter
from repro.simulation import CoflowSpec, FlowSpec, FluidSimulation
from repro.topology import AspenTree, FatTree, NodeKind

ALLOCATORS = ("vectorized", "oracle")
ROUTERS = (StaticEcmpRouter, GlobalOptimalRerouteRouter)
FLOWS = {1: ("H.0.0.0", "H.1.0.1"), 2: ("H.0.1.0", "H.2.0.1")}


class SegmentHistory:
    """Keeps the segment ids of the flows active at each reallocation."""

    def __init__(self):
        self.history = []

    def on_reallocate(self, now, flow_segments, rates):
        self.history.append((now, dict(flow_segments)))


def probe_trace():
    return [
        CoflowSpec(fid, 0.0, (FlowSpec(fid, fid, src, dst, 1e9),))
        for fid, (src, dst) in FLOWS.items()
    ]


def twin_probe(router_cls, allocator):
    tree = AspenTree(4, hosts_per_edge=2)
    trace = probe_trace()
    monitor = SegmentHistory()
    sim = FluidSimulation(
        tree, router_cls(tree), trace, monitor=monitor, allocator=allocator
    )
    sim.fail_link_at(0.1, 9)
    return tree, sim.run(), monitor


def links_of(segments):
    return {seg // 2 for seg in segments}  # segment 2i and 2i + 1: link i


class TestFailedParallelLink:
    def test_probe_pins_the_flows_to_twin_links(self):
        tree = AspenTree(4, hosts_per_edge=2)
        twins = tree.links_between("A.0.0", "C.0")
        assert [link.link_id for link in twins] == [8, 9]
        router = StaticEcmpRouter(tree)
        pins = {
            fid: router.initial_path(src, dst, fid).segments(tree, fid)
            for fid, (src, dst) in FLOWS.items()
        }
        assert not links_of(pins[1]) & links_of(pins[2])
        assert 9 in links_of(pins[1]) and 8 in links_of(pins[2])

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_static_pin_moves_onto_the_live_twin(self, allocator):
        _, result, monitor = twin_probe(StaticEcmpRouter, allocator)
        # 1 Gbit of each flow is sent at 10 Gb/s before the failure; the
        # other 7 Gbit share link 8 at 5 Gb/s each.
        for fid in FLOWS:
            assert result.flows[fid].finish == pytest.approx(1.5)
            assert result.flows[fid].reroutes == 0  # same node path
        after = [segs for now, segs in monitor.history if now >= 0.1]
        assert 8 in links_of(after[0][1]) and 9 not in links_of(after[0][1])

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    def test_global_reroute_moves_the_flow_to_an_idle_route(self, allocator):
        tree, result, monitor = twin_probe(GlobalOptimalRerouteRouter, allocator)
        assert result.flows[1].reroutes == 1
        assert result.flows[2].reroutes == 0
        for fid in FLOWS:
            assert result.flows[fid].finish == pytest.approx(0.8)
        after = [segs for now, segs in monitor.history if now >= 0.1]
        idle = {link.link_id for link in tree.links_between("A.0.1", "C.2")}
        assert links_of(after[0][1]) & idle
        assert not links_of(after[0][1]) & links_of(after[0][2])


class IntactnessMonitor:
    """Asserts at every reallocation that every ACTIVE flow's segments
    name operational links."""

    def __init__(self, topo):
        self.topo = topo

    def on_reallocate(self, now, flow_segments, rates):
        for fid, segments in flow_segments.items():
            dead = [
                seg // 2
                for seg in segments
                if not self.topo.link_is_operational(seg // 2)
            ]
            assert not dead, f"t={now}: flow {fid} is active on dead links {dead}"


@st.composite
def scenarios(draw):
    fabric = draw(st.sampled_from((AspenTree, FatTree)))
    tree = fabric(4)
    hosts = [node.name for node in tree.hosts()]
    trace = []
    for fid in range(1, draw(st.integers(1, 8)) + 1):
        src = draw(st.sampled_from(hosts))
        dst = draw(st.sampled_from([h for h in hosts if h != src]))
        size = draw(st.floats(1e9, 3e9))
        arrival = draw(st.floats(0.0, 0.5))
        flow = FlowSpec(fid, fid, src, dst, size)
        trace.append(CoflowSpec(fid, arrival, (flow,)))
    # Aggregation–core links are the duplicated pairs of an Aspen tree.
    core_links = [
        link.link_id
        for link in tree.links.values()
        if NodeKind.CORE in (tree.nodes[link.a].kind, tree.nodes[link.b].kind)
    ]
    target = st.one_of(
        st.tuples(st.just("link"), st.sampled_from(core_links)),
        st.tuples(st.just("link"), st.sampled_from(sorted(tree.links))),
        st.tuples(
            st.just("node"),
            st.sampled_from([node.name for node in tree.packet_switches()]),
        ),
    )
    # (time, (kind, target), fail?) — False restores the target.
    schedule = draw(
        st.lists(
            st.tuples(st.floats(0.0, 2.0), target, st.booleans()),
            min_size=1,
            max_size=8,
        )
    )
    router_cls = draw(st.sampled_from(ROUTERS))
    return fabric, trace, schedule, router_cls, draw(st.sampled_from(ALLOCATORS))


#: The twin-link probe as one scenario (``AspenTree(4)`` has two hosts
#: per edge switch).
PROBE = (
    AspenTree,
    probe_trace(),
    [(0.1, ("link", 9), True)],
    StaticEcmpRouter,
    "vectorized",
)


@settings(max_examples=60, deadline=None)
@given(scenarios())
@example(PROBE)
def test_active_flows_only_cross_operational_links(scenario):
    fabric, trace, schedule, router_cls, allocator = scenario
    tree = fabric(4)
    sim = FluidSimulation(
        tree,
        router_cls(tree),
        trace,
        horizon=6.0,
        monitor=IntactnessMonitor(tree),
        allocator=allocator,
    )
    for time, (kind, target), fail in schedule:
        if kind == "link":
            (sim.fail_link_at if fail else sim.restore_link_at)(time, target)
        else:
            (sim.fail_node_at if fail else sim.restore_node_at)(time, target)
    sim.run()
