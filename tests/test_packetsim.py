"""Packet-level cross-validation of the fluid max-min model.

These tests are the evidence behind DESIGN.md's substitution argument:
on small scenarios, steady-state per-flow throughput of a slotted
store-and-forward simulator with per-flow round-robin + backpressure
matches the progressive-filling max-min allocation within a few percent.
"""

import pytest

from repro.routing import Path
from repro.simulation import max_min_rates
from repro.simulation.packetsim import PacketFlow, PacketLevelSimulator
from repro.topology import FatTree, Node, NodeKind, Topology

WARMUP = 3000
WINDOW = 12000


def chain(n_links: int) -> Topology:
    """A path topology h0 - s1 - s2 - ... - hN (unit-capacity links)."""
    topo = Topology("chain")
    topo.add_node(Node("h0", NodeKind.HOST))
    prev = "h0"
    for i in range(1, n_links):
        name = f"s{i}"
        topo.add_node(Node(name, NodeKind.EDGE, index=i))
        topo.add_link(prev, name, capacity=1.0)
        prev = name
    topo.add_node(Node("hN", NodeKind.HOST))
    topo.add_link(prev, "hN", capacity=1.0)
    return topo


def fluid_rates(topo, flows):
    capacities = dict.fromkeys(range(topo.segment_count), 1.0)
    segments = {
        f.flow_id: f.path.segments(topo, f.flow_id) for f in flows
    }
    return max_min_rates(segments, capacities)


def compare(topo, flows, rel=0.08):
    sim = PacketLevelSimulator(topo, flows)
    measured = sim.throughputs(WARMUP, WINDOW)
    expected = fluid_rates(topo, flows)
    for flow in flows:
        assert measured[flow.flow_id] == pytest.approx(
            expected[flow.flow_id], rel=rel, abs=0.02
        ), (
            f"flow {flow.flow_id}: packet-level {measured[flow.flow_id]:.3f} "
            f"vs fluid {expected[flow.flow_id]:.3f}"
        )
    return measured, expected


class TestAgainstFluid:
    def test_single_flow_line_rate(self):
        topo = chain(3)
        flows = [PacketFlow(1, Path(("h0", "s1", "s2", "hN")))]
        measured, _ = compare(topo, flows)
        assert measured[1] == pytest.approx(1.0, rel=0.02)

    def test_two_flows_one_bottleneck(self):
        topo = chain(3)
        flows = [
            PacketFlow(1, Path(("h0", "s1", "s2", "hN"))),
            PacketFlow(2, Path(("h0", "s1", "s2", "hN"))),
        ]
        measured, _ = compare(topo, flows)
        assert measured[1] == pytest.approx(0.5, rel=0.05)

    def test_unequal_maxmin_allocation(self):
        """A,B,C share link1; C continues onto link2 shared with D.
        Max-min: A=B=C=1/3, D=2/3 — the packet simulator must find the
        same split (this is where naive equal-split models go wrong)."""
        topo = Topology("parking-lot")
        for name, kind in (
            ("ha", NodeKind.HOST),
            ("hb", NodeKind.HOST),
            ("hc", NodeKind.HOST),
            ("hd", NodeKind.HOST),
            ("s1", NodeKind.EDGE),
            ("s2", NodeKind.EDGE),
            ("s3", NodeKind.EDGE),
        ):
            topo.add_node(Node(name, kind))
        topo.add_link("ha", "s1", 1.0)
        topo.add_link("hb", "s1", 1.0)
        topo.add_link("hc", "s1", 1.0)
        topo.add_link("hd", "s2", 1.0)
        topo.add_link("s1", "s2", 1.0)  # link1: A, B, C
        topo.add_link("s2", "s3", 1.0)  # link2: C, D
        flows = [
            PacketFlow(1, Path(("ha", "s1", "s2"))),
            PacketFlow(2, Path(("hb", "s1", "s2"))),
            PacketFlow(3, Path(("hc", "s1", "s2", "s3"))),
            PacketFlow(4, Path(("hd", "s2", "s3"))),
        ]
        measured, expected = compare(topo, flows, rel=0.10)
        assert expected[3] == pytest.approx(1 / 3)
        assert expected[4] == pytest.approx(2 / 3)

    def test_parking_lot_on_fattree(self):
        """Real fat-tree hops: two flows share a host uplink; a third flow
        rides an otherwise-idle path at full rate."""
        tree = FatTree(4)
        for link in tree.links.values():
            link.capacity = 1.0
        from repro.routing import EcmpSelector

        selector = EcmpSelector(tree)
        p1 = selector.select("H.0.0.0", "H.3.0.0", 1)
        p2 = selector.select("H.0.0.0", "H.2.0.0", 2)
        p3 = selector.select("H.1.1.1", "H.0.1.1", 3)
        flows = [PacketFlow(1, p1), PacketFlow(2, p2), PacketFlow(3, p3)]
        measured, expected = compare(tree, flows, rel=0.10)
        assert expected[1] == pytest.approx(0.5)
        assert expected[3] == pytest.approx(1.0)

    def test_queue_capacity_validation(self):
        with pytest.raises(ValueError):
            PacketLevelSimulator(chain(2), [], queue_capacity=0)

    def test_throughput_window_validation(self):
        sim = PacketLevelSimulator(chain(2), [])
        with pytest.raises(ValueError):
            sim.throughputs(-1, 10)
        with pytest.raises(ValueError):
            sim.throughputs(0, 0)
