"""Fluid-simulation engine scenarios with hand-computable outcomes."""

import pytest

from repro.routing import (
    F10LocalRerouteRouter,
    GlobalOptimalRerouteRouter,
    Path,
    StaticEcmpRouter,
)
from repro.simulation import CoflowSpec, FlowSpec, FluidSimulation
from repro.topology import FatTree

GBIT = 1.25e8  # bytes in one Gbit


def coflow(cid, arrival, *flows):
    return CoflowSpec(cid, arrival, tuple(flows))


class TestSpecValidation:
    def test_flow_rejects_zero_size(self):
        with pytest.raises(ValueError):
            FlowSpec(1, 1, "a", "b", 0)

    def test_flow_rejects_self_loop(self):
        with pytest.raises(ValueError):
            FlowSpec(1, 1, "a", "a", 10)

    def test_coflow_rejects_empty(self):
        with pytest.raises(ValueError):
            CoflowSpec(1, 0.0, ())

    def test_coflow_rejects_foreign_flow(self):
        with pytest.raises(ValueError):
            CoflowSpec(1, 0.0, (FlowSpec(1, 2, "a", "b", 10),))

    def test_coflow_width_and_bytes(self):
        c = coflow(1, 0.0, FlowSpec(1, 1, "a", "b", 10), FlowSpec(2, 1, "c", "d", 20))
        assert c.width == 2 and c.total_bytes == 30


class TestSegmentInterning:
    def test_every_link_direction_maps_to_its_own_capacity(self):
        t = FatTree(4)
        t.remove_link(next(iter(t.links)))  # link ids need not be dense
        for index, link in enumerate(t.links.values()):
            link.capacity = float(index + 1)  # distinct: a wrong id shows
        sim = FluidSimulation(t, StaticEcmpRouter(t), [])
        for link in t.links.values():
            # Link i's a -> b direction is segment 2i and b -> a is 2i + 1.
            forward = Path((link.a, link.b)).segments(t)
            backward = Path((link.b, link.a)).segments(t)
            assert (forward, backward) == ((2 * link.link_id,), (2 * link.link_id + 1,))
            assert sim._caps[forward[0]] == sim._caps[backward[0]] == link.capacity

    def test_hop_without_a_link_is_an_error(self):
        t = FatTree(4)
        with pytest.raises(ValueError, match="has no link"):
            Path(("H.0.0.0", "H.1.0.0")).segments(t)


class TestSingleFlow:
    def test_line_rate_completion(self):
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT))],
        )
        res = sim.run()
        assert res.flows[1].finish == pytest.approx(1.0)  # 10 Gbit at 10 Gbps
        assert res.cct(1) == pytest.approx(1.0)

    def test_delayed_arrival(self):
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [coflow(1, 2.5, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT))],
        )
        res = sim.run()
        assert res.flows[1].finish == pytest.approx(3.5)
        assert res.cct(1) == pytest.approx(1.0)  # CCT excludes waiting time

    def test_host_link_is_the_bottleneck(self):
        t = FatTree(4)
        # two flows out of the same host: each gets 5 Gbps
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [
                coflow(
                    1,
                    0.0,
                    FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT),
                    FlowSpec(2, 1, "H.0.0.0", "H.2.0.0", 10 * GBIT),
                )
            ],
        )
        res = sim.run()
        assert res.cct(1) == pytest.approx(2.0)

    def test_work_conservation_after_departure(self):
        """Flow 2 is half the size; after it leaves, flow 1 speeds up:
        both share one host link: rates 5,5; flow2 (5Gbit) done at 1.0;
        flow1 then runs at 10 -> remaining 5Gbit takes 0.5 -> 1.5s."""
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [
                coflow(
                    1,
                    0.0,
                    FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT),
                    FlowSpec(2, 1, "H.0.0.0", "H.2.0.0", 5 * GBIT),
                )
            ],
        )
        res = sim.run()
        assert res.flows[2].finish == pytest.approx(1.0)
        assert res.flows[1].finish == pytest.approx(1.5)


class TestFailuresInEngine:
    def test_global_reroute_transparent_capacity(self):
        t = FatTree(4)
        r = GlobalOptimalRerouteRouter(t)
        sim = FluidSimulation(
            t, r, [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 100 * GBIT))]
        )
        p = r.initial_path("H.0.0.0", "H.3.0.0", 1)
        sim.fail_node_at(5.0, p.nodes[3])
        res = sim.run()
        # rerouting is instant in final-state methodology: no time lost
        assert res.flows[1].finish == pytest.approx(10.0)
        assert res.flows[1].reroutes == 1
        assert res.flows[1].initial_hops == res.flows[1].final_hops == 6

    def test_static_stall_and_resume(self):
        t = FatTree(4)
        r = StaticEcmpRouter(t)
        sim = FluidSimulation(
            t, r, [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 100 * GBIT))]
        )
        p = r.initial_path("H.0.0.0", "H.3.0.0", 1)
        sim.fail_node_at(2.0, p.nodes[2])
        sim.restore_node_at(7.0, p.nodes[2])
        res = sim.run()
        assert res.flows[1].finish == pytest.approx(15.0)
        assert res.flows[1].stalled_time == pytest.approx(5.0)
        assert res.flows[1].reroutes == 0

    def test_horizon_cuts_unfinished(self):
        t = FatTree(4)
        r = StaticEcmpRouter(t)
        sim = FluidSimulation(
            t,
            r,
            [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 100 * GBIT))],
            horizon=4.0,
        )
        p = r.initial_path("H.0.0.0", "H.3.0.0", 1)
        sim.fail_node_at(2.0, p.nodes[2])
        res = sim.run()
        assert res.flows[1].finish is None
        assert not res.coflows[1].completed
        assert res.coflows[1].cct is None
        assert res.flows[1].stalled_time == pytest.approx(2.0)

    def test_f10_dilation_recorded(self):
        t = FatTree(6)
        r = F10LocalRerouteRouter(t)
        sim = FluidSimulation(
            t, r, [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 100 * GBIT))]
        )
        p = r.initial_path("H.0.0.0", "H.3.0.0", 1)
        sim.fail_node_at(5.0, p.nodes[3])  # core dies -> 3-hop detour
        res = sim.run()
        rec = res.flows[1]
        assert rec.dilated
        assert rec.final_hops == rec.initial_hops + 2
        assert rec.finish == pytest.approx(10.0)  # capacity unchanged for 1 flow

    def test_failure_before_arrival_stalls_at_start(self):
        t = FatTree(4)
        r = StaticEcmpRouter(t)
        sim = FluidSimulation(
            t,
            r,
            [coflow(1, 1.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT))],
            horizon=50.0,
        )
        p = r.initial_path("H.0.0.0", "H.3.0.0", 1)
        sim.fail_node_at(0.0, p.nodes[3])
        sim.restore_node_at(11.0, p.nodes[3])
        res = sim.run()
        assert res.flows[1].finish == pytest.approx(12.0)
        assert res.flows[1].stalled_time == pytest.approx(10.0)

    def test_edge_failure_disconnects_under_any_router(self):
        for router_cls in (GlobalOptimalRerouteRouter, F10LocalRerouteRouter):
            t = FatTree(4)
            r = router_cls(t)
            sim = FluidSimulation(
                t,
                r,
                [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT))],
                horizon=30.0,
            )
            sim.fail_node_at(0.5, "E.3.0")
            res = sim.run()
            assert res.flows[1].finish is None, router_cls.__name__


class TestCoflowSemantics:
    def test_cct_is_slowest_flow(self):
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [
                coflow(
                    1,
                    0.0,
                    FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT),
                    FlowSpec(2, 1, "H.1.0.0", "H.2.0.0", 30 * GBIT),
                )
            ],
        )
        res = sim.run()
        assert res.cct(1) == pytest.approx(3.0)

    def test_multiple_coflows_tracked_independently(self):
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [
                coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", 10 * GBIT)),
                coflow(2, 0.5, FlowSpec(2, 2, "H.1.0.0", "H.2.0.0", 10 * GBIT)),
            ],
        )
        res = sim.run()
        assert res.all_completed
        assert res.cct(1) == pytest.approx(1.0)
        assert res.cct(2) == pytest.approx(1.0)

    def test_result_bookkeeping(self):
        t = FatTree(4)
        sim = FluidSimulation(
            t,
            GlobalOptimalRerouteRouter(t),
            [coflow(1, 0.0, FlowSpec(1, 1, "H.0.0.0", "H.3.0.0", GBIT))],
        )
        res = sim.run()
        assert len(res.completed_coflows()) == 1
        assert res.unfinished_coflows() == []
        assert res.events_processed >= 1
        assert res.reallocations >= 1

    def test_deterministic_across_runs(self):
        def run_once():
            t = FatTree(4)
            flows = [
                FlowSpec(i, 1, f"H.0.{i % 2}.{i % 2}", f"H.3.{i % 2}.0", (i + 1) * GBIT)
                for i in range(1, 6)
            ]
            sim = FluidSimulation(
                t, GlobalOptimalRerouteRouter(t), [CoflowSpec(1, 0.0, tuple(flows))]
            )
            res = sim.run()
            return tuple(sorted((fid, r.finish) for fid, r in res.flows.items()))

        assert run_once() == run_once()
