"""Tests for the recovery control-plane service.

Covers the event bus, the failure-group resolver, the service loops
(report-driven and scan-driven paths) under a virtual clock, and the
REST/streaming API over real loopback sockets.
"""

import asyncio
import json

import pytest

from repro.core.controller import ShareBackupController
from repro.core.sharebackup import ShareBackupNetwork
from repro.rng import derive_seed
from repro.service import (
    EventBus,
    FailureGroupResolver,
    FailureReport,
    Heartbeat,
    PendingFailure,
    RecoveryService,
    ServiceAPI,
    ServiceConfig,
    VirtualClock,
    percentile,
)


def make_stack(k=4, n=1, seed=11, config=None):
    net = ShareBackupNetwork(k, n)
    controller = ShareBackupController(
        net, degrade_to_reroute=True, rng=derive_seed(seed, "controller")
    )
    clock = VirtualClock()
    service = RecoveryService(controller, clock=clock, config=config)
    return net, controller, clock, service


def first_slot(net):
    group = net.groups[sorted(net.groups)[0]]
    return sorted(group.logical_slots)[0]


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------


class TestPercentile:
    def test_nearest_rank_quotes_observed_values(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.999) == 100.0
        assert percentile(values, 1.0) == 100.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.999) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


# ----------------------------------------------------------------------
# event bus
# ----------------------------------------------------------------------


class TestEventBus:
    def test_publish_stamps_sequence_and_fans_out(self):
        async def scenario():
            bus = EventBus()
            a = bus.subscribe()
            b = bus.subscribe()
            bus.publish({"type": "x"})
            bus.publish({"type": "y"})
            got_a = [await a.next_event(), await a.next_event()]
            got_b = [await b.next_event(), await b.next_event()]
            return got_a, got_b, bus.published

        got_a, got_b, published = asyncio.run(scenario())
        assert [e["seq"] for e in got_a] == [0, 1]
        assert got_a == got_b
        assert published == 2

    def test_slow_subscriber_drops_oldest_and_counts(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe(maxsize=2)
            for index in range(5):
                bus.publish({"type": "tick", "index": index})
            survivors = [await sub.next_event(), await sub.next_event()]
            return sub.dropped, [e["index"] for e in survivors]

        dropped, survivors = asyncio.run(scenario())
        assert dropped == 3
        assert survivors == [3, 4]  # the newest two survive

    def test_close_ends_streams_after_backlog(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe()
            bus.publish({"type": "last"})
            bus.close()
            first = await sub.next_event()
            second = await sub.next_event()
            late = bus.subscribe()
            return first, second, await late.next_event()

        first, second, late = asyncio.run(scenario())
        assert first == {"type": "last", "seq": 0}
        assert second is None
        assert late is None  # subscribing to a closed bus ends immediately

    def test_async_iteration_drains_until_close(self):
        async def scenario():
            bus = EventBus()
            sub = bus.subscribe()

            async def producer():
                for index in range(3):
                    bus.publish({"index": index})
                    await asyncio.sleep(0)
                bus.close()

            task = asyncio.ensure_future(producer())
            seen = [event["index"] async for event in sub]
            await task
            return seen

        assert asyncio.run(scenario()) == [0, 1, 2]


# ----------------------------------------------------------------------
# resolver
# ----------------------------------------------------------------------


class TestResolver:
    def build(self, k=4, n=1):
        net = ShareBackupNetwork(k, n)
        controller = ShareBackupController(
            net, degrade_to_reroute=True, rng=derive_seed(3, "controller")
        )
        clock = VirtualClock()
        decisions, errors = [], []
        resolver = FailureGroupResolver(
            controller,
            clock,
            on_decision=decisions.append,
            on_error=lambda pending, exc: errors.append((pending, exc)),
        )
        return net, resolver, decisions, errors

    def test_independent_groups_resolve_in_sorted_group_order(self):
        net, resolver, decisions, errors = self.build()
        group_ids = sorted(net.groups)
        slots = [
            sorted(net.groups[gid].logical_slots)[0] for gid in group_ids[:2]
        ]

        async def scenario():
            for slot in reversed(slots):  # submission order != group order
                resolver.submit(
                    PendingFailure(kind="node", logical=slot,
                                   detected_at=0.0)
                )
            return await resolver.resolve_backlog()

        resolved = asyncio.run(scenario())
        assert resolved == 2
        assert not errors
        assert [d.logical for d in decisions] == slots  # sorted group order
        assert [d.seq for d in decisions] == [0, 1]
        assert {d.group for d in decisions} == set(group_ids[:2])
        assert all(d.outcome == "recovered" for d in decisions)
        assert all(d.latency >= 0.0 for d in decisions)

    def test_same_group_resolves_in_detection_order(self):
        net, resolver, decisions, errors = self.build(k=6, n=2)
        group = net.groups[sorted(net.groups)[0]]
        slots = sorted(group.logical_slots)[:2]

        async def scenario():
            resolver.submit(
                PendingFailure(kind="node", logical=slots[1],
                               detected_at=1.0)
            )
            resolver.submit(
                PendingFailure(kind="node", logical=slots[0],
                               detected_at=2.0)
            )
            await resolver.resolve_backlog()

        asyncio.run(scenario())
        assert not errors
        # Later-submitted but earlier-detected failures commit first.
        assert [d.detected_at for d in decisions] == [1.0, 2.0]
        assert [d.logical for d in decisions] == [slots[1], slots[0]]

    def test_unknown_device_is_journalled_not_fatal(self):
        net, resolver, decisions, errors = self.build()

        async def scenario():
            resolver.submit(
                PendingFailure(kind="node", logical="Z.9.9",
                               detected_at=0.0)
            )
            resolver.submit(
                PendingFailure(kind="node", logical=first_slot(net),
                               detected_at=0.0)
            )
            await resolver.resolve_backlog()

        asyncio.run(scenario())
        assert len(errors) == 1
        assert errors[0][0].logical == "Z.9.9"
        # The poisoned report did not take the valid one down with it.
        assert len(decisions) == 1
        assert decisions[0].outcome == "recovered"

    def test_link_group_key_between_hosts_is_hosts(self):
        net, resolver, decisions, errors = self.build()
        pending = PendingFailure(
            kind="link",
            end_a=("H.0.0", ("eth0",)),
            end_b=("H.0.1", ("eth0",)),
        )
        assert resolver._group_key(pending) == "hosts"

    def test_rejects_negative_batch_window(self):
        net, _, _, _ = self.build()
        controller = ShareBackupController(net)
        with pytest.raises(ValueError):
            FailureGroupResolver(
                controller,
                VirtualClock(),
                on_decision=lambda d: None,
                on_error=lambda p, e: None,
                batch_window=-0.1,
            )


# ----------------------------------------------------------------------
# the service under a virtual clock
# ----------------------------------------------------------------------


class TestRecoveryService:
    def test_report_path_produces_a_decision(self):
        net, controller, clock, service = make_stack()
        slot = first_slot(net)

        async def scenario():
            sub = service.bus.subscribe()
            await service.start()
            assert service.submit_failure(
                FailureReport(kind="node", logical=slot, reported_at=0.0)
            )
            await clock.run_until(0.0)
            events = []
            while sub._items:
                events.append(await sub.next_event())
            await service.stop()
            return events

        events = asyncio.run(scenario())
        assert len(service.decisions) == 1
        decision = service.decisions[0]
        assert decision.logical == slot
        assert decision.source == "report"
        assert decision.outcome == "recovered"
        assert decision.replaced  # a spare took over
        assert decision.recovery_time > 0.0
        kinds = [e["type"] for e in events]
        assert "service-started" in kinds
        assert "decision" in kinds

    def test_scan_path_detects_at_the_controller_deadline(self):
        net, controller, clock, service = make_stack()
        slot = first_slot(net)
        dead_physical = net.serving_switch(slot)
        death = 0.0123
        interval = controller.timing.probe_interval
        horizon = controller.detection_deadline(death) + 2 * interval

        async def fleet():
            while True:
                now = clock.now()
                boundary = (int(now / interval + 1e-9) + 1) * interval
                await clock.sleep(boundary - now)
                now = clock.now()
                for physical in sorted(net.physical_health):
                    if not net.physical_health[physical]:
                        continue
                    if physical == dead_physical and now >= death:
                        continue
                    service.submit_heartbeat(Heartbeat(physical, now))

        async def scenario():
            await service.start()
            task = asyncio.ensure_future(fleet())
            await clock.run_all(horizon)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await service.stop()

        asyncio.run(scenario())
        expected = controller.detection_deadline(death)
        assert service.detections == [(dead_physical, pytest.approx(expected))]
        assert len(service.decisions) == 1
        decision = service.decisions[0]
        assert decision.source == "scan"
        assert decision.logical == slot
        assert decision.detected_at == pytest.approx(expected)
        # No re-detection at later boundaries despite continued silence.
        assert service.metrics()["detections"] == 1

    def test_synthetic_fleet_heartbeats_go_to_the_registry(self):
        net, controller, clock, service = make_stack()

        async def scenario():
            await service.start()
            service.fleet.register_many("sw-", 4)
            for index in range(4):
                service.submit_heartbeat(Heartbeat(f"sw-{index}", 0.0))
            service.submit_heartbeat(Heartbeat("sw-unregistered", 0.0))
            await clock.settle()
            await service.stop()

        asyncio.run(scenario())
        assert len(service.fleet) == 4  # the registry is closed
        assert service.fleet.heartbeats_recorded == 4
        assert service.fleet.heartbeats_unknown == 1
        assert service.fleet.last_seen("sw-0") == 0.0
        assert service.fleet.last_seen("sw-unregistered") is None

    def test_one_drain_stamps_fleet_and_owned_heartbeats_at_the_instant(self):
        # Park the scan so only heartbeats touch the liveness books.
        net, controller, clock, service = make_stack(
            config=ServiceConfig(scan_interval=3600.0)
        )
        owned = sorted(net.physical_health)[:3]
        # As if the scan had already dispatched all three.
        service._handled.update(owned)
        instant = 0.0042
        mix = ["sw-0", owned[0], "sw-1", "sw-new", owned[1], "sw-0"]

        async def scenario():
            await service.start()
            service.fleet.register_many("sw-", 2)
            await clock.run_until(instant)
            for switch in mix:
                service.submit_heartbeat(Heartbeat(switch, None))
            await clock.settle()
            await service.stop()

        asyncio.run(scenario())
        fleet = service.fleet
        assert fleet.heartbeats_recorded == 3
        assert fleet.heartbeats_unknown == 1  # sw-new is counted, not stored
        assert len(fleet) == 2
        for switch in ("sw-0", "sw-1"):
            assert fleet.last_seen(switch) == instant
        assert fleet.last_seen("sw-new") is None
        assert controller._last_heartbeat[owned[0]] == instant
        assert controller._last_heartbeat[owned[1]] == instant
        assert controller._last_heartbeat[owned[2]] == 0.0
        # Heartbeating owned switches are eligible for detection again.
        assert service._handled == {owned[2]}
        counters = service.heartbeats.counters
        assert counters.submitted == counters.dequeued == len(mix)
        assert counters.rejected == counters.dropped_oldest == 0
        assert len(service.heartbeats) == 0

    def test_metrics_snapshot_is_json_safe_and_consistent(self):
        net, controller, clock, service = make_stack()
        slot = first_slot(net)

        async def scenario():
            await service.start()
            service.submit_failure(
                FailureReport(kind="node", logical=slot, reported_at=0.0)
            )
            await clock.run_until(0.0)
            metrics = service.metrics()
            await service.stop()
            return metrics

        metrics = asyncio.run(scenario())
        json.dumps(metrics)  # JSON-safe end to end
        assert metrics["decisions"] == 1
        assert metrics["errors"] == 0
        assert metrics["report_queue"]["submitted"] == 1
        assert metrics["report_queue"]["dequeued"] == 1
        assert metrics["latency"] is not None
        assert metrics["outcomes"] == {"recovered": 1}

    def test_double_start_is_an_error_and_stop_is_idempotent(self):
        net, controller, clock, service = make_stack()

        async def scenario():
            await service.start()
            with pytest.raises(RuntimeError):
                await service.start()
            await service.stop()
            await service.stop()  # no-op, no raise

        asyncio.run(scenario())
        assert not service.started

    def test_latency_summary_none_without_decisions(self):
        _, _, _, service = make_stack()
        assert service.latency_summary() is None
        assert service.outcome_counts() == {}


# ----------------------------------------------------------------------
# the REST + streaming API (real loopback sockets)
# ----------------------------------------------------------------------


async def http_request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return status, json.loads(raw) if raw.strip() else None


class TestServiceAPI:
    def run_with_api(self, scenario, config=None):
        async def driver():
            net = ShareBackupNetwork(4, 1)
            controller = ShareBackupController(
                net,
                degrade_to_reroute=True,
                rng=derive_seed(5, "controller"),
            )
            service = RecoveryService(controller, config=config)
            api = ServiceAPI(service)
            await service.start()
            await api.start()
            try:
                return await asyncio.wait_for(
                    scenario(net, service, api), timeout=30
                )
            finally:
                await api.stop()
                await service.stop()

        return asyncio.run(driver())

    def test_healthz_and_unknown_routes(self):
        async def scenario(net, service, api):
            ok = await http_request(api.host, api.port, "GET", "/healthz")
            missing = await http_request(api.host, api.port, "GET", "/nope")
            bad_method = await http_request(
                api.host, api.port, "PUT", "/healthz"
            )
            return ok, missing, bad_method

        ok, missing, bad_method = self.run_with_api(scenario)
        assert ok[0] == 200 and ok[1]["status"] == "ok"
        assert missing[0] == 404
        assert bad_method[0] == 405

    def test_failure_post_drives_a_decision(self):
        async def scenario(net, service, api):
            slot = first_slot(net)
            status, body = await http_request(
                api.host, api.port, "POST", "/failures",
                {"kind": "node", "logical": slot},
            )
            assert status == 202 and body["accepted"]
            while not service.decisions:
                await asyncio.sleep(0.001)
            listed = await http_request(
                api.host, api.port, "GET", "/decisions"
            )
            metrics = await http_request(
                api.host, api.port, "GET", "/metrics"
            )
            return slot, listed, metrics

        # Park the boundary scan: no switch heartbeats in this test, so a
        # scan at the first probe boundary would condemn all of them.
        slot, (status, listed), (mstatus, metrics) = self.run_with_api(
            scenario, config=ServiceConfig(scan_interval=3600.0)
        )
        assert status == 200
        assert listed["total"] == 1
        assert listed["decisions"][0]["logical"] == slot
        assert listed["decisions"][0]["outcome"] == "recovered"
        assert mstatus == 200 and metrics["decisions"] == 1

    def test_heartbeat_post_accepts_batches(self):
        async def scenario(net, service, api):
            service.fleet.register_many("sw-", 4)
            status, body = await http_request(
                api.host, api.port, "POST", "/heartbeats",
                {"switches": ["sw-0", "sw-1", "sw-2"]},
            )
            single = await http_request(
                api.host, api.port, "POST", "/heartbeats",
                {"switch": "sw-3"},
            )
            while service.fleet.heartbeats_recorded < 4:
                await asyncio.sleep(0.001)
            return status, body, single

        status, body, (sstatus, _) = self.run_with_api(scenario)
        assert status == 202
        assert body == {"accepted": 3, "submitted": 3}
        assert sstatus == 202

    def test_unknown_heartbeat_names_are_counted_not_stored(self):
        async def scenario(net, service, api):
            fleet = service.fleet
            fleet.register_many("sw-", 2)
            junk = [f"junk-{index}" for index in range(100)]
            await http_request(
                api.host, api.port, "POST", "/heartbeats",
                {"switches": [*junk, "sw-0"]},
            )
            while fleet.heartbeats_recorded + fleet.heartbeats_unknown < 101:
                await asyncio.sleep(0.001)
            return await http_request(api.host, api.port, "GET", "/metrics")

        # Park the boundary scan: the owned switches never heartbeat here.
        status, metrics = self.run_with_api(
            scenario, config=ServiceConfig(scan_interval=3600.0)
        )
        assert status == 200
        assert metrics["fleet_switches"] == 2
        assert metrics["fleet_unknown_heartbeats"] == 100

    def test_backpressure_surfaces_as_429(self):
        # An unstarted service never drains, so the reject policy and
        # the 429 mapping can be observed deterministically.
        async def driver():
            net = ShareBackupNetwork(4, 1)
            controller = ShareBackupController(net)
            service = RecoveryService(
                controller,
                config=ServiceConfig(report_queue_size=1),
            )
            api = ServiceAPI(service)
            await api.start()
            slot = first_slot(net)
            body = {"kind": "node", "logical": slot}
            try:
                first = await http_request(
                    api.host, api.port, "POST", "/failures", body
                )
                second = await http_request(
                    api.host, api.port, "POST", "/failures", body
                )
            finally:
                await api.stop()
            return first, second

        first, second = asyncio.run(driver())
        assert first[0] == 202
        assert second[0] == 429
        assert second[1]["rejected"] == 1

    def test_malformed_requests_get_400(self):
        async def scenario(net, service, api):
            bad_kind = await http_request(
                api.host, api.port, "POST", "/failures",
                {"kind": "cosmic-ray"},
            )
            no_body = await http_request(
                api.host, api.port, "POST", "/failures"
            )
            bad_link = await http_request(
                api.host, api.port, "POST", "/failures",
                {"kind": "link", "end_a": ["A.0.0", ["p0"]]},
            )
            bad_hb = await http_request(
                api.host, api.port, "POST", "/heartbeats",
                {"switches": "not-a-list"},
            )
            return bad_kind, no_body, bad_link, bad_hb

        responses = self.run_with_api(scenario)
        assert [r[0] for r in responses] == [400, 400, 400, 400]

    def test_events_stream_carries_decisions_live(self):
        async def scenario(net, service, api):
            reader, writer = await asyncio.open_connection(
                api.host, api.port
            )
            writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            slot = first_slot(net)
            await http_request(
                api.host, api.port, "POST", "/failures",
                {"kind": "node", "logical": slot},
            )
            decision = None
            while decision is None:
                event = json.loads(await reader.readline())
                if event["type"] == "decision":
                    decision = event
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            return slot, decision

        # Park the boundary scan, as in test_failure_post_drives_a_decision:
        # nothing heartbeats here, so a scan could fail the posted slot
        # over (as part of the whole silent fabric) before the report.
        slot, decision = self.run_with_api(
            scenario, config=ServiceConfig(scan_interval=3600.0)
        )
        assert decision["logical"] == slot
        assert decision["outcome"] == "recovered"
        assert "seq" in decision and "latency" in decision
