"""The degradation ladder: retries, alternate spares, reroute fallback.

Pins both sides of the contract: the legacy behaviour (default,
``degrade_to_reroute=False``) — halted controllers raise and exhausted
pools strand — and the hardened ladder, where the same situations
degrade to global optimal rerouting with an auditable trail.
"""

import json
from dataclasses import asdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    ControllerCluster,
    DegradationReport,
    DegradationStep,
    HumanInterventionRequired,
    ShareBackupController,
    ShareBackupNetwork,
)
from repro.core.circuit_switch import CircuitSwitchError
from repro.core.watchdog import WatchdogSimulation
from repro.retry import RetryPolicy
from repro.routing import FallbackRouter
from repro.simulation import CoflowSpec, FlowSpec

GBIT = 1.25e8


def drain_pool(net, group):
    """Pull every spare of ``group`` offline (maintenance-style)."""
    while group.spares:
        spare = group.spares.pop()
        group.offline.add(spare)
        net.physical_health[spare] = False


def one_shot_injector():
    """A fault injector raising CircuitSwitchError exactly once."""
    budget = {"remaining": 1}

    def injector(cs, changes):
        if budget["remaining"] > 0:
            budget["remaining"] -= 1
            raise CircuitSwitchError(f"{cs.name}: injected transient fault")

    return injector


# ----------------------------------------------------------------------
# audit-record units
# ----------------------------------------------------------------------


class TestDegradationRecords:
    def test_fast_path_is_not_degraded(self):
        report = DegradationReport(
            kind="node",
            logical="A.0.0",
            time=1.0,
            steps=(DegradationStep("assign-backup", "BA.0.0", 1, "ok"),),
            outcome="recovered",
        )
        assert not report.degraded
        assert report.retries == 0

    def test_retried_recovery_is_degraded(self):
        report = DegradationReport(
            kind="node",
            logical="A.0.0",
            time=1.0,
            steps=(DegradationStep("assign-backup", "BA.0.0", 3, "ok"),),
            outcome="recovered",
        )
        assert report.degraded
        assert report.retries == 2

    def test_alternate_spare_is_degraded(self):
        report = DegradationReport(
            kind="node",
            logical="A.0.0",
            time=1.0,
            steps=(
                DegradationStep("assign-backup", "BA.0.0", 3, "failed"),
                DegradationStep("assign-backup", "BA.0.1", 1, "ok"),
            ),
            outcome="recovered",
        )
        assert report.degraded
        assert report.retries == 2

    def test_dict_roundtrip(self):
        report = DegradationReport(
            kind="link",
            logical="E.1.0",
            time=2.5,
            steps=(
                DegradationStep("allocate-backup", "FG.edge.1", 1, "exhausted"),
                DegradationStep("reroute", "E.1.0", 1, "ok"),
            ),
            outcome="rerouted",
        )
        assert DegradationReport.from_dict(report.to_dict()) == report


steps = st.builds(
    DegradationStep,
    action=st.sampled_from(["assign-backup", "allocate-backup", "reroute"]),
    target=st.text(max_size=12),
    attempts=st.integers(min_value=0, max_value=2**40),
    outcome=st.sampled_from(["ok", "failed", "exhausted", "skipped"]),
    detail=st.text(max_size=40),
)
reports = st.builds(
    DegradationReport,
    kind=st.sampled_from(["node", "link"]),
    logical=st.text(max_size=12),
    time=st.floats(allow_nan=False),
    steps=st.lists(steps, max_size=4).map(tuple),
    outcome=st.sampled_from(["recovered", "rerouted", "stranded"]),
)


@given(reports)
@settings(max_examples=200, deadline=None)
def test_to_dict_matches_the_generic_form_in_order(report):
    """The hand-built dicts equal the dataclass-generic ones, key order
    included (``/events`` serialises them unsorted), and round-trip."""
    reference = {
        "kind": report.kind,
        "logical": report.logical,
        "time": report.time,
        "outcome": report.outcome,
        "steps": [asdict(step) for step in report.steps],
    }
    built = report.to_dict()
    assert built == reference
    assert json.dumps(built) == json.dumps(reference)
    assert DegradationReport.from_dict(built) == report


# ----------------------------------------------------------------------
# rung 1: retried circuit reconfiguration
# ----------------------------------------------------------------------


class TestRetriedReconfiguration:
    def test_transient_fault_is_retried_and_charged(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        group = net.group_of("A.0.0")
        for cs in net.circuit_switches_of(group.group_id):
            cs.fault_injector = one_shot_injector()
            break  # one faulty switch is enough to abort the batch

        report = controller.handle_node_failure("A.0.0")
        assert report.fully_recovered
        # One degradation record: the fast path needed a retry.
        assert len(controller.degradations) == 1
        audit = controller.degradations[0]
        assert audit.outcome == "recovered"
        assert audit.retries == 1
        # The backoff is charged to the recovery latency.
        base = controller.timing.sharebackup("crosspoint").total
        assert report.recovery_time > base
        net.verify_fattree_equivalence()

    def test_clean_recovery_leaves_no_audit_record(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        report = controller.handle_node_failure("A.0.0")
        assert report.fully_recovered
        assert controller.degradations == []

    def test_retry_policy_is_configurable(self):
        net = ShareBackupNetwork(6, n=1)
        # Zero retries: a single transient fault exhausts the spare.
        controller = ShareBackupController(
            net, retry_policy=RetryPolicy(max_retries=0)
        )
        group = net.group_of("A.0.0")
        for cs in net.circuit_switches_of(group.group_id):
            cs.fault_injector = one_shot_injector()
            break
        report = controller.handle_node_failure("A.0.0")
        # n=1: the only spare failed its only attempt -> stranded.
        assert not report.fully_recovered
        assert report.unrecoverable == ("A.0.0",)


# ----------------------------------------------------------------------
# rung 2: the alternate idle spare
# ----------------------------------------------------------------------


class TestAlternateSpare:
    def test_stuck_crosspoints_fall_back_to_next_spare(self):
        net = ShareBackupNetwork(6, n=2)
        controller = ShareBackupController(net)
        group = net.group_of("A.0.0")
        first = group.spares[0]
        for cs in net.circuit_switches_of(group.group_id):
            cs.stuck_ports.update(cs.ports_of_device(first))

        report = controller.handle_node_failure("A.0.0")
        assert report.fully_recovered
        spare = dict(report.replaced)["A.0.0"]
        assert spare != first
        audit = controller.degradations[0]
        outcomes = [(s.target, s.outcome) for s in audit.steps]
        assert outcomes[0] == (first, "failed")
        assert outcomes[1] == (spare, "ok")
        # The jammed spare returned to the pool (hardware is idle and
        # healthy; the circuit switches are to blame), at the tail.
        assert group.spares == [first]
        net.verify_fattree_equivalence()


# ----------------------------------------------------------------------
# rung 3: degradation to global rerouting (and the legacy contracts)
# ----------------------------------------------------------------------


class TestPoolExhaustion:
    def test_legacy_contract_strands_without_raising(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        group = net.group_of("A.0.0")
        drain_pool(net, group)
        report = controller.handle_node_failure("A.0.0")
        assert not report.fully_recovered
        assert report.unrecoverable == ("A.0.0",)
        assert report.degraded == ()

    def test_ladder_degrades_to_reroute(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net, degrade_to_reroute=True)
        group = net.group_of("A.0.0")
        drain_pool(net, group)
        report = controller.handle_node_failure("A.0.0")
        assert not report.fully_recovered
        assert report.unrecoverable == ("A.0.0",)
        assert report.degraded == ("A.0.0",)
        audit = controller.degradations[0]
        assert audit.outcome == "rerouted"
        assert [s.action for s in audit.steps] == ["allocate-backup", "reroute"]


class TestHaltedController:
    def test_legacy_contract_raises(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        controller.halted = True
        with pytest.raises(HumanInterventionRequired):
            controller.handle_node_failure("A.0.0")

    def test_ladder_reroutes_instead_of_raising(self):
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net, degrade_to_reroute=True)
        controller.halted = True
        report = controller.handle_node_failure("A.0.0")
        assert report.degraded == ("A.0.0",)
        audit = controller.degradations[0]
        assert audit.outcome == "rerouted"
        # The backup rung was skipped, not attempted: the circuit
        # switches are suspect, so reconfiguring them would be reckless.
        assert audit.steps[0].outcome == "skipped"
        # The spare pool was never touched.
        assert len(net.group_of("A.0.0").spares) == net.n


# ----------------------------------------------------------------------
# controller cluster: failover re-snapshots circuit intent
# ----------------------------------------------------------------------


class TestClusterResnapshot:
    def test_fail_primary_elects_successor(self):
        cluster = ControllerCluster()
        assert cluster.primary == "ctrl-0"
        assert cluster.elections == 1
        failed = cluster.fail_primary()
        assert failed == "ctrl-0"
        assert cluster.primary == "ctrl-1"
        assert cluster.elections == 2
        cluster.restore_replica("ctrl-0")
        assert cluster.primary == "ctrl-0"

    def test_all_replicas_down_means_unavailable(self):
        cluster = ControllerCluster(replica_ids=("a", "b"))
        cluster.fail_primary()
        cluster.fail_primary()
        assert cluster.fail_primary() is None
        assert not cluster.available

    def test_new_primary_resnapshots_intent(self):
        """Regression: a replica elected mid-recovery must re-derive
        circuit intent from the live network, not trust the snapshot
        replicated from the crashed primary — else a later circuit-switch
        reboot restores pre-failover ghost wiring."""
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        cluster = ControllerCluster(controller=controller)

        group = net.group_of("A.0.0")
        cs = net.circuit_switches_of(group.group_id)[0]
        stale = cs.mapping()
        # Rewire behind the controller's back (models reconfigurations
        # the crashed primary made after its last intent replication).
        net.failover("A.0.0", group.allocate_spare())
        current = cs.mapping()
        assert current != stale

        cluster.fail_primary()  # successor re-snapshots from the live net
        cs.crash()
        controller.circuit_switch_rebooted(cs.name)
        assert cs.mapping() == current

    def test_without_election_the_stale_snapshot_would_win(self):
        """The behaviour the regression test guards against, pinned so
        the re-snapshot keeps mattering."""
        net = ShareBackupNetwork(6, n=1)
        controller = ShareBackupController(net)
        controller.snapshot_intended_configs()  # primary's last replication
        group = net.group_of("A.0.0")
        cs = net.circuit_switches_of(group.group_id)[0]
        stale = cs.mapping()
        net.failover("A.0.0", group.allocate_spare())
        cs.crash()
        controller.circuit_switch_rebooted(cs.name)
        assert cs.mapping() == stale  # no election happened: ghost wiring


# ----------------------------------------------------------------------
# end to end: exhaustion absorbed by rerouting inside the simulation
# ----------------------------------------------------------------------


class TestWatchdogFallback:
    def test_exhausted_pool_degrades_and_traffic_completes(self):
        k = 6
        net = ShareBackupNetwork(k, n=1)
        controller = ShareBackupController(net, degrade_to_reroute=True)
        spec = CoflowSpec(
            1, 0.0, (FlowSpec(1, 1, "H.0.0.0", f"H.{k-1}.0.0", 100 * GBIT),)
        )
        sim = WatchdogSimulation(net, [spec], controller=controller)
        assert isinstance(sim.router, FallbackRouter)

        path = sim.router.initial_path("H.0.0.0", f"H.{k-1}.0.0", 1)
        victim = next(n for n in path.nodes if n.startswith("A."))
        drain_pool(net, net.group_of(victim))
        sim.inject_silent_switch_failure(2.0, victim)

        result = sim.run()
        record = result.flows[1]
        assert record.finish is not None  # rerouting absorbed the slot
        assert sim.router.degraded
        assert sim.reports and sim.reports[0].degraded == (victim,)
        assert controller.degradations[-1].outcome == "rerouted"

    def test_default_controller_keeps_static_router(self):
        net = ShareBackupNetwork(6, n=1)
        spec = CoflowSpec(
            1, 0.0, (FlowSpec(1, 1, "H.0.0.0", "H.5.0.0", 100 * GBIT),)
        )
        sim = WatchdogSimulation(net, [spec])
        assert not isinstance(sim.router, FallbackRouter)
