"""The recovery control-plane service: queues in, decisions out.

:class:`RecoveryService` assembles the subsystem around one
:class:`~repro.core.controller.ShareBackupController`:

* two bounded :class:`~repro.service.ingest.ProbeQueue` front doors —
  heartbeats (``drop-oldest``: redundant by nature) and failure reports
  (``reject``: each one matters, push retries back to the reporter);
* an ingest coroutine per queue, draining greedily so a settled event
  loop means *everything submitted has been acted on*;
* a periodic probe-boundary scan that runs the controller's real
  keep-alive detector (:meth:`detect_silent_switches`) and turns fresh
  silences into resolver work;
* the :class:`~repro.service.resolver.FailureGroupResolver`, committing
  failover group-concurrently and timing every decision;
* an :class:`~repro.service.events.EventBus` publishing decisions,
  degradation reports, and errors as JSON-safe dicts for the
  ``GET /events`` stream and the replay/test drivers.

All waiting goes through one :class:`~repro.service.clock.ServiceClock`,
so the same service instance is deterministic under
:class:`~repro.service.clock.VirtualClock` and honest under
:class:`~repro.service.clock.WallClock`.
"""

from __future__ import annotations

import asyncio
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain
from typing import cast

from ..core.controller import (
    ControllerCluster,
    EpochFencedError,
    ShareBackupController,
)
from .clock import ServiceClock, WallClock
from .events import EventBus
from .federation import ServiceFederation
from .fleet import FleetRegistry
from .ingest import FailureReport, Heartbeat, Probe, ProbeQueue
from .resolver import FailoverDecision, FailureGroupResolver, PendingFailure
from .wal import DecisionWAL

__all__ = ["ServiceConfig", "RecoveryService", "percentile"]

#: Floating-point slack when mapping "now" onto a probe boundary index.
_BOUNDARY_EPS = 1e-9


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method.

    Nearest-rank keeps the answer an *observed* latency — an SLO report
    should never quote an interpolated time nobody experienced.
    """
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`RecoveryService` instance."""

    heartbeat_queue_size: int = 4096
    heartbeat_policy: str = "drop-oldest"
    report_queue_size: int = 1024
    report_policy: str = "reject"
    #: How long the resolver lets correlated losses pile into one batch.
    #: Zero (the default) batches only what is already queued — the right
    #: setting under a virtual clock, where "simultaneous" submissions
    #: share an instant anyway.
    batch_window: float = 0.0
    #: Probe-scan period; ``None`` means the controller's own
    #: ``timing.probe_interval`` (keeping detection arithmetic identical
    #: to the call-driven watchdog).
    scan_interval: float | None = None
    #: Per-subscriber event buffer (oldest events drop beyond it).
    event_buffer: int = 1024


class RecoveryService:
    """Long-lived asyncio control plane over one ShareBackup controller."""

    def __init__(
        self,
        controller: ShareBackupController,
        clock: ServiceClock | None = None,
        config: ServiceConfig | None = None,
        cluster: ControllerCluster | None = None,
        wal: DecisionWAL | None = None,
    ) -> None:
        self.controller = controller
        self.clock: ServiceClock = clock if clock is not None else WallClock()
        self.config = config or ServiceConfig()
        self.heartbeats = ProbeQueue(
            self.config.heartbeat_queue_size, self.config.heartbeat_policy
        )
        self.reports = ProbeQueue(
            self.config.report_queue_size, self.config.report_policy
        )
        self.bus = EventBus()
        self.fleet = FleetRegistry()
        self.federation = ServiceFederation(cluster)
        self.wal = wal
        self.resolver = FailureGroupResolver(
            controller,
            self.clock,
            on_decision=self._record_decision,
            on_error=self._record_error,
            batch_window=self.config.batch_window,
            wal=wal,
            federation=self.federation,
            on_fenced=self._record_fenced,
        )
        #: Audit of commits rejected by epoch fencing, service view.
        self.fencing_rejections: list[dict[str, object]] = []
        #: Chaos-induced primary crashes observed by this service.
        self.primary_crashes: list[dict[str, object]] = []
        self.federation.add_election_listener(self._on_election)
        self.decisions: list[FailoverDecision] = []
        self.errors: list[dict[str, object]] = []
        #: (physical switch, detection time) in scan order.
        self.detections: list[tuple[str, float]] = []
        self.started = False
        self._tasks: list[asyncio.Task[None]] = []
        #: Physicals the scan already dispatched; prevents a slot that
        #: degraded to rerouting (its silence never clears) from being
        #: re-detected at every subsequent boundary.  Analogous to the
        #: watchdog popping ``_silent_since`` when it handles a switch.
        self._handled: set[str] = set()
        self._degradations_published = len(controller.degradations)

    # ==================================================================
    # submission side (synchronous, callable from handlers and loadgen)
    # ==================================================================

    def submit_heartbeat(self, heartbeat: Heartbeat) -> bool:
        """Offer a keep-alive; ``False`` only under a ``reject`` policy."""
        return self.heartbeats.offer(heartbeat)

    def submit_failure(self, report: FailureReport) -> bool:
        """Offer a failure report; ``False`` means backpressure (429)."""
        return self.reports.offer(report)

    # ==================================================================
    # lifecycle
    # ==================================================================

    async def start(self) -> None:
        """Spawn the service coroutines on the running event loop."""
        if self.started:
            raise RuntimeError("service already started")
        self.started = True
        self._tasks = [
            asyncio.ensure_future(coro)
            for coro in (
                self._heartbeat_loop(),
                self._report_loop(),
                self._scan_loop(),
                self.resolver.run(),
            )
        ]
        self.bus.publish(
            {"type": "service-started", "now": self.clock.now()}
        )
        # Cold-start takeover: a restarted service replaying an existing
        # WAL resumes every intent the previous incarnation logged but
        # never committed.  Idempotent — committed keys are skipped at
        # commit time, so starting over the same log twice re-emits
        # nothing.
        resumed = self._resume_incomplete()
        if resumed:
            self.bus.publish(
                {
                    "type": "takeover",
                    "reason": "restart",
                    "resumed": resumed,
                    "epoch": self.federation.epoch,
                    "now": self.clock.now(),
                }
            )

    async def stop(self) -> None:
        """Cancel the coroutines and end every event stream."""
        if not self.started:
            return
        self.started = False
        self.bus.publish({"type": "service-stopped", "now": self.clock.now()})
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self.bus.close()

    # ==================================================================
    # the service coroutines
    # ==================================================================

    async def _heartbeat_loop(self) -> None:
        """Drain the heartbeat queue greedily.

        After the first await each pass empties the whole backlog in one
        synchronous step, so a single settle round observes every
        heartbeat submitted at the current instant — the property the
        boundary scan's determinism rests on.
        """
        while True:
            first = await self.heartbeats.get()
            self._handle_heartbeats(first, self.heartbeats.drain())

    async def _report_loop(self) -> None:
        """Drain failure reports into the resolver, greedily."""
        while True:
            probe = await self.reports.get()
            while probe is not None:
                assert isinstance(probe, FailureReport)
                self.resolver.submit(
                    PendingFailure.from_report(probe, self.clock.now())
                )
                probe = self.reports.get_nowait()  # type: ignore[assignment]

    def _handle_heartbeats(
        self, first: Probe, rest: Iterable[Probe]
    ) -> None:
        """Record one drain's heartbeats, all stamped with one reading.

        The clock is read once per drain, not once per heartbeat: under
        :class:`VirtualClock` time cannot move inside this synchronous
        pass, so the stamp is the one each heartbeat always got; under
        :class:`WallClock` it is the drain's start, which follows every
        drained heartbeat's submission.
        """
        now = self.clock.now()
        owned = self.controller.net.physical_health
        record = self.fleet.record
        for heartbeat in cast("Iterable[Heartbeat]", chain((first,), rest)):
            switch = heartbeat.switch
            if switch not in owned:
                # Not a switch the controller owns: a synthetic fleet
                # member (load generation) — track it service-side.
                record(switch, now)
                continue
            self.controller.heartbeat(switch, now)
            # A switch heartbeating again after a spurious failover
            # (heartbeat loss) is eligible for future detection.
            self._handled.discard(switch)

    async def _scan_loop(self) -> None:
        """Run the keep-alive detector at every probe boundary.

        Boundaries are integer multiples of the probe interval, matching
        :meth:`WatchdogSimulation.detection_deadline` — the reason the
        service path detects at the *identical* instant the call-driven
        path does.
        """
        interval = self._scan_interval()
        while True:
            now = self.clock.now()
            boundary = (
                math.floor(now / interval + _BOUNDARY_EPS) + 1
            ) * interval
            await self.clock.sleep(boundary - now)
            self._scan_once()

    def _scan_interval(self) -> float:
        if self.config.scan_interval is not None:
            return self.config.scan_interval
        return self.controller.timing.probe_interval

    def _scan_once(self) -> None:
        now = self.clock.now()
        for physical in self.controller.detect_silent_switches(now):
            if physical in self._handled:
                continue
            logical = self._logical_of_physical(physical)
            if logical is None:
                continue
            self._handled.add(physical)
            self.detections.append((physical, now))
            self.resolver.submit(
                PendingFailure(
                    kind="node",
                    logical=logical,
                    detected_at=now,
                    source="scan",
                )
            )

    def _logical_of_physical(self, physical: str) -> str | None:
        for group in self.controller.net.groups.values():
            logical = group.logical_of(physical)
            if logical is not None:
                return logical
        return None

    # ==================================================================
    # resolver callbacks
    # ==================================================================

    def _record_decision(self, decision: FailoverDecision) -> None:
        self.decisions.append(decision)
        self.bus.publish(decision.to_dict())
        self._publish_new_degradations()
        # Armed ``service-primary-crash`` faults fire here — synchronously
        # inside the decision callback, i.e. genuinely mid-batch.  The
        # WAL commit for *this* decision already landed (the resolver
        # calls us only once it is logged, and with a file log only once
        # it is fsynced), so the interrupted decision survives; members
        # the batch has not committed yet get fenced and resumed under
        # the new epoch.
        crashed = self.federation.note_decision()
        if crashed is not None:
            self.primary_crashes.append(
                {
                    "type": "primary-crashed",
                    "replica": crashed,
                    "epoch": self.federation.epoch,
                    "now": self.clock.now(),
                }
            )
            self.bus.publish(dict(self.primary_crashes[-1]))

    def _record_fenced(
        self,
        pending: PendingFailure,
        group_id: str,
        seq: int,
        exc: EpochFencedError,
    ) -> None:
        """Audit a fenced commit and requeue the work under the new epoch.

        The resubmitted item carries its original WAL key, so when the
        next batch (running under the fenced-in primary's epoch) reaches
        it, the intent is recognised rather than re-minted — and if a
        concurrent takeover already resumed and committed it, the
        commit-time idempotency guard drops the duplicate.
        """
        record: dict[str, object] = {
            "type": "fencing-rejected",
            "group": group_id,
            "decision_seq": seq,
            "holder_epoch": exc.holder_epoch,
            "current_epoch": exc.current_epoch,
            "kind": pending.kind,
            "logical": pending.logical,
            "now": self.clock.now(),
        }
        self.fencing_rejections.append(record)
        self.bus.publish(dict(record))
        if self.federation.primary is not None:
            self.resolver.submit(
                replace(pending, wal_key=(group_id, seq))
            )

    def _on_election(self, primary: str | None, epoch: int) -> None:
        """A new primary is seated: announce it and replay the WAL."""
        self.bus.publish(
            {
                "type": "election",
                "primary": primary,
                "epoch": epoch,
                "now": self.clock.now(),
            }
        )
        if primary is None:
            return
        resumed = self._resume_incomplete()
        if resumed:
            self.bus.publish(
                {
                    "type": "takeover",
                    "reason": "election",
                    "resumed": resumed,
                    "epoch": epoch,
                    "now": self.clock.now(),
                }
            )

    def _resume_incomplete(self) -> int:
        """Resubmit every WAL intent that never reached a commit."""
        if self.wal is None:
            return 0
        resumed = 0
        for record in self.wal.incomplete():
            self.resolver.submit(
                PendingFailure.from_payload(record.data, wal_key=record.key)
            )
            resumed += 1
        return resumed

    def _record_error(self, pending: PendingFailure, exc: Exception) -> None:
        record: dict[str, object] = {
            "type": "error",
            "kind": pending.kind,
            "logical": pending.logical,
            "detected_at": pending.detected_at,
            "error": type(exc).__name__,
            "detail": str(exc),
        }
        self.errors.append(record)
        self.bus.publish(dict(record))
        self._publish_new_degradations()

    def _publish_new_degradations(self) -> None:
        """Stream controller degradation reports as they appear."""
        reports = self.controller.degradations
        while self._degradations_published < len(reports):
            report = reports[self._degradations_published]
            self._degradations_published += 1
            event = {"type": "degradation"}
            event.update(report.to_dict())
            self.bus.publish(event)

    # ==================================================================
    # observability
    # ==================================================================

    def mark_repaired(self, physical: str) -> None:
        """A repaired switch may fail (and be detected) again."""
        self._handled.discard(physical)

    def latency_summary(self) -> dict[str, float] | None:
        """p50/p99/p999 (and extremes) of decision latency, if any."""
        latencies = [d.latency for d in self.decisions]
        if not latencies:
            return None
        return {
            "p50": percentile(latencies, 0.50),
            "p99": percentile(latencies, 0.99),
            "p999": percentile(latencies, 0.999),
            "mean": sum(latencies) / len(latencies),
            "max": max(latencies),
        }

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for decision in self.decisions:
            counts[decision.outcome] = counts.get(decision.outcome, 0) + 1
        return counts

    def metrics(self) -> dict[str, object]:
        """JSON-safe operational snapshot (the ``GET /metrics`` body)."""
        return {
            "now": self.clock.now(),
            "started": self.started,
            "decisions": len(self.decisions),
            "errors": len(self.errors),
            "detections": len(self.detections),
            "fleet_switches": len(self.fleet),
            "events_published": self.bus.published,
            "resolver": {
                "backlog": self.resolver.backlog,
                "batches_resolved": self.resolver.batches_resolved,
            },
            "heartbeat_queue": self._queue_metrics(self.heartbeats),
            "report_queue": self._queue_metrics(self.reports),
            "latency": self.latency_summary(),
            "outcomes": self.outcome_counts(),
            "federation": {
                "attached": self.federation.attached,
                "primary": self.federation.primary,
                "epoch": self.federation.epoch,
                "fencing_rejections": len(self.fencing_rejections),
                "primary_crashes": len(self.primary_crashes),
            },
            "wal": self.wal.stats() if self.wal is not None else None,
        }

    @staticmethod
    def _queue_metrics(queue: ProbeQueue) -> dict[str, object]:
        snapshot: dict[str, object] = {
            "policy": queue.policy,
            "maxsize": queue.maxsize,
            "depth": len(queue),
        }
        snapshot.update(queue.counters.to_dict())
        return snapshot
