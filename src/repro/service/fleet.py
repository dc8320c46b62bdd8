"""Synthetic fleet registry for load generation.

The controller only knows the physical switches of its ShareBackup
network — a few dozen for the test topologies.  The SLO benchmark needs
*tens of thousands* of heartbeat sources, so the service keeps this
side table for switches the controller does not own.  The registry is
closed: the load generator registers its fleet up front, a heartbeat
from a registered switch stamps its last-seen time, and a heartbeat
from any other name is only counted.  ``POST /heartbeats`` accepts
arbitrary names from any client, so storing unknown names would let
the table grow without bound.  The registry is pure bookkeeping
(liveness map + counters); it exists so the ingest path under benchmark
load does the same per-probe work a real deployment would (lookup +
timestamp write), not so the fleet participates in failover.
"""

from __future__ import annotations

__all__ = ["FleetRegistry"]


class FleetRegistry:
    """Liveness bookkeeping for switches outside the controller's net."""

    def __init__(self) -> None:
        self._last_seen: dict[str, float] = {}
        #: Heartbeats stamped on registered switches.
        self.heartbeats_recorded = 0
        #: Heartbeats from names never registered: counted, not stored.
        self.heartbeats_unknown = 0

    def __len__(self) -> int:
        return len(self._last_seen)

    def __contains__(self, switch: str) -> bool:
        return switch in self._last_seen

    def register(self, switch: str) -> None:
        """Pre-register a switch (its last-seen time starts at 0)."""
        self._last_seen.setdefault(switch, 0.0)

    def register_many(self, prefix: str, count: int) -> list[str]:
        """Register ``count`` switches named ``{prefix}{index}``."""
        names = [f"{prefix}{index}" for index in range(count)]
        for name in names:
            self.register(name)
        return names

    def record(self, switch: str, now: float) -> None:
        """A heartbeat arrived; one from an unregistered name is only
        counted."""
        if switch in self._last_seen:
            self._last_seen[switch] = now
            self.heartbeats_recorded += 1
        else:
            self.heartbeats_unknown += 1

    def last_seen(self, switch: str) -> float | None:
        return self._last_seen.get(switch)
