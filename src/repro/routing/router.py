"""The router interface the fluid simulator drives.

A router decides two things for each flow:

* :meth:`initial_path` — the ECMP pin when the flow starts;
* :meth:`repath` — the replacement path after a failure touches the
  current path (or after a repair makes better paths available).

Returning ``None`` marks the flow disconnected; the simulator stalls it
(rate 0) and asks again after the next topology change.  ``link_load``
gives the current number of flows on every directed segment id so that
load-aware policies ("global optimal rerouting" in the paper's failure
study) can pick the least-loaded alternative.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping

from .paths import Path

__all__ = ["Router", "LoadMap"]

LoadMap = Mapping[int, int]


class Router(ABC):
    """Strategy object: how a network architecture routes and re-routes."""

    #: Human-readable policy name, used in experiment reports.
    name: str = "router"

    @abstractmethod
    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        """Path assigned at flow arrival (honouring current failures)."""

    @abstractmethod
    def repath(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        old_path: Path | None,
        link_load: LoadMap,
    ) -> Path | None:
        """Replacement path after a topology change; ``None`` = disconnected."""

    def on_topology_change(self) -> None:
        """Hook invoked by the simulator after failures/repairs change the
        operational topology (default: nothing to invalidate)."""
